"""Per-layer tracing installed from outside the program.

Wrappers replace hyprank's module-level functions (and a few class
attributes) after import.  A name bound with ``from .x import y`` lives in
several module namespaces, so each wrapper is written into every hyprank
module whose attribute is the original object.

Every wrapper keeps, per name, the call count, the summed time and the
summed self time (its duration minus the time of traced calls nested in
it).  Functions called fewer than about 10^4 times per run also record one
span each -- name, start, end, parent -- kept in memory and written once at
the end.  The hot scalar functions (``legendre``, ``quadratic_char_sum``,
``mod_pow``, ...) are counters only, and those that call no traced
function ("leaves") get a cheaper wrapper that skips the call stack.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

CLOCK = time.perf_counter

SPAN, COUNT, LEAF = "span", "count", "leaf"

# (module, attribute, metric name, mode)
FUNCTIONS = (
    ("hyprank._kernels", "trace_row_vec", "kernels.trace_row_vec", SPAN),
    ("hyprank._kernels", "horner_vec", "kernels.horner_vec", SPAN),
    ("hyprank._kernels", "powmod_vec", "kernels.powmod_vec", SPAN),
    ("hyprank.curves", "trace_row", "curves.trace_row", SPAN),
    ("hyprank.second_moment", "_brute", "second_moment.brute", SPAN),
    ("hyprank.second_moment", "second_moment_closed", "second_moment.closed", COUNT),
    ("hyprank.second_moment", "bias_report", "second_moment.bias_report", SPAN),
    ("hyprank.polynomials", "root_count_mod", "polynomials.root_count_mod", COUNT),
    ("hyprank.polynomials", "degree_pattern_mod", "polynomials.degree_pattern_mod", COUNT),
    ("hyprank.polynomials", "reduce_mod", "polynomials.reduce_mod", LEAF),
    ("hyprank.polynomials", "mod_pow", "polynomials.mod_pow", LEAF),
    ("hyprank.polynomials", "mod_gcd", "polynomials.mod_gcd", LEAF),
    ("hyprank.polynomials", "parse_bipoly", "polynomials.parse", SPAN),
    ("hyprank.finite_field", "primes_in", "finite_field.primes_in", SPAN),
    ("hyprank.finite_field", "is_prime", "finite_field.is_prime", LEAF),
    ("hyprank.finite_field", "legendre", "finite_field.legendre", LEAF),
    ("hyprank.finite_field", "quadratic_char_sum", "finite_field.quadratic_char_sum", COUNT),
    ("hyprank.moments", "power_sum", "moments.power_sum", SPAN),
    ("hyprank.moments", "predict_first_moment", "moments.predict", COUNT),
    ("hyprank.moments", "nagao_sum", "moments.nagao_sum", SPAN),
    ("hyprank.moments", "sn_witness", "moments.sn_witness", SPAN),
    ("hyprank.oracles", "run_lemma_suites", "oracles.run_lemma_suites", SPAN),
    ("hyprank.oracles", "quadratic_sum_table", "oracles.quadratic_sum_table", SPAN),
    ("hyprank.construction", "build_family", "construction.build_family", SPAN),
    ("hyprank.cli", "main", "cli.main", SPAN),
    ("hyprank.cli", "cmd_moments", "cli.moments", SPAN),
    ("hyprank.cli", "cmd_nagao", "cli.nagao", SPAN),
    ("hyprank.cli", "cmd_second_moment", "cli.second_moment", SPAN),
    ("hyprank.cli", "cmd_verify_lemmas", "cli.verify_lemmas", SPAN),
    ("hyprank.cli", "cmd_sn_witness", "cli.sn_witness", SPAN),
    ("hyprank.cli", "cmd_construct", "cli.construct", SPAN),
)

CLI_SPANS = ("cli.main", "cli.moments", "cli.nagao", "cli.second_moment",
             "cli.verify_lemmas", "cli.sn_witness", "cli.construct")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self.spans: list[tuple] = []       # (id, name, start, end, parent id)
        self.counts: dict[str, int] = {}   # derived counters (points, bytes, ...)
        self.primes_seen: set[int] = set()
        self._stack: list[list] = []       # open calls: [child seconds, span id]
        self._ids = itertools.count()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, mode: str, hook=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        span = mode == SPAN

        def leaf(*args, **kwargs):
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = CLOCK() - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur
                if stack:
                    stack[-1][0] += dur

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = next(ids) if span else parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = CLOCK()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = CLOCK()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans.append((sid, name, t0, t1, parent))
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return leaf if mode == LEAF and hook is None else traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "hyprank" or k.startswith("hyprank.")]
        for modname, attr, name, mode in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, orig, mode, HOOKS.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        ff = sys.modules["hyprank.finite_field"]
        curves = sys.modules["hyprank.curves"]
        ctx_cls = ff.PrimeCtx
        ctx_cls.__init__ = self.wrap("finite_field.prime_ctx", ctx_cls.__init__, COUNT, _ctx_hook)
        build_chi = self.wrap("finite_field.chi", ctx_cls.chi.fget, LEAF)
        plain_chi = ctx_cls.chi.fget

        def chi(ctx):
            return build_chi(ctx) if ctx._chi is None else plain_chi(ctx)

        ctx_cls.chi = property(chi, doc=ctx_cls.chi.__doc__)
        fam_cls = curves.HyperFamily
        fam_cls.__post_init__ = self.wrap("curves.hyperfamily", fam_cls.__post_init__, SPAN)

    def write_spans(self, path) -> None:
        """Write all spans at once, ordered by start time."""
        rows = sorted(self.spans, key=lambda s: s[2])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"id": i, "name": n, "start": a, "end": b, "parent": par} for i, n, a, b, par in rows],
                fh,
            )

    def metrics(self) -> dict[str, float]:
        """Per-layer figures that a single traced repetition yields."""

        def st(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        def rate(num, den):
            return num / den if den else 0.0

        out = {}
        calls, secs, _ = st("kernels.trace_row_vec")
        points = self.counts.get("kernels.trace_row_vec.points", 0)
        out["kernels.trace_row_vec.calls"] = calls
        out["kernels.trace_row_vec.s"] = secs
        out["kernels.trace_row_vec.points"] = points
        out["kernels.trace_row_vec.points_per_s"] = rate(points, secs)
        out["kernels.trace_row_vec.bytes_computed"] = self.counts.get("kernels.trace_row_vec.bytes", 0)
        out["kernels.horner_vec.s"] = st("kernels.horner_vec")[1]
        out["kernels.powmod_vec.s"] = st("kernels.powmod_vec")[1]
        out["curves.trace_row.calls"] = st("curves.trace_row")[0]
        out["curves.trace_row.self_s"] = st("curves.trace_row")[2]
        calls, secs, _ = st("second_moment.brute")
        points = self.counts.get("second_moment.brute.points", 0)
        out["second_moment.brute.calls"] = calls
        out["second_moment.brute.s"] = secs
        out["second_moment.brute.points"] = points
        out["second_moment.brute.points_per_s"] = rate(points, secs)
        out["second_moment.closed.applicable_ratio"] = rate(
            self.counts.get("second_moment.closed.applicable", 0), st("second_moment.closed")[0])
        out["second_moment.bias_report.s"] = st("second_moment.bias_report")[1]
        for fn in ("root_count_mod", "degree_pattern_mod", "reduce_mod"):
            out[f"polynomials.{fn}.calls"] = st(f"polynomials.{fn}")[0]
            out[f"polynomials.{fn}.s"] = st(f"polynomials.{fn}")[1]
        for fn in ("mod_pow", "mod_gcd"):
            out[f"polynomials.{fn}.calls"] = st(f"polynomials.{fn}")[0]
            out[f"polynomials.{fn}.self_s"] = st(f"polynomials.{fn}")[2]
        for fn in ("primes_in", "is_prime", "legendre", "quadratic_char_sum"):
            out[f"finite_field.{fn}.calls"] = st(f"finite_field.{fn}")[0]
            out[f"finite_field.{fn}.s"] = st(f"finite_field.{fn}")[1]
        n_ctx = st("finite_field.prime_ctx")[0]
        out["finite_field.prime_ctx.count"] = n_ctx
        out["finite_field.prime_ctx.per_prime"] = rate(n_ctx, len(self.primes_seen))
        out["finite_field.chi.builds"] = st("finite_field.chi")[0]
        out["finite_field.chi.s"] = st("finite_field.chi")[1]
        for fn in ("power_sum", "predict", "nagao_sum", "sn_witness"):
            out[f"moments.{fn}.self_s"] = st(f"moments.{fn}")[2]
        out["moments.predict.generic_ratio"] = rate(
            self.counts.get("moments.predict.generic", 0), st("moments.predict")[0])
        out["moments.sn_witness.ramified_ratio"] = rate(
            self.counts.get("moments.sn_witness.ramified", 0),
            self.counts.get("moments.sn_witness.scanned", 0))
        out["oracles.run_lemma_suites.self_s"] = st("oracles.run_lemma_suites")[2]
        out["oracles.quadratic_sum_table.s"] = st("oracles.quadratic_sum_table")[1]
        out["oracles.cases"] = self.counts.get("oracles.cases", 0)
        out["construction.build_family.calls"] = st("construction.build_family")[0]
        out["construction.build_family.s"] = st("construction.build_family")[1]
        out["curves.hyperfamily.s"] = st("curves.hyperfamily")[1]
        out["polynomials.parse.s"] = st("polynomials.parse")[1]
        for sub in ("moments", "nagao", "second_moment", "verify_lemmas", "sn_witness", "construct"):
            out[f"cli.{sub}.s"] = st(f"cli.{sub}")[1]
        out["cli.self_s"] = sum(st(name)[2] for name in CLI_SPANS)
        return out


# ---------------------------------------------------------------------------
# hooks: counts taken from a call's arguments or result


def _trace_row_vec_hook(tr, args, kwargs, result, exc):
    rows, ctx = args
    p = ctx.p
    tr.count("kernels.trace_row_vec.points", p * p)
    tr.count("kernels.trace_row_vec.bytes", p * p * bytes_per_point(len(rows)))


def bytes_per_point(n_rows: int) -> int:
    """Bytes of int64/int8 arrays read and written per (t, x) point, computed.

    The first row is broadcast-copied (8 read + 8 written); each further
    Horner step makes a product, a sum and a remainder array (48 bytes);
    the chi gather reads the int64 index and the int8 table entry and
    writes an int8 (10 bytes); the row sum reads that int8 again (1 byte).
    Cache behaviour is not measured.
    """
    return 16 + 48 * (n_rows - 1) + 11


def _brute_hook(tr, args, kwargs, result, exc):
    ctx = args[3]
    include_t0 = args[4] if len(args) > 4 else kwargs.get("include_t0", True)
    p = ctx.p
    tr.count("second_moment.brute.points", p * (p if include_t0 else p - 1))


def _closed_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("second_moment.closed.applicable")


def _predict_hook(tr, args, kwargs, result, exc):
    if exc is None:
        tr.count("moments.predict.generic")


def _sn_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("moments.sn_witness.ramified", result.ramified)
        tr.count("moments.sn_witness.scanned", result.scanned)


def _lemma_hook(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("oracles.cases", sum(r.cases for r in result))


def _ctx_hook(tr, args, kwargs, result, exc):
    tr.primes_seen.add(args[1])


HOOKS = {
    "kernels.trace_row_vec": _trace_row_vec_hook,
    "second_moment.brute": _brute_hook,
    "second_moment.closed": _closed_hook,
    "moments.predict": _predict_hook,
    "moments.sn_witness": _sn_hook,
    "oracles.run_lemma_suites": _lemma_hook,
}
