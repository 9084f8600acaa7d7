"""hyprank benchmark: three workloads through the public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition is a fresh
single Python process (perfbench/rep.py) running every CLI invocation of
the workload with --jobs 1; each is followed by a few processes that only
set up.  Repetitions repeat until S seconds have passed (at least three);
every output of every repetition is checked
against the independent references in perfbench/checks.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the repetitions.  --trace 1 runs untraced repetitions for half of S, then
one traced repetition, then the pool probe (the first_moment_dense brute
Nagao leg at --jobs 1 and at --jobs nproc), and reports the per-layer
metrics.  The last line of stdout is the result object; the line before
it holds the details (samples, quartiles, machine facts, failures).
Spans of the traced repetition go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
MIN_REPS_TRACED = 2
# Set-up is short and noisy, so each full repetition is followed by this
# many processes that only set up; setup_s is the median over all of them.
SETUP_ONLY_PER_REP = 5
REP_TIMEOUT_S = 150
CHUNK_ROWS = 128  # rows per block in the program's dense kernel


def run_rep(workload: str, seed: int, *extra: str) -> dict | None:
    """One repetition in a fresh process; None if it produced no record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {REP_TIMEOUT_S} s: {cmd}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"repetition printed no record:\n{proc.stdout[-1000:]}", file=sys.stderr)
        return None


class Checker:
    """Checks each repetition's outputs and totals the operations."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reps_lost = 0

    def check(self, legs, rec: dict | None) -> None:
        if rec is None:
            self.reps_lost += 1
        outputs = rec["legs"] if rec else [None] * len(legs)
        for leg, out in zip(legs, outputs):
            tally = leg.check(out["rc"], out["stdout"]) if out else leg.check(1, "")
            self.ops += tally.ops
            self.failed += tally.failed
            for msg in tally.messages:
                if len(self.messages) < 10:
                    self.messages.append(f"{leg.name}: {msg}")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0]
        return {"q1": v, "median": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def leg_medians(reps: list[dict]) -> dict[str, float]:
    names = [leg["leg"] for leg in reps[0]["legs"]]
    return {n: statistics.median(r["legs"][i]["s"] for r in reps) for i, n in enumerate(names)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src" / "hyprank"
    if not (src / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no hyprank sources under {src} (run from a checkout root)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    compileall.compile_dir(str(src), quiet=1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    inp = workloads.make_inputs(args.seed)
    legs = workloads.legs(args.workload, inp)
    facts = machine.facts()
    checker = Checker()
    reps: list[dict] = []
    setup_samples: list[float] = []
    start = time.perf_counter()
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    min_reps = MIN_REPS if args.trace == 0 else MIN_REPS_TRACED
    attempts = 0
    while attempts < min_reps or time.perf_counter() - start < budget:
        attempts += 1
        rec = run_rep(args.workload, args.seed)
        checker.check(legs, rec)
        if rec is not None:
            reps.append(rec)
            setup_samples.append(rec["setup_s"])
        for _ in range(SETUP_ONLY_PER_REP):
            rec = run_rep(args.workload, args.seed, "--setup-only")
            checker.check([], rec)
            if rec is not None:
                setup_samples.append(rec["setup_s"])
    if not reps:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    samples = {key: [r[key] for r in reps] for key in ("solve_s", "peak_rss_mb")}
    samples["setup_s"] = setup_samples
    values = {key: statistics.median(v) for key, v in samples.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {k: v for k, v in vars(inp).items() if k != "seed"},
        "machine": facts,
        "repetitions": len(reps),
        "samples": {key: {"n": len(v), **quartiles(v)} for key, v in samples.items()},
        "leg_median_s": leg_medians(reps),
        "chunk_working_set_bytes": {
            leg.name: CHUNK_ROWS * leg.dense_p * 8 for leg in legs if leg.dense_p
        },
        "L2_bytes": facts["cache_bytes"].get("L2"),
    }

    if args.trace == 1:
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        traced = run_rep(args.workload, args.seed, "--trace", str(spans_path))
        checker.check(legs, traced)
        jobs = max(1, facts["nproc"])
        probe_s = []
        for j in (1, jobs):
            rec = run_rep(args.workload, args.seed, "--probe-jobs", str(j))
            checker.check([workloads.nagao_brute_leg(inp, jobs=j)], rec)
            probe_s.append(rec["solve_s"] if rec else 0.0)
        if traced is None:
            print("error: the traced repetition did not complete", file=sys.stderr)
            return 1
        t1, tj = probe_s
        values.update(traced["layers"])
        values["moments.pool.jobs"] = jobs
        values["moments.pool.s"] = tj
        values["moments.pool.efficiency"] = t1 / (jobs * tj) if tj else 0.0
        values["trace.overhead_frac"] = traced["solve_s"] / values["solve_s"] - 1.0
        detail["traced_solve_s"] = traced["solve_s"]
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    values["ops"] = checker.ops
    values["fail_frac"] = checker.failed / checker.ops if checker.ops else 1.0
    detail["ops"] = checker.ops
    detail["failed"] = checker.failed
    detail["failures"] = checker.messages
    detail["repetitions_lost"] = checker.reps_lost

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": checker.failed == 0 and checker.reps_lost == 0,
        "attempted": checker.ops,
        "failed": checker.failed,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
