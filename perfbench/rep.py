"""One repetition of a workload, in a fresh single Python process.

    python3 perfbench/rep.py --workload NAME --seed N
        [--trace SPANS_FILE | --probe-jobs J | --setup-only]

Times ``import hyprank.cli`` plus the workload's family construction
(setup), then every CLI invocation of the workload through
``hyprank.cli.main(argv)`` with stdout and stderr captured in memory
(solve).  Prints one JSON object: the timings, ``ru_maxrss`` of this
process, and each invocation's exit code and output, which the caller
checks.  With --trace the tracer's wrappers are installed right after the
import and the per-layer figures are added; with --probe-jobs only the
brute-force Nagao leg runs, at that many workers; with --setup-only no
leg runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_leg(cli, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the rows this invocation owed
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS_FILE", default=None,
                    help="install the tracer and write its spans to this file")
    ap.add_argument("--probe-jobs", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    inp = workloads.make_inputs(args.seed)
    if args.setup_only:
        legs = []
    elif args.probe_jobs:
        legs = [workloads.nagao_brute_leg(inp, jobs=args.probe_jobs)]
    else:
        legs = workloads.legs(args.workload, inp)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import hyprank.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    if not args.probe_jobs:
        workloads.setup(args.workload, inp)
    setup_s = import_s + time.perf_counter() - t0

    results = []
    for leg in legs:
        rc, out, err, secs = run_leg(cli, leg.argv)
        results.append({"leg": leg.name, "rc": rc, "stdout": out, "stderr": err[-2000:], "s": secs})

    record = {
        "setup_s": setup_s,
        "solve_s": sum(r["s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "legs": results,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
