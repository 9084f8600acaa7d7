"""Shows that the output checks catch wrong rows.

    python3 perfbench/selftest.py [--seed N]

Runs every leg of every workload once in this process, checks that each
real output passes, then corrupts one row (or one field of a JSON report)
of each output and checks that exactly that is reported as failed, and
that a nonzero exit or an unparsable output fails every row the
invocation owed.  Exits 1 if any leg's check does not behave so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import rep  # noqa: E402
import workloads  # noqa: E402


def _bump(text: str) -> str:
    """Add one to an integer given as text, keeping it text."""
    return str(int(text) + 1)


def _csv_field(out: str, row: int, col: int, fn) -> str:
    lines = out.split("\n")
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _json_edit(out: str, fn) -> str:
    obj = json.loads(out)
    fn(obj)
    return json.dumps(obj)


def _census(obj):
    key = next(iter(obj["census"]))
    obj["census"][key] += 1


def _point(obj):
    y = obj["construction"]["points"][0]["y"]
    y[0] = _bump(y[0])


def _bias(obj):
    obj["rows"][0]["pA2"] = _bump(obj["rows"][0]["pA2"])


CORRUPT = {
    "nagao_brute": lambda o: _csv_field(o, 1, 1, lambda v: repr(float(v) * (1 + 1e-6))),
    "nagao_predicted": lambda o: _csv_field(o, 1, 1, lambda v: repr(float(v) * (1 + 1e-6))),
    "linear_twist_r1": lambda o: _csv_field(o, 1, 2, _bump),
    "big_rank_r1": lambda o: _csv_field(o, 1, 2, _bump),
    "big_rank_r2": lambda o: _csv_field(o, 1, 2, _bump),
    "second_moment_3_1500": lambda o: _csv_field(o, 1, 1, _bump),
    "second_moment_10000_10010": lambda o: _csv_field(o, 1, 1, _bump),
    "bias": lambda o: _json_edit(o, _bias),
    "verify_lemmas": lambda o: o.replace("PASS", "FAIL", 1),
    "sn_witness": lambda o: _json_edit(o, _census),
    "construct_seeded": lambda o: _json_edit(o, _point),
    "construct_published": lambda o: _json_edit(o, _point),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    import hyprank.cli as cli

    inp = workloads.make_inputs(args.seed)
    bad = 0
    for workload in workloads.WORKLOADS:
        for leg in workloads.legs(workload, inp):
            rc, out, err, _ = rep.run_leg(cli, leg.argv)
            good = leg.check(rc, out)
            broken = leg.check(rc, CORRUPT[leg.name](out))
            crashed = leg.check(1, "")
            garbled = leg.check(0, "not an output")
            ok = (
                good.failed == 0
                and broken.failed == 1
                and crashed.failed == crashed.ops == good.ops
                and garbled.failed == garbled.ops == good.ops
            )
            bad += not ok
            print(
                f"{'ok ' if ok else 'BAD'} {leg.name}: {good.ops} ops, "
                f"corrupted -> {broken.failed} failed, crashed -> {crashed.failed} failed, "
                f"garbled -> {garbled.failed} failed"
                + ("" if ok else f"  {good.messages or broken.messages} {err[-300:]}")
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
