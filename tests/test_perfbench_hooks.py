"""The names and call shapes that perfbench/tracer.py and perfbench/workloads.py
rely on: the benchmark reaches into the library by module attribute and by
positional argument, so a rename or a reordered parameter would only show up
as a failed benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from hyprank import _kernels, second_moment
from hyprank.finite_field import PrimeCtx

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracer and workloads modules, imported as run.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("tracer"), importlib.import_module("workloads")
    for name in set(sys.modules) - before:
        if not name.startswith("hyprank"):
            del sys.modules[name]


def test_every_traced_name_resolves(perfbench):
    tracer, _ = perfbench
    for modname, attr, name, mode in tracer.FUNCTIONS:
        assert modname == "hyprank" or modname.startswith("hyprank."), name
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    names = {name for _, _, name, _ in tracer.FUNCTIONS}
    assert set(tracer.HOOKS) <= names


def test_hooked_signatures_hold(perfbench):
    tracer, _ = perfbench
    brute = list(inspect.signature(second_moment._brute).parameters)
    assert brute[3:5] == ["ctx", "include_t0"]
    trace = list(inspect.signature(_kernels.trace_row_vec).parameters)
    assert len(trace) == 2 and trace[1] == "ctx"
    # the hooks read their counts from the arguments the library is called with
    ctx = PrimeCtx(11)
    tr = tracer.Tracer()
    tracer.HOOKS["second_moment.brute"](tr, (5, 2, 0, ctx), {}, 0, None)
    tracer.HOOKS["second_moment.brute"](tr, (5, 2, 0, ctx, False), {}, 0, None)
    tracer.HOOKS["kernels.trace_row_vec"](tr, ([None, None], ctx), {}, [], None)
    assert tr.counts["second_moment.brute.points"] == 11 * 11 + 11 * 10
    assert tr.counts["kernels.trace_row_vec.points"] == 11 * 11


@pytest.mark.parametrize("workload", ["first_moment_dense", "higher_moment_dense",
                                      "closed_form_scan"])
def test_workload_setup_runs(perfbench, workload):
    _, workloads = perfbench
    assert workload in workloads.WORKLOADS
    workloads.setup(workload, workloads.make_inputs(1))
