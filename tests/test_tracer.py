"""The perfbench tracer wraps each layer's entry point from outside the
package; a renamed function or parameter would silently blind ``--trace 1``,
and a layer that a benchmark workload stops calling makes its traced run
report ``"correct": false``."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

from affine_homog.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")
BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# between them these three ops reach every layer
OPS = (["verify", "--entry=N1"], ["discover", "--case=I3"],
       ["verify", "--entry=I2"])

# the size of the systems these ops send to the kernel: a change to how the
# tangency systems are assembled should leave every one of them as it was.
# One free solve per jet: N1 solves once (its order-7 algebra restricts
# the order-6 one), discover I3 once, and the normal form I2 once, on its
# base jet (gauged and ungauged families and the completed jet's family are
# restrictions of it); every restriction is one small linear_solve. The
# matcher solves for (b, b^2) once per form it tries on discover I3's
# completed jet: I3 with no equation, then Inr, whose x^4 equation the
# family's symbolic x^4 coefficient makes inconsistent.
SOLVE_COUNTS = {"linalg.linear_solve.calls": 12, "linalg.linear_solve.rows": 48,
                "linalg.linear_solve.cols": 98, "linalg.linear_solve.rank": 42,
                "linalg.linear_solve.max_bits": 3,
                "linalg.linear_solve.parametric_calls": 2,
                "linalg.linear_solve.inconsistent": 1,
                "symmetry.solve_tangency.calls": 3}

# what enters and leaves the closure solver on these ops: a faster solver
# must take the same constraints and return the same bases and solutions
CLOSURE_COUNTS = {"symmetry.closure_constraints.constraints_out": 41,
                  "groebner.buchberger.gens_in": 19,
                  "groebner.buchberger.basis_out": 7,
                  "groebner.solve_zero_dim.points": 0,
                  "groebner.solve_zero_dim.families": 1,
                  "groebner.solve_zero_dim.residual": 0}


def traced_pass(argvs):
    """The per-layer totals of one traced pass over the argvs, each of
    which must exit 0."""
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_pass()
        for argv in argvs:
            tr.begin_op()
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(list(argv)) == 0, argv
            tr.end_op(start, perf_counter())
        return tr.end_pass()
    finally:
        tr.uninstall()


def test_every_layer_is_called_and_counted():
    totals = traced_pass(OPS)
    for layer in tracer.LAYERS:
        assert totals[f"{layer.name}.calls"] > 0, layer.name
        if layer.counts:
            assert any(totals[f"{layer.name}.{c}"] for c in layer.counts), layer.name
    assert {k: totals[k] for k in SOLVE_COUNTS} == SOLVE_COUNTS
    assert {k: totals[k] for k in CLOSURE_COUNTS} == CLOSURE_COUNTS


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_every_layer_a_workload_serves_is_called(workload):
    # the check of a traced benchmark run, on one pass of the workload
    totals = traced_pass(op.argv for op in workloads.build(workload, 1))
    for layer in tracer.LAYERS:
        if workload in layer.serves:
            assert totals[f"{layer.name}.calls"] > 0, layer.name
