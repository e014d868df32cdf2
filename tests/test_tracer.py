"""The perfbench tracer wraps each layer's entry point from outside the
package; a renamed function or parameter would silently blind ``--trace 1``."""

import importlib.util
import sys
from pathlib import Path
from time import perf_counter

from affine_homog.cli import run

_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _path)
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# between them these three ops reach every layer
OPS = (["verify", "--entry=N1"], ["discover", "--case=I3"],
       ["verify", "--entry=I2"])

# the size of the systems these ops send to the kernel: a change to how the
# tangency systems are assembled should leave every one of them as it was
SOLVE_COUNTS = {"linalg.linear_solve.calls": 15, "linalg.linear_solve.rows": 257,
                "linalg.linear_solve.cols": 252, "linalg.linear_solve.rank": 207,
                "linalg.linear_solve.max_bits": 4,
                "linalg.linear_solve.parametric_calls": 4,
                "linalg.linear_solve.inconsistent": 0,
                "symmetry.solve_tangency.calls": 15}


def test_every_layer_is_called_and_counted(capsys):
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_pass()
        for argv in OPS:
            tr.begin_op()
            start = perf_counter()
            assert run(argv) == 0
            tr.end_op(start, perf_counter())
        totals = tr.end_pass()
    finally:
        tr.uninstall()
    capsys.readouterr()
    for layer in tracer.LAYERS:
        assert totals[f"{layer.name}.calls"] > 0, layer.name
        if layer.counts:
            assert any(totals[f"{layer.name}.{c}"] for c in layer.counts), layer.name
    assert {k: totals[k] for k in SOLVE_COUNTS} == SOLVE_COUNTS
