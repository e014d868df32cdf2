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
