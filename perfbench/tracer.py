"""Spans and counts around the public entry points of each layer.

The wrappers are installed from outside the program. Modules that did
``from .x import y`` hold their own reference to ``y``, so every module of
the package that bound an entry point's function object gets the wrapper.

Timing inside a span is only the wrapped call. The counts of a call are
worked out after its op has ended, so computing them costs no op time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from affine_homog.poly import Poly
from affine_homog.scalars import RationalFunc

PACKAGE = "affine_homog"


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix
    module: str
    function: str
    serves: Tuple[str, ...]  # workloads on which a zero call count is a fault
    moves: Tuple[str, ...]  # end-to-end metrics a change here should move
    counts: Tuple[str, ...] = ()
    # call arguments (bound by name), result, unwrapped function -> counts
    count: Optional[Callable[[Dict[str, object], object, Callable], Dict[str, int]]] = None


def _has_poly(values) -> bool:
    return any(isinstance(v, Poly) for v in values)


def _tangency_counts(a, res, fn):
    field = a["V"]
    coeffs = [x for row in field.A for x in row] + list(field.v)
    symbolic = _has_poly(coeffs) or _has_poly(a["F"].poly.terms.values())
    return {"terms_out": len(res.poly.terms), "symbolic_calls": int(symbolic)}


def _bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return abs(c).bit_length()
    return max((_bits(x) for x in (*c.num, *c.den)), default=0)


def _linear_solve_counts(a, res, fn):
    eqs, cols = a["equations"], len(a["unknowns"])
    coeffs = [c for eq in eqs for c in (*eq.coeffs.values(), eq.rhs)]
    out = {"rows": len(eqs), "cols": cols,
           "max_bits": max(map(_bits, coeffs), default=0),
           "parametric_calls": int(any(isinstance(c, RationalFunc) for c in coeffs)),
           "inconsistent": int(res is None)}
    if res is not None:
        # the rank of an inconsistent system is not visible from outside
        out["rank"] = cols - len(res.free)
        out["consistent_rows"] = len(eqs)
    return out


def _rendered_bytes(a, res, fn):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn(a["obj"], a["fmt"])
    return {"bytes": len(buf.getvalue().encode("utf-8"))}


ALL = ("catalog-sweep", "dense-images", "discover-cases", "normal-forms")

LAYERS = (
    Layer("frontend.parse_surface", "frontend", "parse_surface",
          ("catalog-sweep", "dense-images"), ("op_p50_s",)),
    Layer("frontend.expand_graph", "frontend", "expand_graph",
          ("catalog-sweep", "dense-images"), ("op_p50_s", "ops_per_s"),
          ("order_sum", "terms_out"),
          lambda a, res, fn: {"order_sum": a["order"],
                              "terms_out": len(res.poly.terms)}),
    Layer("normalize.normalize_jet", "normalize", "normalize_jet",
          ("catalog-sweep",), ("ops_per_s",)),
    Layer("symmetry.tangency_residual", "symmetry", "tangency_residual",
          ALL, ("op_tail_s", "ops_per_s"),
          ("terms_out", "symbolic_calls"), _tangency_counts),
    Layer("symmetry.solve_tangency", "symmetry", "solve_tangency",
          ("catalog-sweep", "dense-images", "normal-forms"), ("ops_per_s",)),
    Layer("symmetry.full_algebra", "symmetry", "full_algebra",
          ("catalog-sweep", "dense-images", "normal-forms"), ("ops_per_s",),
          ("basis_dim_sum",), lambda a, res, fn: {"basis_dim_sum": len(res.basis)}),
    Layer("symmetry.reduce_against_span", "symmetry", "reduce_against_span",
          ("catalog-sweep", "dense-images", "normal-forms"), ("op_p50_s",)),
    Layer("symmetry.closure_constraints", "symmetry", "closure_constraints",
          ("discover-cases",), ("ops_per_s",),
          ("constraints_out",), lambda a, res, fn: {"constraints_out": len(res)}),
    Layer("symmetry.complete_series", "symmetry", "complete_series",
          ("discover-cases", "normal-forms"), ("ops_per_s",),
          ("orders_completed",),
          lambda a, res, fn: {"orders_completed": a["M"] - a["f"].order}),
    Layer("linalg.linear_solve", "linalg", "linear_solve",
          ALL, ("ops_per_s", "op_tail_s"),
          ("rows", "cols", "rank", "rank_ratio", "max_bits", "parametric_calls",
           "inconsistent"), _linear_solve_counts),
    Layer("groebner.solve_zero_dim", "groebner", "solve_zero_dim",
          ("discover-cases",), ("ops_per_s", "op_tail_s"),
          ("points", "families", "residual"),
          lambda a, res, fn: {"points": len(res.points),
                              "families": len(res.families),
                              "residual": len(res.residual)}),
    Layer("groebner.buchberger", "groebner", "buchberger",
          ("discover-cases",), ("ops_per_s",),
          ("gens_in", "basis_out"),
          lambda a, res, fn: {"gens_in": len(a["gens"]), "basis_out": len(res)}),
    Layer("cli.render", "cli", "_emit", ALL, ("op_p50_s",),
          ("bytes",), _rendered_bytes),
)

# counts combined by maximum; every other count is summed
MAX_COUNTS = {"max_bits"}


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer.name}.calls", f"{layer.name}.self_s"]
        names += [f"{layer.name}.{c}" for c in layer.counts]
    return names + ["unattributed_s", "trace_overhead"]


def layer_map() -> List[str]:
    """One line per layer: its entry point, the workloads it serves, the
    end-to-end metrics a change there should move, and its extra counts."""
    return [f"{layer.name}  entry {layer.module}.{layer.function}"
            f"  serves {','.join(layer.serves)}  moves {','.join(layer.moves)}"
            f"  counts {','.join(('calls', 'self_s') + layer.counts)}"
            for layer in LAYERS]


UNITS = {"calls": "count", "self_s": "s", "rank_ratio": "ratio",
         "max_bits": "bits", "bytes": "bytes", "unattributed_s": "s",
         "trace_overhead": "ratio"}


def units() -> Dict[str, str]:
    """Unit of each per-layer metric; counts not named in UNITS are counts."""
    return {name: UNITS.get(name.rsplit(".", 1)[-1], "count")
            for name in metric_names()}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float


class TraceError(RuntimeError):
    """The spans of an op do not nest or do not add up to its wall time."""


class Tracer:
    """Records spans of wrapped layer calls and totals them per pass.

    Use ``install``/``uninstall`` around traced passes, ``begin_op`` and
    ``end_op`` around each op, and ``begin_pass``/``end_pass`` around each
    pass; ``end_pass`` returns that pass's per-layer totals.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._op_start = 0
        self._calls: List[tuple] = []  # (layer, (args, kwargs, result) or None)
        self._patched: List[tuple] = []
        self._originals: Dict[str, Callable] = {}
        self._signatures: Dict[str, inspect.Signature] = {}
        self._totals: Dict[str, float] = {}

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{layer.module}"),
                               layer.function)
            self._originals[layer.name] = original
            self._signatures[layer.name] = inspect.signature(original)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1]
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, layer, start, None)
                raise
            tracer._close(sid, parent, layer, start, (args, kwargs, result))
            return result

        return wrapper

    def _close(self, sid, parent, layer, start, call) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, self._op, layer.name, start, end)
        self._calls.append((layer, call))

    # -- ops and passes ------------------------------------------------------

    def begin_pass(self) -> None:
        self._totals = {name: 0 for name in metric_names() if name != "trace_overhead"}
        self._totals.update({f"{layer.name}.consistent_rows": 0
                             for layer in LAYERS if "rank_ratio" in layer.counts})

    def begin_op(self) -> None:
        self._op += 1
        self._op_start = len(self.spans)
        self.spans.append(None)  # the op's root span, filled by end_op
        self._stack = [self._op_start]
        self._calls = []

    def end_op(self, start: float, end: float) -> None:
        """Close the op's root span on the op's own timing, then add the
        op's self times and counts to the pass totals."""
        root = self._op_start
        if self._stack != [root]:
            raise TraceError("a layer span is still open at the end of an op")
        self.spans[root] = Span(root, None, self._op, "op", start, end)
        spans = self.spans[root:]
        child = [0.0] * len(spans)
        for span in spans[1:]:
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                raise TraceError(f"span {span.name} lies outside its parent")
            child[span.parent - root] += span.end - span.start
        self_s = [s.end - s.start - c for s, c in zip(spans, child)]
        if min(self_s) < -1e-9:
            raise TraceError("negative self time")
        unattributed = self_s[0]
        layer_self = sum(self_s[1:])
        if abs(layer_self + unattributed - (end - start)) > 1e-9:
            raise TraceError("self times and unattributed time do not add up "
                             "to the op's wall time")
        totals = self._totals
        totals["unattributed_s"] += unattributed
        for span, own in zip(spans[1:], self_s[1:]):
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.self_s"] += own
        for layer, call in self._calls:
            if call is None or layer.count is None:
                continue
            args, kwargs, result = call
            bound = self._signatures[layer.name].bind(*args, **kwargs)
            bound.apply_defaults()
            counts = layer.count(bound.arguments, result, self._originals[layer.name])
            for name, value in counts.items():
                key = f"{layer.name}.{name}"
                if name in MAX_COUNTS:
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
        self._calls = []

    def end_pass(self) -> Dict[str, float]:
        totals = dict(self._totals)
        for layer in LAYERS:
            if "rank_ratio" in layer.counts:
                rows = totals.pop(f"{layer.name}.consistent_rows")
                rank = totals[f"{layer.name}.rank"]
                totals[f"{layer.name}.rank_ratio"] = rank / rows if rows else 0.0
        return totals

    def dump(self) -> dict:
        """All spans, as written out when the run ends."""
        return {"fields": ["id", "parent", "op", "name", "start", "end"],
                "spans": [[s.id, s.parent, s.op, s.name, s.start, s.end]
                          for s in self.spans]}
