import contextlib
import importlib.util
import io
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from affine_homog import catalog, frontend
from affine_homog.cli import run
from affine_homog.frontend import (GRAPH_VARS, MAX_DEPTH, MAX_DIGITS,
                                   MAX_EXPONENT, DomainError, ParseError,
                                   _ambient_images, _Parser, eval_jet,
                                   expand_graph, parse_surface,
                                   taylor_primitive)
from affine_homog.jets import Jet, solve_series
from affine_homog.poly import Poly
from affine_homog.scalars import InputError, parse_rational

Y = Poly.var("y")


def sympy_graph_jet(expr, order):
    """Taylor coefficients of a sympy expression in x, y, z about 0."""
    x, y, z = sp.symbols("x y z")
    e = sp.expand(expr.series(x, 0, order + 1).removeO()
                  .series(y, 0, order + 1).removeO()
                  .series(z, 0, order + 1).removeO())
    out = {}
    for term in sp.Add.make_args(e):
        c, monos = term.as_coeff_Mul()
        p = sp.Poly(monos, x, y, z)
        (m,) = p.monoms()
        if sum(m) <= order:
            out[m] = sp.Rational(sp.nsimplify(c * p.coeffs()[0]))
    return {m: F(int(c.p), int(c.q)) for m, c in out.items() if c != 0}


def jet_terms(j: Jet):
    return {m: c for m, c in j.poly.terms.items()}


def test_spec_example_sphere_two_jet():
    spec = parse_surface("W^2 = X*Y + Z^2 + 1", ("1", "0", "0", "0"))
    j = expand_graph(spec, 2)
    assert jet_terms(j) == {(1, 1, 0): F(1, 2), (0, 0, 2): F(1, 2)}


def test_exp_surface_matches_sympy():
    spec = parse_surface("W = X*Y + exp(Z)", ("1", "0", "0", "0"))
    j = expand_graph(spec, 6)
    x, y, z = sp.symbols("x y z")
    expect = sympy_graph_jet(x * y + sp.exp(z) - 1, 6)
    assert jet_terms(j) == expect


def test_log_surface_matches_sympy():
    spec = parse_surface("W = X*Y + log(Z)", ("0", "0", "0", "1"))
    j = expand_graph(spec, 6)
    x, y, z = sp.symbols("x y z")
    expect = sympy_graph_jet(x * y + sp.log(1 + z), 6)
    assert jet_terms(j) == expect


def test_rational_power_matches_sympy():
    spec = parse_surface("W = X*Y + Z^alpha", ("1", "0", "0", "1"),
                         alpha="12/5")
    j = expand_graph(spec, 5)
    x, y, z = sp.symbols("x y z")
    expect = sympy_graph_jet(x * y + (1 + z) ** sp.Rational(12, 5) - 1, 5)
    assert jet_terms(j) == expect


def test_implicit_w_matches_sympy():
    # W^2 = X*Y + exp(Z) about (1,0,0,0): w = sqrt(1 + xy + e^z - 1) - 1
    spec = parse_surface("W^2 = X*Y + exp(Z)", ("1", "0", "0", "0"))
    j = expand_graph(spec, 5)
    x, y, z = sp.symbols("x y z")
    expect = sympy_graph_jet(sp.sqrt(x * y + sp.exp(z)) - 1, 5)
    assert jet_terms(j) == expect


def test_negative_exponent_and_parenthesized():
    spec = parse_surface("W = (4*X*Y + 2*Z^2 - 5*X*Z^2)*(2 - X)^(-1)",
                         ("0", "0", "0", "0"))
    j = expand_graph(spec, 4)
    x, y, z = sp.symbols("x y z")
    expect = sympy_graph_jet((4 * x * y + 2 * z ** 2 - 5 * x * z ** 2)
                             / (2 - x), 4)
    assert jet_terms(j) == expect


def graph_residual(spec, w: Jet) -> Jet:
    """Substitute a graph jet back into the defining equation."""
    return eval_jet(spec.residual, _ambient_images(spec.basepoint, w),
                    w.order, spec.alpha)


def test_graph_residual_vanishes():
    spec = parse_surface("W*Z = X*Y + Z*log(Z)", ("0", "0", "0", "1"))
    j = expand_graph(spec, 6)
    assert graph_residual(spec, j).is_zero()


def test_taylor_primitive_oracles():
    # exp about 0, log about 1, rational power about 1
    e = taylor_primitive("exp", F(0), 4)
    assert [e.poly.coefficient((k,)) for k in range(5)] == \
        [F(1), F(1), F(1, 2), F(1, 6), F(1, 24)]
    l = taylor_primitive("log", F(1), 4)
    assert [l.poly.coefficient((k,)) for k in range(5)] == \
        [F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4)]
    p = taylor_primitive("pow", F(4), 3, exponent=F(1, 2))
    assert [p.poly.coefficient((k,)) for k in range(4)] == \
        [F(2), F(1, 4), F(-1, 64), F(1, 512)]


def test_pow_primitive_takes_only_non_integer_exponents():
    # eval_jet computes integer powers and refuses a negative one at 0
    for e in (None, F(2), F(-1), F(0)):
        with pytest.raises(ValueError, match="non-integer exponent"):
            taylor_primitive("pow", F(1), 3, exponent=e)
    with pytest.raises(DomainError, match="negative power at center 0"):
        parse_surface("W = X*Y + Z^(-2)", ("0", "0", "0", "0"))


def test_basepoint_validation():
    with pytest.raises(ValueError):
        parse_surface("W = X*Y + Z^2", ("1", "0", "0", "0"))
    with pytest.raises(ValueError):
        parse_surface("W = X*Y + Z^2", ("0", "0", "0"))


def test_alpha_required_when_used():
    with pytest.raises(ValueError):
        parse_surface("W = X*Y + Z^alpha", ("1", "0", "0", "1"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_surface("W = X*Y +", ("0", "0", "0", "0"))
    with pytest.raises(ParseError):
        parse_surface("W ** 2 = X", ("0", "0", "0", "0"))


def test_depth_bound():
    # brackets nest at most MAX_DEPTH deep, and the tree W - rhs, one level
    # above the n levels of a flat n-term sum, is at most MAX_DEPTH deep
    origin = ("0", "0", "0", "0")
    bracketed = lambda n: "W = " + "(" * n + "X" + ")" * n
    flat = lambda n: "W = " + "+".join(["X"] * n)
    parse_surface(bracketed(MAX_DEPTH), origin)
    parse_surface(flat(MAX_DEPTH - 1), origin)
    with pytest.raises(ParseError, match="brackets nest deeper"):
        parse_surface(bracketed(MAX_DEPTH + 1), origin)
    with pytest.raises(ParseError, match="tree deeper"):
        parse_surface(flat(MAX_DEPTH), origin)


def test_constant_budget():
    # literals of MAX_DIGITS digits and exponents of MAX_EXPONENT parse, and
    # so do nested powers whose numerators multiply to MAX_EXPONENT; one
    # more digit, one more in an exponent, or a larger product is refused
    origin = ("0", "0", "0", "0")
    digits = lambda n: "W = X + 0*" + "1" * (n // 2) + "/" + "1" * (n - n // 2)
    parse_surface(digits(MAX_DIGITS), origin)
    with pytest.raises(ParseError, match="literal longer"):
        parse_surface(digits(MAX_DIGITS + 1), origin)
    for e in (f"{MAX_EXPONENT}", f"(-{MAX_EXPONENT})", f"(1/{MAX_EXPONENT})"):
        parse_surface(f"W = X + 0*(1+Y)^{e}", origin)
    for e in (f"{MAX_EXPONENT + 1}", f"(-{MAX_EXPONENT + 1})",
              f"(1/{MAX_EXPONENT + 1})"):
        with pytest.raises(ParseError, match="past the budget"):
            parse_surface(f"W = X + 0*(1+Y)^{e}", origin)
    half = MAX_EXPONENT // 2
    parse_surface(f"W = X + 0*((1+Y)^{half})^2", origin)
    parse_surface(f"W = X + 0*((1+Y)^{half})^0", origin)
    for nested in (f"((1+Y)^{half})^3", f"((1+Y)^{half}*Z^2)^(-3/2)",
                   f"exp((1+Y)^{half})^3"):
        with pytest.raises(ParseError, match="nested powers"):
            parse_surface(f"W = X + 0*{nested}", origin)
    # the two sides are one residual: siblings do not multiply
    parse_surface(f"W + 0*Y^{MAX_EXPONENT} = X + 0*Z^{MAX_EXPONENT}", origin)


def test_power_budget():
    # an exact constant power is computed while its numerator and
    # denominator stay within MAX_POWER_DIGITS digits, and refused past that
    # before it is computed, whatever the size of the exponent
    limit = 10 ** frontend.MAX_POWER_DIGITS
    k = limit.bit_length() - 1  # 2^k < limit < 2^(k+1)
    for c, p in ((F(2), k), (F(1, 2), -k), (F(-1, 2), k),
                 (F(10 ** MAX_DIGITS - 1), MAX_EXPONENT),
                 (F(1), 10 ** 100), (F(-1), -10 ** 100), (F(0), 10 ** 100)):
        frontend._check_power(c, p)
    for c, p in ((F(2), k + 1), (F(1, 2), -k - 1), (F(3, 2), k + 1),
                 (F(10 ** MAX_DIGITS), MAX_EXPONENT), (F(2), 10 ** 100)):
        with pytest.raises(InputError, match="constant power"):
            frontend._check_power(c, p)
    # the same edge reached through an alpha exponent and a basepoint
    surface = "W = X*Y + Z^alpha - Z^alpha"
    parse_surface(surface, ("0", "0", "0", "2"), alpha=F(k))
    with pytest.raises(InputError, match="constant power"):
        parse_surface(surface, ("0", "0", "0", "2"), alpha=F(k + 1))
    big = "9" * frontend.MAX_POWER_DIGITS
    parse_surface("W = X*Y + Z - Z", ("0", "0", "0", big))
    with pytest.raises(InputError, match="constant power"):
        parse_surface("W = X*Y + Z^2 - Z^2", ("0", "0", "0", big))


def test_log_domain_error():
    with pytest.raises(DomainError):
        spec = parse_surface("W = X*Y + log(Z)", ("0", "0", "0", "0"))
        expand_graph(spec, 3)


@pytest.mark.parametrize("text, basepoint", [
    ("W = X^(-1)", "0,0,0,0"),    # zero to a negative power
    ("W = log(X)", "0,2,0,0"),    # log has an exact value only at 1
    ("W = X^(1/2)", "0,-1,0,0"),  # root of a negative number
    ("W = exp(X)", "1,1,0,0"),    # exp has an exact value only at 0
    ("W^2 = X", "0,0,0,0"),       # zero w-slope: not a graph over x, y, z
])
def test_domain_errors_are_domain_errors(text, basepoint, capsys):
    with pytest.raises(DomainError):
        expand_graph(parse_surface(text, basepoint.split(",")), 4)
    assert run(["expand", "--surface", text, "--basepoint", basepoint]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_zero_power_at_zero_base_is_one():
    spec = parse_surface("W = X^0 - 1 + Y", ("0", "0", "0", "0"))
    assert expand_graph(spec, 3).poly == Y


def test_expansion_solves_for_w_with_rational_slope():
    # 2W - W^2 = X*Y + Z^2: slope 2, the square-root branch through 0
    spec = parse_surface("2*W - W^2 = X*Y + Z^2", ("0", "0", "0", "0"))
    j = expand_graph(spec, 6)
    assert j.order == 6 and graph_residual(spec, j).is_zero()
    x, y, z = sp.symbols("x y z")
    assert jet_terms(j) == sympy_graph_jet(1 - sp.sqrt(1 - x * y - z ** 2), 6)


# -- the W-free side, evaluated once ----------------------------------------------

def _alpha_pool():
    """The benchmark's alpha values per parametric catalog entry."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALPHA_POOL


def chord_oracle(spec, order):
    """The graph jet by the chord iteration that evaluates the whole
    equation at every step."""
    w1 = Jet(Poly.var("w", ("x", "y", "z", "w")), 1)
    slope = graph_residual(spec, w1).poly.coefficient((0, 0, 0, 1))
    return solve_series(lambda w: graph_residual(spec, w), slope,
                        Jet.zero(0), order)


ORACLE_SURFACES = (
    [(e.surface, e.basepoint, parse_rational(a) if a else None)
     for eid, e in catalog.catalog().items()
     for a in _alpha_pool().get(eid, (None,))]
    + [(text, tuple(map(parse_rational, bp)), None)
       for text, bp in catalog.VARIANTS.values()]
    # W under a negative power, and under a power on both sides
    + [("W*(1 + W)^(-1) = X*Y + Z^2", (F(0),) * 4, None),
       ("(2 + W)^2 = 4 + X*Y + (1 + W)^3*Z^2 + W", (F(0),) * 4, None)]
    # W under log, a non-integer power and an alpha power
    + [("2*W = X*Y + Z^2 + log(1 + W)", (F(0),) * 4, None),
       ("(1 + W)^(1/2) = 1 + X*Y + Z^2", (F(0),) * 4, None),
       ("(1 + W)^alpha = 1 + X*Y + Z^2", (F(0),) * 4, F(3, 2)),
       ("(1 + W)^alpha = 1 + X*Y + Z^2", (F(0),) * 4, F(-2))])


@pytest.mark.parametrize("text, basepoint, alpha", ORACLE_SURFACES)
def test_expansion_equals_the_whole_equation_chord_oracle(text, basepoint,
                                                          alpha):
    spec = parse_surface(text, basepoint, alpha)
    got, want = expand_graph(spec, 7), chord_oracle(spec, 7)
    assert got == want and got.to_json() == want.to_json()


@pytest.mark.parametrize("eid", ["N8", "N10"])
@pytest.mark.parametrize("order", [4, 8])
def test_primitives_are_composed_once_per_expansion(eid, order, monkeypatch):
    """The slope's 1-jet and the W-free side at the full order compose
    the primitive; no chord step composes it again."""
    e = catalog.catalog()[eid]
    spec = parse_surface(e.surface, e.basepoint)
    calls = []
    compose = frontend._compose_primitive
    monkeypatch.setattr(frontend, "_compose_primitive",
                        lambda *a, **k: calls.append(1) or compose(*a, **k))
    expand_graph(spec, order)
    assert len(calls) <= 2


# -- grammar fuzz through the command line -----------------------------------------

LEAVES = ("W", "X", "Y", "Z", "alpha", "0", "1", "2", "3", "1/2", "3/2")
EXPONENTS = ("2", "3", "(-1)", "(1/2)", "(-3/2)", "alpha", "0")
BASE_COORDS = ("0", "1", "2", "-1", "1/2")


def surface_exprs(depth):
    """Expressions of the surface grammar at most ``depth`` operations
    deep, each operation bracketed."""
    leaves = st.sampled_from(LEAVES)
    if depth == 0:
        return leaves
    sub = surface_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.sampled_from(EXPONENTS)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(("exp", "log")), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda e: f"(-{e})"))


def residual_at(text, basepoint, alpha):
    """The residual of an equation at a basepoint, or None where it is
    not defined."""
    try:
        tree = _Parser(text).parse_equation()
        at_bp = _ambient_images(tuple(map(parse_rational, basepoint)),
                                Jet.zero(0, GRAPH_VARS))
        return eval_jet(tree, at_bp, 0,
                        alpha and parse_rational(alpha)).poly.constant_term()
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(("", "W + ")), surface_exprs(4), surface_exprs(4),
       st.tuples(*[st.sampled_from(BASE_COORDS)] * 4),
       st.sampled_from((None, "2", "3/2", "-1", "1/2")),
       st.sampled_from(("expand", "symmetry", "normalize")), st.booleans())
def test_grammar_fuzz_exits_cleanly(w, lhs, rhs, basepoint, alpha, command,
                                    shift):
    """A drawn equation exits 0, 1 or 2 and raises nothing. Half the draws
    move the rhs by the residual at the basepoint, so that they pass the
    basepoint check, and half add W to the lhs, so that more of them have
    a w-slope."""
    lhs = w + lhs
    text = f"{lhs} = {rhs}"
    val = residual_at(text, basepoint, alpha) if shift else None
    if val and len(str(val)) <= MAX_DIGITS:
        text = f"{lhs} = {rhs} + ({val})"
    argv = [command, f"--surface={text}", f"--basepoint={','.join(basepoint)}",
            "--order=3"] + ([f"--alpha={alpha}"] if alpha else [])
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
