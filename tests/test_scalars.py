from fractions import Fraction as F
from math import gcd

import pytest
import sympy as sp
from hypothesis import given, seed, settings, strategies as st

from affine_homog.linalg import _pivot_size
from affine_homog.scalars import (RationalFunc, ScalarError, Tower, TowerElement,
                                  parse_rational, ratfunc_sqrt,
                                  rational_nth_root, rational_sqrt)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(" 7 ") == F(7)
    for text in ("x", "1e10000000", "3/4E2", "1.5e-9"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_rational_roots():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_nth_root(F(8, 27), 3) == F(2, 3)
    assert rational_nth_root(F(2), 3) is None


class TestRationalFunc:
    def test_normalization_lowest_terms_monic_den(self):
        r = RationalFunc((F(2), F(2)), (F(4), F(4)))  # (2+2b)/(4+4b) = 1/2
        assert r.is_constant() and r.as_fraction() == F(1, 2)
        r = RationalFunc((F(0), F(2)), (F(0), F(0), F(2)))  # 2b / 2b^2 = 1/b
        assert r.num == (F(1),) and r.den == (F(0), F(1))

    def test_field_ops(self):
        b = RationalFunc.gen()
        r = (b + 1) / (b - 1)
        assert r * (b - 1) == b + 1
        assert r - r == RationalFunc.const(0)
        assert (r ** 2) == r * r
        assert 1 / r == (b - 1) / (b + 1)
        assert (b ** 0).as_fraction() == 1

    def test_call_evaluates(self):
        b = RationalFunc.gen()
        r = (2 * b - 2) / (b + 4)
        assert r(F(6)) == F(1)
        assert r(F(1)) == F(0)

    def test_var_mismatch(self):
        with pytest.raises(ScalarError):
            RationalFunc.gen("b") + RationalFunc.gen("t")

    def test_zero_division(self):
        b = RationalFunc.gen()
        with pytest.raises(ZeroDivisionError):
            b / (b - b)

    def test_str_roundtrip_constant(self):
        assert str(RationalFunc.const(F(-3, 7))) == "-3/7"


class TestTower:
    def test_sqrt2_arithmetic(self):
        tw = Tower(("s",), (F(2),))
        s = tw.generator(0)
        assert s * s == tw.const(2)
        assert (1 + s) * (1 - s) == tw.const(-1)
        inv = 1 / s
        assert inv * s == tw.const(1)

    def test_gaussian_extension(self):
        tw = Tower(("i",), (F(-1),))
        i = tw.generator(0)
        assert i * i == tw.const(-1)

    def test_depth_two(self):
        tw = Tower(("i", "s"), (F(-1), F(2)))
        i, s = tw.generator(0), tw.generator(1)
        x = (i / s) + s
        assert (x - s) * s == i
        assert tw.dim == 4

    @pytest.mark.parametrize("squares", [(F(4),), (F(0),), (F(2), F(1, 2)),
                                         (F(-3), F(-12)), (F(2), F(9))])
    def test_squares_that_give_no_field_are_refused(self, squares):
        # a rational square, or two squares whose product is one: sqrt(1/2)
        # is sqrt(2)/2, so 2*s2 - s1 would be a nonzero element with no
        # inverse
        with pytest.raises(ScalarError, match="field"):
            Tower(("s1", "s2")[:len(squares)], squares)


def test_equal_scalars_hash_equal():
    # equal values must hash equal, so sets and dicts treat them as one key
    tw = Tower(("s",), (F(2),))
    for value, frac in ((RationalFunc.const(2), F(2)),
                        (RationalFunc.const(F(-3, 7), "t"), F(-3, 7)),
                        (tw.const(F(3)), F(3)),
                        (Tower(("i", "s"), (F(-1), F(2))).const(0), F(0))):
        assert value == frac
        assert hash(value) == hash(frac)
        assert len({value, frac}) == 1
    b = RationalFunc.gen()
    assert len({b, (b * b) / b}) == 1
    assert len({tw.generator(0), tw.generator(0) + 0}) == 1


fractions = st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: F(*t))
ratfuncs = st.tuples(st.lists(fractions, max_size=4),
                     st.lists(fractions, min_size=1, max_size=3)).filter(
    lambda t: any(t[1])).map(lambda t: RationalFunc(*t))


@settings(max_examples=200, deadline=None)
@given(ratfuncs)
def test_ratfunc_sqrt_of_a_square(r):
    s = ratfunc_sqrt(r * r)
    assert s is not None and s * s == r * r


@settings(max_examples=200, deadline=None)
@given(ratfuncs)
def test_ratfunc_sqrt_exists_exactly_for_squares(r):
    # num/den in lowest terms is a square in Q(b) exactly when num*den is a
    # square in Q[b]: a square rational content and even multiplicities
    b = sp.Symbol("b")
    nd = sum(c * b ** k for k, c in enumerate(r.num)) * sum(
        c * b ** k for k, c in enumerate(r.den))
    content, factors = sp.factor_list(sp.expand(nd), b)
    square = (rational_sqrt(F(int(content.p), int(content.q))) is not None
              and all(m % 2 == 0 for _, m in factors))
    s = ratfunc_sqrt(r)
    assert (s is not None) == square
    assert s is None or s * s == r


_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
        "*": lambda x, y: x * y, "/": lambda x, y: x / y}
_b = sp.Symbol("b")


def _sym(x):
    """The sympy expression of an int, Fraction or RationalFunc."""
    if isinstance(x, RationalFunc):
        return _sym_poly(x.num) / _sym_poly(x.den)
    x = F(x)
    return sp.Rational(x.numerator, x.denominator)


def _sym_poly(coeffs):
    return sum((_sym(c) * _b ** k for k, c in enumerate(coeffs)), sp.Integer(0))


@st.composite
def _operands(draw):
    """A rational function and a second operand, which may share a factor
    with its denominator (a polynomial multiple of it, or a quotient by
    it), so that a skipped reduction would show."""
    r = draw(ratfuncs)
    den = RationalFunc(r.den)
    return r, draw(st.one_of(
        ratfuncs, fractions, st.integers(-6, 6),
        st.lists(fractions, max_size=3).map(lambda p: RationalFunc(p) * den),
        ratfuncs.map(lambda s: s / den)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_OPS)), _operands(), st.booleans())
def test_ratfunc_arithmetic_is_canonical(op, operands, swap):
    x, y = operands[::-1] if swap else operands
    if op == "/" and not y:
        return
    got = _OPS[op](x, y)
    # the value is sympy's, in lowest terms with a monic denominator
    num, den = sp.fraction(sp.cancel(_OPS[op](_sym(x), _sym(y))))
    assert sp.expand(_sym_poly(got.num) * den - _sym_poly(got.den) * num) == 0
    assert len(got.den) - 1 == sp.degree(den, _b) and got.den[-1] == 1
    assert all(type(c) is F for c in got.num + got.den)
    # and no fast path skipped a reduction the general constructor makes
    rebuilt = RationalFunc(got.num, got.den, var=got.var)
    assert (rebuilt.num, rebuilt.den) == (got.num, got.den)
    assert hash(rebuilt) == hash(got)


def _assert_canonical_fields(r):
    """r is s * N/D with one Fraction s and coprime primitive int tuples
    N, D with positive last entries; zero is s = 0, N = (), D = (1,)."""
    assert type(r.s) is F and all(type(c) is int for c in r.n + r.d)
    if not r.s:
        assert (r.n, r.d) == ((), (1,))
        return
    for part in (r.n, r.d):
        assert part and part[-1] > 0 and gcd(*part) == 1
    assert sp.degree(sp.gcd(_sym_poly(r.n), _sym_poly(r.d)), _b) == 0


polys = st.lists(fractions, max_size=4).map(RationalFunc)
with_pole = st.tuples(ratfuncs, st.integers(-3, 3)).map(
    lambda t: t[0] / (RationalFunc.gen() + t[1])).filter(lambda r: len(r.d) > 1)
scalar_operands = st.one_of(st.sampled_from([0, F(0)]), st.integers(-6, 6), fractions)


@st.composite
def _fast_path_cases(draw):
    """(x, op, y) on each path where RationalFunc skips the general
    constructor."""
    kind = draw(st.sampled_from(["cancel", "signs", "scale", "one pole"]))
    if kind == "cancel":
        # p + (c*p + q) = (1 + c)*p + q, and p - (c*p + q): leading terms,
        # the whole sum or the content cancel
        p, q = draw(polys), draw(polys)
        c = draw(st.sampled_from([F(-1), F(1), F(-1, 2), F(1, 2), F(-3), F(3)]))
        return p, draw(st.sampled_from("+-")), c * p + q
    if kind == "signs":
        # a product of polynomials with negative leading coefficients
        x, y = draw(polys), draw(polys)
        return (-x if x and x.num[-1] > 0 else x), "*", (-y if y and y.num[-1] > 0 else y)
    if kind == "scale":
        return draw(ratfuncs), draw(st.sampled_from("*/")), draw(scalar_operands)
    # a sum with exactly one non-constant denominator
    return draw(with_pole), draw(st.sampled_from("+-")), draw(st.one_of(polys, scalar_operands))


@settings(max_examples=200, deadline=None)
@given(_fast_path_cases(), st.booleans())
def test_ratfunc_fast_paths_keep_the_canonical_form(case, swap):
    x, op, y = case
    if swap:
        x, y = y, x
    if op == "/" and not y:
        return
    got = _OPS[op](x, y)
    num, den = sp.fraction(sp.cancel(_OPS[op](_sym(x), _sym(y))))
    assert sp.expand(_sym_poly(got.num) * den - _sym_poly(got.den) * num) == 0
    _assert_canonical_fields(got)
    rebuilt = RationalFunc(got.num, got.den, var=got.var)
    assert rebuilt == got and hash(rebuilt) == hash(got)
    assert (rebuilt.s, rebuilt.n, rebuilt.d) == (got.s, got.n, got.d)


@settings(max_examples=100, deadline=None)
@given(ratfuncs.filter(lambda r: not r.is_constant()))
def test_pivot_size_and_hash_read_the_fraction_form(r):
    # pivot size and hash are those of the coprime Fraction form that num
    # and den give (den monic), whatever the stored fields, so pivot order
    # and set order follow that form
    assert _pivot_size(r) == 8 * (len(r.num) + len(r.den))
    assert hash(r) == hash((r.var, r.num, r.den))
    assert r.den[-1] == 1 and all(type(c) is F for c in r.num + r.den)


# -- towers against sympy's square roots

def _is_field(squares):
    """No product of a nonempty subset of the squares is a rational square."""
    products = [F(1)]
    for a in squares:
        products += [p * a for p in products]
    return all(rational_sqrt(p) is None for p in products[1:])


_squares = st.tuples(st.integers(-12, 12).filter(bool), st.integers(1, 6)).map(
    lambda t: F(*t))
towers = st.integers(1, 2).flatmap(
    lambda n: st.lists(_squares, min_size=n, max_size=n)).filter(_is_field).map(
    lambda sq: Tower(("s1", "s2")[:len(sq)], sq))


def _sym_tower(x):
    """The sympy value of a tower element: sum_S c_S prod_{i in S} sqrt(a_i)."""
    roots = [sp.sqrt(_sym(a)) for a in x.tower.squares]
    return sp.expand(sum(_sym(c) * sp.prod([r for i, r in enumerate(roots) if s >> i & 1])
                         for s, c in enumerate(x.vec)))


@st.composite
def _tower_operands(draw):
    tw = draw(towers)
    elements = st.lists(fractions, min_size=tw.dim, max_size=tw.dim).map(
        lambda v: TowerElement(tw, v))
    return draw(elements), draw(elements.filter(bool))


@seed(36)
@settings(max_examples=200, deadline=None)
@given(_tower_operands())
def test_tower_arithmetic_matches_sympy_square_roots(operands):
    # exact: a sum or product in sympy's radicals expands to the same value,
    # and a quotient times the divisor expands to the dividend
    x, y = operands
    sx, sy = _sym_tower(x), _sym_tower(y)
    assert sp.expand(_sym_tower(x + y) - (sx + sy)) == 0
    assert sp.expand(_sym_tower(x * y) - sx * sy) == 0
    assert sp.expand(_sym_tower(x / y) * sy - sx) == 0
    assert all(type(c) is F for z in (x + y, x * y, x / y) for c in z.vec)
