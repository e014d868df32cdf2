from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from affine_homog.scalars import (RationalFunc, ScalarError, Tower,
                                  parse_rational, ratfunc_sqrt,
                                  rational_nth_root, rational_sqrt, scalar_str)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(" 7 ") == F(7)
    with pytest.raises(ValueError):
        parse_rational("x")


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
        assert scalar_str(RationalFunc.const(F(-3, 7))) == "-3/7"


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
        assert (i ** 4) == tw.const(1)

    def test_depth_two(self):
        tw = Tower(("i", "s"), (F(-1), F(2)))
        i, s = tw.generator(0), tw.generator(1)
        x = (i / s) + s
        assert (x - s) * s == i
        assert tw.dim == 4

    def test_rational_detection(self):
        tw = Tower(("s",), (F(2),))
        e = tw.const(F(5, 3))
        assert e.is_rational() and e.as_fraction() == F(5, 3)
        assert not tw.generator(0).is_rational()


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
