from fractions import Fraction as F

import pytest

from affine_homog.jets import Jet
from affine_homog.poly import GREVLEX, LEX, Poly, VariableMismatch

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")


def test_constructor_drops_zero_coefficients():
    p = Poly(("x", "y", "z"), {(1, 0, 0): F(0), (0, 1, 0): F(2)})
    assert (1, 0, 0) not in p.terms
    assert p == Y.scale(2)


def test_arithmetic_against_expanded_product():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    q = (X + Y + Z) * (X + Y + Z)
    assert q.coefficient((1, 1, 0)) == 2
    assert q.coefficient((2, 0, 0)) == 1


def test_mul_truncated_matches_truncated_product():
    p = (X + Y) * (X + Z) * (Y + Z)
    q = X * Y + Z * Z
    assert p.mul_truncated(q, 4) == (p * q).truncate(4)


def test_leading_terms():
    p = X * Y * Z + X * X * X + Y.scale(5)
    assert p.leading_term(LEX)[0] == (3, 0, 0)
    # grevlex ties on degree 3: x^3 beats xyz
    assert p.leading_term(GREVLEX)[0] == (3, 0, 0)
    q = X * X * Y + X * Z * Z
    assert q.leading_term(LEX)[0] == (2, 1, 0)
    assert q.leading_term(GREVLEX)[0] == (2, 1, 0)


def test_partial_and_eval():
    p = X * X * Y + Z.scale(3)
    assert p.partial("x") == (X * Y).scale(2)
    assert p.partial("z") == Poly.const(F(3))
    assert p.eval({"x": F(2), "y": F(3), "z": F(-1)}) == 12 - 3


def test_substitute_composition():
    p = X * X + Y
    images = {"x": Y + Z, "y": X}
    q = p.substitute(images)
    assert q == (Y + Z) * (Y + Z) + X
    assert p.substitute(images, max_degree=1) == X


def test_homogeneous_part_sums_to_whole():
    p = (X + Y + Z + Poly.const(F(1))) * (X - Z)
    total = Poly.zero()
    for d in range(p.total_degree() + 1):
        total = total + p.homogeneous_part(d)
    assert total == p


def test_variable_mismatch_raises():
    p = Poly.var("x", ("x", "y"))
    q = Poly.var("x", ("x", "z"))
    with pytest.raises(VariableMismatch):
        p + q


def test_immutability_via_hashable_terms():
    p = X + Y
    before = dict(p.terms)
    _ = p + Z
    assert dict(p.terms) == before


def test_equality_only_with_polys_and_scalars():
    zero = Poly.zero()
    for other in (None, [], {}):
        assert zero != other and other != zero
        assert Jet.zero(3) != other
    assert zero == 0 and Poly.const(F(1, 2)) == F(1, 2)
