import json
from fractions import Fraction as F

import pytest

from affine_homog.jets import Jet
from affine_homog.poly import Poly
from affine_homog.scalars import InputError

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")


def jet(p, n):
    return Jet(p, n)


def test_truncation_on_construction():
    p = X * X * X + X
    j = jet(p, 2)
    assert j.poly == X


def test_product_truncates():
    a = jet(X + Y, 2)
    b = jet(X * Y + Z, 2)
    prod = a * b
    assert prod.order == 2
    # degree-3 parts of (x+y)(xy+z) are cut
    assert prod.poly == X * Z + Y * Z


def test_inverse_geometric_series():
    # 1/(1 - x) = 1 + x + x^2 + ... as a jet oracle
    one_minus = jet(Poly.const(F(1)) - X, 5)
    inv = one_minus.inverse()
    expect = Poly.zero()
    for k in range(6):
        expect = expect + Poly.monomial((k, 0, 0))
    assert inv.poly == expect


def test_inverse_requires_unit():
    with pytest.raises(Exception):
        jet(X, 3).inverse()


def test_sqrt_binomial_series():
    # sqrt(1 + u) with u = x: coefficients are the binomial(1/2, k) values
    j = jet(Poly.const(F(1)) + X, 4)
    s = j.sqrt()
    coeffs = [s.poly.coefficient((k, 0, 0)) for k in range(5)]
    assert coeffs == [F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)]
    assert (s * s).poly == (Poly.const(F(1)) + X)


def test_homogeneous_part_and_truncate():
    f = jet((X + Y) * (X + Y) + Z, 3)
    assert f.homogeneous_part(1) == Z
    assert f.truncate(1).poly == Z


def test_json_roundtrip():
    f = jet(X * Y.scale(F(2, 3)) + Z * Z * Z, 5)
    data = json.loads(json.dumps(f.to_json()))
    g = Jet.from_json(data)
    assert g == f and g.order == 5


@pytest.mark.parametrize("order, m", [
    (6.5, [2, 0, 0]), (True, [2, 0, 0]), ("6", [2, 0, 0]),
    (4, [-1, 0, 0]), (4, [1.5, 1, 0]), (4, [1, True, 0]),
])
def test_from_json_refuses_an_order_or_exponent_that_is_not_a_natural_int(order, m):
    # a float or bool would pass Python's own arithmetic and truncate the
    # jet somewhere else than the data says
    data = {"order": order, "terms": [{"m": m, "c": "1"}, {"m": [2, 0, 0], "c": "1"}]}
    with pytest.raises(InputError, match="malformed jet JSON"):
        Jet.from_json(data)


def test_from_json_refuses_a_repeated_monomial():
    # to_json writes each monomial once; a repeat is not read as either
    # coefficient, nor as their sum
    data = {"order": 3, "terms": [{"m": [1, 1, 0], "c": "2"},
                                  {"m": [0, 0, 2], "c": "1"},
                                  {"m": [0, 0, 2], "c": "5"}]}
    with pytest.raises(InputError, match="listed twice"):
        Jet.from_json(data)
    data["terms"].pop()
    assert Jet.from_json(data) == jet((X * Y).scale(2) + Z * Z, 3)


def test_equality_includes_order():
    assert jet(X, 3) != jet(X, 4)
    assert jet(X, 3) == jet(X, 3)


def test_gradient_is_computed_once_and_leaves_the_value(monkeypatch):
    j = jet(X * X * Y + (Y * Z).scale(F(1, 2)) + X, 4)
    calls = []
    partial = Poly.partial
    monkeypatch.setattr(Poly, "partial",
                        lambda p, name: calls.append(name) or partial(p, name))
    grad = j.gradient()
    assert grad == ((X * Y).scale(2) + Poly.const(F(1)), X * X + Z.scale(F(1, 2)),
                    Y.scale(F(1, 2)))
    assert j.gradient() is grad and calls == ["x", "y", "z"]
    # the cache is not part of the value
    fresh = jet(X * X * Y + (Y * Z).scale(F(1, 2)) + X, 4)
    assert fresh == j and hash(fresh) == hash(j)
