from fractions import Fraction as F
from functools import lru_cache

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from affine_homog.groebner import buchberger
from affine_homog.jets import Jet
from affine_homog.normalize import AffineMap, trace_decompose, transform_graph
from affine_homog.poly import Poly
from affine_homog.symmetry import (AffineVectorField, bracket,
                                   complete_series, pqr_families, solve_tangency,
                                   tangency_columns, tangency_residual)
from test_groebner import reduce, s_poly
from test_normalize import HYP, is_trace_free
from test_poly import leading_coefficient, monic, monomial

XYZ = ("x", "y", "z")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def monomials(max_degree):
    return st.tuples(st.integers(0, max_degree), st.integers(0, max_degree),
                     st.integers(0, max_degree)).filter(
        lambda m: sum(m) <= max_degree)


def polys(max_degree=4, max_terms=5):
    return st.dictionaries(monomials(max_degree), rationals,
                           max_size=max_terms).map(
        lambda d: Poly(XYZ, {m: c for m, c in d.items() if c}))


def cubics():
    return st.dictionaries(monomials(3).filter(lambda m: sum(m) == 3),
                           rationals, max_size=6).map(
        lambda d: Poly(XYZ, {m: c for m, c in d.items() if c}))


int_polys = st.dictionaries(monomials(3), st.integers(-9, 9).filter(bool),
                            min_size=1, max_size=5).map(lambda d: Poly(XYZ, d))
matrices = st.tuples(*[st.tuples(*[rationals] * 4)] * 4)
vectors = st.tuples(*[rationals] * 4)


# -- jet arithmetic is a ring homomorphism of truncations ------------------------

@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.integers(1, 6))
def test_jet_product_is_truncated_poly_product(p, q, n):
    assert (Jet(p, n) * Jet(q, n)).poly == (p * q).truncate(n)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys(), st.integers(1, 6))
def test_jet_ring_laws(p, q, r, n):
    a, b, c = Jet(p, n), Jet(q, n), Jet(r, n)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.integers(1, 6), st.integers(0, 5))
def test_jet_truncation_coherence(p, q, n, k):
    k = min(k, n)
    a, b = Jet(p, n), Jet(q, n)
    assert (a * b).truncate(k) == (a.truncate(k) * b.truncate(k)).truncate(k)


@settings(max_examples=200, deadline=None)
@given(int_polys, st.integers(-9, 9).filter(bool), st.integers(0, 4))
def test_jet_division_and_monic_stay_exact(p, d, n):
    # int coefficients and divisors must give Fractions, never floats
    q = Jet(p, n) / d
    m = monic(p)
    for c in (*q.poly.terms.values(), *m.terms.values()):
        assert isinstance(c, (int, F))
    assert q * d == Jet(p, n)
    assert m.scale(leading_coefficient(p)) == p


# -- vector-field bracket -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(matrices, vectors, matrices, vectors)
def test_bracket_antisymmetry(A1, v1, A2, v2):
    a = AffineVectorField(A1, v1)
    b = AffineVectorField(A2, v2)
    ab, ba = bracket(a, b), bracket(b, a)
    assert ab.A == tuple(tuple(-c for c in row) for row in ba.A)
    assert ab.v == tuple(-c for c in ba.v)


@settings(max_examples=200, deadline=None)
@given(matrices, matrices, matrices)
def test_bracket_jacobi(A1, A2, A3):
    a, b, c = (AffineVectorField(A) for A in (A1, A2, A3))
    total = bracket(a, bracket(b, c))
    for x, y, z in ((b, c, a), (c, a, b)):
        t = bracket(x, bracket(y, z))
        total = AffineVectorField(
            tuple(tuple(p + q for p, q in zip(r1, r2))
                  for r1, r2 in zip(total.A, t.A)),
            tuple(p + q for p, q in zip(total.v, t.v)))
    assert not any(total.coords())


# -- tangency residual is linear in the field ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(polys(max_degree=4), matrices, vectors, matrices, vectors,
       rationals, rationals)
def test_tangency_linearity(p, A1, v1, A2, v2, s, t):
    Fj = Jet(p.truncate(4) - p.homogeneous_part(0) - p.homogeneous_part(1), 4)
    a = AffineVectorField(A1, v1)
    b = AffineVectorField(A2, v2)
    comb = AffineVectorField(
        tuple(tuple(s * x + t * y for x, y in zip(r1, r2))
              for r1, r2 in zip(A1, A2)),
        tuple(s * x + t * y for x, y in zip(v1, v2)))
    lhs = tangency_residual(Fj, comb, 4)
    rhs = tangency_residual(Fj, a, 4) * s + tangency_residual(Fj, b, 4) * t
    assert lhs == rhs


# -- every residual is a weighted sum of unit-field columns --------------------------

def _field_from_coords(c):
    return AffineVectorField(tuple(tuple(c[i:i + 4]) for i in range(0, 16, 4)),
                             tuple(c[16:]))


@lru_cache(maxsize=None)
def _i11_jet():
    from affine_homog.catalog import base_jet
    return base_jet("I1.1")


# integer pairs map to fractions far faster than st.fractions draws
field_coords = st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 4)).map(
    lambda t: F(*t)), min_size=20, max_size=20)


@settings(max_examples=200, deadline=None)
@given(polys(max_degree=4), st.integers(1, 4), st.integers(0, 4),
       field_coords, st.integers(5, 6), st.integers(0, 6), st.integers(0, 6))
def test_residual_is_weighted_sum_of_columns(p, n, M, coords, m, i, j):
    Fj = Jet(p, n)
    cols = tangency_columns(Fj, M, range(20))
    weighted = Jet.zero(M)
    for c, col in zip(coords, cols):
        weighted = weighted + col * c
    assert tangency_residual(Fj, _field_from_coords(coords), M) == weighted
    for k, col in enumerate(cols):
        unit = [F(0)] * 20
        unit[k] = F(1)
        assert col == tangency_residual(Fj, _field_from_coords(unit), M)
    # a degree-m coefficient reaches the (m-1)-residual of a graph offset
    # only as e . grad(monomial)
    i = min(i, m)
    mono = (i, min(j, m - i), m - i - min(j, m - i))
    f = _i11_jet()
    V = _field_from_coords(coords)
    added = Jet(f.poly + monomial(mono, vars=XYZ), m)
    diff = (tangency_residual(added, V, m - 1)
            - tangency_residual(Jet(f.poly, m), V, m - 1))
    along = {mono[:n] + (mono[n] - 1,) + mono[n + 1:]: t * mono[n]
             for n, t in enumerate(V.v[:3]) if mono[n] and t}
    assert diff == Jet(Poly(XYZ, along), m - 1)


# -- trace decomposition is an idempotent projection ---------------------------------

@settings(max_examples=200, deadline=None)
@given(cubics())
def test_trace_decomposition_idempotent(c):
    tf, lin = trace_decompose(c, HYP)
    assert is_trace_free(tf, HYP)
    q = Poly(XYZ, {(1, 1, 0): F(2), (0, 0, 2): F(1)})
    assert tf + q * lin == c
    tf2, lin2 = trace_decompose(tf, HYP)
    assert tf2 == tf and lin2.is_zero()


# -- Groebner bases: every S-polynomial reduces to zero ------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals,
    min_size=1, max_size=3).map(
    lambda d: Poly(("u", "v"), {m: c for m, c in d.items() if c}))


@settings(max_examples=200, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3))
def test_groebner_s_polys_reduce_to_zero(gens):
    gens = [g for g in gens if g and not g.is_constant()]
    if not gens:
        return
    gb = buchberger(gens)
    if any(g.is_constant() for g in gb):
        return  # unit ideal
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert reduce(s_poly(gb[i], gb[j]), gb).is_zero()
    for g in gens:
        assert reduce(g, gb).is_zero()


# -- series completion is truncation-coherent ----------------------------------------

@lru_cache(maxsize=None)
def _completion(nf, order):
    from affine_homog.catalog import CUBIC_CASES, base_jet
    f = base_jet(nf)
    fams = pqr_families(solve_tangency(f), CUBIC_CASES["I1"].gauge)
    P, Q, R = (AffineVectorField.from_coords(g.particular).A for g in fams)
    return complete_series(f, P, Q, R, order)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["I1.1", "I1.2"]), st.integers(4, 8), st.integers(4, 8))
def test_completion_truncation_coherence(nf, m, n):
    lo, hi = min(m, n), max(m, n)
    assert _completion(nf, hi).truncate(lo) == _completion(nf, lo)


# -- series solves: inverse and graph transforms -------------------------------------

def unit_jets(max_order=5):
    """Jets of order <= max_order with a nonzero constant term."""
    return st.tuples(polys(max_degree=5), rationals.filter(bool),
                     st.integers(0, max_order)).map(
        lambda t: Jet(t[0] - t[0].homogeneous_part(0) + Poly.const(t[1], XYZ), t[2]))


@settings(max_examples=200, deadline=None)
@given(unit_jets())
def test_jet_inverse_times_self_is_one(a):
    assert a * a.inverse() == Jet.const(F(1), a.order)


def _inverse(m):
    inv = sp.Matrix(m).inv()
    return tuple(tuple(F(int(c.p), int(c.q)) for c in inv.row(i))
                 for i in range(4))


@settings(max_examples=200, deadline=None)
@given(polys(max_degree=5), st.integers(1, 5), matrices)
def test_transform_graph_round_trip(p, n, m):
    # order >= 1: the way back needs the image's linear part
    f = Jet(p - p.homogeneous_part(0), n)
    # the map fixes the origin; it must be invertible and keep the image a
    # graph over the new (x, y, z): d(old w - f(old x, y, z))/d(new w) != 0
    assume(sp.Matrix(m).det() != 0)
    assume(m[3][3] != sum(m[i][3] * f.poly.coefficient(
        tuple(int(j == i) for j in range(3))) for i in range(3)))
    g = transform_graph(f, AffineMap(m))
    assert transform_graph(g, AffineMap(_inverse(m))) == f
