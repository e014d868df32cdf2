import importlib.util
import random
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from affine_homog import catalog as cat, symmetry
from affine_homog.cli import CASES
from affine_homog.frontend import expand_graph, parse_surface
from affine_homog.jets import Jet
from affine_homog.linalg import (LinearEquation, linear_solve, matrix_rank,
                                 solve_rows)
from affine_homog.poly import XYZ, Poly, grevlex_key
from affine_homog.scalars import InputError, RationalFunc, Tower
from affine_homog.symmetry import (COORDINATE_NAMES, E_X, E_Y, E_Z, ZERO4,
                                   AffineVectorField, CompletionError,
                                   _closed, _combine, bracket, closure_constraints,
                                   complete_series, degree_unknowns,
                                   full_algebra, linear_equations,
                                   pqr_families, raise_order,
                                   reduce_against_span, solve_tangency,
                                   tangency_columns, tangency_residual)
from test_poly import monic, monomial

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")
QUADRIC = Jet((X * Y).scale(2) + Z * Z, 4)


def field(rows, v=(0, 0, 0, 0)):
    return AffineVectorField(tuple(tuple(F(c) for c in r) for r in rows),
                             tuple(F(c) for c in v))


_field = AffineVectorField.from_coords

DILATION = field([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])


def test_dilation_tangent_to_quadric():
    assert tangency_residual(QUADRIC, DILATION, 4).is_zero()


def test_shear_not_tangent():
    shear = field([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not tangency_residual(QUADRIC, shear, 4).is_zero()


# about three entries in four are zero, as in symmetry-algebra bases
sparse_entries = st.tuples(st.integers(0, 3), st.integers(-5, 5),
                           st.integers(1, 4)).map(
    lambda t: F(t[1], t[2]) if t[0] == 0 else F(0))
sparse_fields = st.tuples(
    st.tuples(*[st.tuples(*[sparse_entries] * 4)] * 4),
    st.tuples(*[sparse_entries] * 4)).map(lambda av: AffineVectorField(*av))


@settings(max_examples=200, deadline=None)
@given(sparse_fields, sparse_fields)
def test_bracket_matches_sympy_matrices(v1, v2):
    mat = lambda rows: sp.Matrix([[sp.Rational(c.numerator, c.denominator)
                                   for c in r] for r in rows])
    A1, A2 = mat(v1.A), mat(v2.A)
    t1, t2 = mat([v1.v]).T, mat([v2.v]).T
    want_A, want_v = A2 * A1 - A1 * A2, A2 * t1 - A1 * t2
    got = bracket(v1, v2)
    frac = lambda e: F(int(e.p), int(e.q))
    for i in range(4):
        for j in range(4):
            assert got.A[i][j] == frac(want_A[i, j])
        assert got.v[i] == frac(want_v[i])


_b = sp.Symbol("b")
_QB = RationalFunc.gen()
# (monomial, coefficient) of a quartic jet over Q and one over Q(b)
ORACLE_TERMS = {
    "Q": [((1, 1, 0), F(2)), ((0, 0, 2), F(1)), ((2, 1, 0), F(1)),
          ((1, 0, 2), F(-2)), ((0, 4, 0), F(3, 4))],
    "Q(b)": [((1, 1, 0), F(2)), ((0, 0, 2), F(1)), ((2, 1, 0), _QB),
             ((1, 0, 2), 1 / (_QB - 1)), ((0, 4, 0), _QB * _QB + F(3, 4)),
             ((0, 1, 3), -_QB)],
}


def _sympy_scalar(c):
    if isinstance(c, RationalFunc):
        poly = lambda cs: sum(_sympy_scalar(a) * _b ** i for i, a in enumerate(cs))
        return poly(c.num) / poly(c.den)
    return sp.Rational(c.numerator, c.denominator)


def test_columns_match_sympy_residual_of_unit_fields():
    x, y, z = sp.symbols("x y z")
    M = 3

    def truncated(expr):
        terms = sp.Poly(sp.expand(expr), x, y, z).terms()
        return {m: c for m, c in terms if sum(m) <= M}

    for field, terms in ORACLE_TERMS.items():
        f_expr = sum(_sympy_scalar(c) * x ** i * y ** j * z ** k
                     for (i, j, k), c in terms)
        grad = [sp.diff(f_expr, s) for s in (x, y, z)] + [sp.Integer(-1)]
        coords = [x, y, z, f_expr, sp.Integer(1)]
        cols = tangency_columns(Jet(Poly(XYZ, terms), 4), M, range(20))
        for k, col in enumerate(cols):
            i, j = divmod(k, 4) if k < 16 else (k - 16, 4)
            # unit field: component i of A.(x,y,z,F)^T + v is coords[j]
            want = truncated(grad[i] * coords[j])
            assert col.poly.terms.keys() == want.keys(), (field, k)
            assert all(sp.cancel(_sympy_scalar(c) - want[m]) == 0
                       for m, c in col.poly.terms.items()), (field, k)


def product_columns(F: Jet, M: int, ks):
    """The columns built as products: Tr^M(F_i . coord_j) with coords
    (x, y, z, F, 1) for i < 3, and -coord_j for i = 3. The reference that
    the exponent-shift build of ``tangency_columns`` must equal."""
    fp = F.poly
    partials = [fp.partial(n) for n in XYZ]
    coords = [Poly.var(n, XYZ) for n in XYZ] + [fp, Poly.const(1, XYZ)]
    cols = []
    for k in ks:
        i, j = divmod(k, 4) if k < 16 else (k - 16, 4)
        col = partials[i].mul_truncated(coords[j], M) if i < 3 else -coords[j]
        cols.append(Jet(col, M))
    return cols


def assert_columns_match_products(jet):
    """At every order M <= the jet's and every lower degree lo <= M, each
    of the twenty columns holds the product build's terms of degrees
    lo..M, in the same order and of the same coefficient types."""
    for M in range(jet.order + 1):
        want = product_columns(jet, M, range(20))
        for lo in range(M + 1):
            got = tangency_columns(jet, M, range(20), lo)
            for k, (g, w) in enumerate(zip(got, want)):
                terms = [(m, c) for m, c in w.poly.terms.items() if sum(m) >= lo]
                assert g.order == M
                assert list(g.poly.terms.items()) == terms, (M, lo, k)
                assert [type(c) for c in g.poly.terms.values()] == \
                    [type(c) for _, c in terms], (M, lo, k)


def test_columns_match_products_on_expanded_graphs():
    for jet in _expanded(7):
        assert_columns_match_products(jet)


def test_columns_match_products_on_normal_forms_over_symbolic_b():
    for nf in cat.NORMAL_FORM_IDS:
        assert_columns_match_products(cat.confirm_isotropy(nf).details["completed_jet"])


def test_columns_match_products_off_the_rationals_and_the_graph_origin():
    tower = Tower(("s",), (F(2),))
    s = tower.generator(0)
    tower_jet = Jet(Poly(XYZ, [((1, 1, 0), tower.const(2)), ((0, 0, 2), tower.const(1)),
                               ((2, 1, 0), s), ((0, 3, 1), 1 - s), ((1, 1, 2), -s)]), 5)
    # int coefficients, which a product by the Fraction 1 turns into
    # Fractions, and a constant term
    int_jet = Jet(Poly(XYZ, [((0, 0, 0), 3), ((1, 1, 0), 2), ((0, 0, 2), 1),
                             ((2, 1, 0), -1), ((0, 2, 2), 5)]), 5)
    for jet in (tower_jet, int_jet, Jet(QUADRIC.poly + Poly.const(F(1), XYZ), 4)):
        assert_columns_match_products(jet)


@lru_cache(maxsize=None)
def _expanded(order):
    """Every catalog entry (at its sweep alpha), near-miss variant and the
    replacement surface, expanded to the given order."""
    specs = [parse_surface(e.surface, e.basepoint, cat.SWEEP_ALPHAS.get(eid))
             for eid, e in cat.catalog().items()]
    specs += [parse_surface(text, tuple(F(c) for c in bp))
              for text, bp in (*cat.VARIANTS.values(), cat.REPLACEMENT_SURFACE)]
    return [expand_graph(spec, order) for spec in specs]


def test_expanded_graphs_have_no_constant_term():
    # expand_graph's contract: the jet of the graph offset w, with zero
    # constant term (the offset of W vanishes at the basepoint)
    for Fj in _expanded(7):
        assert not Fj.poly.constant_term()


def test_linear_equations_rows_in_grevlex_order():
    # base + x0*(x + z^2) + x1*(2y) = 0, rows ascending in grevlex;
    # the monomial y*z appears nowhere and gets no row
    base = Jet(Poly.const(F(3)) - Z * Z, 2)
    cols = [Jet(X + Z * Z, 2), Jet(Y.scale(2), 2)]
    eqs = linear_equations(cols, base)
    assert [(e.coeffs, e.rhs) for e in eqs] == [
        ({}, F(-3)), ({1: F(2)}, F(0)), ({0: F(1)}, F(0)),
        ({0: F(1)}, F(1))]


def test_bracket_oracle():
    a = field([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    b = field([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    c = bracket(a, b)
    # [a,b] acts as the commutator BA - AB on coordinates
    assert c.A == ((F(-1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)),
                   (F(0), F(0), F(0), F(0)), (F(0), F(0), F(0), F(0)))


def test_bracket_with_translations():
    a = field([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
              v=(0, 0, 0, 0))
    t = field([[0] * 4] * 4, v=(1, 0, 0, 0))
    c = bracket(a, t)
    assert c.A == tuple((F(0),) * 4 for _ in range(4))
    assert c.v in (((F(1), F(0), F(0), F(0))), ((F(-1), F(0), F(0), F(0))))


def test_quadric_full_algebra():
    alg = full_algebra(QUADRIC)
    assert alg.closed and alg.tangency_ok
    assert alg.isotropy_dim == 4
    assert alg.full_dim == 7
    assert alg.translation_rank == 3


def test_pqr_families_translations():
    f = Jet((X * Y).scale(2) + Z * Z + X * X * Y - (X * Z * Z).scale(2), 3)
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["I1"].gauge)
    assert fams is not None
    famP, famQ, famR = fams
    # at cubic order the gauged solve leaves 6 free unknowns per matrix
    assert [g.dimension for g in fams] == [6, 6, 6]
    for fam, e in zip(fams, (E_X, E_Y, E_Z)):
        assert _field(fam.particular).v[:3] == e[:3]


def test_closure_constraint_count_i1():
    f = Jet((X * Y).scale(2) + Z * Z + X * X * Y - (X * Z * Z).scale(2), 3)
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["I1"].gauge)
    cons = closure_constraints(f, *fams)
    assert len(cons) == 41


# -- the integer closure table against the Poly-valued reference ---------------------

def poly_closure_constraints(F_, famP, famQ, famR):
    """The closure constraints by Poly arithmetic: the three families as
    fields with Poly entries in the free unknowns, bracketed, less c*x for
    each translation coordinate c of the bracket and matrix entry x of the
    field of that translation, and weighting the sixteen matrix columns;
    one monic constraint per nonzero residual coefficient, in ascending
    grevlex order of its xyz monomial."""
    ring = tuple(sorted(famP.free + famQ.free + famR.free))
    fields = [_field(fam.member({u: Poly.var(u, ring) for u in fam.free}))
              for fam in (famP, famQ, famR)]
    columns = tangency_columns(F_, F_.order, range(16))
    constraints = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        B = dense_bracket(fields[a], fields[b])
        A = [list(r) for r in B.A]
        for c, V in zip(B.v, fields):
            if c:
                for row, vrow in zip(A, V.A):
                    for j, x in enumerate(vrow):
                        if x:
                            row[j] = -(c * x) + row[j]
        res = tangency_residual(F_, AffineVectorField(A, ZERO4), F_.order, columns)
        for m in sorted(res.poly.terms, key=grevlex_key):
            c = res.poly.terms[m]
            c = c if isinstance(c, Poly) else Poly.const(c, ring)
            constraints.append(monic(c))
    return constraints


def assert_same_constraints(jet, fams):
    got, want = closure_constraints(jet, *fams), poly_closure_constraints(jet, *fams)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert {m: type(c) for m, c in g.terms.items()} == \
            {m: type(c) for m, c in w.terms.items()}


@pytest.mark.parametrize("case", CASES)
def test_closure_constraints_match_the_poly_reference_on_case_jets(case):
    f = cat.case_jet(case)
    for gauge in (cat.CUBIC_CASES[case].gauge, ()):
        assert_same_constraints(f, pqr_families(solve_tangency(f), gauge))


def test_closure_constraints_match_the_poly_reference_on_the_i1_jet():
    f = Jet((X * Y).scale(2) + Z * Z + X * X * Y - (X * Z * Z).scale(2), 3)
    assert_same_constraints(f, pqr_families(solve_tangency(f), cat.CUBIC_CASES["I1"].gauge))


def test_closure_constraints_match_the_poly_reference_on_base_jets():
    compared = 0
    for nf in cat.NORMAL_FORM_IDS:
        f = cat.base_jet(nf, F(3, 2) if cat.NORMAL_FORMS[nf].parametric else None)
        for gauge in (cat.CUBIC_CASES[cat.NORMAL_FORMS[nf].case].gauge, ()):
            fams = pqr_families(solve_tangency(f), gauge)
            if fams is not None:
                assert_same_constraints(f, fams)
                compared += 1
    assert compared


def test_closure_constraints_does_no_poly_arithmetic(monkeypatch):
    # the constraints are tabled in integers: no Poly product, sum or
    # scaling, no bracket of fields and no residual of a field
    f = cat.case_jet("I0")
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["I0"].gauge)

    def refuse(*args, **kwargs):
        raise AssertionError("Poly arithmetic in closure_constraints")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "scale"):
        monkeypatch.setattr(Poly, name, refuse)
    monkeypatch.setattr(symmetry, "bracket", refuse)
    monkeypatch.setattr(symmetry, "tangency_residual", refuse)
    assert len(closure_constraints(f, *fams)) == 38


def test_gauge_entries_per_case():
    # coordinate indices of A13, A22, A31, A44 and A23 in coords() order;
    # one pinned entry, A22, where the model has one isotropy direction
    assert {case: c.gauge for case, c in cat.CUBIC_CASES.items()} == {
        "no-cubic": (2, 5, 8, 15), "I3": (5, 8), "I2": (5,), "I1": (5,),
        "I0": (5,), "Inr": (6,)}
    # one entry per isotropy direction of the model at the determining
    # order, which each ungauged translated family carries
    for nf in cat.NORMAL_FORM_IDS:
        gauge = cat.CUBIC_CASES[cat.NORMAL_FORMS[nf].case].gauge
        fams = pqr_families(solve_tangency(cat.base_jet(nf)))
        assert [g.dimension for g in fams] == [len(gauge)] * 3


def test_complete_series_quadric_stays_quadratic():
    def w_row(col):
        rows = [[F(0)] * 4 for _ in range(4)]
        rows[3][col] = F(2)
        return tuple(tuple(r) for r in rows)

    P, Q, R = w_row(1), w_row(0), w_row(2)
    comp = complete_series(QUADRIC.truncate(3), P, Q, R, 6)
    assert comp.poly == QUADRIC.poly


def test_complete_series_truncation_coherence():
    from affine_homog.catalog import base_jet
    f = base_jet("I1.1")
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["I1"].gauge)
    P, Q, R = (_field(g.particular).A for g in fams)
    full = complete_series(f, P, Q, R, 7)
    part = complete_series(f, P, Q, R, 5)
    assert full.truncate(5) == part


def test_complete_series_builds_only_the_new_degree_after_its_first_order():
    # order m reads degree m-1 of the residuals alone once order m-1 is
    # complete; the first order checks every degree
    f = cat.base_jet("I0.1")
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["I0"].gauge)
    P, Q, R = (_field(g.particular).A for g in fams)
    built, columns = [], symmetry.tangency_columns

    def recorded(*args):
        cols = columns(*args)
        built.append({sum(m) for c in cols for m in c.poly.terms})
        return cols

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "tangency_columns", recorded)
        complete_series(f, P, Q, R, 8)
    assert built[0] == set(range(1, f.order + 1))
    assert built[1:] == [{m - 1} for m in range(f.order + 2, 9)]


def test_completion_error_on_inconsistent_matrices():
    bad = tuple(tuple(F(1) for _ in range(4)) for _ in range(4))
    with pytest.raises(CompletionError):
        complete_series(QUADRIC.truncate(3), bad, bad, bad, 5)


def test_complete_series_refuses_a_constant_term():
    # a degree-m term times the jet's constant term reaches the residual
    # below degree m-1, so the order-by-order integration would return a jet
    # its fields are not tangent to (completing Sp + 1 with its own
    # translated families to order 6 left three residual terms per field
    # at order 5)
    f = cat.base_jet("Sp") + 1
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["no-cubic"].gauge)
    P, Q, R = (_field(g.particular).A for g in fams)
    with pytest.raises(InputError):
        complete_series(f, P, Q, R, 6)


# -- the sparse bracket against the dense formula ----------------------------------

def dense_bracket(v1, v2):
    """The bracket as one dot product per entry over the columns of the
    augmented matrices, each sum starting at Fraction(0); the negated one
    comes first, since a Fraction less a Poly is not defined."""
    a1, a2 = v1.A, v2.A
    c1, c2 = (*zip(*a1), v1.v), (*zip(*a2), v2.v)

    def dot(row, col):
        return sum((a * b for a, b in zip(row, col) if a and b), F(0))

    rows = [[-dot(a1[i], c2[j]) + dot(a2[i], c1[j]) for j in range(5)]
            for i in range(4)]
    return AffineVectorField(tuple(r[:4] for r in rows), tuple(r[4] for r in rows))


_B = RationalFunc.gen()
_TOWER = Tower(("s",), (F(2),))
_S = _TOWER.generator(0)
_PQ = ("p", "q")
_P, _Q = Poly.var("p", _PQ), Poly.var("q", _PQ)
# per domain, the nonzero values a field entry takes besides rationals (the
# Poly-valued fields are those of the reference poly_closure_constraints)
BRACKET_DOMAINS = ((F(2), F(-1, 3)),
                   (_B, _B + 1, -_B, 1 / (_B - 1), RationalFunc.const(3)),
                   (_S, 1 - _S, _TOWER.const(2)),
                   (_P, _Q - 1, _P.scale(F(-1, 2)) + _Q))


@st.composite
def bracket_pairs(draw):
    values = ((F(0),) * 3 + (F(1), F(-2), F(3, 4))
              + draw(st.sampled_from(BRACKET_DOMAINS)))
    entries = st.lists(st.sampled_from(values), min_size=20, max_size=20)
    return _field(draw(entries)), _field(draw(entries))


@settings(max_examples=200, deadline=None)
@given(bracket_pairs())
def test_sparse_bracket_matches_dense_formula(pair):
    # by value: a coordinate that no product touches is the int 0
    assert bracket(*pair).coords() == dense_bracket(*pair).coords()


def test_every_bracket_runs_the_one_row_bracket(monkeypatch):
    # bracket, the closure check and the closure constraints share one
    # bracket implementation
    calls = []
    row_bracket = symmetry._row_bracket
    monkeypatch.setattr(symmetry, "_row_bracket",
                        lambda *a: calls.append(1) or row_bracket(*a))
    a = field([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    bracket(a, DILATION)
    assert len(calls) == 1
    alg = full_algebra(QUADRIC)
    # one per pair of the quadric's seven fields
    assert alg.closed and len(calls) == 1 + 21
    f = cat.case_jet("I0")
    closure_constraints(f, *pqr_families(solve_tangency(f), cat.CUBIC_CASES["I0"].gauge))
    assert len(calls) > 1 + 21


def test_v3_bracket_leaves_the_span_at_order_4_only():
    # the one known bracket outside its span: the order-4 algebra of v3 is
    # tangent but not closed, and the algebras at orders 5 and 6 close
    text, bp = cat.VARIANTS["v3"]
    Fj = expand_graph(parse_surface(text, tuple(F(c) for c in bp)), 6)
    alg = full_algebra(Fj, 4)
    assert alg.tangency_ok is True and alg.closed is False
    assert full_algebra(Fj, 5).closed is True
    assert full_algebra(Fj, 6).closed is True


def test_full_algebra_refuses_an_order_above_the_jet():
    # the 4-jet's terms of order 5 are unknown, not zero
    text, bp = cat.VARIANTS["v1"]
    Fj = expand_graph(parse_surface(text, tuple(F(c) for c in bp)), 4)
    assert full_algebra(Fj, 4).order == 4
    with pytest.raises(InputError):
        full_algebra(Fj, 5)


# -- span membership in free coordinates against elimination -------------------------

@st.composite
def span_cases(draw):
    """A sparse system over Q or Q(b) in the twenty field coordinates (at
    most three nonzero entries a row, which keeps Q(b) elimination cheap),
    its RREF nullspace basis, and targets inside the span and perturbed
    out of it."""
    values = (F(1), F(-2), F(3, 4)) + draw(st.sampled_from(
        ((), (_B, _B + 1, -_B, 1 / (_B - 1)))))
    value = st.sampled_from(values)
    rows = []
    for _ in range(draw(st.integers(1, 19))):
        row = [F(0)] * 20
        for c, x in draw(st.lists(st.tuples(st.integers(0, 19), value),
                                  min_size=1, max_size=3)):
            row[c] = x
        rows.append(row)
    _, basis, free = solve_rows(rows, [F(0)] * len(rows), 20)
    targets = []
    for _ in range(3):
        ws = draw(st.lists(st.sampled_from((F(0),) + values),
                           min_size=len(basis), max_size=len(basis)))
        t = [sum((w * b[c] for w, b in zip(ws, basis)), F(0)) for c in range(20)]
        targets.append(t)
        t = list(t)
        t[draw(st.integers(0, 19))] += draw(value)
        targets.append(t)
    return basis, free, targets


@settings(max_examples=200, deadline=None)
@given(span_cases())
def test_membership_in_free_coordinates_agrees_with_elimination(case):
    basis, free, targets = case
    for k, b in enumerate(basis):
        assert [b[i] for i in free] == [int(k == l) for l in range(len(free))]
    fields = [_field(b) for b in basis]
    columns = [[b[c] for b in basis] for c in range(20)]
    for t in targets:
        in_span = solve_rows(columns, t, len(basis)) is not None
        assert reduce_against_span(fields, _field(t), free) is in_span


# -- the integrated completion against elimination ----------------------------------

def eliminated_series(f, P, Q, R, M):
    """The completion as one elimination per order, in which the column of
    each degree-m coefficient is the derivative of its monomial along the
    translation e."""
    cur = f.poly
    for m in range(f.order + 1, M + 1):
        names = degree_unknowns(m)
        mono_of = dict(names)
        unknowns = sorted(mono_of)
        eqs = []
        for mat, e in zip((P, Q, R), (E_X, E_Y, E_Z)):
            columns = []
            for u in unknowns:
                p = monomial(mono_of[u], vars=XYZ)
                columns.append(Jet(sum((p.partial(n).scale(t)
                                        for n, t in zip(XYZ, e) if t),
                                       Poly.zero(XYZ)), m - 1))
            res = tangency_residual(Jet(cur, m), AffineVectorField(mat, e), m - 1)
            eqs.extend(linear_equations(columns, res))
        fam = linear_solve(eqs, unknowns)
        if fam is None:
            raise CompletionError("inconsistent completion system", m)
        if not fam.is_unique():
            raise CompletionError("underdetermined completion system", m)
        sol = dict(zip(unknowns, fam.particular))
        cur = cur + Poly(XYZ, {mono: sol[n] for n, mono in names})
    return Jet(cur, M)


@lru_cache(maxsize=None)
def reached_completions():
    """Every (f, P, Q, R, M) that discover reaches for the six cases, and
    that confirm_isotropy reaches for the ten normal forms at orders 6 and
    8, over symbolic b and at b = 6 and 3/2 for the parametric forms."""
    seen, complete = [], cat.complete_series

    def record(*args):
        seen.append(args)
        return complete(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, "complete_series", record)
        for case in CASES:
            cat.discover(case)
        for nf in cat.NORMAL_FORM_IDS:
            for b in (None, F(6), F(3, 2)) if cat.NORMAL_FORMS[nf].parametric else (None,):
                for order in (6, 8):
                    cat.confirm_isotropy(nf, b, order)
    return tuple(seen)


def assert_same_completion(f, P, Q, R, M):
    """Both paths raise the same CompletionError, or give the same jet in
    the same term order and with the same coefficient types (an oracle
    constant RationalFunc may be the equal Fraction). Returns the jet, or
    None on failure."""
    try:
        want = eliminated_series(f, P, Q, R, M)
    except CompletionError as exc:
        with pytest.raises(CompletionError) as got:
            complete_series(f, P, Q, R, M)
        assert (str(got.value), got.value.order) == (str(exc), exc.order)
        return None
    got = complete_series(f, P, Q, R, M)
    assert got == want and list(got.poly.terms) == list(want.poly.terms)
    for m, w in want.poly.terms.items():
        g = got.poly.terms[m]
        assert type(g) is type(w) or (
            type(w) is RationalFunc and w.is_constant() and type(g) is F), m
    return got


def test_integrated_completion_matches_elimination_where_reached():
    cases = reached_completions()
    # 40 normal-form completions and 8 discovered components
    assert len(cases) == 48
    for f, P, Q, R, M in cases:
        jet = assert_same_completion(f, P, Q, R, M)
        if jet is not None:
            # the certificate: every translated field is tangent to order M-1
            for mat, e in zip((P, Q, R), (E_X, E_Y, E_Z)):
                assert tangency_residual(jet, AffineVectorField(mat, e),
                                         M - 1).is_zero()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3),
       st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 4)))
def test_integrated_completion_matches_elimination_when_perturbed(
        data, which, i, j, delta):
    f, *mats, M = data.draw(st.sampled_from(reached_completions()))
    rows = [list(r) for r in mats[which]]
    rows[i][j] = rows[i][j] + F(*delta)
    mats[which] = tuple(tuple(r) for r in rows)
    assert_same_completion(f, *mats, M)


# -- one free solve against separate solves per translation ---------------------------

def fixed_translation_solve(F, translation, prefix="p", extra=(), order=None):
    """The tangency family of one fixed translation part, solved on its
    own: the sixteen matrix columns, with the translation's weighted
    columns on the right, at order N for a zero translation and N-1 for
    any other. None when no field has that translation."""
    if order is None:
        order = F.order - 1 if any(translation) else F.order
    columns = tangency_columns(F, order, range(20))
    base = _combine(columns[16:], translation, order)
    return linear_solve(linear_equations(columns[:16], base) + list(extra),
                        [prefix + name for name in COORDINATE_NAMES[:16]])


def separate_solves(F, N):
    """The algebra of F at order N as separate solves give it: the free
    solve at N-1, the isotropy as a sixteen-column solve at N, the
    translation rank as a matrix rank, and every basis field re-checked
    at the tightest order it allows (N-1 with a translation, else N)."""
    Ft = F.truncate(N)
    columns = tangency_columns(Ft, N - 1, range(20))
    fam = linear_solve(linear_equations(columns, Jet.zero(N - 1)),
                       COORDINATE_NAMES)
    basis = [_field(vec) for vec in fam.basis]
    iso = fixed_translation_solve(Ft, ZERO4, order=N)
    rank = matrix_rank([list(b.v[:3]) for b in basis]) if basis else 0
    tangency_ok = all(tangency_residual(Ft, b, N - 1 if any(b.v) else N).is_zero()
                      for b in basis)
    closed = tangency_ok and all(
        reduce_against_span(basis, bracket(a, b), fam.free_cols)
        for i, a in enumerate(basis) for b in basis[i + 1:])
    return basis, [_field(vec + list(ZERO4)) for vec in iso.basis], rank, \
        tangency_ok, closed


def assert_same_algebra(F, N, alg=None):
    """alg (by default full_algebra at N) equals the separate solves: the
    same basis, isotropy fields of equal values, translation rank and
    verdicts. Returns tangency_ok."""
    alg = full_algebra(F, N) if alg is None else alg
    basis, iso, rank, tangency_ok, closed = separate_solves(F, N)
    assert [b.coords() for b in alg.basis] == [b.coords() for b in basis]
    assert [b.coords() for b in alg.isotropy] == [b.coords() for b in iso]
    assert alg.isotropy_dim == len(iso) and alg.full_dim == len(basis)
    assert (alg.translation_rank, alg.tangency_ok, alg.closed) == (
        rank, tangency_ok, closed)
    return alg.tangency_ok


def test_full_algebra_matches_separate_solves_on_the_catalog():
    # the orders of verify_entry at order 6, on its order-7 jet
    for Fj in _expanded(7)[:len(cat.catalog())]:
        for N in (6, 7):
            assert assert_same_algebra(Fj, N)
            raised = raise_order(full_algebra(Fj, N - 1), Fj)
            assert assert_same_algebra(Fj, N, alg=raised)


def test_full_algebra_matches_separate_solves_on_the_variants():
    # the orders of reject_variant at order 7, on its order-7 jet
    n = len(cat.catalog())
    verdicts = []
    for Fj in _expanded(7)[n:n + len(cat.VARIANTS)]:
        for N in range(3, 8):
            verdicts.append(assert_same_algebra(Fj, N))
            raised = raise_order(full_algebra(Fj, N - 1), Fj)
            assert assert_same_algebra(Fj, N, alg=raised) is verdicts[-1]
    assert len(verdicts) == 30 and verdicts.count(False) == 10


def test_full_algebra_matches_separate_solves_on_completed_normal_forms():
    for nf in cat.NORMAL_FORM_IDS:
        jet = cat.confirm_isotropy(nf).details["completed_jet"]
        assert assert_same_algebra(jet, jet.order)


def test_normal_form_algebra_restricted_from_the_base_jet_matches_a_fresh_solve():
    # confirm_isotropy restricts the base jet's free solve by the completed
    # jet's residual rows of degrees d..N-1; full_algebra on the completed
    # jet alone solves all twenty columns afresh
    built = []
    algebra = cat.full_algebra

    def recorded(jet, *args, **kwargs):
        alg = algebra(jet, *args, **kwargs)
        built.append((jet, kwargs, alg))
        return alg

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, "full_algebra", recorded)
        for nf in cat.NORMAL_FORM_IDS:
            for b in (None, F(6), F(3, 2)) if cat.NORMAL_FORMS[nf].parametric else (None,):
                for order in (cat.NORMAL_FORMS[nf].order, 6, 8):
                    cat.confirm_isotropy(nf, b, order)
    assert len(built) == 60
    for jet, kwargs, alg in built:
        assert "below" in kwargs
        fresh = full_algebra(jet)
        assert [v.coords() for v in alg.basis] == [v.coords() for v in fresh.basis]
        assert alg.free == fresh.free
        assert [v.coords() for v in alg.isotropy] == [v.coords() for v in fresh.isotropy]
        assert (alg.order, alg.closed, alg.tangency_ok, alg.translation_rank) == (
            fresh.order, fresh.closed, fresh.tangency_ok, fresh.translation_rank)


def test_full_algebra_matches_separate_solves_off_the_graph_origin():
    # a linear part in x frees the w-translation column in place of the x
    # one; a constant term (a jet read on stdin may have one) frees all
    # four translation columns, while the x, y, z translations keep rank 3
    const = Poly.const(F(1), XYZ)
    for poly, free in ((QUADRIC.poly + X, [17, 18, 19]),
                       (QUADRIC.poly + const, [16, 17, 18, 19]),
                       (const, [16, 17, 18, 19])):
        assert_same_algebra(Jet(poly, 4), 4)
        alg = full_algebra(Jet(poly, 4))
        assert [c for c in alg.free if c >= 16] == free
        assert alg.translation_rank == 3


def assert_same_entries(got, want):
    assert [type(c) for c in got] == [type(c) for c in want]
    assert list(got) == list(want)


def assert_views_match_fixed_solves(jet, gauge=()):
    """pqr_families gives, entry for entry and type for type, the three
    fixed-translation solves, or None when one of them has no solution."""
    extra = [LinearEquation({g: F(1)}) for g in gauge]
    want = [fixed_translation_solve(jet, e, prefix, extra)
            for prefix, e in zip("pqr", (E_X, E_Y, E_Z))]
    got = pqr_families(solve_tangency(jet), gauge)
    if None in want:
        assert got is None
        return
    for view, fam, e in zip(got, want, (E_X, E_Y, E_Z)):
        assert_same_entries(view.particular, fam.particular + list(e))
        assert len(view.basis) == len(fam.basis)
        for vec, w in zip(view.basis, fam.basis):
            assert_same_entries(vec, w + list(ZERO4))
        assert view.free == fam.free
        assert view.free_cols == fam.free_cols


@pytest.mark.parametrize("case", CASES)
def test_pqr_views_match_fixed_solves_on_case_jets(case):
    for gauge in (cat.CUBIC_CASES[case].gauge, ()):
        assert_views_match_fixed_solves(cat.case_jet(case), gauge)


@pytest.mark.parametrize("nf", cat.NORMAL_FORM_IDS)
def test_pqr_views_match_fixed_solves_on_base_jets(nf):
    for gauge in (cat.CUBIC_CASES[cat.NORMAL_FORMS[nf].case].gauge, ()):
        assert_views_match_fixed_solves(cat.base_jet(nf), gauge)


def test_pqr_families_none_when_a_translation_is_out_of_reach():
    # the quartic x^4 leaves no field with translation e_x at order 3, while
    # fields with e_y and e_z remain; on w = x + y^2 + z^2, where the
    # tangent plane forces the w-translation to equal the x one, so do
    # fields of three translation columns (y, z and w)
    for jet in (Jet(QUADRIC.poly + X * X * X * X, 4), Jet(X + Y * Y + Z * Z, 3)):
        assert fixed_translation_solve(jet, E_X) is None
        assert fixed_translation_solve(jet, E_Y) is not None
        assert fixed_translation_solve(jet, E_Z) is not None
        assert_views_match_fixed_solves(jet)


# -- what _algebra reads of a residual, and when it reuses a closure verdict -------

@lru_cache(maxsize=None)
def _workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("sweep_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_alpha_pool():
    """The alphas the catalog-sweep benchmark binds, per parametric entry."""
    return _workloads().ALPHA_POOL


def _chain(Fj, low, top):
    """The algebras from order low to top, as verify_entry and
    reject_variant climb them."""
    algs = [full_algebra(Fj, low)]
    while algs[-1].order < top:
        algs.append(raise_order(algs[-1], Fj))
    return algs


def test_checked_residuals_have_only_the_new_degree(monkeypatch):
    # every field whose residual _algebra checks at order M is tangent
    # through M-1, so its full residual has no term below M and the
    # degree-M part it combines is all of it
    checked = set()

    def full_residual(jet, V, M, columns=None):
        got = tangency_residual(jet, V, M, columns)
        full = tangency_residual(jet, V, M)
        assert all(sum(m) == M for m in full.poly.terms), (M, V)
        assert got == full, (M, V)
        checked.add(M)
        return got

    monkeypatch.setattr(symmetry, "tangency_residual", full_residual)
    pool = _sweep_alpha_pool()
    for eid in cat.catalog():
        for alpha in pool.get(eid, (None,)):
            assert cat.verify_entry(eid, alpha, 6).passed, (eid, alpha)
    n = len(cat.catalog())
    for Fj in _expanded(6)[n:n + len(cat.VARIANTS)]:
        _chain(Fj, 4, 6)
    assert checked == {4, 5, 6, 7}


def test_raised_closure_verdict_matches_a_fresh_bracket_check():
    # a restriction that keeps every field reuses the verdict below
    reused = fresh = 0
    n = len(cat.catalog())
    chains = [_chain(Fj, 6, 7) for Fj in _expanded(7)[:n]]
    chains += [_chain(Fj, 4, 7) for Fj in _expanded(7)[n:n + len(cat.VARIANTS)]]
    for chain in chains:
        for below, alg in zip(chain, chain[1:]):
            closed = alg.tangency_ok and all(
                reduce_against_span(alg.basis, bracket(a, b), alg.free)
                for i, a in enumerate(alg.basis) for b in alg.basis[i + 1:])
            assert alg.closed == closed, alg.order
            if alg.full_dim == below.full_dim:
                reused += 1
            else:
                fresh += 1
    assert reused and fresh


# -- closure over Z against the bracket of the basis fields ------------------------

def _bracket_closed(basis, free):
    return all(reduce_against_span(basis, bracket(a, b), free)
               for i, a in enumerate(basis) for b in basis[i + 1:])


@lru_cache(maxsize=None)
def _dense_images(seed):
    """(entry, alpha, jet at order 7) of the dense-images benchmark's image
    of every entry for this seed, before it samples the ones a pass runs."""
    wl = _workloads()
    rng = random.Random(seed)
    out = []
    for eid in wl.ENTRY_IDS:
        alpha = rng.choice(wl.ALPHA_POOL[eid]) if eid in wl.ALPHA_POOL else None
        text, point = wl.affine_image(rng, eid, alpha)
        out.append((eid, alpha,
                    expand_graph(parse_surface(text, point.split(","), alpha), 7)))
    return out


def _invariants(alg):
    return (alg.full_dim, alg.isotropy_dim, alg.translation_rank, alg.closed,
            alg.tangency_ok)


def test_affine_images_keep_the_symmetry_algebra():
    # the classification is affine-invariant: at order 6, each seed-1
    # image of an entry has the entry's algebra dimensions, translation
    # rank and closure verdict at the same alpha
    for eid, alpha, image in _dense_images(1):
        entry = cat.catalog()[eid]
        source = expand_graph(parse_surface(entry.surface, entry.basepoint,
                                            alpha), 6)
        assert _invariants(full_algebra(image, 6)) == \
            _invariants(full_algebra(source)), (eid, alpha)


def test_integer_closure_equals_the_bracket_check(monkeypatch):
    # every catalog entry at every pooled alpha (orders 6 and 7), the
    # variants at orders 4 to 6, the normal forms over symbolic b and the
    # seed-1 dense images
    algebras = {"entries": [], "variants": [], "normal forms": [], "dense": []}
    pool = _sweep_alpha_pool()
    for eid, e in cat.catalog().items():
        for alpha in pool.get(eid, (None,)):
            Fj = expand_graph(parse_surface(e.surface, e.basepoint, alpha), 7)
            algebras["entries"] += _chain(Fj, 6, 7)
    n = len(cat.catalog())
    for Fj in _expanded(6)[n:n + len(cat.VARIANTS)]:
        algebras["variants"] += _chain(Fj, 4, 6)

    def recorded(*args, **kwargs):
        alg = full_algebra(*args, **kwargs)
        algebras["normal forms"].append(alg)
        return alg

    monkeypatch.setattr(cat, "full_algebra", recorded)
    for nf in cat.NORMAL_FORM_IDS:
        cat.confirm_isotropy(nf)
    monkeypatch.undo()
    algebras["dense"] = [full_algebra(Fj) for _, _, Fj in _dense_images(1)]
    assert [len(algebras[k]) for k in ("normal forms", "dense")] == [10, 20]

    verdicts = set()
    scaled = 0
    for kind, algs in algebras.items():
        for alg in algs:
            want = _bracket_closed(alg.basis, alg.free)
            assert _closed(alg.basis, alg.free) is want, (kind, alg.order)
            verdicts.add(want)
            scaled += any(isinstance(c, F) and c.denominator > 1
                          for b in alg.basis for c in b.coords())
    # both verdicts occur, and bases whose common denominator is not 1
    assert verdicts == {True, False} and scaled
