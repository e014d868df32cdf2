from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from affine_homog import catalog as cat
from affine_homog.frontend import expand_graph, parse_surface
from affine_homog.jets import Jet
from affine_homog.poly import Poly
from affine_homog.symmetry import (E_X, E_Y, E_Z, GAUGE_ENTRIES,
                                   AffineVectorField, CompletionError,
                                   bracket, closure_constraints,
                                   complete_series, full_algebra,
                                   linear_equations, normalize_gauge,
                                   pqr_families, solve_tangency,
                                   tangency_columns, tangency_residual)

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")
QUADRIC = Jet((X * Y).scale(2) + Z * Z, 4)


def field(rows, v=(0, 0, 0, 0)):
    return AffineVectorField(tuple(tuple(F(c) for c in r) for r in rows),
                             tuple(F(c) for c in v))


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


def test_columns_match_sympy_residual_of_unit_fields():
    x, y, z = sp.symbols("x y z")
    f_expr = 2 * x * y + z**2 + x**2 * y - 2 * x * z**2 + sp.Rational(3, 4) * y**4
    fj = Jet((X * Y).scale(2) + Z * Z + X * X * Y - (X * Z * Z).scale(2)
             + (Y * Y * Y * Y).scale(F(3, 4)), 4)
    M = 3
    grad = [sp.diff(f_expr, s) for s in (x, y, z)] + [sp.Integer(-1)]
    coords = [x, y, z, f_expr, sp.Integer(1)]

    def truncated(expr):
        terms = sp.Poly(sp.expand(expr), x, y, z).terms()
        return {m: F(int(c.p), int(c.q)) for m, c in terms if sum(m) <= M}

    cols = tangency_columns(fj, M, range(20))
    for k, col in enumerate(cols):
        i, j = divmod(k, 4) if k < 16 else (k - 16, 4)
        # unit field: component i of A.(x,y,z,F)^T + v is coords[j]
        assert col.poly.terms == truncated(grad[i] * coords[j]), k


def _expanded(order):
    """Every catalog entry (at its sweep alpha), near-miss variant and the
    replacement surface, expanded to the given order."""
    specs = [parse_surface(e.surface, e.basepoint, cat.SWEEP_ALPHAS.get(eid))
             for eid, e in cat.catalog().items()]
    specs += [parse_surface(text, tuple(F(c) for c in bp))
              for text, bp in (*cat.VARIANTS.values(), cat.REPLACEMENT_SURFACE)]
    return [expand_graph(spec, order) for spec in specs]


@pytest.mark.parametrize("N", (6, 7))
def test_columns_built_one_order_up_truncate_where_the_rule_allows(N):
    # shared columns: built at N+1 from F, read at M for F.truncate(N)
    translation_differs = False
    for Fj in _expanded(N + 1)[:len(cat.catalog())]:
        top = tangency_columns(Fj, N + 1, range(20))
        for M in range(N + 1):
            own = tangency_columns(Fj.truncate(N), M, range(20))
            for k, (shared, col) in enumerate(zip(top, own)):
                if k < 16 or M <= N - 1:
                    assert Jet(shared.poly, M) == col, (M, k)
                else:
                    translation_differs |= Jet(shared.poly, M) != col
    # the translation columns at M = N are outside the rule
    assert translation_differs


def test_expanded_graphs_have_no_constant_term():
    # the column-sharing rule needs F(0) = 0
    for Fj in _expanded(7):
        assert not Fj.poly.constant_term()


def test_linear_equations_rows_in_grevlex_order():
    # base + u*(x + z^2) + w*(2y) = 0, rows ascending in grevlex;
    # the monomial y*z appears nowhere and gets no row
    base = Jet(Poly.const(F(3)) - Z * Z, 2)
    cols = [Jet(X + Z * Z, 2), Jet(Y.scale(2), 2)]
    eqs = linear_equations(cols, base, ["u", "w"])
    assert [(e.coeffs, e.rhs) for e in eqs] == [
        ({}, F(-3)), ({"w": F(2)}, F(0)), ({"u": F(1)}, F(0)),
        ({"u": F(1)}, F(1))]


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


def test_quadric_isotropy_dimension():
    fam = solve_tangency(QUADRIC, translation="zero")
    assert fam.dimension == 4


def test_quadric_full_algebra():
    alg = full_algebra(QUADRIC)
    assert alg.closed and alg.tangency_ok
    assert alg.isotropy_dim == 4
    assert alg.full_dim == 7
    assert alg.translation_rank == 3


def test_pqr_families_translations():
    f = Jet((X * Y).scale(2) + Z * Z + X * X * Y - (X * Z * Z).scale(2), 3)
    fams = pqr_families(f, case="I1")
    assert fams is not None
    famP, famQ, famR = fams
    # at cubic order the gauged solve leaves 6 free unknowns per matrix
    assert [g.dimension for g in fams] == [6, 6, 6]
    assert famP.field().v[:3] == E_X[:3]
    assert famQ.field().v[:3] == E_Y[:3]
    assert famR.field().v[:3] == E_Z[:3]


def test_closure_constraint_count_i1():
    f = Jet((X * Y).scale(2) + Z * Z + X * X * Y - (X * Z * Z).scale(2), 3)
    fams = pqr_families(f, case="I1")
    cons = closure_constraints(f, *fams)
    assert len(cons) == 41


def test_gauge_entries_per_case():
    assert GAUGE_ENTRIES["no-cubic"] == ("13", "22", "31", "44")
    assert GAUGE_ENTRIES["I3"] == ("22", "31")
    assert GAUGE_ENTRIES["Inr"] == ("23",)
    eqs = normalize_gauge("I1")
    assert len(eqs) == 3  # one pinned entry for each of p, q, r


def test_complete_series_quadric_stays_quadratic():
    def w_row(col):
        rows = [[F(0)] * 4 for _ in range(4)]
        rows[3][col] = F(2)
        return tuple(tuple(r) for r in rows)

    P, Q, R = w_row(1), w_row(0), w_row(2)
    comp, degs = complete_series(QUADRIC.truncate(3), P, Q, R, 6)
    assert comp.poly == QUADRIC.poly
    assert degs == []


def test_complete_series_truncation_coherence():
    from affine_homog.catalog import base_jet
    f = base_jet("I1.1")
    fams = pqr_families(f, case="I1")
    P, Q, R = (g.field().A for g in fams)
    full, _ = complete_series(f, P, Q, R, 7)
    part, _ = complete_series(f, P, Q, R, 5)
    assert full.truncate(5) == part


def test_completion_error_on_inconsistent_matrices():
    bad = tuple(tuple(F(1) for _ in range(4)) for _ in range(4))
    with pytest.raises(CompletionError):
        complete_series(QUADRIC.truncate(3), bad, bad, bad, 5)
