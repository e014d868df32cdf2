from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from affine_homog.frontend import expand_graph, parse_surface
from affine_homog.jets import Jet
from affine_homog.normalize import (HYPERBOLIC_GRAM, IDENTITY3, AffineMap,
                                    NormalizationError, QuadraticForm, _ip,
                                    cubic_basis, cubic_type, is_trace_free,
                                    normal_shear, normalize_jet,
                                    normalize_quadratic,
                                    partials_span_dimension, pick_invariant,
                                    quadratic_poly, remove_linear,
                                    trace_decompose, transform_graph)
from affine_homog.poly import Poly
from affine_homog.scalars import RationalFunc, Tower

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")
HYP = QuadraticForm(HYPERBOLIC_GRAM, "hyperbolic")


def jet(p, n=4):
    return Jet(p, n)


def test_remove_linear():
    f = jet(X.scale(3) + (X * Y).scale(2) + Z * Z)
    g, phi = remove_linear(f)
    assert not g.homogeneous_part(1)
    assert transform_graph(g, AffineMap.identity()) == g


def test_normalize_quadratic_complex_diagonal():
    f = jet(X * X + Y * Y + Z * Z)
    nq = normalize_quadratic(f)
    assert nq.jet.homogeneous_part(2) == (X * Y).scale(2) + Z * Z
    assert nq.form.signature == "complex"


def test_normalize_quadratic_real_definite_is_elliptic():
    f = jet(X * X + (Y * Y).scale(4) + Z * Z)
    nq = normalize_quadratic(f, fld="real")
    assert nq.form.signature == "elliptic"
    assert nq.jet.homogeneous_part(2) == X * X + Y * Y + Z * Z


def test_degenerate_quadratic_rejected():
    with pytest.raises(NormalizationError):
        normalize_quadratic(jet(X * Y))


def test_cubic_basis_trace_free():
    basis = cubic_basis()
    assert len(basis) == 7
    for b in basis:
        assert is_trace_free(b, HYP)


def test_trace_decompose_idempotent():
    c = X * X * X + (X * Y * Z).scale(2) + Y * Y * Y - (Z * Z * Z).scale(5)
    tf, lin = trace_decompose(c, HYP)
    assert is_trace_free(tf, HYP)
    q = (X * Y).scale(2) + Z * Z
    assert tf + q * lin == c
    tf2, lin2 = trace_decompose(tf, HYP)
    assert tf2 == tf and not lin2


def test_normal_shear_makes_cubic_trace_free():
    f = jet((X * Y).scale(2) + Z * Z + X * X * X + (X * Y * Y).scale(3))
    g, phi = normal_shear(f)
    assert is_trace_free(g.homogeneous_part(3), HYP)
    assert transform_graph(f, phi) == g


def test_pick_invariant_values():
    basis = cubic_basis()
    for b in basis[:3]:
        assert pick_invariant(b, HYP) == 0
    assert pick_invariant(basis[3], HYP) == F(5, 2)


def test_partials_span_dimensions():
    basis = cubic_basis()
    expected = {0: 1, 1: 2, 2: 3, 3: 3}
    for idx, dim in expected.items():
        assert partials_span_dimension(basis[idx]) == dim


def test_cubic_type_classification():
    basis = cubic_basis()
    assert cubic_type(Poly.zero(), HYP) == "Zero"
    assert cubic_type(basis[0], HYP) == "I3"
    assert cubic_type(basis[1], HYP) == "I2"
    assert cubic_type(basis[2], HYP) == "I1"
    assert cubic_type(basis[3], HYP) == "I0"


def test_normalize_jet_pipeline_on_catalog_surfaces():
    cases = [("W = X*Y + Z^2 + X^3", ("0", "0", "0", "0"), "I3"),
             ("W = X*Y + Z^2 + X*Z^2", ("0", "0", "0", "0"), "I1"),
             ("W = X*Y + exp(Z)", ("1", "0", "0", "0"), "I0")]
    for text, bp, expected in cases:
        f = expand_graph(parse_surface(text, bp), 4)
        rep = normalize_jet(f)
        assert rep.cubic_class == expected
        assert rep.jet.homogeneous_part(2) == (X * Y).scale(2) + Z * Z
        assert is_trace_free(rep.cubic, HYP)
        assert transform_graph(f, rep.change) == rep.jet


def test_transform_graph_inverse_composition():
    f = expand_graph(parse_surface("W = X*Y + Z^2 + X^3",
                                   ("0", "0", "0", "0")), 5)
    phi = AffineMap(((F(2), F(0), F(0), F(0)),
                     (F(0), F(1), F(1), F(0)),
                     (F(0), F(0), F(1), F(0)),
                     (F(0), F(0), F(0), F(3))))
    inv = AffineMap(((F(1, 2), F(0), F(0), F(0)),
                     (F(0), F(1), F(-1), F(0)),
                     (F(0), F(0), F(1), F(0)),
                     (F(0), F(0), F(0), F(1, 3))))
    g = transform_graph(f, phi)
    assert transform_graph(g, inv) == f


fractions = st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: F(*t))


@settings(max_examples=200, deadline=None)
@given(st.lists(fractions, min_size=9, max_size=9), st.booleans())
def test_inverse_gram_matches_sympy(entries, singular):
    rows = [entries[0:3], entries[3:6], entries[6:9]]
    if singular:
        s, t = entries[6], entries[7]
        rows[2] = [s * a + t * b for a, b in zip(rows[0], rows[1])]
    form = QuadraticForm(tuple(map(tuple, rows)), "complex")
    M = sp.Matrix([[sp.Rational(c.numerator, c.denominator) for c in r]
                   for r in rows])
    if M.det() == 0:
        with pytest.raises(NormalizationError, match="singular"):
            form.inverse_gram()
    else:
        expected = [[F(int(c.p), int(c.q)) for c in M.inv().row(i)]
                    for i in range(3)]
        assert [list(r) for r in form.inverse_gram()] == expected


CUBIC_MONOS = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def _sympy_tensor(c: Poly):
    """C_ijk = d_i d_j d_k c / 6, so that c = sum C_ijk x_i x_j x_k."""
    xs = sp.symbols("x y z")
    P = sp.Poly.from_dict({m: sp.Rational(v.numerator, v.denominator)
                           for m, v in c.terms.items()}, *xs)
    return [[[P.diff(xi).diff(xj).diff(xk).as_expr() / 6 for xk in xs]
             for xj in xs] for xi in xs]


@st.composite
def cubic_and_form(draw):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=10, max_size=10))
    c = Poly(("x", "y", "z"), zip(CUBIC_MONOS, map(F, coeffs)))
    gram = draw(st.one_of(
        st.sampled_from([HYPERBOLIC_GRAM, IDENTITY3]),
        st.lists(fractions, min_size=6, max_size=6).map(
            lambda e: ((e[0], e[1], e[2]), (e[1], e[3], e[4]),
                       (e[2], e[4], e[5])))))
    return c, gram


@settings(max_examples=150, deadline=None)
@given(cubic_and_form())
def test_cubic_invariants_match_the_tensor_contractions(case):
    # the deleted 3-tensor formulas, evaluated in sympy, as the oracle for
    # the h-Laplacian and apolar-pairing forms
    c, gram = case
    M = sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in r]
                   for r in gram])
    assume(M.det() != 0)
    Hi = M.inv()
    h = QuadraticForm(gram, "complex")

    def trace(C):
        return [sum(Hi[j, k] * C[i][j][k] for j in range(3) for k in range(3))
                for i in range(3)]

    def pick(C):
        # sum C_ijk C_lmn H^il H^jm H^kn, raising one index at a time
        r = range(3)
        D = C
        for _ in r:
            # contract the first index with H^-1 and move it to the end
            D = [[[sum(Hi[i, l] * D[i][j][k] for i in r) for l in r]
                  for k in r] for j in r]
        total = sum(C[i][j][k] * D[i][j][k] for i in r for j in r for k in r)
        return F(int(total.p), int(total.q))

    C = _sympy_tensor(c)
    assert is_trace_free(c, h) == (trace(C) == [0, 0, 0])
    c0, l = trace_decompose(c, h)
    assert c == c0 + quadratic_poly(h) * l
    assert l.homogeneous_part(1) == l
    C0 = _sympy_tensor(c0)
    assert trace(C0) == [0, 0, 0] and is_trace_free(c0, h)
    assert pick_invariant(c0, h) == pick(C0)
    assert pick_invariant(c, h) == pick(C)


def test_invariants_reject_non_cubics():
    for fn in (is_trace_free, trace_decompose, pick_invariant):
        with pytest.raises(ValueError, match="not a cubic form"):
            fn(X * Y + Z, HYP)


# zeros of every scalar type the normalization meets, and nonzero values
_TOWER = Tower(("s",), (F(2),))
_S = _TOWER.generator(0)
mixed_scalars = st.sampled_from([0, 1, F(0), F(1), F(-3, 2), _TOWER.const(0),
                                 _S, 1 + _S, _TOWER.const(F(2, 3))])


def test_inverse_gram_is_memoized_for_fraction_grams_only():
    # every form the pipeline builds shares one inverse; a tower gram (even
    # one that equals a Fraction gram) and one over Q(b), which does not
    # hash, are solved each time, in their own scalars
    assert HYP.inverse_gram() is QuadraticForm(HYPERBOLIC_GRAM, "complex").inverse_gram()
    swap = ((F(0), F(0), F(1)), (F(0), F(1), F(0)))
    for a in (F(2), _TOWER.const(F(2)), 1 + _S, RationalFunc.gen("b")):
        inv = QuadraticForm(((a, F(0), F(0)),) + swap, "complex").inverse_gram()
        assert type(inv[0][0]) is type(a) and inv[0][0] == 1 / a
        assert inv[1:] == swap and inv[0][1:] == (0, 0)


def _exact_equal(got, want):
    return not isinstance(got, float) and got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_scalars, min_size=15, max_size=15))
def test_ip_skips_zero_products_keeping_the_full_sum(xs):
    u, v, H = xs[:3], xs[3:6], (xs[6:9], xs[9:12], xs[12:15])
    full = sum(u[i] * H[i][j] * v[j] for i in range(3) for j in range(3))
    assert _exact_equal(_ip(H, u, v), full)


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_scalars, min_size=40, max_size=40))
def test_compose_skips_zero_products_keeping_the_full_sums(xs):
    rows = lambda ys: tuple(tuple(ys[i:i + 4]) for i in range(0, 16, 4))
    a = AffineMap(rows(xs[:16]), tuple(xs[16:20]))
    b = AffineMap(rows(xs[20:36]), tuple(xs[36:]))
    got = a.compose(b)
    for i in range(4):
        for j in range(4):
            assert _exact_equal(got.linear[i][j],
                                sum(a.linear[i][k] * b.linear[k][j]
                                    for k in range(4)))
        assert _exact_equal(got.translation[i],
                            sum(a.linear[i][k] * b.translation[k]
                                for k in range(4)) + a.translation[i])
