import functools
import importlib.util
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from affine_homog import catalog as cat
from affine_homog.frontend import expand_graph, parse_surface
from affine_homog.jets import Jet
from affine_homog.linalg import matrix_rank
from affine_homog.normalize import (HYPERBOLIC_GRAM, IDENTITY3, UNITS,
                                    AffineMap, NormalizationError,
                                    QuadraticForm, _classify, _dot,
                                    _laplacian, cubic_basis, gram_matrix,
                                    normal_shear, normalize_jet,
                                    normalize_quadratic,
                                    partials_span_dimension, pick_invariant,
                                    quadratic_poly, remove_linear,
                                    trace_decompose, transform_graph)
from affine_homog.poly import XYZ, Poly
from affine_homog.scalars import Tower, rational_sqrt
from test_cli_digests import ELLIPTIC, TOWER

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")
HYP = QuadraticForm(HYPERBOLIC_GRAM, "hyperbolic", HYPERBOLIC_GRAM)


def jet(p, n=4):
    return Jet(p, n)


def is_trace_free(c: Poly, h: QuadraticForm) -> bool:
    """Lap_h(c) = 6 sum_i trace_i(c) x_i: trace-free means h-harmonic."""
    return _laplacian(c, h).is_zero()


def cubic_type(c0: Poly, h: QuadraticForm) -> str:
    """The class of a trace-free cubic; any other raises
    ``NormalizationError``."""
    if not is_trace_free(c0, h):
        raise NormalizationError("cubic is not trace-free")
    return _classify(c0, h)[0]


def _sympy_matrix(rows):
    return sp.Matrix([[sp.Rational(c.numerator, c.denominator) for c in r]
                      for r in rows])


def _fractions(M):
    return tuple(tuple(F(int(c.p), int(c.q)) for c in M.row(i)) for i in range(3))


def complex_form(gram) -> QuadraticForm:
    """The complex form of a nondegenerate gram, with sympy's inverse."""
    return QuadraticForm(gram, "complex", _fractions(_sympy_matrix(gram).inv()))


def test_remove_linear():
    f = jet(X.scale(3) + (X * Y).scale(2) + Z * Z)
    g, phi = remove_linear(f)
    assert not g.homogeneous_part(1)
    assert transform_graph(g, AffineMap.identity()) == g


def test_normalize_quadratic_complex_diagonal():
    f = jet(X * X + Y * Y + Z * Z)
    nq = normalize_quadratic(f)
    assert transform_graph(f, nq.change).homogeneous_part(2) == (X * Y).scale(2) + Z * Z
    assert nq.form.signature == "complex"


def test_normalize_quadratic_real_definite_is_elliptic():
    f = jet(X * X + (Y * Y).scale(4) + Z * Z)
    nq = normalize_quadratic(f, fld="real")
    assert nq.form.signature == "elliptic"
    assert transform_graph(f, nq.change).homogeneous_part(2) == X * X + Y * Y + Z * Z


@pytest.mark.parametrize("q", [
    X * X, (X + Y) * (X + Y), Poly.zero(),                  # rank 1 and 0
    X * Y, X * X + Y * Y, X * X - Z * Z, X * Y + Y * Z])    # rank 2
def test_degenerate_quadratic_rejected(q):
    # the diagonalization ends on a zero value exactly when H is singular
    with pytest.raises(NormalizationError, match=r"^degenerate quadratic "
                       r"part \(non-degeneracy fails\)$"):
        normalize_quadratic(jet(q + X * X * Y))


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
    c0, phi = normal_shear(f.homogeneous_part(3))
    g = transform_graph(f, phi)
    assert is_trace_free(g.homogeneous_part(3), HYP)
    assert g.homogeneous_part(3) == c0
    assert g.homogeneous_part(2) == f.homogeneous_part(2)


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


def test_cubic_type_rejects_a_cubic_that_is_not_trace_free():
    # Lap_h(z^3) = 6z under the hyperbolic form
    with pytest.raises(NormalizationError, match="^cubic is not trace-free$"):
        cubic_type(Z * Z * Z, HYP)


def test_trace_decompose_leaves_a_trace_free_cubic_under_random_forms():
    # normalize_jet classifies the c0 of trace_decompose without checking it
    rng = random.Random(5)
    monos = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    forms = 0
    while forms < 100:
        e = [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(6)]
        gram = ((e[0], e[1], e[2]), (e[1], e[3], e[4]), (e[2], e[4], e[5]))
        if matrix_rank(gram) < 3:
            continue
        forms += 1
        h = complex_form(gram)
        c = Poly(("x", "y", "z"), ((m, F(rng.randint(-4, 4), rng.randint(1, 3)))
                                   for m in monos if rng.random() < 0.6))
        c0, l = trace_decompose(c, h)
        assert is_trace_free(c0, h)
        assert c0 + quadratic_poly(h) * l == c


def test_normalize_jet_pipeline_on_catalog_surfaces():
    cases = [("W = X*Y + Z^2 + X^3", ("0", "0", "0", "0"), "I3"),
             ("W = X*Y + Z^2 + X*Z^2", ("0", "0", "0", "0"), "I1"),
             ("W = X*Y + exp(Z)", ("1", "0", "0", "0"), "I0")]
    for text, bp, expected in cases:
        f = expand_graph(parse_surface(text, bp), 4)
        rep = normalize_jet(f)
        assert rep.cubic_class == expected
        assert rep.jet.homogeneous_part(2) == (X * Y).scale(2) + Z * Z
        assert is_trace_free(rep.jet.homogeneous_part(3), HYP)


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
@given(st.lists(fractions, min_size=8, max_size=8), st.booleans())
def test_inverse_gram_matches_sympy(entries, singular):
    # the one H^-1 of the package: the source form's, read off the
    # congruence diagonalization of a random symmetric gram; a singular
    # gram (its third row and column s and t times the first two) fails
    # the diagonalization
    e = entries
    gram = [[e[0], e[1], e[2]], [e[1], e[3], e[4]], [e[2], e[4], e[5]]]
    if singular:
        s, t = e[6], e[7]
        for j in range(2):
            gram[2][j] = gram[j][2] = s * gram[0][j] + t * gram[1][j]
        gram[2][2] = s * s * gram[0][0] + 2 * s * t * gram[0][1] + t * t * gram[1][1]
    q = Poly(XYZ, ((tuple(a + b for a, b in zip(UNITS[i], UNITS[j])), gram[i][j])
                   for i in range(3) for j in range(3)))
    M = _sympy_matrix(gram)
    if M.det() == 0:
        with pytest.raises(NormalizationError):
            normalize_quadratic(jet(q, 3))
    else:
        form = normalize_quadratic(jet(q, 3)).source_form
        assert form.gram == tuple(map(tuple, gram))
        assert form.inverse == _fractions(M.inv())


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
    M = _sympy_matrix(gram)
    assume(M.det() != 0)
    Hi = M.inv()
    h = complex_form(gram)

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


def test_normal_form_grams_are_their_own_inverses():
    # the forms of the normal forms pass their gram as its inverse
    for gram in (HYPERBOLIC_GRAM, IDENTITY3):
        assert _sympy_matrix(gram) ** 2 == sp.eye(3)


def test_invariants_reject_non_cubics():
    for fn in (is_trace_free, trace_decompose, pick_invariant):
        with pytest.raises(ValueError, match="not a cubic form"):
            fn(X * Y + Z, HYP)


# zeros of every scalar type the normalization meets, and nonzero values
_TOWER = Tower(("s",), (F(2),))
_S = _TOWER.generator(0)
mixed_scalars = st.sampled_from([0, 1, F(0), F(1), F(-3, 2), _TOWER.const(0),
                                 _S, 1 + _S, _TOWER.const(F(2, 3))])


def _exact_equal(got, want):
    return not isinstance(got, float) and got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_scalars, min_size=15, max_size=15))
def test_dot_skips_zero_products_keeping_the_full_sum(xs):
    for u, v in ((xs[:3], xs[3:6]), (xs[6:9], xs[9:12]), (xs[12:], xs[:3])):
        assert _exact_equal(_dot(u, v), sum(a * b for a, b in zip(u, v)))


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


# -- the two-step normalization as an oracle ------------------------------------

def _ip(H, u, v):
    return sum((u[i] * H[i][j] * v[j] for i in range(3) for j in range(3)), F(0))


def _promoted(c, tower):
    return tower.const(c) if tower is not None and isinstance(c, F) else c


def _quadratic_oracle(f1, fld):
    """The quadratic normal form by a search over inner products, and its
    graph by a series solve: the jet, the change, the form and the tower."""
    H = gram_matrix(f1)
    basis = [list(e) for e in IDENTITY3]
    for k in range(3):
        if not _ip(H, basis[k], basis[k]):
            hit = next((l for l in range(k + 1, 3) if _ip(H, basis[l], basis[l])), None)
            if hit is not None:
                basis[k], basis[hit] = basis[hit], basis[k]
            else:
                for l in range(k + 1, 3):
                    if _ip(H, basis[k], basis[l]):
                        basis[k] = [a + b for a, b in zip(basis[k], basis[l])]
                        break
        d = _ip(H, basis[k], basis[k])
        for l in range(k + 1, 3):
            f = _ip(H, basis[k], basis[l]) / d
            basis[l] = [a - f * b for a, b in zip(basis[l], basis[k])]
    d = [_ip(H, b, b) for b in basis]
    tower = None
    if fld == "real" and (all(x > 0 for x in d) or all(x < 0 for x in d)):
        # a scale is a rational q, or q times the root of an earlier
        # irrational square a, (q, a); a new irrational square is (1, a)
        squares, roots = [], []
        for i in range(3):
            val = d[2] / d[i]
            root = rational_sqrt(val)
            if root is None:
                a = next((a for a in squares if rational_sqrt(val * a)), val)
                root = (rational_sqrt(val * a) / a, a)
                if a is val:
                    squares.append(val)
            roots.append(root)
        if squares:
            tower = Tower([f"s{k + 1}" for k in range(len(squares))], squares)
        scales = [_promoted(r, tower) if isinstance(r, F)
                  else tower.generator(squares.index(r[1])) * r[0] for r in roots]
        cols = [[b * sc for b in basis[i]] for i, sc in enumerate(scales)]
        w_scale = 1 / _promoted(1 / d[2], tower)
        form = QuadraticForm(IDENTITY3, "elliptic", IDENTITY3)
    else:
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        found = [(i, j, s) for i, j in pairs if -d[i] / d[j] > 0
                 for s in [rational_sqrt(-d[i] / d[j])] if s is not None]
        if found:
            i, j, s = found[0]
        else:
            i, j = (next((i, j) for i, j in pairs if -d[i] / d[j] > 0)
                    if fld == "real" else (0, 1))
            tower = Tower(("s1",), (-d[i] / d[j],))
            s = tower.generator(0)
        iso = [_promoted(a + s * b, tower) for a, b in zip(basis[i], basis[j])]
        Ht = [[_promoted(c, tower) for c in row] for row in H]
        bt = [[_promoted(c, tower) for c in b] for b in basis]
        v0 = next(b for b in bt if _ip(Ht, iso, b))
        beta0 = _ip(Ht, iso, v0)
        v = [a - (_ip(Ht, v0, v0) / (2 * beta0)) * b for a, b in zip(v0, iso)]
        beta = _ip(Ht, iso, v)
        cands = [[a - (_ip(Ht, b, v) / beta) * u - (_ip(Ht, b, iso) / beta) * w
                  for a, u, w in zip(b, iso, v)] for b in bt]
        e = next(c for c in cands if any(c) and _ip(Ht, c, c))
        gamma = _ip(Ht, e, e)
        cols = [[(gamma / beta) * c for c in iso], v, e]
        w_scale = 1 / (1 / gamma)
        form = QuadraticForm(HYPERBOLIC_GRAM, "complex" if fld == "complex" else "hyperbolic",
                             HYPERBOLIC_GRAM)
    t3 = [[cols[j][i] for j in range(3)] for i in range(3)]
    phi = AffineMap.xyz_linear(t3, w_scale)
    return transform_graph(f1, phi), phi, form, tower


def two_step(f, fld="complex"):
    """The normalized jet, change, cubic, class, Pick invariant and tower,
    with the quadratic jet solved first and the shear, read off its cubic,
    applied by a second solve."""
    f1, phi1 = remove_linear(f)
    j1, phi2, form, tower = _quadratic_oracle(f1, fld)
    change = phi1.compose(phi2)
    c = j1.homogeneous_part(3)
    if form.signature == "elliptic":
        return j1, change, c, "unclassified-elliptic", pick_invariant(c, form), tower
    h = QuadraticForm(HYPERBOLIC_GRAM, form.signature, HYPERBOLIC_GRAM)
    lv = [trace_decompose(c, h)[1].coefficient(e) for e in UNITS]
    Hi = h.inverse
    rows = [list(r) for r in AffineMap.identity().linear]
    for i in range(3):
        rows[i][3] = -sum(Hi[i][k] * lv[k] for k in range(3)) / 2
    shear = AffineMap(tuple(map(tuple, rows)))
    j2 = transform_graph(j1, shear)
    c0 = j2.homogeneous_part(3)
    return j2, change.compose(shear), c0, cubic_type(c0, h), pick_invariant(c0, h), tower


def assert_matches_two_step(f, fld="complex"):
    rep = normalize_jet(f, fld)
    jet_, change, cubic, kind, pick, tower = two_step(f, fld)
    assert rep.change == change
    assert rep.jet.homogeneous_part(3) == cubic
    assert (rep.cubic_class, rep.pick) == (kind, pick)
    if tower is None:
        assert rep.tower is None
    else:
        assert (rep.tower.names, rep.tower.squares) == (tower.names, tower.squares)
    assert rep.jet == jet_
    return rep, pick


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("eid, alpha", [
    (eid, alpha) for eid in WORKLOADS.ENTRY_IDS
    for alpha in WORKLOADS.ALPHA_POOL.get(eid, (None,))])
def test_one_solve_matches_two_step_on_every_catalog_jet(eid, alpha):
    entry = cat.catalog()[eid]
    f = expand_graph(parse_surface(entry.surface, entry.basepoint, alpha), 6)
    for order in (3, 6):
        assert_matches_two_step(f.truncate(order))


# a tower quadric with a nonzero cubic, whose Pick invariant is scaled in
# the tower
TOWER_CUBIC = TOWER + " + X^3 + X*Y*Z"
# two irrational elliptic scales, sqrt(2) and sqrt(1/2) = sqrt(2)/2: one root
DEPENDENT_ROOTS = "W = X^2 + 4*Y^2 + 2*Z^2 + X^3"


@pytest.mark.parametrize("surface, fld", [(s, "real")
                                          for s in ELLIPTIC + (DEPENDENT_ROOTS,)]
                         + [(s, fld) for s in (TOWER, TOWER_CUBIC)
                            for fld in ("complex", "real")])
def test_one_solve_matches_two_step_on_the_recorded_quadrics(surface, fld):
    f = expand_graph(parse_surface(surface, ("0", "0", "0", "0")), 6)
    assert normalize_jet(f, fld).tower or surface == ELLIPTIC[0]
    for order in (3, 5, 6):
        assert_matches_two_step(f.truncate(order), fld)


@pytest.mark.parametrize("surface", [TOWER, TOWER_CUBIC])
def test_pick_has_the_scalar_type_of_the_normalized_coordinates(surface):
    # a tower element for a cubic over the tower, and the rational 0 for a
    # zero cubic, as the normalized cubic gives them
    rep = normalize_jet(expand_graph(parse_surface(surface, ("0",) * 4), 3))
    assert rep.tower is not None
    assert type(rep.pick) is type(pick_invariant(rep.jet.homogeneous_part(3), rep.form))


@functools.lru_cache(maxsize=None)
def _seed1_images():
    """The 20 images a seed-1 dense-images workload draws from, one per
    entry, as (entry id, alpha, 5-jet): dense jets with linear terms."""
    rng = random.Random(1)
    out = []
    for eid in WORKLOADS.ENTRY_IDS:
        pool = WORKLOADS.ALPHA_POOL
        alpha = rng.choice(pool[eid]) if eid in pool else None
        text, point = WORKLOADS.affine_image(rng, eid, alpha)
        out.append((eid, alpha,
                    expand_graph(parse_surface(text, point.split(","), alpha), 5)))
    return out


def test_one_solve_matches_two_step_on_affine_images():
    for _, _, f in _seed1_images():
        assert_matches_two_step(f)


def _random_3jet(rng):
    """A seeded 3-jet with a nondegenerate quadratic part and, as a rule,
    linear terms: small rationals on a random subset of the monomials."""
    monos = [(a, b, n - a - b) for n in (1, 2, 3)
             for a in range(n + 1) for b in range(n + 1 - a)]
    while True:
        f = jet(Poly(("x", "y", "z"), (
            (m, F(rng.randint(-3, 3), rng.choice((1, 1, 2))))
            for m in monos if rng.random() < 0.7)), 3)
        if matrix_rank(gram_matrix(f)) == 3:
            return f


def test_one_solve_matches_two_step_on_seeded_random_jets():
    rng = random.Random(28)
    towers = elliptic = 0
    for k in range(200):
        f = _random_3jet(rng)
        fld = ("complex", "real")[k % 2]
        if k % 8 == 7:
            # a diagonally dominant, so definite, quadric: the elliptic form
            f = jet(f.poly + (X * X + Y * Y + Z * Z).scale(8), 3)
        rep, pick = assert_matches_two_step(f, fld)
        # the Pick invariant keeps its scalar type, and so its JSON form
        assert type(rep.pick) is type(pick)
        towers += rep.tower is not None
        elliptic += rep.form.signature == "elliptic"
    # the draw reaches the tower and the elliptic branches
    assert towers >= 50 and elliptic >= 20


def test_affine_images_keep_the_class_and_the_zero_pattern_of_pick():
    # the classification is affine-invariant: each seed-1 image of an
    # entry has its cubic class, and its Pick invariant is zero where the
    # entry's is
    for eid, alpha, f in _seed1_images():
        entry = cat.catalog()[eid]
        source = expand_graph(parse_surface(entry.surface, entry.basepoint,
                                            alpha), 3)
        rep = normalize_jet(f.truncate(3))
        assert rep.cubic_class == WORKLOADS.CUBIC_CLASS[eid], eid
        assert bool(rep.pick) == bool(normalize_jet(source).pick), eid


def assert_idempotent(f):
    rep = normalize_jet(f)
    again = normalize_jet(rep.jet)
    assert again.jet == rep.jet
    assert (again.cubic_class, again.pick) == (rep.cubic_class, rep.pick)
    assert again.change == AffineMap.identity()


def test_normalization_is_idempotent():
    # a normalized jet is its own normal form, with the identity change:
    # every entry at its sweep alpha, and each seed-1 image whose
    # normalization adjoins no root (a jet over a tower cannot be
    # normalized again)
    for eid, e in cat.catalog().items():
        assert_idempotent(expand_graph(parse_surface(
            e.surface, e.basepoint, cat.SWEEP_ALPHAS.get(eid)), 4))
    rational = [f.truncate(4) for _, _, f in _seed1_images()
                if normalize_jet(f.truncate(3)).tower is None]
    assert len(rational) == 9
    for f in rational:
        assert_idempotent(f)


def test_verify_builds_no_normalizing_map(monkeypatch):
    # verify reads only the class and the Pick invariant, which the source
    # coordinates give: the map, its shear and every series solve raise
    def refuse(*args, **kwargs):
        raise AssertionError("the normalizing map was built")

    monkeypatch.setattr(AffineMap, "compose", refuse)
    monkeypatch.setattr("affine_homog.normalize.normal_shear", refuse)
    monkeypatch.setattr("affine_homog.normalize.transform_graph", refuse)
    monkeypatch.setattr("affine_homog.catalog.transform_graph", refuse)
    for eid in WORKLOADS.ENTRY_IDS:
        for alpha in WORKLOADS.ALPHA_POOL.get(eid, (None,)):
            rep = cat.verify_entry(eid, alpha=alpha)
            assert rep.passed, (eid, alpha)
            assert rep.details["cubic_class"] == WORKLOADS.CUBIC_CLASS[eid]
