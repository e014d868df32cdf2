import random
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

from affine_homog.linalg import (LinearEquation, linear_solve, matrix_rank,
                                 nullspace, rref, solve_rows)
from affine_homog.scalars import RationalFunc, primitive, primitive_integers
from test_scalars import ratfuncs


def eq(coeffs, rhs=0):
    return LinearEquation({k: F(v) for k, v in coeffs.items()}, F(rhs))


def test_unique_solution():
    fam = linear_solve([eq({0: 2, 1: 1}, 5), eq({0: 1, 1: -1}, 1)],
                       ("x", "y"))
    assert fam.is_unique()
    assert fam.particular == [F(2), F(1)]


def test_inconsistent_returns_none():
    fam = linear_solve([eq({0: 1}, 1), eq({0: 1}, 2)], ("x",))
    assert fam is None


@pytest.mark.parametrize("k", (-1, 2))
def test_column_index_outside_the_unknowns_raises(k):
    # -1 would otherwise wrap to y, and 2 index past the row
    with pytest.raises(ValueError, match=f"column index {k} "):
        linear_solve([eq({k: 1}, 1)], ("x", "y"))


def test_underdetermined_family():
    fam = linear_solve([eq({0: 1, 1: 1, 2: 1}, 3)], ("x", "y", "z"))
    assert fam.dimension == 2
    assert fam.free == ["y", "z"] and fam.free_cols == [1, 2]
    m = fam.member({v: F(0) for v in fam.free})
    assert sum(m) == 3
    m2 = fam.member({v: F(1) for v in fam.free})
    assert sum(m2) == 3


def test_member_ignores_extra_keys():
    fam = linear_solve([eq({0: 1, 1: 1}, 1)], ("x", "y"))
    m = fam.member({"y": F(2), "unused": F(9)})
    assert m == [F(-1), F(2)]


def test_matrix_rank():
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert matrix_rank([[F(0), F(0)]]) == 0


def test_big_random_consistency():
    # fixed pseudo-random system solved and substituted back
    import random
    rng = random.Random(7)
    names = tuple(f"u{k}" for k in range(6))
    sol = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in names]
    eqs = []
    for _ in range(10):
        row = {k: F(rng.randint(-3, 3)) for k in range(len(names))}
        rhs = sum(c * sol[k] for k, c in row.items())
        eqs.append(LinearEquation(row, rhs))
    fam = linear_solve(eqs, names)
    assert fam is not None
    m = fam.member({names[k]: sol[k] for k in fam.free_cols})
    for e in eqs:
        assert sum(c * m[k] for k, c in e.coeffs.items()) == e.rhs


# -- the elimination kernel against the sympy oracle --------------------------

def _rat(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def _random_matrix(rng, nrows, ncols, rank):
    """nrows x ncols rational matrix of rank at most ``rank``."""
    left = [[_rat(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[_rat(rng) for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(ncols)] for i in range(nrows)]


def _oracle(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r]
                         for r in rows])


def _matrices():
    """Seeded matrices up to 6x6: full rank, rank-deficient and zero."""
    rng = random.Random(2000)
    out = [[[F(0)] * 3 for _ in range(2)]]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(1, min(nrows, ncols))
        out.append(_random_matrix(rng, nrows, ncols, rank))
    return out


def _apply(rows, x):
    return [sum((a * b for a, b in zip(r, x)), F(0)) for r in rows]


def test_matrix_rank_matches_sympy():
    for rows in _matrices():
        assert matrix_rank(rows) == _oracle(rows).rank()


def test_nullspace_annihilated_with_full_count():
    for rows in _matrices():
        ncols = len(rows[0])
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - _oracle(rows).rank()
        for vec in basis:
            assert not any(_apply(rows, vec))
        if basis:
            assert _oracle(basis).rank() == len(basis)


def test_solve_rows_consistency_matches_sympy():
    rng = random.Random(1915)
    inconsistent = 0
    for rows in _matrices():
        nrows, ncols = len(rows), len(rows[0])
        target = [_rat(rng) for _ in range(ncols)]
        for rhs in (_apply(rows, target), [_rat(rng) for _ in range(nrows)]):
            got = solve_rows(rows, rhs, ncols)
            aug = [r + [b] for r, b in zip(rows, rhs)]
            if _oracle(aug).rank() > _oracle(rows).rank():
                assert got is None
                inconsistent += 1
                continue
            particular, basis, free_cols = got
            assert _apply(rows, particular) == rhs
            assert len(basis) == len(free_cols) == ncols - _oracle(rows).rank()
    assert inconsistent > 10  # the seeded cases exercise both branches


def test_solve_rows_divides_by_a_parametric_pivot():
    b = RationalFunc.gen()
    one, zero = RationalFunc.const(1), RationalFunc.const(0)
    got = solve_rows([[b, one], [zero, one]], [one, 2 * one], 2)
    assert got is not None
    particular, basis, free_cols = got
    assert particular == [-1 / b, 2 * one]
    assert basis == [] and free_cols == []


def test_int_pivot_gives_exact_solution():
    b = RationalFunc.gen()
    particular = solve_rows([[2, b]], [1], 2)[0]
    assert particular == [F(1, 2), 0]
    assert all(isinstance(c, (F, RationalFunc)) for c in particular)


def test_skipped_zero_products_leave_the_solution():
    # the elimination skips the products with the zero rhs and with the
    # zeros of the first row; the homogeneous system still has only the
    # zero solution
    b = RationalFunc.gen()
    rows = [[F(1), F(0), F(0)], [b, F(3), F(1)], [F(0), F(1, 2), b]]
    particular, basis, free_cols = solve_rows(rows, [F(0)] * 3, 3)
    assert particular == [0, 0, 0] and basis == [] and free_cols == []


def test_member_at_a_parameter_is_parametric():
    fam = linear_solve([eq({0: 1, 1: 1}, 1)], ("x", "y", "z"))
    b = RationalFunc.gen()
    m = fam.member({"y": b})
    assert m == [1 - b, b, 0]


_over_Qb = st.one_of(st.sampled_from([F(0), F(0), F(1), F(-1, 2), F(3)]),
                     ratfuncs)


@st.composite
def _retyped_systems(draw):
    """A system over Q(b), and the same system with each rational entry
    drawn again as itself, as a constant RationalFunc or, for a zero, as
    the int 0."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(_over_Qb, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(_over_Qb, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):  # a dependent row, consistent or not
        k = draw(st.integers(0, nrows - 1))
        rows.append(list(rows[k]))
        rhs.append(draw(st.sampled_from([rhs[k], rhs[k] + 1])))

    def retype(c):
        if not isinstance(c, F):
            return c
        return draw(st.sampled_from([c, RationalFunc.const(c)]
                                    + ([] if c else [0])))
    return ((rows, rhs, ncols),
            ([[retype(c) for c in r] for r in rows], [retype(c) for c in rhs],
             ncols))


@settings(max_examples=200, deadline=None)
@given(_retyped_systems())
def test_retyping_entries_leaves_the_solution(systems):
    # the types choose the branch and the pivots, which change the cost
    # only: the RREF is unique
    original, retyped = systems
    assert solve_rows(*retyped) == solve_rows(*original)


# -- the fraction-free integer branch against sympy's rref --------------------

_small = st.integers(-3, 3)
_entries = st.one_of(
    _small,
    st.builds(F, _small, st.integers(1, 4)),
    # above 64 bits in numerator and denominator
    st.builds(F, st.integers(-2**72, 2**72), st.integers(2**64, 2**66)))


@st.composite
def _rational_systems(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):  # a duplicate, scaled row
        k = draw(st.sampled_from((1, -2, F(1, 3))))
        rows.append([k * c for c in rows[draw(st.integers(0, nrows - 1))]])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[col] = 0
    if draw(st.booleans()):  # consistent by construction
        x = draw(st.lists(_entries, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(r, x)), F(0)) for r in rows]
    else:  # usually inconsistent when the rows are dependent
        rhs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


def _sympy_solution(rows, rhs, ncols):
    """(particular, basis, free_cols) read off sympy's RREF of [rows | rhs],
    or None when inconsistent."""
    aug = sympy.Matrix([[sympy.Rational(F(c).numerator, F(c).denominator)
                         for c in (*r, b)] for r, b in zip(rows, rhs)])
    rref, pivots = aug.rref()
    return _read_off(rref.tolist(), pivots, ncols, lambda e: F(int(e.p), int(e.q)))


def _read_off(rref, pivots, ncols, value):
    """(particular, basis, free_cols) from the RREF of [rows | rhs], given as
    a list of rows whose entries ``value`` converts, or None when
    inconsistent."""
    if ncols in pivots:
        return None
    free_cols = [c for c in range(ncols) if c not in pivots]
    particular = [F(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = value(rref[i][ncols])
    basis = []
    for fc in free_cols:
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for i, col in enumerate(pivots):
            vec[col] = -value(rref[i][fc])
        basis.append(vec)
    return particular, basis, free_cols


@settings(max_examples=200, deadline=None)
@given(_rational_systems())
def test_integer_branch_matches_sympy_rref(system):
    rows, rhs, ncols = system
    got = solve_rows(rows, rhs, ncols)
    want = _sympy_solution(rows, rhs, ncols)
    if want is None:
        assert got is None
        return
    particular, basis, free_cols = got
    assert (particular, basis, free_cols) == want
    assert all(type(c) is F for vec in (particular, *basis) for c in vec)


# -- the sparse integer branch against the dense one ---------------------------

def dense_integer_rref(rows, rhs, ncols):
    """The integer branch of ``rref`` on dense rows, as it ran before rows
    were sparse: each row, augmented by its rhs, is scaled by the lcm of
    its denominators; a row is eliminated by ``(p/g) row - (f/g)
    pivot_row`` with ``g = gcd(p, f)`` and then divided by its content.
    None when inconsistent, else the pivot rows as ``{col: (row, rhs)}``
    with pivot 1 and ``Fraction`` entries."""
    work = []
    for row, b in zip(rows, rhs):
        ints = primitive_integers((*row, b))
        if any(ints):
            work.append(ints)
    pivots = {}
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(work)):
            c = work[i][col]
            if c and (best is None or abs(c) < abs(work[best][col])):
                best = i
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        prow = work[r]
        p = prow[col]
        for j in range(len(work)):
            f = work[j][col]
            if j != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                work[j] = primitive([a * x - b * y for x, y in zip(work[j], prow)])
        pivots[col] = r
        r += 1
        if r == len(work):
            break

    if any(work[j][ncols] for j in range(r, len(work))):
        return None
    zero = F(0)
    out = {}
    for col, ri in pivots.items():
        row = work[ri]
        p = row[col]
        out[col] = ([F(a, p) if a else zero for a in row[:ncols]],
                    F(row[ncols], p))
    return out


_entry_or_zero = st.one_of(st.sampled_from((0, F(0))), _entries)


@st.composite
def _sparse_systems(draw):
    """Rational rows as ``{col: entry}``: int and Fraction entries, listed
    zeros, empty rows, scaled copies, possibly more rows than columns, and
    a zero, consistent or arbitrary rhs."""
    ncols = draw(st.integers(1, 5))
    row = st.dictionaries(st.integers(0, ncols - 1), _entry_or_zero, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.booleans()):  # a dependent row
        k = draw(st.sampled_from((1, -2, F(1, 3))))
        rows.append({c: k * x for c, x in draw(st.sampled_from(rows)).items()})
    kind = draw(st.sampled_from(("zero", "consistent", "arbitrary")))
    if kind == "zero":
        rhs = [draw(st.sampled_from((0, F(0)))) for _ in rows]
    elif kind == "consistent":
        x = draw(st.lists(_entries, min_size=ncols, max_size=ncols))
        rhs = [sum((c * x[k] for k, c in r.items()), F(0)) for r in rows]
    else:  # usually inconsistent when the rows are dependent
        rhs = draw(st.lists(_entry_or_zero, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


@settings(max_examples=200, deadline=None)
@given(_sparse_systems())
def test_sparse_integer_rref_equals_the_dense_one(system):
    rows, rhs, ncols = system
    got = rref(rows, rhs, ncols)
    want = dense_integer_rref([[r.get(k, 0) for k in range(ncols)] for r in rows],
                              rhs, ncols)
    if want is None:
        assert got is None
        return
    assert list(got) == list(want)
    for col, (row, b) in want.items():
        sparse, got_b = got[col]
        assert all(sparse.values())  # no zero entry is listed
        dense = [sparse.get(k, F(0)) for k in range(ncols)]
        assert (dense, got_b) == (row, b)
        assert [type(c) for c in dense] == [type(c) for c in row]
        assert type(got_b) is type(b)


def _as_constants(values):
    return [RationalFunc.const(c) for c in values]


@settings(max_examples=200, deadline=None)
@given(_rational_systems())
def test_both_branches_give_one_solution(system):
    # the same rational system, as given (the integer branch) and with every
    # entry a constant RationalFunc (the field branch)
    rows, rhs, ncols = system
    want = solve_rows(rows, rhs, ncols)
    got = solve_rows([_as_constants(r) for r in rows], _as_constants(rhs), ncols)
    if want is None:
        assert got is None
        return
    assert got is not None
    (particular, basis, free_cols), (gp, gb, gf) = want, got
    assert gp == particular and gb == basis and gf == free_cols


# -- the field branch over QQ(b) against sympy's rref -----------------------

_QQb = sympy.QQ.frac_field(sympy.Symbol("b"))


def _to_field(r):
    """A RationalFunc as an element of sympy's field QQ(b)."""
    poly = lambda cs: _QQb.field.ring.from_list(
        [sympy.QQ(c.numerator, c.denominator) for c in reversed(cs)])
    return _QQb.field.new(poly(r.num), poly(r.den))


def _from_field(e):
    """An element of sympy's QQ(b) as a RationalFunc."""
    def coeffs(p):
        out = [F(0)] * (max((k for (k,), _ in p.terms()), default=-1) + 1)
        for (k,), q in p.terms():
            out[k] = F(int(q.numerator), int(q.denominator))
        return out
    return RationalFunc(coeffs(e.numer), coeffs(e.denom))


@st.composite
def _parametric_systems(draw):
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(ratfuncs, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):  # a dependent row, scaled by a rational function
        k = draw(ratfuncs.filter(bool))
        rows.append([k * c for c in rows[draw(st.integers(0, nrows - 1))]])
    if draw(st.booleans()):  # consistent by construction
        x = draw(st.lists(ratfuncs, min_size=ncols, max_size=ncols))
        rhs = [sum((a * c for a, c in zip(r, x)), RationalFunc.const(0)) for r in rows]
    else:  # usually inconsistent when the rows are dependent
        rhs = draw(st.lists(ratfuncs, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


@settings(max_examples=200, deadline=None)
@given(_parametric_systems())
def test_field_branch_matches_sympy_rref(system):
    rows, rhs, ncols = system
    got = solve_rows(rows, rhs, ncols)
    aug = DomainMatrix([[_to_field(c) for c in (*r, v)] for r, v in zip(rows, rhs)],
                       (len(rows), ncols + 1), _QQb)
    rref, pivots = aug.rref()
    want = _read_off(rref.to_list(), pivots, ncols, _from_field)
    if want is None:
        assert got is None
        return
    particular, basis, free_cols = got
    assert (particular, basis, free_cols) == want


# -- restricting a homogeneous family against solving with the rows appended --

_over_Q = st.one_of(st.just(F(0)), st.builds(F, _small, st.integers(1, 4)))
# a nonzero entry over Q(b) is a RationalFunc, a zero the Fraction(0) that
# linear_solve writes for an absent coefficient
_over_Qb_only = st.one_of(st.just(F(0)), ratfuncs.filter(bool))


@st.composite
def _restrictions(draw):
    """A homogeneous system over Q or over Q(b) and extra rows: none, rows
    implied by the system (multiples of its rows, or zero), or arbitrary
    ones, which may leave only the zero family."""
    value = draw(st.sampled_from((_over_Q, _over_Qb_only)))
    ncols = draw(st.integers(1, 5))
    row = st.lists(value, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=3))
    kind = draw(st.sampled_from(("none", "implied", "arbitrary")))
    if kind == "none":
        extra = []
    elif kind == "implied":
        multiples = st.tuples(value.filter(bool),
                              st.sampled_from(rows or [[F(0)] * ncols]))
        extra = [[k * c for c in r]
                 for k, r in draw(st.lists(multiples, min_size=1, max_size=2))]
    else:
        extra = draw(st.lists(row, min_size=1, max_size=3))
    return rows, extra, ncols


def _keyed(row):
    return LinearEquation({k: c for k, c in enumerate(row) if c})


@settings(max_examples=200, deadline=None)
@given(_restrictions())
def test_restrict_equals_the_solve_with_the_rows_appended(system):
    rows, extra, ncols = system
    names = [f"u{k}" for k in range(ncols)]
    fam = linear_solve([_keyed(r) for r in rows], names)
    # each extra row, keyed by basis vector: its value on that vector
    on_basis = [_keyed([sum((c * x for c, x in zip(r, vec) if c and x), F(0))
                        for vec in fam.basis]) for r in extra]
    got = fam.restrict(on_basis)
    want = linear_solve([_keyed(r) for r in rows + extra], names)
    assert got.free_cols == want.free_cols and got.unknowns == want.unknowns
    for vec, w in zip((got.particular, *got.basis), (want.particular, *want.basis)):
        assert [type(c) for c in vec] == [type(c) for c in w]
        assert vec == w
    assert len(got.basis) == len(want.basis)
    if not extra:
        assert got == fam


def test_restrict_to_the_zero_family():
    fam = linear_solve([eq({0: 1, 1: -1})], ("x", "y", "z"))
    zero = fam.restrict([LinearEquation({0: F(1)}), LinearEquation({1: F(2)})])
    assert zero.basis == [] and zero.free_cols == [] and zero.particular == [0, 0, 0]
