import heapq
import random
from fractions import Fraction as F
from math import gcd

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from affine_homog import catalog as cat, groebner
from affine_homog.cli import CASES
from affine_homog.groebner import (GroebnerError, _certify, _divide, _divisor,
                                   _echelon, _is_rational, _normalised,
                                   _rational_roots, _s_terms, _term_dict,
                                   buchberger, solve_zero_dim)
from affine_homog.poly import Poly, VariableMismatch, _add_terms, _mul_terms
from affine_homog.scalars import RationalFunc
from affine_homog.symmetry import closure_constraints, pqr_families, solve_tangency
from test_poly import monic, monomial, total_degree

UV = ("u", "v")
UVW = ("u", "v", "w")


def P(terms, vars=UV):
    return Poly(vars, {m: F(c) for m, c in terms.items()})


def to_sympy(p, syms):
    out = 0
    for m, c in p.terms.items():
        t = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            t *= s ** e
        out += t
    return sp.expand(out)


def from_sympy(e, syms, vars):
    poly = sp.Poly(e, *syms)
    terms = {}
    for m, c in zip(poly.monoms(), poly.coeffs()):
        q = sp.Rational(c)
        terms[tuple(m)] = F(int(q.p), int(q.q))
    return Poly(vars, terms)


@pytest.mark.parametrize("gens", [
    [{(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1, (0, 0): -1}],
    [{(2, 1): 1, (0, 0): -1}, {(1, 2): 1, (1, 0): -1}],
    [{(3, 0): 1, (1, 1): -2}, {(2, 1): 1, (0, 2): -2, (1, 0): 1}],
])
def test_buchberger_matches_sympy_lex(gens):
    ours = buchberger([P(g) for g in gens])
    u, v = sp.symbols("u v")
    theirs = sp.groebner([to_sympy(P(g), (u, v)) for g in gens],
                         u, v, order="lex")
    expect = {from_sympy(e, (u, v), UV) for e in theirs.exprs}
    assert set(ours) == expect


def _monomials(n, degree):
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(degree + 1)
            for rest in _monomials(n - 1, degree - e)]


coefficients = st.integers(-3, 3).filter(bool)


def polys(vars, degree):
    """Nonzero polynomials in vars of total degree <= degree."""
    return st.dictionaries(st.sampled_from(_monomials(len(vars), degree)),
                           coefficients, min_size=1, max_size=4
                           ).map(lambda terms: P(terms, vars))


# 2-3 generators in 2-3 variables, degree <= 2, coefficients in [-3, 3]
small_systems = st.sampled_from([UV, UVW]).flatmap(
    lambda vars: st.tuples(st.just(vars),
                           st.lists(polys(vars, 2), min_size=2, max_size=3)))

def lead(p):
    """The lex-leading (monomial, coefficient) of p."""
    m = max(p.terms)
    return m, p.terms[m]


@settings(max_examples=100, deadline=None)
@given(small_systems)
def test_buchberger_matches_sympy(case):
    vars, gens = case
    syms = sp.symbols(vars)
    ours = buchberger(gens)
    assert all(lead(g)[1] == 1 for g in ours)
    theirs = sp.groebner([to_sympy(g, syms) for g in gens], *syms,
                         order="lex", domain=sp.QQ)
    expect = {monic(from_sympy(e, syms, vars), None) for e in theirs.exprs}
    assert set(ours) == expect


@settings(max_examples=100, deadline=None)
@given(small_systems.flatmap(
    lambda case: st.tuples(st.just(case), polys(case[0], 3))))
def test_reduce_is_the_normal_form(case_and_p):
    # the normal form modulo a Groebner basis is unique, so it equals
    # sympy's remainder whatever divisor either side picks
    (vars, gens), p = case_and_p
    syms = sp.symbols(vars)
    gb = buchberger(gens)
    r = reduce(p, gb)
    lts = [lead(g)[0] for g in gb]
    assert not any(all(a <= b for a, b in zip(lt, m))
                   for m in r.terms for lt in lts)
    expect = sp.reduced(to_sympy(p, syms), [to_sympy(g, syms) for g in gb],
                        *syms, order="lex", domain=sp.QQ)[1]
    assert r == from_sympy(expect, syms, vars)


@settings(max_examples=100, deadline=None)
@given(small_systems.flatmap(lambda case: st.tuples(
    st.just(case), polys(case[0], 1), st.integers(0, 2))))
def test_echelon_is_the_reduced_row_echelon_form(case):
    # Buchberger's input: the rows span the generators' linear span, come
    # by descending leading term, and each is monic with a leading term
    # that no other row contains
    (vars, gens), h, i = case
    gens = gens + [gens[0] - gens[-1], h * gens[i % len(gens)]]
    monos = sorted({m for g in gens for m in g.terms})
    rank = sp.Matrix([[g.coefficient(m) for m in monos] for g in gens]).rank()
    rows = _echelon(gens)
    assert len(rows) == rank
    leads = [lead(r) for r in rows]
    assert all(c == 1 for _, c in leads)
    keys = [m for m, _ in leads]
    assert keys == sorted(keys, reverse=True)
    for k, (m, _) in enumerate(leads):
        assert all(m not in r.terms for r in rows[:k] + rows[k + 1:])
    for g in gens:
        for (m, _), r in zip(leads, rows):
            g = g - r.scale(g.coefficient(m))
        assert not g


@settings(max_examples=100, deadline=None)
@given(small_systems.flatmap(lambda case: st.tuples(
    st.just(case), polys(case[0], 1), st.integers(0, 2), st.integers(0, 2))))
def test_buchberger_ignores_how_the_ideal_is_generated(case):
    # the reduced basis depends on the ideal alone: shuffled, duplicated or
    # extended by a member h*g_i + g_j, the generators give the same one
    (vars, gens), h, i, j = case
    i, j = i % len(gens), j % len(gens)
    shuffled = list(gens)
    random.Random(0).shuffle(shuffled)
    gb = buchberger(gens)
    assert buchberger(shuffled) == gb
    assert buchberger(gens + gens) == gb
    assert buchberger(gens + [h * gens[i] + gens[j]]) == gb


@pytest.mark.parametrize("case", CASES)
def test_discover_systems_solve_the_same_when_doubled(case):
    f = cat.case_jet(case)
    famP, famQ, famR = pqr_families(solve_tangency(f), cat.CUBIC_CASES[case].gauge)
    cons = closure_constraints(f, famP, famQ, famR)
    ring = sorted(set(famP.free + famQ.free + famR.free))
    assert solve_zero_dim(cons + cons, ring) == solve_zero_dim(cons, ring)


def test_reduce_ideal_membership():
    gens = [P({(2, 0): 1, (0, 1): -1}), P({(0, 2): 1, (1, 0): -1})]
    gb = buchberger(gens)
    inside = gens[0] * P({(1, 1): 3}) + gens[1] * P({(0, 0): -2, (1, 0): 5})
    assert reduce(inside, gb).is_zero()
    outside = P({(1, 0): 1})
    assert not reduce(outside, gb).is_zero()
    with pytest.raises(VariableMismatch):
        reduce(P({(1, 0): 1}, ("v", "u")), gb)


def test_s_poly_reduces_in_basis():
    gens = [P({(2, 0): 1, (0, 2): 1, (0, 0): -1}), P({(1, 1): 1, (0, 0): -1})]
    gb = buchberger(gens)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert reduce(s_poly(gb[i], gb[j]), gb).is_zero()


def test_solve_two_rational_points():
    gens = [P({(2, 0): 1, (1, 0): -3, (0, 0): 2}), P({(0, 1): 1, (1, 0): -1})]
    sols = solve_zero_dim(gens, UV)
    assert not sols.families and not sols.residual
    pts = sorted((pt["u"], pt["v"]) for pt in sols.points)
    assert pts == [(F(1), F(1)), (F(2), F(2))]


def test_irrational_point_reported_residual():
    sols = solve_zero_dim([P({(2,): 1, (0,): -2}, ("u",))], ("u",))
    assert not sols.points and sols.residual


def test_one_parameter_family():
    sols = solve_zero_dim([P({(1, 0): 1, (0, 1): -1})], UV)
    assert len(sols.families) == 1
    fam = sols.families[0]
    gen = RationalFunc.gen(fam.free)
    assert fam.assignments["u"] == fam.assignments["v"] == gen


def test_parametric_quadratic_splits_into_branches():
    # v^2 = u^2 splits into two lines because the discriminant is a square
    sols = solve_zero_dim([P({(0, 2): 1, (2, 0): -1})], UV)
    assert not sols.residual and not sols.points
    assert len(sols.families) == 2
    seen = set()
    for f in sols.families:
        u, v = f.assignments["u"], f.assignments["v"]
        assert u * u == v * v
        seen.add((str(u), str(v)))
    assert len(seen) == 2


def test_rational_curve_gets_parametrized():
    # v^2 = u is a rational curve: u = v^2 with v free
    sols = solve_zero_dim([P({(0, 2): 1, (1, 0): -1})], UV)
    assert len(sols.families) == 1 and not sols.residual
    fam = sols.families[0]
    gen = RationalFunc.gen(fam.free)
    assert fam.assignments["u"] == gen * gen


def test_nonsquare_discriminant_reported_residual():
    # u^3 = v^2 - 1 resists rational parametrization by this solver
    sols = solve_zero_dim([P({(3, 0): 1, (0, 2): -1, (0, 0): 1})], UV)
    assert sols.residual and not sols.families and not sols.points


def test_too_many_free_directions():
    sols = solve_zero_dim([P({(1, 0, 0): 1}, UVW)], UVW)
    assert sols.residual  # v and w both free: more than one parameter


def test_inconsistent_system_no_solutions():
    gens = [P({(1, 0): 1}), P({(1, 0): 1, (0, 0): -1})]
    sols = solve_zero_dim(gens, UV)
    assert not sols.points and not sols.families and not sols.residual


def test_solutions_are_verified_exactly():
    # mixed system: line union point via factored generator
    gens = [P({(1, 1): 1, (1, 0): -1}),   # u(v - 1) = 0
            P({(2, 0): 1, (1, 0): -1})]   # u(u - 1) = 0
    sols = solve_zero_dim(gens, UV)
    for pt in sols.points:
        for g in gens:
            assert g.eval(pt) == 0


fractions = st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: F(*t))


def linear_factor_roots(expr, u):
    """{root: multiplicity} of the rational roots, from sympy's factors."""
    out = {}
    for f, m in sp.factor_list(expr, u)[1]:
        if sp.degree(f, u) == 1:
            a, b = sp.Poly(f, u).all_coeffs()
            r = -b / a
            out[F(int(r.p), int(r.q))] = m
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(fractions, max_size=4), st.lists(fractions, max_size=3),
       fractions.filter(bool))
def test_rational_roots_match_sympy(roots, tail, lead):
    # a product of rational linear factors and an arbitrary cofactor
    u = sp.Symbol("u")
    cofactor = lead * u ** len(tail) + sum(c * u ** k for k, c in enumerate(tail))
    expr = sp.expand(cofactor * sp.prod([u - r for r in roots]))
    assume(sp.degree(expr, u) >= 1)
    found, deflated = _rational_roots(from_sympy(expr, (u,), ("u",)), "u")
    expected = linear_factor_roots(expr, u)
    assert len(found) == len(set(found))
    assert set(found) == set(expected)
    rest = to_sympy(deflated, (u,)) if deflated is not None else sp.Integer(1)
    assert not linear_factor_roots(rest, u)
    scale = sp.cancel(expr / (rest * sp.prod([(u - r) ** m
                                              for r, m in expected.items()])))
    assert scale.is_Rational and scale != 0


# -- the field-arithmetic Buchberger, kept as a reference -----------------
#
# Division over the coefficient field: one Fraction (or RationalFunc)
# operation per coefficient, the S-polynomial scaled by 1/lc, every new
# element made monic at once. It takes the same pairs in the same order as
# ``buchberger``, and the reduced basis is unique, so the two must agree.

def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _msub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# -- division and S-polynomials through buchberger's own loop ----------------
#
# ``_divide`` and ``_s_terms`` on Poly operands, with the scale they apply
# divided back out: the oracles that the field versions below must match.

def _poly_divisor(p, integral):
    """The divisor of a nonzero polynomial."""
    return _divisor(_normalised(_term_dict(p, integral)[0], integral), integral)


def reduce(p, basis):
    """Normal form of p modulo the basis."""
    if not basis:
        return p
    for g in basis:
        p._check(g)
    integral = _is_rational([p, *basis])
    divisors = [_poly_divisor(g, integral) for g in basis]
    work, den = _term_dict(p, integral)
    rem, scale = _divide(work, divisors)
    if integral:
        den *= scale
        rem = {m: F(c, den) for m, c in rem.items()}
    return Poly._canonical(p.vars, rem)


def s_poly(f, g):
    """x^(l-mf) f/cf - x^(l-mg) g/cg, with l the lcm of the leading
    monomials mf, mg and cf, cg the leading coefficients."""
    f._check(g)
    integral = _is_rational((f, g))
    df, dg = _poly_divisor(f, integral), _poly_divisor(g, integral)
    s = _s_terms(df, dg)
    if integral:
        # the cross-multiplied S-polynomial is lcm(cf, cg) times this one
        den = df[1] * dg[1] // gcd(df[1], dg[1])
        s = {m: F(c, den) for m, c in s.items()}
    return Poly._canonical(f.vars, s)


def field_reduce(p, basis):
    if not basis:
        return p
    divisors = []
    for g in basis:
        gm, gc = lead(g)
        divisors.append((gm, gc, [(tm, tc) for tm, tc in g.terms.items()
                                  if tm != gm]))
    work = dict(p.terms)
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        for gm, gc, tail in divisors:
            if _divides(gm, m):
                f = c / gc
                q = _msub(m, gm)
                _add_terms(work, ((tuple(a + b for a, b in zip(q, tm)),
                                   -(f * tc)) for tm, tc in tail))
                break
        else:
            rem[m] = c
    return Poly._canonical(p.vars, rem)


def field_s_poly(f, g):
    mf, cf = lead(f)
    mg, cg = lead(g)
    l = _lcm(mf, mg)
    return (monomial(_msub(l, mf), 1 / cf, f.vars) * f
            - monomial(_msub(l, mg), 1 / cg, g.vars) * g)


def field_buchberger(gens):
    gens = [g for g in gens if g]
    if not gens:
        return []
    G = _echelon(gens)
    lt = [lead(g)[0] for g in G]
    pairs, pair_set = [], set()

    def push(i, j):
        l = _lcm(lt[i], lt[j])
        heapq.heappush(pairs, (sum(l), l, i, j))
        pair_set.add((i, j))

    def useless(i, j, l):
        if l == tuple(a + b for a, b in zip(lt[i], lt[j])):
            return True
        for k in range(len(G)):
            if k not in (i, j) and _divides(lt[k], l):
                if ((min(i, k), max(i, k)) not in pair_set
                        and (min(j, k), max(j, k)) not in pair_set):
                    return True
        return False

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            push(i, j)
    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        pair_set.discard((i, j))
        if useless(i, j, l):
            continue
        r = field_reduce(field_s_poly(G[i], G[j]), G)
        if r:
            r = monic(r, None)
            G.append(r)
            lt.append(lead(r)[0])
            for a in range(len(G) - 1):
                push(a, len(G) - 1)
    minimal = [G[i] for i in range(len(G))
               if not any(j != i and _divides(lt[j], lt[i])
                          and (lt[j] != lt[i] or j < i)
                          for j in range(len(G)))]
    reduced = []
    for i, g in enumerate(minimal):
        r = field_reduce(g, minimal[:i] + minimal[i + 1:])
        if r:
            reduced.append(monic(r, None))
    reduced.sort(key=lambda g: lead(g)[0])
    return reduced


def assert_same_basis(ours, oracle):
    # the same list, element by element, with the same coefficient type at
    # each monomial
    assert ours == oracle
    for p, q in zip(ours, oracle):
        assert ({m: type(c) for m, c in p.terms.items()}
                == {m: type(c) for m, c in q.terms.items()})


@pytest.fixture(scope="module")
def discover_inputs():
    """The generators of every Buchberger call that solving the closure
    constraints of the six discover cases makes."""
    seen = []
    real = groebner.buchberger

    def record(gens):
        seen.append(list(gens))
        return real(gens)

    groebner.buchberger = record
    try:
        for case in CASES:
            f = cat.case_jet(case)
            famP, famQ, famR = pqr_families(solve_tangency(f), cat.CUBIC_CASES[case].gauge)
            ring = sorted(set(famP.free + famQ.free + famR.free))
            solve_zero_dim(closure_constraints(f, famP, famQ, famR), ring)
    finally:
        groebner.buchberger = real
    return seen


def _parametric(gens):
    return any(isinstance(c, RationalFunc)
               for g in gens for c in g.terms.values())


def test_discover_bases_equal_the_field_oracle(discover_inputs):
    assert len(discover_inputs) == 11
    assert sum(_parametric(gens) for gens in discover_inputs) == 1
    for gens in discover_inputs:
        ours = buchberger(gens)
        assert_same_basis(ours, field_buchberger(gens))
        if not _parametric(gens):
            assert all(type(c) is F for g in ours for c in g.terms.values())


@settings(max_examples=100, deadline=None)
@given(small_systems)
def test_buchberger_equals_the_field_oracle(case):
    vars, gens = case
    ours = buchberger(gens)
    assert_same_basis(ours, field_buchberger(gens))
    assert all(type(c) is F for g in ours for c in g.terms.values())


@settings(max_examples=100, deadline=None)
@given(small_systems.flatmap(
    lambda case: st.tuples(st.just(case), polys(case[0], 3))))
def test_division_equals_the_field_oracle(case_and_p):
    # the generators are no Groebner basis, so the remainder depends on
    # each divisor chosen: scaling what is left never changes that choice
    (vars, gens), p = case_and_p
    assert reduce(p, gens) == field_reduce(p, gens)
    f, g = gens[:2]
    assert s_poly(f, g) == field_s_poly(f, g)


B = RationalFunc.gen("b")
ONE = RationalFunc.const(1, var="b")


def PB(terms, vars=UV):
    """A polynomial over Q(b); a coefficient is built from the generator b."""
    return Poly(vars, {m: c if isinstance(c, RationalFunc) else c * ONE
                       for m, c in terms.items()})


PARAMETRIC_SYSTEMS = [
    # u^2 - b, u*v - 1
    [PB({(2, 0): 1, (0, 0): -B}), PB({(1, 1): 1, (0, 0): -1})],
    # b*u + v - 1, u^2 + (b + 1)*v
    [PB({(1, 0): B, (0, 1): 1, (0, 0): -1}), PB({(2, 0): 1, (0, 1): B + 1})],
    # (b^2 - 1)*u*v + u, v^2 - b*u + 1/(b + 1), with Fraction coefficients
    # mixed in
    [Poly(UV, {(1, 1): B * B - 1, (1, 0): F(1)}),
     Poly(UV, {(0, 2): F(1), (1, 0): -B, (0, 0): 1 / (B + 1)})],
    # three unknowns: u - b*w, v^2 - w, u*v - (b/2)*w^2
    [PB({(1, 0, 0): 1, (0, 0, 1): -B}, UVW),
     PB({(0, 2, 0): 1, (0, 0, 1): -1}, UVW),
     PB({(1, 1, 0): 1, (0, 0, 2): -B / 2}, UVW)],
]


@pytest.mark.parametrize("gens", PARAMETRIC_SYSTEMS)
def test_parametric_bases_equal_the_field_oracle(gens):
    gb = buchberger(gens)
    assert_same_basis(gb, field_buchberger(gens))
    assert all(lead(g)[1] == 1 for g in gb)
    for g in gens:
        assert not reduce(g, gb)
    vars = gens[0].vars
    p = gens[0] * gens[-1] + PB({(1,) * len(vars): B}, vars)
    assert reduce(p, gens) == field_reduce(p, gens)


def _lex_divisors(polys):
    """The divisors of polynomials with Fraction coefficients, as
    ``buchberger`` holds its basis."""
    return [_poly_divisor(p, True) for p in polys]


def test_certificate_rejects_what_is_no_basis_of_the_ideal():
    # under lex, u^2 - v and u*v - 1 have the reduced basis u - v^2, v^3 - 1
    gens = [P({(2, 0): 1, (0, 1): -1}), P({(1, 1): 1, (0, 0): -1})]
    terms = [_term_dict(g, True)[0] for g in gens]
    gb = buchberger(gens)
    assert gb == [P({(0, 3): 1, (0, 0): -1}), P({(1, 0): 1, (0, 2): -1})]
    _certify(_lex_divisors(gb), terms)
    # the generators themselves: their S-pair leaves u - v^2
    with pytest.raises(GroebnerError, match="S-polynomial"):
        _certify(_lex_divisors(gens), terms)
    # u - v^2 alone is a Groebner basis, of a smaller ideal: what a pair
    # skipped by mistake can leave after minimalisation
    with pytest.raises(GroebnerError, match="generators"):
        _certify(_lex_divisors(gb[1:]), terms)


# -- linear elimination and the solution certificate ----------------------

UVWX = ("u", "v", "w", "x")


@st.composite
def elimination_cases(draw):
    """(p, i, expr): p in four variables with exponents up to 3 and int
    coefficients, expr of 0, 1 or several terms without the variable of
    slot i, and sometimes one RationalFunc coefficient in p or in expr."""
    i = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * 4)
    p = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                             min_size=1, max_size=6))
    size = draw(st.sampled_from([0, 1, 1, 2, 4]))
    expr = draw(st.dictionaries(
        exps.map(lambda m: m[:i] + (0,) + m[i + 1:]),
        st.integers(-3, 3).filter(bool) | fractions.filter(bool),
        min_size=size, max_size=size))
    where = draw(st.sampled_from(["none", "none", "p", "expr"]))
    terms = p if where == "p" else expr
    if where != "none" and terms:
        m = draw(st.sampled_from(sorted(terms)))
        terms[m] = B + draw(st.integers(-2, 2))
    return Poly(UVWX, p), i, Poly(UVWX, expr)


@settings(max_examples=200, deadline=None)
@given(elimination_cases())
def test_eliminate_equals_substitute(case):
    # the substitution into the ring without the variable, re-embedded
    p, i, expr = case
    ring = UVWX[:i] + UVWX[i + 1:]
    sub = p.substitute({UVWX[i]: groebner._restrict(expr, ring)})
    expect = {m[:i] + (0,) + m[i:]: c for m, c in sub.terms.items()}
    ours = dict(p.terms)
    occurs = any(m[i] for m in p.terms)
    assert groebner._substitute_in_place(ours, i, [None, expr.terms]) == occurs
    if not occurs:
        expect = p.terms  # untouched, int coefficients included
    assert ours == expect
    assert ({m: type(c) for m, c in ours.items()}
            == {m: type(c) for m, c in expect.items()})


# -- the reference linear elimination: one new Poly per substitution -------

def _linear_coefficient(p, v):
    """(c, rest) with p = c*v + rest, for p linear in v with scalar c."""
    i = p.vars.index(v)
    rest = dict(p.terms)
    c = rest.pop(tuple(int(j == i) for j in range(len(p.vars))))
    return c, Poly._canonical(p.vars, rest)


def _pivot_candidate(p, ring):
    """((term count, degree), v) for the first variable v of the ring in
    which p is linear with a scalar coefficient, or None."""
    linear, other = set(), set()
    for m in p.terms:
        if sum(m) == 1:
            linear.add(m.index(1))
        else:
            other.update(j for j, e in enumerate(m) if e)
    free = linear - other
    if not free:
        return None
    return (len(p.terms), total_degree(p)), ring[min(free)]


def _eliminate(p, i, expr):
    """p with the variable of slot i replaced by expr, kept in p's ring."""
    powers = [None, expr.terms]
    new = []
    for m, c in p.terms.items():
        if isinstance(c, int):
            c = F(c)
        e = m[i]
        if not e:
            new.append((m, c))
            continue
        while len(powers) <= e:
            powers.append(_mul_terms(powers[-1], powers[1], None))
        base = m[:i] + (0,) + m[i + 1:]
        new.extend((tuple(a + b for a, b in zip(base, me)), c * ce)
                   for me, ce in powers[e].items())
    out = {}
    _add_terms(out, new)
    return Poly._canonical(p.vars, out)


def poly_eliminate_linear(system, ring, stack):
    """``groebner._eliminate_linear`` rebuilding each touched polynomial
    and rescanning it for a pivot after every pivot; the pivot is the
    candidate with the fewest terms, then the lowest degree, then the
    first in text order (row order among equal texts)."""
    system = [p for p in system if p]
    if any(p.is_constant() for p in system):
        return None
    full = ring
    rows = [[p, _pivot_candidate(p, full), None] for p in system]
    while True:
        pivots = [row for row in rows if row[1] is not None]
        if not pivots:
            break
        low = min(row[1][0] for row in pivots)
        pivots = [row for row in pivots if row[1][0] == low]
        if len(pivots) > 1:
            for row in pivots:
                if row[2] is None:
                    row[2] = str(row[0])
            pivots.sort(key=lambda row: row[2])
        pivot = pivots[0]
        v = pivot[1][1]
        c, rest = _linear_coefficient(pivot[0], v)
        if isinstance(c, int):
            c = F(c)
        i = full.index(v)
        ring = tuple(u for u in ring if u != v)
        expr = rest.map_coefficients(lambda a: -a / c)
        stack.append((v, expr))
        kept = []
        for row in rows:
            if row is pivot:
                continue
            q = row[0]
            if any(m[i] for m in q.terms):
                q = _eliminate(q, i, expr)
                if not q:
                    continue
                if q.is_constant():
                    return None
                row = [q, _pivot_candidate(q, full), None]
            kept.append(row)
        rows = kept
    system = [row[0] for row in rows]
    if ring != full:
        system = [groebner._restrict(p, ring) for p in system]
    return system, ring


def _linear_part(n):
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return st.dictionaries(st.sampled_from(units), st.integers(-3, 3).filter(bool)
                           | fractions.filter(bool), min_size=1, max_size=3)


@st.composite
def linear_systems(draw):
    """(ring, system): 1-6 polynomials in 4 or 5 variables of degree <= 3,
    each with a linear part, with int and Fraction coefficients. Some
    rows repeat an earlier one, as it is or with constant RationalFunc
    coefficients (equal texts, which the pivot choice breaks by row
    order), some add a constant to one (they reduce to that constant), and
    sometimes one or two coefficients are RationalFuncs in b."""
    ring = draw(st.sampled_from([UVWX, UVWX + ("y",)]))
    n = len(ring)
    monos = st.sampled_from(_monomials(n, 3))
    rows = [dict(draw(_linear_part(n)))
            for _ in range(draw(st.integers(1, 6)))]
    for row in rows:
        for m, c in draw(st.dictionaries(monos, st.integers(-3, 3).filter(bool)
                                         | fractions.filter(bool),
                                         max_size=3)).items():
            row[m] = row.get(m, 0) + c
    for _ in range(draw(st.integers(0, 2))):
        row = dict(draw(st.sampled_from(rows)))
        how = draw(st.sampled_from(["same", "rf", "constant"]))
        if how == "rf":
            row = {m: c * ONE for m, c in row.items()}
        elif how == "constant":
            zero = (0,) * n
            row[zero] = row.get(zero, 0) + draw(st.integers(1, 3))
        rows.insert(draw(st.integers(0, len(rows))), row)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        m = draw(st.sampled_from(sorted(row)))
        row[m] = B + draw(st.integers(-2, 2))
    return ring, [Poly(ring, row) for row in rows]


def _typed(p):
    return p.vars, {m: (type(c), c) for m, c in p.terms.items()}


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_eliminate_linear_equals_the_poly_reference(case):
    ring, system = case
    ours_stack, ref_stack = [], []
    ours = groebner._eliminate_linear(list(system), ring, ours_stack)
    ref = poly_eliminate_linear(list(system), ring, ref_stack)
    assert ([(v, _typed(e)) for v, e in ours_stack]
            == [(v, _typed(e)) for v, e in ref_stack])
    if ref is None:
        assert ours is None
    else:
        assert ours[1] == ref[1]
        assert [_typed(p) for p in ours[0]] == [_typed(p) for p in ref[0]]


def test_an_int_pivot_coefficient_divides_exactly():
    # 3u + 1 = 0 and u + 2v = 0 with int coefficients: u = -1/3, v = 1/6
    stack = []
    out = groebner._eliminate_linear(
        [Poly(UV, {(1, 0): 3, (0, 0): 1}), Poly(UV, {(1, 0): 1, (0, 1): 2})],
        UV, stack)
    assert out == ([], ())
    assert [(v, _typed(e)) for v, e in stack] == [
        ("u", _typed(Poly._canonical(UV, {(0, 0): F(-1, 3)}))),
        ("v", _typed(Poly._canonical(UV, {(0, 0): F(1, 6)})))]


def test_certificate_rejects_spurious_solutions():
    # u*v + w and u*v + v in (u, v, w), v - w in (v, w) and u in (u, w).
    # Each spurious solution below leaves one nonzero term over all the
    # generators, beside terms with a zero-valued variable, so a
    # certificate that skips any nonzero term accepts one of them
    uvw = P({(1, 1, 0): 1, (0, 0, 1): 1}, UVW)
    uvv = P({(1, 1, 0): 1, (0, 1, 0): 1}, UVW)
    vw = P({(1, 0): 1, (0, 1): -1}, ("v", "w"))
    uw = P({(1, 0): 1}, ("u", "w"))
    t = RationalFunc.gen("t")
    zero, one = t * 0, t * 0 + 1

    def check(gens, points=(), families=()):
        groebner._verify_solutions(gens, groebner.SolutionSet(
            list(UVW), list(points),
            [groebner.ParametricFamily("t", f) for f in families]))

    check([uvw, uvv, vw, uw], [{"u": F(0), "v": F(0), "w": F(0)}])
    check([uvw, uvv, vw], families=[{"u": t, "v": zero, "w": zero}])
    for gens, pt in (([uvw], {"u": F(0), "v": F(1), "w": F(1)}),
                     ([uvw, uvv], {"u": F(0), "v": F(1), "w": F(0)}),
                     ([uvw, vw], {"u": F(0), "v": F(1), "w": F(0)}),
                     ([vw, uw], {"u": F(1), "v": F(0), "w": F(0)})):
        with pytest.raises(GroebnerError, match="spurious point"):
            check(gens, [pt])
    for gens, values in (([uvw], {"u": zero, "v": t, "w": one}),
                         ([uvw, uvv], {"u": zero, "v": t, "w": zero}),
                         ([uvw, vw], {"u": zero, "v": t, "w": zero}),
                         ([vw, uw], {"u": t, "v": zero, "w": zero})):
        with pytest.raises(GroebnerError, match="spurious family"):
            check(gens, families=[values])


# the linear phases that solving each discover case's closure system goes
# through, in call order: (the variables eliminated, in order; the ring
# left), recorded when the pivots were substituted one by one
PIVOTS = {
    "no-cubic": [(("p24", "p34", "r24", "q14", "q34", "r14", "p14", "q24"),
                  ("r34",))],
    "I3": [(("q14", "q34", "r14", "p14", "p24", "q44", "p32", "p34", "q32",
             "r24", "q24", "r34"), ("p44", "r32", "r44")),
           ((), ("p44", "r32")), ((), ("p44",))],
    "I2": [(("q14", "q34", "r14", "p14", "p34", "p44", "q24", "q32", "q44",
             "r24", "p24", "p32", "r34"), ("p31", "q31", "r31", "r32", "r44")),
           (("r32",), ("p31", "q31", "r31")), ((), ("p31", "q31")),
           ((), ("p31",))],
    "I1": [(("p31", "q14", "r14", "q32", "q34", "p14", "p24", "p44", "p32",
             "q31", "p34", "r24", "q24", "q44", "r34"), ("r31", "r32", "r44")),
           (("r32",), ("r31",)), ((), ()), ((), ())],
    "I0": [(("p24", "p31", "p34", "r24", "p44", "q14", "q32", "q34", "r14",
             "q44", "p14", "p32", "q24"), ("q31", "r31", "r32", "r34", "r44")),
           ((), ("q31", "r31", "r34", "r44")), ((), ("q31", "r34", "r44")),
           (("q31",), ("r34",)), ((), ()), ((), ())],
    "Inr": [(("q44", "r44"), ("p44",))],
}


@pytest.mark.parametrize("case", CASES)
def test_pivot_sequence_of_the_discover_systems(case, monkeypatch):
    real = groebner._eliminate_linear
    seen = []

    def record(system, ring, stack):
        n = len(stack)
        linear = real(system, ring, stack)
        seen.append((tuple(v for v, _ in stack[n:]),
                     linear[1] if linear else None))
        return linear

    monkeypatch.setattr(groebner, "_eliminate_linear", record)
    f = cat.case_jet(case)
    famP, famQ, famR = pqr_families(solve_tangency(f), cat.CUBIC_CASES[case].gauge)
    ring = sorted(set(famP.free + famQ.free + famR.free))
    solve_zero_dim(closure_constraints(f, famP, famQ, famR), ring)
    assert seen == PIVOTS[case]
