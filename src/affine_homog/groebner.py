"""Exact polynomial system solving for the closure constraints.

Buchberger's algorithm plus a zero-dimensional solver. The generators
enter in reduced row-echelon form over their monomials, which
``linalg.rref`` computes: invertible row operations, so the ideal is
unchanged, and the leading terms are distinct. The S-pairs wait in a
heap keyed by (degree of the lcm, term-order key of the lcm, i, j), with
the lcm computed once when the pair is queued; popping the minimum is
the normal selection strategy. Pairs are skipped by Buchberger's coprime
criterion and a chain check.
Division works in place on one dict of remaining terms and one of
remainder terms: the leading term, which a divisor cancels exactly, is
popped, and the divisor's tail (split off once per call) is subtracted
term by term. The output is reduced and monic, and every S-pair of it is
re-checked to reduce to zero, which certifies that the skipped pairs lost
nothing. The solver does linear elimination first, substituting each
pivot only into the polynomials that contain its variable; then
lexicographic elimination with rational root extraction and
back-substitution. After a free parameter has been designated,
quadratics over its function field are split whenever the discriminant
is a perfect square. Irrational roots are reported as residual
components with their defining polynomials, never approximated.

Deterministic throughout: variables are ordered lexically by name and
all tie-breaking is by fixed term-order keys.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import rref
from .poly import GREVLEX, LEX, Mono, Poly, TermOrder, _add_terms
from .scalars import (RationalFunc, _udivmod, _ueval, primitive_integers,
                      ratfunc_sqrt)


class GroebnerError(ValueError):
    pass


def _divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def _msub(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def reduce(p: Poly, basis: Sequence[Poly], order: TermOrder = GREVLEX) -> Poly:
    """Normal form of p modulo the basis (full multivariate division).

    The leading term of what is left is divided by the first basis element
    whose leading term divides it, and moved to the remainder when none
    does.
    """
    if not basis:
        return p
    for g in basis:
        p._check(g)
    # lex compares exponent tuples as they are
    key = None if order is LEX else order.key
    # (leading monomial, leading coefficient, tail terms) of each divisor
    divisors = []
    for g in basis:
        gm, gc = g.leading_term(order)
        divisors.append((gm, gc, [(tm, tc) for tm, tc in g.terms.items()
                                  if tm != gm]))
    work = dict(p.terms)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for gm, gc, tail in divisors:
            if _divides(gm, m):
                # the leading term cancels exactly, so it is popped, not
                # subtracted
                f = c / gc
                q = _msub(m, gm)
                _add_terms(work, {tuple(a + b for a, b in zip(q, tm)): -(f * tc)
                                  for tm, tc in tail})
                break
        else:
            rem[m] = c
    return Poly._canonical(p.vars, rem)


def s_poly(f: Poly, g: Poly, order: TermOrder = GREVLEX) -> Poly:
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    l = _lcm(mf, mg)
    return (Poly.monomial(_msub(l, mf), 1 / cf, f.vars) * f
            - Poly.monomial(_msub(l, mg), 1 / cg, g.vars) * g)


def _echelon(gens: Sequence[Poly], order: TermOrder) -> List[Poly]:
    """The reduced row-echelon form of the generators over their monomials,
    from ``linalg.rref`` with the monomials as columns in descending term
    order: monic rows with distinct leading terms, none of which occurs in
    another row, by descending leading term. Invertible row operations
    leave the ideal as it was."""
    for g in gens:
        gens[0]._check(g)
    monos = sorted({m for g in gens for m in g.terms}, key=order.key,
                   reverse=True)
    rows = [[g.terms.get(m, 0) for m in monos] for g in gens]
    pivot_rows = rref(rows, [0] * len(rows), len(monos))
    return [Poly._canonical(gens[0].vars,
                            {m: c for m, c in zip(monos, row) if c})
            for row, _ in pivot_rows.values()]


def buchberger(gens: Sequence[Poly], order: TermOrder = GREVLEX) -> List[Poly]:
    """Reduced monic Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    G = _echelon(gens, order)
    lt = [g.leading_term(order)[0] for g in G]

    # heap of (degree, order key, i, j, lcm); (i, j) is unique, so the
    # first four entries order the pairs totally and the lcm is never compared
    pairs: List[Tuple[int, tuple, int, int, Mono]] = []
    pair_set = set()

    def push(i: int, j: int):
        l = _lcm(lt[i], lt[j])
        heapq.heappush(pairs, (sum(l), order.key(l), i, j, l))
        pair_set.add((i, j))

    def useless(i: int, j: int, l: Mono) -> bool:
        # Buchberger's first criterion: coprime leading terms
        if l == tuple(a + b for a, b in zip(lt[i], lt[j])):
            return True
        # chain criterion
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(lt[k], l):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 not in pair_set and p2 not in pair_set:
                    return True
        return False

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            push(i, j)

    while pairs:
        _, _, i, j, l = heapq.heappop(pairs)
        pair_set.discard((i, j))
        if useless(i, j, l):
            continue
        r = reduce(s_poly(G[i], G[j], order), G, order)
        if r:
            r = r.monic(order)
            k = len(G)
            G.append(r)
            lt.append(r.leading_term(order)[0])
            for a in range(k):
                push(a, k)

    # minimalize: drop generators whose leading term another one divides
    minimal = []
    for i in range(len(G)):
        dominated = False
        for j in range(len(G)):
            if j != i and _divides(lt[j], lt[i]) and (lt[j] != lt[i] or j < i):
                dominated = True
                break
        if not dominated:
            minimal.append(G[i])
    # inter-reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        r = reduce(g, others, order)
        if r:
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_term(order)[0]))
    # safety: the pair-elimination criteria must not have lost anything
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            if reduce(s_poly(reduced[i], reduced[j], order), reduced, order):
                raise GroebnerError("basis failed the S-polynomial criterion")
    return reduced


# -- solution extraction ----------------------------------------------------------

@dataclass
class ParametricFamily:
    free: str
    assignments: Dict[str, RationalFunc]


@dataclass
class ResidualComponent:
    basis: List[Poly]
    assignments: Dict[str, object] = field(default_factory=dict)


@dataclass
class SolutionSet:
    unknowns: List[str]
    points: List[Dict[str, Fraction]] = field(default_factory=list)
    families: List[ParametricFamily] = field(default_factory=list)
    residual: List[ResidualComponent] = field(default_factory=list)


def _restrict(p: Poly, vars: Tuple[str, ...]) -> Poly:
    """Re-express p in a sub-ring containing all variables it uses."""
    pos = [p.vars.index(v) for v in vars]
    lost = [i for i, v in enumerate(p.vars) if v not in vars]
    terms = {}
    for m, c in p.terms.items():
        if any(m[i] for i in lost):
            raise GroebnerError("variable lost in restriction")
        terms[tuple(m[i] for i in pos)] = c
    # the kept slots hold every nonzero exponent, so monomials stay distinct
    return Poly._canonical(tuple(vars), terms)


def _linear_coefficient(p: Poly, v: str):
    """(c, rest) with p = c*v + rest, for p linear in v with scalar c."""
    i = p.vars.index(v)
    rest = dict(p.terms)
    c = rest.pop(tuple(int(j == i) for j in range(len(p.vars))))
    return c, Poly._canonical(p.vars, rest)


def _pivot_candidate(p: Poly, ring: Tuple[str, ...]):
    """((term count, degree), v) for the first variable v of the ring in
    which p is linear with a scalar coefficient, or None."""
    linear, other = set(), set()
    for m in p.terms:
        if sum(m) == 1:
            linear.add(m.index(1))
        else:
            other.update(i for i, e in enumerate(m) if e)
    free = linear - other
    if not free:
        return None
    return (len(p.terms), p.total_degree()), ring[min(free)]


def _univariate_in(p: Poly) -> Optional[str]:
    used = set()
    for m in p.terms:
        for v, e in zip(p.vars, m):
            if e:
                used.add(v)
    if len(used) == 1:
        return used.pop()
    return None


def _rational_roots(p: Poly, v: str):
    """(roots, deflated) for a univariate polynomial with Fraction
    coefficients; deflated is the root-free cofactor (or None)."""
    i = p.vars.index(v)
    deg = max(m[i] for m in p.terms)
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in p.terms.items():
        if not isinstance(c, Fraction):
            return [], p  # parametric coefficients: report residual
        coeffs[m[i]] = c
    roots = []
    cur = tuple(map(Fraction, primitive_integers(coeffs)))
    # strip zero roots
    while len(cur) > 1 and not cur[0]:
        roots.append(Fraction(0))
        cur = cur[1:]
    while len(cur) > 1:
        ic = primitive_integers(cur)
        root = next((cand for pn in _divisors(abs(ic[0]))
                     for qn in _divisors(abs(ic[-1]))
                     for cand in (Fraction(pn, qn), Fraction(-pn, qn))
                     if not _ueval(cur, cand)), None)
        if root is None:
            break
        roots.append(root)
        cur = _udivmod(cur, (-root, Fraction(1)))[0]
    # multiplicities matter for deflation but branches must not repeat
    roots = list(dict.fromkeys(roots))
    deflated = None
    if len(cur) > 1:
        terms = {}
        for k, c in enumerate(cur):
            if c:
                m = tuple(k if p.vars[j] == v else 0 for j in range(len(p.vars)))
                terms[m] = c
        deflated = Poly(p.vars, terms)
    return roots, deflated


def _parametric_roots(p: Poly, v: str):
    """Roots of p in v over the field of an already designated parameter.

    Handles degree <= 2 via the discriminant: solvable exactly when the
    discriminant is the square of a rational function. Returns
    (roots, solved); roots are RationalFunc values in the parameter."""
    i = p.vars.index(v)
    deg = max(m[i] for m in p.terms)
    if deg < 1 or deg > 2:
        return [], False
    var = None
    for c in p.terms.values():
        if isinstance(c, RationalFunc):
            var = c.var
            break
    if var is None:
        return [], False  # plain rational coefficients: already handled
    cs = [RationalFunc.const(0, var=var) for _ in range(deg + 1)]
    for m, c in p.terms.items():
        cs[m[i]] = c if isinstance(c, RationalFunc) else RationalFunc.const(c, var=var)
    if deg == 1:
        return [-cs[0] / cs[1]], True
    a, b, c = cs[2], cs[1], cs[0]
    s = ratfunc_sqrt(b * b - 4 * a * c)
    if s is None:
        return [], False
    r1 = (-b + s) / (2 * a)
    r2 = (-b - s) / (2 * a)
    return ([r1] if r1 == r2 else [r1, r2]), True


def _divisors(n: int):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def solve_zero_dim(gens: Sequence[Poly],
                   unknowns: Optional[Sequence[str]] = None) -> SolutionSet:
    """All solutions of a polynomial system over the rationals.

    Strategy: eliminate unknowns that occur linearly with scalar
    coefficients; run a lexicographic Groebner basis on what remains;
    branch over rational roots of univariate basis elements; designate a
    free parameter for positive-dimensional components. Components that
    resist this shape (irrational roots, more than one free unknown)
    are reported as residual with their bases.
    """
    if unknowns is None:
        names = set()
        for g in gens:
            for m, c in g.terms.items():
                for v, e in zip(g.vars, m):
                    if e:
                        names.add(v)
        unknowns = sorted(names)
    unknowns = tuple(sorted(unknowns))
    ring = unknowns
    sys0 = [_restrict(g, ring) if g.vars != ring else g for g in gens]
    out = SolutionSet(list(unknowns))
    _solve_rec(sys0, ring, {}, [], [], out)
    _dedupe(out)
    _verify_solutions(gens, out)
    return out


def _dedupe(out: SolutionSet):
    """Drop components reached identically along distinct branches."""
    seen = set()
    points = []
    for pt in out.points:
        key = tuple(sorted((u, v) for u, v in pt.items()))
        if key not in seen:
            seen.add(key)
            points.append(pt)
    out.points = points
    seen = set()
    families = []
    for fam in out.families:
        key = (fam.free, tuple(sorted((u, str(v))
                                      for u, v in fam.assignments.items())))
        if key not in seen:
            seen.add(key)
            families.append(fam)
    out.families = families


def _solve_rec(system: List[Poly], ring: Tuple[str, ...],
               fixed: Dict[str, object], stack: List[Tuple[str, Poly]],
               params: List[str], out: SolutionSet):
    # linear elimination with scalar pivots: eliminate through the pivot
    # polynomial with the fewest terms, then the lowest degree, then the
    # first in text order. A pivot is substituted only into the polynomials
    # that contain its variable; the others lose its slot and keep their
    # pivot candidate.
    system = [p for p in system if p]
    if any(p.is_constant() for p in system):
        return  # inconsistent branch
    cands = [_pivot_candidate(p, ring) for p in system]
    while True:
        pivots = [(c, k) for k, c in enumerate(cands) if c is not None]
        if not pivots:
            break
        low = min(c[0] for c, _ in pivots)
        pivots = [(c, k) for c, k in pivots if c[0] == low]
        if len(pivots) > 1:
            pivots.sort(key=lambda t: str(system[t[1]]))
        (_, v), at = pivots[0]
        c, rest = _linear_coefficient(system[at], v)
        i = ring.index(v)
        ring = ring[:i] + ring[i + 1:]
        expr = _restrict(rest.map_coefficients(lambda a: -a / c), ring)
        stack.append((v, expr))
        kept, kept_cands = [], []
        for k, q in enumerate(system):
            if k == at:
                continue
            if any(m[i] for m in q.terms):
                q = q.substitute({v: expr})
                if not q:
                    continue
                if q.is_constant():
                    return  # inconsistent branch
                cand = _pivot_candidate(q, ring)
            else:
                q = Poly._canonical(ring, {m[:i] + m[i + 1:]: a
                                           for m, a in q.terms.items()})
                cand = cands[k]
            kept.append(q)
            kept_cands.append(cand)
        system, cands = kept, kept_cands

    if not system:
        free_vars = list(ring)
        if not free_vars:
            _emit(fixed, stack, {}, params, out)
        elif len(free_vars) == 1 and not params:
            v = free_vars[0]
            _emit(fixed, stack, {v: RationalFunc.gen(v)}, [v], out)
        else:
            # too many free directions to parametrize: report residual
            vals = _assemble(fixed, stack, {v: Poly.var(v, tuple(free_vars))
                                            for v in free_vars})
            out.residual.append(ResidualComponent([], vals))
        return

    gb = buchberger(system, LEX)
    if any(g.is_constant() for g in gb):
        return

    # branch on a univariate element, preferring the lex-last variable
    univars = [(g, _univariate_in(g)) for g in gb]
    univars = [(g, v) for g, v in univars if v is not None]
    if univars:
        univars.sort(key=lambda t: (ring[::-1].index(t[1]), str(t[0])))
        g, v = univars[0]
        roots, deflated = _rational_roots(g, v)
        if deflated is not None:
            proots, solved = _parametric_roots(deflated, v)
            if solved:
                roots = roots + proots
                deflated = None
            else:
                out.residual.append(ResidualComponent(
                    [deflated], _assemble(fixed, stack,
                                          {u: Poly.var(u, ring) for u in ring})))
        i = ring.index(v)
        sub_ring = ring[:i] + ring[i + 1:]
        for root in roots:
            sub = [q.substitute({v: Poly.const(root, sub_ring)}) for q in gb]
            nf = dict(fixed)
            nf[v] = root
            _solve_rec(sub, sub_ring, nf, list(stack), params, out)
        return

    # positive-dimensional: pick a parameter not leading any basis element
    leading_vars = set()
    for g in gb:
        m = g.leading_term(LEX)[0]
        for v, e in zip(g.vars, m):
            if e:
                leading_vars.add(v)
                break
    candidates = [v for v in ring if v not in leading_vars]
    if not candidates or params:
        out.residual.append(ResidualComponent(
            gb, _assemble(fixed, stack, {u: Poly.var(u, ring) for u in ring})))
        return
    v = candidates[-1]
    i = ring.index(v)
    sub_ring = ring[:i] + ring[i + 1:]
    param = RationalFunc.gen(v)
    sub = [q.substitute({v: Poly.const(param, sub_ring)}) for q in gb]
    nf = dict(fixed)
    nf[v] = param
    _solve_rec(sub, sub_ring, nf, list(stack), params + [v], out)


def _assemble(fixed: Dict[str, object], stack: List[Tuple[str, Poly]],
              tail: Dict[str, object]) -> Dict[str, object]:
    vals = dict(fixed)
    vals.update(tail)
    for v, expr in reversed(stack):
        vals[v] = expr.eval(vals) if expr else Fraction(0)
    return vals


def _emit(fixed, stack, tail, params, out: SolutionSet):
    vals = _assemble(fixed, stack, tail)
    if not params:
        out.points.append({u: v for u, v in vals.items()})
    else:
        free = params[0]
        assignments = {u: (v if isinstance(v, RationalFunc)
                           else RationalFunc.const(v, var=free))
                       for u, v in vals.items()}
        out.families.append(ParametricFamily(free, assignments))


def _verify_solutions(gens: Sequence[Poly], sols: SolutionSet):
    for pt in sols.points:
        for g in gens:
            if g.eval(pt):
                raise GroebnerError(f"spurious point {pt}")
    for fam in sols.families:
        for g in gens:
            val = g.eval(fam.assignments)
            if val:
                raise GroebnerError(f"spurious family over {fam.free}")
