"""Exact polynomial system solving for the closure constraints.

Buchberger's algorithm under lex, the one term order the solver needs,
plus a zero-dimensional solver. Lex compares exponent tuples as they
are, so a leading monomial is ``max`` of the monomials with no sort key.
The generators enter in reduced row-echelon form over their monomials,
which ``linalg.rref`` computes: invertible row operations, so the ideal
is unchanged, and the leading terms are distinct. The S-pairs wait in a
heap keyed by (degree of the lcm, the lcm, i, j), with the lcm computed
once when the pair is queued; popping the minimum is the normal
selection strategy. Pairs are skipped by Buchberger's coprime criterion
and a chain check.

All division goes through one loop, ``_divide``, and the coefficient
values choose how it divides, as in ``linalg.rref``:

- a system of ``int`` and ``Fraction`` coefficients runs over Z: each
  polynomial is a primitive integer term dict with a positive leading
  coefficient. A division step by a divisor with leading coefficient
  ``lc`` scales what is left and the remainder by ``lc/g`` and subtracts
  ``(c/g) x^q tail``, where ``g = gcd(lc, c)``; the S-polynomial
  cross-multiplies by the leading coefficients; each new remainder is
  divided by its content. No ``Fraction`` is normalised until each
  element of the reduced basis is made monic, once, at the end;
- any other system (``RationalFunc`` coefficients) runs through the same
  loop with monic divisors, whose scale factor is 1, so it takes no gcd.

Division works in place on one dict of remaining terms and one of
remainder terms: the leading term, which a divisor cancels exactly, is
popped, and the divisor's tail (split off once per divisor) is
subtracted term by term. The output is reduced and monic. Every S-pair
of it is re-checked to reduce to zero, which certifies that the skipped
pairs lost nothing, and so is every generator, which certifies that it
spans the generators' ideal and not a smaller one.

The solver does linear elimination first, in the ring the system came
in, on one mutable term dict per polynomial: each pivot is substituted
only into the terms that contain its variable (``_substitute_in_place``),
its slot stays at exponent 0, a polynomial's pivot candidate is
recomputed only when it has changed and has few enough terms to be the
next pivot, and the system is restricted to the remaining variables
once, at the end. Then comes lexicographic elimination with rational
root extraction and back-substitution. After a free parameter has been
designated, quadratics over its function field are split whenever the
discriminant is a perfect square. Irrational roots are reported as
residual components with their defining polynomials, never approximated.

Every point and family is certified exactly on every generator. Each
distinct monomial of a ring is evaluated once per solution and shared by
the generators of that ring, and a monomial with a zero-valued variable
counts as 0 without a product.

Deterministic throughout: variables are ordered lexically by name and
all tie-breaking is by the lex order of exponent tuples.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import add, le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import _RATIONAL, rref
from .poly import Mono, Poly, _mul_terms
from .scalars import (RationalFunc, _udivmod, _ueval, over_common_denominator,
                      primitive_integers, ratfunc_sqrt)

# (leading monomial, leading coefficient, tail terms) of a divisor; the
# leading coefficient of a monic divisor is the int 1
Divisor = Tuple[Mono, object, List[Tuple[Mono, object]]]


class GroebnerError(ValueError):
    pass


def _divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def _lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def _msub(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def _is_rational(polys: Sequence[Poly]) -> bool:
    """Whether every coefficient is an ``int`` or a ``Fraction``, which
    selects division over Z."""
    return all(isinstance(c, _RATIONAL)
               for p in polys for c in p.terms.values())


def _term_dict(p: Poly, integral: bool):
    """(terms, den): over Z, p's integer numerators over the lcm ``den``
    of its denominators; otherwise p's own terms and 1."""
    if not integral:
        return dict(p.terms), 1
    nums, den = over_common_denominator(p.terms.values())
    return dict(zip(p.terms, nums)), den


def _normalised(terms: Dict[Mono, object], integral: bool):
    """A nonzero term dict divided by its content with a positive leading
    coefficient (over Z), or by its leading coefficient (otherwise)."""
    lc = terms[max(terms)]
    if integral:
        g = gcd(*terms.values())
        if lc < 0:
            g = -g
        return terms if g == 1 else {m: c // g for m, c in terms.items()}
    return terms if lc == 1 else {m: c / lc for m, c in terms.items()}


def _divisor(terms: Dict[Mono, object], integral: bool) -> Divisor:
    """The divisor of a term dict that ``_normalised`` returned."""
    m = max(terms)
    return m, terms[m] if integral else 1, [(t, c) for t, c in terms.items()
                                           if t != m]


def _sub_multiple(d: Dict[Mono, object], q: Mono, c, tail):
    """d -= c * x^q * tail, in place, dropping cancelled terms."""
    for tm, tc in tail:
        m = tuple(map(add, q, tm))
        v = d.get(m)
        if v is None:
            d[m] = -(c * tc)
        else:
            v -= c * tc
            if v:
                d[m] = v
            else:
                del d[m]


def _divide(work: Dict[Mono, object], divisors: Sequence[Divisor]):
    """(remainder, s) of full multivariate division of the term dict
    ``work``, which is consumed: s * work reduces to the remainder.

    The leading term of what is left is divided by the first divisor whose
    leading monomial divides it, and moved to the remainder when none does.
    A divisor with leading coefficient ``lc`` other than 1 cancels a
    coefficient c after what is left and the remainder are scaled by
    ``lc/g``, ``g = gcd(lc, c)``, which then multiplies s; a monic
    divisor needs no scaling and no gcd."""
    rem = {}
    scale = 1
    while work:
        m = max(work)
        c = work.pop(m)
        for gm, gc, tail in divisors:
            if _divides(gm, m):
                if gc != 1:
                    g = gcd(gc, c)
                    if g != gc:
                        a = gc // g
                        for t in work:
                            work[t] *= a
                        for t in rem:
                            rem[t] *= a
                        scale *= a
                    c //= g
                _sub_multiple(work, _msub(m, gm), c, tail)
                break
        else:
            rem[m] = c
    return rem, scale


def _s_terms(f: Divisor, g: Divisor) -> Dict[Mono, object]:
    """The S-polynomial of two divisors cross-multiplied by their leading
    coefficients: (cg/h) x^(l-mf) f - (cf/h) x^(l-mg) g with l the lcm of
    the leading monomials and h = gcd(cf, cg). The leading terms cancel,
    so only the tails enter."""
    mf, cf, tf = f
    mg, cg, tg = g
    l = _lcm(mf, mg)
    h = gcd(cf, cg)
    s = {}
    _sub_multiple(s, _msub(l, mf), -(cg // h), tf)
    _sub_multiple(s, _msub(l, mg), cf // h, tg)
    return s


def _certify(R: Sequence[Divisor], gens: Sequence[Dict[Mono, object]]):
    """Raise ``GroebnerError`` unless the divisors R, which lie in the
    ideal of the term dicts ``gens``, are a Groebner basis of that ideal:
    every S-pair of R reduces to zero, which certifies that the skipped
    pairs lost nothing, and so does every generator, which certifies
    that minimalisation dropped no element of a larger ideal."""
    for i in range(len(R)):
        for j in range(i + 1, len(R)):
            if _divide(_s_terms(R[i], R[j]), R)[0]:
                raise GroebnerError("basis failed the S-polynomial criterion")
    for t in gens:
        if _divide(dict(t), R)[0]:
            raise GroebnerError("basis does not contain the generators")


def _echelon(gens: Sequence[Poly]) -> List[Poly]:
    """The reduced row-echelon form of the generators over their monomials,
    from ``linalg.rref`` with the monomials as columns in descending lex
    order: monic rows with distinct leading terms, none of which occurs in
    another row, by descending leading term. Each sparse pivot row becomes
    a polynomial with its terms in descending order. Invertible row
    operations leave the ideal as it was."""
    for g in gens:
        gens[0]._check(g)
    monos = sorted({m for g in gens for m in g.terms}, reverse=True)
    index = {m: k for k, m in enumerate(monos)}
    rows = [{index[m]: c for m, c in g.terms.items()} for g in gens]
    pivot_rows = rref(rows, [0] * len(rows), len(monos))
    return [Poly._canonical(gens[0].vars,
                            {monos[k]: c for k, c in sorted(row.items())})
            for row, _ in pivot_rows.values()]


def buchberger(gens: Sequence[Poly]) -> List[Poly]:
    """Reduced monic lex Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    echelon = _echelon(gens)
    vars = echelon[0].vars
    integral = _is_rational(echelon)
    # T[k] holds the normalised terms of the k-th element, G[k] its divisor
    T = [_normalised(_term_dict(g, integral)[0], integral) for g in echelon]
    G = [_divisor(t, integral) for t in T]
    lt = [d[0] for d in G]

    # heap of (degree, lcm, i, j); (i, j) is unique, so the entries order
    # the pairs totally
    pairs: List[Tuple[int, Mono, int, int]] = []
    pair_set = set()

    def push(i: int, j: int):
        l = _lcm(lt[i], lt[j])
        heapq.heappush(pairs, (sum(l), l, i, j))
        pair_set.add((i, j))

    def useless(i: int, j: int, l: Mono) -> bool:
        # Buchberger's first criterion: coprime leading terms
        if l == tuple(map(add, lt[i], lt[j])):
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
        _, l, i, j = heapq.heappop(pairs)
        pair_set.discard((i, j))
        if useless(i, j, l):
            continue
        r = _divide(_s_terms(G[i], G[j]), G)[0]
        if r:
            r = _normalised(r, integral)
            k = len(G)
            T.append(r)
            G.append(_divisor(r, integral))
            lt.append(G[k][0])
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
            minimal.append(i)
    # inter-reduce tails; keep each element's terms with its divisor
    reduced = []
    for i in minimal:
        r = _divide(dict(T[i]), [G[j] for j in minimal if j != i])[0]
        if r:
            r = _normalised(r, integral)
            reduced.append((_divisor(r, integral), r))
    reduced.sort(key=lambda t: t[0][0])
    _certify([d for d, _ in reduced], T[:len(echelon)])
    if not integral:
        return [Poly._canonical(vars, r) for _, r in reduced]
    return [Poly._canonical(vars, {m: Fraction(c, lc) for m, c in r.items()})
            for (_, lc, _), r in reduced]


# -- solution extraction ----------------------------------------------------------

class ParametricFamily:
    __slots__ = ("free", "assignments")

    def __init__(self, free: str, assignments: Dict[str, RationalFunc]):
        self.free = free
        self.assignments = assignments

    def __eq__(self, other):
        return type(other) is ParametricFamily and \
            (self.free, self.assignments) == (other.free, other.assignments)


class ResidualComponent:
    __slots__ = ("basis", "assignments")

    def __init__(self, basis: List[Poly],
                 assignments: Optional[Dict[str, object]] = None):
        self.basis = basis
        self.assignments = {} if assignments is None else assignments

    def __eq__(self, other):
        return type(other) is ResidualComponent and \
            (self.basis, self.assignments) == (other.basis, other.assignments)


class SolutionSet:
    __slots__ = ("unknowns", "points", "families", "residual")

    def __init__(self, unknowns: List[str],
                 points: Optional[List[Dict[str, Fraction]]] = None,
                 families: Optional[List[ParametricFamily]] = None,
                 residual: Optional[List[ResidualComponent]] = None):
        self.unknowns = unknowns
        self.points = [] if points is None else points
        self.families = [] if families is None else families
        self.residual = [] if residual is None else residual

    def __eq__(self, other):
        return type(other) is SolutionSet and \
            (self.unknowns, self.points, self.families, self.residual) == \
            (other.unknowns, other.points, other.families, other.residual)


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


def solve_zero_dim(gens: Sequence[Poly], unknowns: Sequence[str]) -> SolutionSet:
    """All solutions of a polynomial system over the rationals, in the
    given unknowns.

    Strategy: eliminate unknowns that occur linearly with scalar
    coefficients, in one ring (``_eliminate_linear``); run a
    lexicographic Groebner basis on what remains; branch over rational
    roots of univariate basis elements; designate a free parameter for
    positive-dimensional components. Components that resist this shape
    (irrational roots, more than one free unknown) are reported as
    residual with their bases. Every point and family is checked on every
    generator (``_verify_solutions``), which raises ``GroebnerError`` on a
    spurious one.
    """
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


def _pivot_slot(terms: Dict[Mono, object]):
    """((term count, degree), i) for the first slot i in which the term
    dict is linear with a scalar coefficient, or None."""
    linear, other = set(), set()
    degree = 0
    for m in terms:
        d = sum(m)
        if d == 1:
            linear.add(m.index(1))
        else:
            other.update(compress(range(len(m)), m))
        if d > degree:
            degree = d
    free = linear - other
    if not free:
        return None
    return (len(terms), degree), min(free)


def _substitute_in_place(terms: Dict[Mono, object], i: int,
                         powers: List[Dict[Mono, object]]) -> bool:
    """Whether the variable of slot i occurs in the term dict ``terms``;
    if it does, it is replaced there, in place, by the polynomial whose
    term dict is ``powers[1]``. Only the terms that contain it are popped,
    and their products with its powers are added in, with the slot at
    exponent 0; a sum that cancels is dropped. Each power is built once,
    when first needed, and kept in ``powers`` for the next call. As in
    ``Poly.substitute``, an int coefficient becomes a Fraction."""
    hit = [m for m in terms if m[i]]
    if not hit:
        return False
    if int in map(type, terms.values()):
        for m, c in terms.items():
            if isinstance(c, int):
                terms[m] = Fraction(c)
    for m in hit:
        c = terms.pop(m)
        e = m[i]
        while len(powers) <= e:
            powers.append(_mul_terms(powers[-1], powers[1], None))
        base = m[:i] + (0,) + m[i + 1:]
        for me, ce in powers[e].items():
            t = tuple(map(add, base, me))
            v = terms.get(t)
            if v is None:
                terms[t] = c * ce
            else:
                v += c * ce
                if v:
                    terms[t] = v
                else:
                    del terms[t]
    return True


def _eliminate_linear(system: List[Poly], ring: Tuple[str, ...],
                      stack: List[Tuple[str, Poly]]):
    """(system, ring) after linear elimination with scalar pivots, or None
    for an inconsistent branch; each pivot ``v := expr`` goes on the stack.

    The pivot is the polynomial with the fewest terms, then the lowest
    degree, then the first in text order, then in row order; an int pivot
    coefficient divides as a Fraction. Each polynomial is one term dict,
    which ``_substitute_in_place`` changes only when it contains the
    pivot's variable, with each power of the pivot's image built once per
    pivot. A changed row's candidate is recomputed only when it could
    still be the pivot: the rows are walked by ascending term count, in
    row order within a count, and the walk stops at the first row with
    more terms than the best candidate. The system stays in the ring it
    came in, with each eliminated slot at exponent 0, which changes
    neither a polynomial's text nor its grevlex order, and is restricted
    to the remaining variables once, at the end."""
    system = [p for p in system if p]
    if any(p.is_constant() for p in system):
        return None
    full = ring
    n = len(full)
    constant = (0,) * n
    # [term dict, pivot candidate (False until computed), text once a tie
    # has needed it]; changing the terms resets the other two
    rows = [[dict(p.terms), False, None] for p in system]
    while True:
        low, ties = None, []
        for row in sorted(rows, key=lambda row: len(row[0])):
            if low is not None and len(row[0]) > low[0]:
                break
            if row[1] is False:
                row[1] = _pivot_slot(row[0])
            if row[1] is None:
                continue
            key = row[1][0]
            if low is None or key < low:
                low, ties = key, [row]
            elif key == low:
                ties.append(row)
        if not ties:
            break
        if len(ties) > 1:
            for row in ties:
                if row[2] is None:
                    row[2] = str(Poly._canonical(full, row[0]))
            ties.sort(key=lambda row: row[2])
        pivot = ties[0]
        terms, i = pivot[0], pivot[1][1]
        c = terms.pop(tuple(int(j == i) for j in range(n)))
        if isinstance(c, int):
            c = Fraction(c)
        expr = {m: -a / c for m, a in terms.items()}
        stack.append((full[i], Poly._canonical(full, expr)))
        ring = tuple(u for u in ring if u != full[i])
        powers = [None, expr]
        kept = []
        for row in rows:
            if row is pivot:
                continue
            if _substitute_in_place(row[0], i, powers):
                if not row[0]:
                    continue
                if len(row[0]) == 1 and constant in row[0]:
                    return None
                row[1], row[2] = False, None
            kept.append(row)
        rows = kept
    system = [Poly._canonical(full, row[0]) for row in rows]
    if ring != full:
        system = [_restrict(p, ring) for p in system]
    return system, ring


def _solve_rec(system: List[Poly], ring: Tuple[str, ...],
               fixed: Dict[str, object], stack: List[Tuple[str, Poly]],
               params: List[str], out: SolutionSet):
    linear = _eliminate_linear(system, ring, stack)
    if linear is None:
        return  # inconsistent branch
    system, ring = linear

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

    gb = buchberger(system)
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
        m = max(g.terms)
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
    """Raise ``GroebnerError`` unless every generator vanishes exactly at
    every point and on every family."""
    rings: Dict[Tuple[str, ...], List[Poly]] = {}
    for g in gens:
        rings.setdefault(g.vars, []).append(g)
    for pt in sols.points:
        if not _vanishes(rings, pt):
            raise GroebnerError(f"spurious point {pt}")
    for fam in sols.families:
        if not _vanishes(rings, fam.assignments):
            raise GroebnerError(f"spurious family over {fam.free}")


def _vanishes(rings: Dict[Tuple[str, ...], List[Poly]],
              values: Dict[str, object]) -> bool:
    """Whether every generator, grouped by ring, is zero at the values.
    Each distinct monomial of a ring is evaluated once and its value shared
    by the generators of that ring; a monomial with a zero-valued variable
    is 0, and its terms are skipped."""
    powers: Dict[Tuple[str, int], object] = {}
    for vars, gens in rings.items():
        monos: Dict[Mono, object] = {}
        for g in gens:
            total = 0
            for m, c in g.terms.items():
                if m in monos:
                    t = monos[m]
                else:
                    t = monos[m] = _monomial_value(vars, m, values, powers)
                if t is not None:
                    total = total + c * t
            if total:
                return False
    return True


def _monomial_value(vars: Tuple[str, ...], m: Mono, values, powers):
    """The value of the monomial m, or None when one of its variables is
    0; ``powers`` caches each variable's powers."""
    t = 1
    for v, e in zip(vars, m):
        if e:
            x = values[v]
            if not x:
                return None
            pw = powers.get((v, e))
            if pw is None:
                pw = powers[v, e] = x ** e
            t = t * pw
    return t
