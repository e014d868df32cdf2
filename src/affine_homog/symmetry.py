"""Affine symmetry algebras of graph jets.

An affine vector field p -> A.p + v is an infinitesimal symmetry of the
graph w = F(x,y,z) to order M when the tangency residual

    Tr^M [ (F_x, F_y, F_z, -1) . (A.(x,y,z,F)^T + v) ]

vanishes. Tangency is linear in the field, so candidate symmetries come
from exact linear solves; bracket closure of the resulting span is a
polynomial condition on the remaining free entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .jets import Jet
from .linalg import (LinearEquation, SolutionFamily, equations_from_poly,
                     linear_solve, matrix_rank, solve_rows)
from .poly import GREVLEX, Poly

XYZ = ("x", "y", "z")

E_X = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
E_Y = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
E_Z = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
ZERO4 = (Fraction(0),) * 4


class CompletionError(ValueError):
    def __init__(self, message: str, order: int):
        super().__init__(f"{message} (order {order})")
        self.order = order


@dataclass
class AffineVectorField:
    """The field p -> A.p + v on (x, y, z, w)-space."""
    A: Tuple[Tuple[object, ...], ...]
    v: Tuple[object, ...] = ZERO4

    def __post_init__(self):
        self.A = tuple(tuple(r) for r in self.A)
        self.v = tuple(self.v)

    @classmethod
    def zero(cls) -> "AffineVectorField":
        return cls(((Fraction(0),) * 4,) * 4, ZERO4)

    def is_zero(self) -> bool:
        return not (any(any(r) for r in self.A) or any(self.v))

    def scale(self, c) -> "AffineVectorField":
        return AffineVectorField(
            tuple(tuple(c * a for a in r) for r in self.A),
            tuple(c * t for t in self.v))

    def __add__(self, other: "AffineVectorField") -> "AffineVectorField":
        return AffineVectorField(
            tuple(tuple(a + b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.A, other.A)),
            tuple(a + b for a, b in zip(self.v, other.v)))

    def __sub__(self, other: "AffineVectorField") -> "AffineVectorField":
        return self + other.scale(Fraction(-1))

    def coords(self) -> List[object]:
        return [a for r in self.A for a in r] + list(self.v)

    def to_json(self):
        from .scalars import scalar_str
        return {"A": [[scalar_str(a) for a in r] for r in self.A],
                "v": [scalar_str(t) for t in self.v]}

    @classmethod
    def from_json(cls, data) -> "AffineVectorField":
        from .scalars import parse_rational
        return cls(tuple(tuple(parse_rational(a) for a in r) for r in data["A"]),
                   tuple(parse_rational(t) for t in data["v"]))


def bracket(v1: AffineVectorField, v2: AffineVectorField) -> AffineVectorField:
    """Lie bracket: (A2 A1 - A1 A2, A2 v1 - A1 v2)."""
    a1, a2 = v1.A, v2.A
    A = tuple(tuple(sum(a2[i][k] * a1[k][j] for k in range(4))
                    - sum(a1[i][k] * a2[k][j] for k in range(4))
                    for j in range(4)) for i in range(4))
    t = tuple(sum(a2[i][k] * v1.v[k] for k in range(4))
              - sum(a1[i][k] * v2.v[k] for k in range(4)) for i in range(4))
    return AffineVectorField(A, t)


def tangency_residual(F: Jet, V: AffineVectorField, M: int) -> Jet:
    fp = F.poly
    partials = [fp.partial(n) for n in XYZ]
    coords = [Poly.var(n, XYZ) for n in XYZ] + [fp]
    res = Poly.zero(XYZ)
    for i in range(4):
        comp = Poly.zero(XYZ)
        for j in range(4):
            a = V.A[i][j]
            if a:
                comp = comp + coords[j].scale(a)
        if V.v[i]:
            comp = comp + Poly.const(V.v[i], XYZ)
        if not comp:
            continue
        if i < 3:
            res = res + partials[i].mul_truncated(comp, M)
        else:
            res = res - comp
    return Jet(res.truncate(M), M)


# -- linear tangency solves -----------------------------------------------------

def matrix_unknowns(prefix: str) -> List[str]:
    return [f"{prefix}{i}{j}" for i in range(1, 5) for j in range(1, 5)]


def translation_unknowns(prefix: str) -> List[str]:
    return [f"{prefix}t{i}" for i in range(1, 5)]


# entry positions whose vanishing slices away the case's isotropy shifts
# (adding an isotropy generator to a solution matrix is a residual freedom;
# one pinned entry per independent isotropy direction)
GAUGE_ENTRIES = {
    "no-cubic": ("13", "22", "31", "44"),
    "I3": ("22", "31"),
    "Inr": ("23",),
}


def normalize_gauge(case: str, prefixes: Sequence[str] = ("p", "q", "r")):
    """Gauge constraints that pin down the known isotropy generators."""
    entries = GAUGE_ENTRIES.get(case, ("22",))
    return [LinearEquation({f"{pre}{entry}": Fraction(1)}, Fraction(0))
            for pre in prefixes for entry in entries]


@dataclass
class TangencyFamily:
    prefix: str
    family: SolutionFamily
    translation: object  # fixed 4-tuple, or the string "free"
    order: int

    @property
    def dimension(self) -> int:
        return self.family.dimension

    def _field_from_values(self, values: Dict[str, object]) -> AffineVectorField:
        A = tuple(tuple(values[f"{self.prefix}{i}{j}"] for j in range(1, 5))
                  for i in range(1, 5))
        if self.translation == "free":
            v = tuple(values[u] for u in translation_unknowns(self.prefix))
        else:
            v = tuple(self.translation)
        return AffineVectorField(A, v)

    def field(self, free_values: Optional[Dict[str, object]] = None) -> AffineVectorField:
        return self._field_from_values(self.family.member(free_values))

    def basis_fields(self) -> List[AffineVectorField]:
        """Fields from the homogeneous basis vectors (zero fixed translation)."""
        out = []
        for vec in self.family.basis:
            A = tuple(tuple(vec[f"{self.prefix}{i}{j}"] for j in range(1, 5))
                      for i in range(1, 5))
            if self.translation == "free":
                v = tuple(vec[u] for u in translation_unknowns(self.prefix))
            else:
                v = ZERO4
            out.append(AffineVectorField(A, v))
        return out

    def general_field(self, vars: Sequence[str]) -> AffineVectorField:
        gm = self.family.general_member(vars)
        A = tuple(tuple(gm[f"{self.prefix}{i}{j}"] for j in range(1, 5))
                  for i in range(1, 5))
        if self.translation == "free":
            v = tuple(gm[u] for u in translation_unknowns(self.prefix))
        else:
            v = tuple(Poly.const(t, tuple(vars)) for t in self.translation)
        return AffineVectorField(A, v)


def _residual_equations(res: Jet) -> List[LinearEquation]:
    eqs = []
    for m in sorted(res.poly.terms, key=GREVLEX.key):
        c = res.poly.terms[m]
        if isinstance(c, Poly):
            eqs.append(equations_from_poly(c))
        elif c:
            eqs.append(LinearEquation({}, -c))
    return eqs


def solve_tangency(F: Jet, translation="zero", prefix: str = "p",
                   extra_constraints: Sequence[LinearEquation] = (),
                   order: Optional[int] = None) -> Optional[TangencyFamily]:
    """Family of fields tangent to F with the given translation part.

    Truncation defaults to N for a zero translation and N-1 otherwise
    (the jet of the graph determines residuals only that far).
    Returns None when no such field exists.
    """
    N = F.order
    if translation == "zero":
        translation = ZERO4
    ring = list(matrix_unknowns(prefix))
    if translation == "free":
        ring += translation_unknowns(prefix)
    else:
        translation = tuple(translation)
    ring = tuple(sorted(ring))
    if order is None:
        order = N if (translation != "free" and not any(translation)) else N - 1
    A = tuple(tuple(Poly.var(f"{prefix}{i}{j}", ring) for j in range(1, 5))
              for i in range(1, 5))
    if translation == "free":
        v = tuple(Poly.var(u, ring) for u in translation_unknowns(prefix))
    else:
        v = translation
    res = tangency_residual(F, AffineVectorField(A, v), order)
    eqs = _residual_equations(res) + list(extra_constraints)
    fam = linear_solve(eqs, ring)
    if fam is None:
        return None
    return TangencyFamily(prefix, fam,
                          "free" if translation == "free" else translation,
                          order)


def pqr_families(F: Jet, case: Optional[str] = None,
                 order: Optional[int] = None):
    """The three tangency families with unit translation parts along x, y
    and z, gauge-fixed for the given cubic case when one is named."""
    out = []
    for prefix, e in (("p", E_X), ("q", E_Y), ("r", E_Z)):
        extra = normalize_gauge(case, (prefix,)) if case else ()
        fam = solve_tangency(F, translation=e, prefix=prefix,
                             extra_constraints=extra, order=order)
        if fam is None:
            return None
        out.append(fam)
    return tuple(out)


# -- closure ---------------------------------------------------------------------

def _mm(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4))
                       for j in range(4)) for i in range(4))


def _msub(a, b):
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def _msc(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def closure_matrices(P, Q, R):
    """The three bracket-combination matrices whose tangency expresses
    Lie closure of span(P+e_x, Q+e_y, R+e_z, isotropy)."""
    X1 = _msub(_msub(_mm(P, Q), _mm(Q, P)),
               _msc(P[0][1] - Q[0][0], P))
    X1 = _msub(X1, _msc(P[1][1] - Q[1][0], Q))
    X1 = _msub(X1, _msc(P[2][1] - Q[2][0], R))
    X2 = _msub(_msub(_mm(Q, R), _mm(R, Q)),
               _msc(Q[1][2] - R[1][1], Q))
    X2 = _msub(X2, _msc(Q[2][2] - R[2][1], R))
    X2 = _msub(X2, _msc(Q[0][2] - R[0][1], P))
    X3 = _msub(_msub(_mm(R, P), _mm(P, R)),
               _msc(R[2][0] - P[2][2], R))
    X3 = _msub(X3, _msc(R[0][0] - P[0][2], P))
    X3 = _msub(X3, _msc(R[1][0] - P[1][2], Q))
    return X1, X2, X3


def _canonical_constraint(p: Poly) -> Poly:
    lead = p.leading_term()[1]
    if lead == 1:
        return p
    return p.map_coefficients(lambda c: c / lead)


def closure_constraints(F: Jet, famP: TangencyFamily, famQ: TangencyFamily,
                        famR: TangencyFamily, dedupe: bool = False) -> List[Poly]:
    """Coefficient-wise polynomial closure constraints on the free
    entries of the three gauge-fixed families (quadratic in the
    unknowns, monic-normalized). One constraint per nonzero residual
    coefficient; pass dedupe=True to drop repeats up to scale."""
    ring = tuple(sorted(famP.family.free + famQ.family.free + famR.family.free))
    P = famP.general_field(ring).A
    Q = famQ.general_field(ring).A
    R = famR.general_field(ring).A
    constraints: List[Poly] = []
    seen = set()
    for X in closure_matrices(P, Q, R):
        res = tangency_residual(F, AffineVectorField(X, ZERO4), F.order)
        for m in sorted(res.poly.terms, key=GREVLEX.key):
            c = res.poly.terms[m]
            if not isinstance(c, Poly):
                c = Poly.const(c, ring)
            if not c:
                continue
            c = _canonical_constraint(c)
            if dedupe:
                key = frozenset(c.terms.items())
                if key in seen:
                    continue
                seen.add(key)
            constraints.append(c)
    return constraints


# -- term-by-term completion -------------------------------------------------------

def _order_unknowns(m: int) -> List[Tuple[str, Tuple[int, int, int]]]:
    out = []
    for i in range(m, -1, -1):
        for j in range(m - i, -1, -1):
            k = m - i - j
            out.append((f"c{i}_{j}_{k}", (i, j, k)))
    return out


def complete_series(f: Jet, P, Q, R, M: int,
                    translations=(E_X, E_Y, E_Z)):
    """Extend f order by order so that the three translated fields stay
    tangent. Each order must be pinned down uniquely; failures carry the
    offending order. Returns (jet, parametric degeneracy conditions)."""
    cur = f.poly
    base = f.order
    degeneracies: List[object] = []
    for m in range(base + 1, M + 1):
        names = _order_unknowns(m)
        ring = tuple(sorted(n for n, _ in names))
        fm = Poly(XYZ, {mono: Poly.var(n, ring) for n, mono in names})
        ftot = Jet(cur + fm, m)
        eqs: List[LinearEquation] = []
        for mat, e in zip((P, Q, R), translations):
            res = tangency_residual(ftot, AffineVectorField(mat, e), m - 1)
            eqs.extend(_residual_equations(res))
        fam = linear_solve(eqs, ring)
        if fam is None:
            raise CompletionError("inconsistent completion system", m)
        if not fam.is_unique():
            raise CompletionError("underdetermined completion system", m)
        degeneracies.extend(fam.degeneracies)
        add = Poly(XYZ, {mono: fam.particular[n] for n, mono in names})
        cur = cur + add
    return Jet(cur, M), degeneracies


# -- full algebra ------------------------------------------------------------------

@dataclass
class SymmetryAlgebra:
    basis: List[AffineVectorField]
    order: int
    closed: bool
    isotropy_dim: int
    full_dim: int
    translation_rank: int
    tangency_ok: bool = True

    def to_json(self):
        return {"basis": [b.to_json() for b in self.basis],
                "order": self.order, "closed": self.closed,
                "isotropy_dim": self.isotropy_dim,
                "full_dim": self.full_dim,
                "translation_rank": self.translation_rank}


def reduce_against_span(fields: Sequence[AffineVectorField],
                        target: AffineVectorField) -> bool:
    """True when target lies in the exact linear span of the fields."""
    if target.is_zero():
        return True
    coords = [f.coords() for f in fields]
    rows = [[c[i] for c in coords] for i in range(20)]
    return solve_rows(rows, target.coords(), len(fields)) is not None


def full_algebra(F: Jet, order: Optional[int] = None) -> SymmetryAlgebra:
    """Candidate symmetry algebra of the graph w = F at the given order:
    all affine fields tangent to order N-1, with an exact bracket-closure
    check and a tangency re-check of the pure-linear part at order N."""
    N = order if order is not None else F.order
    Ft = F.truncate(N)
    fam = solve_tangency(Ft, translation="free", prefix="a", order=N - 1)
    basis = fam.basis_fields() if fam is not None else []
    full_dim = len(basis)
    trans_rank = matrix_rank([list(b.v[:3]) for b in basis]) if basis else 0
    iso = solve_tangency(Ft, translation="zero", prefix="a", order=N)
    iso_dim = iso.dimension if iso is not None else 0
    # tangency re-check at the tightest order each element allows
    tangency_ok = True
    for b in basis:
        M = N - 1 if any(b.v) else N
        if not tangency_residual(Ft, b, M).is_zero():
            tangency_ok = False
    closed = tangency_ok
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not reduce_against_span(basis, bracket(basis[i], basis[j])):
                closed = False
                break
        if not closed:
            break
    return SymmetryAlgebra(basis, N, closed, iso_dim, full_dim, trans_rank,
                           tangency_ok)
