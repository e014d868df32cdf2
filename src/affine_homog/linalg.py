"""Exact linear algebra over the scalar domains.

All elimination is one positional routine, ``solve_rows``: exact
Gauss-Jordan reduction with pivots chosen by smallest bit-size to limit
coefficient growth. ``linear_solve`` (named unknowns), ``nullspace`` and
``matrix_rank`` are thin front ends to it. Inconsistency is a returned
value, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .poly import Poly
from .scalars import RationalFunc


@dataclass
class LinearEquation:
    """sum(coeffs[u] * u) = rhs"""
    coeffs: Dict[str, object]
    rhs: object = Fraction(0)


@dataclass
class SolutionFamily:
    """Affine solution space: particular + span(basis), keyed by unknown."""
    unknowns: List[str]
    particular: Dict[str, object]
    basis: List[Dict[str, object]]
    free: List[str]
    degeneracies: List[object] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def is_unique(self) -> bool:
        return not self.basis

    def member(self, free_values: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """A concrete solution; free unknowns default to zero."""
        free_values = free_values or {}
        out = dict(self.particular)
        for i, f in enumerate(self.free):
            t = free_values.get(f)
            if t is None or not t:
                continue
            vec = self.basis[i]
            for u in self.unknowns:
                out[u] = out[u] + t * vec[u]
        return out

    def general_member(self, vars: Optional[Sequence[str]] = None) -> Dict[str, Poly]:
        """Each unknown as a degree-<=1 polynomial in the free unknowns."""
        vars = tuple(vars) if vars is not None else tuple(self.free)
        out = {}
        for u in self.unknowns:
            p = Poly.const(self.particular[u], vars)
            for f, vec in zip(self.free, self.basis):
                if vec[u]:
                    p = p + Poly.var(f, vars).scale(vec[u])
            out[u] = p
        return out


def _pivot_size(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if isinstance(c, RationalFunc):
        return 8 * (len(c.num) + len(c.den))
    return 1 << 20


def solve_rows(rows: Sequence[Sequence[object]], rhs: Sequence[object],
               ncols: int):
    """Exact RREF solve of ``rows . x = rhs`` over ``ncols`` columns.

    Returns None when inconsistent, otherwise ``(particular, basis,
    free_cols, degeneracies)``: a particular solution, one nullspace vector
    per free column (1 there, 0 at the other free columns), the free column
    indices, and the non-constant parametric pivots. Over a parametric
    field, pivots that vanish for special parameter values are recorded
    in ``degeneracies`` rather than silently assumed non-zero.
    """
    rows = list(zip(rows, rhs))
    degeneracies: List[object] = []
    pivots = []  # (row_index, col_index)
    r = 0
    for col in range(ncols):
        # choose the simplest non-zero pivot in this column
        best = None
        for i in range(r, len(rows)):
            c = rows[i][0][col]
            if c:
                s = _pivot_size(c)
                if best is None or s < best[1]:
                    best = (i, s)
        if best is None:
            continue
        i = best[0]
        rows[r], rows[i] = rows[i], rows[r]
        prow, prhs = rows[r]
        p = prow[col]
        if isinstance(p, RationalFunc) and not p.is_constant():
            degeneracies.append(p)
        inv_row = [c / p for c in prow]
        inv_rhs = prhs / p
        rows[r] = (inv_row, inv_rhs)
        for j in range(len(rows)):
            if j == r:
                continue
            f = rows[j][0][col]
            if f:
                nrow = [a - f * b for a, b in zip(rows[j][0], inv_row)]
                nrhs = rows[j][1] - f * inv_rhs
                rows[j] = (nrow, nrhs)
        pivots.append((r, col))
        r += 1
        if r == len(rows):
            break

    # consistency: zero rows must have zero rhs
    for j in range(r, len(rows)):
        if rows[j][1]:
            return None

    pivot_cols = {col: ri for ri, col in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    zero = Fraction(0)
    particular = [zero] * ncols
    for col, ri in pivot_cols.items():
        particular[col] = rows[ri][1]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = Fraction(1)
        for col, ri in pivot_cols.items():
            c = rows[ri][0][fc]
            if c:
                vec[col] = -c
        basis.append(vec)
    return particular, basis, free_cols, degeneracies


def nullspace(rows: Sequence[Sequence[object]], ncols: int) -> List[List[object]]:
    """Basis of the nullspace of a matrix given as rows, one vector per
    free column."""
    return solve_rows(rows, [Fraction(0)] * len(rows), ncols)[1]


def matrix_rank(rows: Sequence[Sequence[object]]) -> int:
    """Exact rank of a matrix given as rows."""
    if not rows:
        return 0
    ncols = len(rows[0])
    return ncols - len(nullspace(rows, ncols))


def linear_solve(equations: Sequence[LinearEquation],
                 unknowns: Sequence[str]) -> Optional[SolutionFamily]:
    """``solve_rows`` on named unknowns, in the order given. Returns None
    when inconsistent."""
    unknowns = list(unknowns)
    n = len(unknowns)
    idx = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for eq in equations:
        row = [Fraction(0)] * n
        for u, c in eq.coeffs.items():
            if u not in idx:
                if c:
                    raise KeyError(f"unknown {u!r} not declared")
                continue
            row[idx[u]] = row[idx[u]] + c
        rows.append(row)
    solved = solve_rows(rows, [eq.rhs for eq in equations], n)
    if solved is None:
        return None
    particular, basis, free_cols, degeneracies = solved
    return SolutionFamily(unknowns=unknowns,
                          particular=dict(zip(unknowns, particular)),
                          basis=[dict(zip(unknowns, vec)) for vec in basis],
                          free=[unknowns[c] for c in free_cols],
                          degeneracies=degeneracies)

