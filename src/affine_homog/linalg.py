"""Exact linear algebra over the scalar domains.

All row elimination goes through ``rref``, which reduces a system to its
unique RREF by one of two Gauss-Jordan branches. Its rows are sparse,
one ``{col: entry}`` per row, as the tangency systems (about one entry in
six nonzero) and Buchberger's echelon step build them. ``rref`` is the
one place where the scalar types choose the branch:

- a system of ``int`` and ``Fraction`` entries is scaled to integer rows
  and eliminated fraction-free (cross-multiplication, then division by
  the row content) on the nonzero entries alone, so ``Fraction``
  normalisation is paid only once per output entry and no zero entry is
  scaled or eliminated;
- any other system (``RationalFunc``, ``TowerElement`` or mixed) is
  made dense, with ``Fraction(0)`` at each unlisted column, and
  eliminated over its field with the smallest-``_pivot_size`` pivot,
  doing no arithmetic on zero entries. ``RationalFunc`` computes on
  integer polynomials times one rational content and pays for a
  polynomial gcd only where a result can share a factor with its
  denominator (see its docstring), so a parametric system whose pivots
  are constants runs without one.

The types choose the branch and the pivot order, which change the cost
of a solve only: the RREF is unique, so no value depends on them.
``solve_rows`` (dense rows) reads the particular solution and the
nullspace off the RREF; ``linear_solve`` (equations keyed by column
index, with named columns) passes its equations to ``rref`` as sparse
rows and reads the same; ``nullspace`` and ``matrix_rank`` are thin front
ends to ``solve_rows``, and Buchberger's echelon step in ``groebner``
calls ``rref`` directly.
Inconsistency is a returned value, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence

from .scalars import RationalFunc

_RATIONAL = (int, Fraction)


@dataclass
class LinearEquation:
    """sum(coeffs[k] * x[k]) = rhs, keyed by column index"""
    coeffs: Dict[int, object]
    rhs: object = Fraction(0)


@dataclass
class SolutionFamily:
    """Affine solution space: particular + span(basis), as vectors over the
    columns; basis vector k is 1 at column ``free_cols[k]`` and 0 at the
    other free columns. ``unknowns`` names the columns."""
    unknowns: List[str]
    particular: List[object]
    basis: List[List[object]]
    free_cols: List[int]

    @property
    def free(self) -> List[str]:
        """The names of the free columns."""
        return [self.unknowns[c] for c in self.free_cols]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def is_unique(self) -> bool:
        return not self.basis

    def member(self, free_values: Optional[Dict[str, object]] = None) -> List[object]:
        """The solution, in column order, at the given values of the free
        unknowns (keyed by name), which may be scalars or polynomials;
        unlisted ones are zero."""
        free_values = free_values or {}
        out = list(self.particular)
        for f, vec in zip(self.free, self.basis):
            t = free_values.get(f)
            if t is None or not t:
                continue
            for k, c in enumerate(vec):
                if c:
                    out[k] = out[k] + t * c
        return out

    def restrict(self, equations: Sequence[LinearEquation]) -> "SolutionFamily":
        """The members of this homogeneous family on which the equations,
        keyed by basis vector, vanish: by RREF uniqueness, the solve with
        the equations' rows appended (a cancelled entry is ``Fraction(0)``,
        as ``solve_rows`` writes it)."""
        kernel = linear_solve(equations, self.free)
        zero = Fraction(0)
        basis = [[c if c else zero for c in self.member(dict(zip(self.free, v)))]
                 for v in kernel.basis]
        return SolutionFamily(self.unknowns, self.particular, basis,
                              [self.free_cols[c] for c in kernel.free_cols])


def _pivot_size(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if isinstance(c, RationalFunc):
        return 8 * (len(c.n) + len(c.d))
    return 1 << 20


def _field_rref(rows, rhs, ncols):
    """Gauss-Jordan over any scalar field, picking the smallest pivot by
    ``_pivot_size``. Returns None when inconsistent, else the pivot rows
    as ``{col: (row, rhs)}`` scaled to pivot 1."""
    rows = list(zip(rows, rhs))
    pivots = {}
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
        if isinstance(p, int):
            p = Fraction(p)
        inv_row = [c / p if c else c for c in prow]
        inv_rhs = prhs / p if prhs else prhs
        rows[r] = (inv_row, inv_rhs)
        for j in range(len(rows)):
            if j == r:
                continue
            f = rows[j][0][col]
            if f:
                row, b = rows[j]
                rows[j] = ([x - f * y if y else x for x, y in zip(row, inv_row)],
                           b - f * inv_rhs if inv_rhs else b)
        pivots[col] = r
        r += 1
        if r == len(rows):
            break

    # consistency: zero rows must have zero rhs
    if any(rows[j][1] for j in range(r, len(rows))):
        return None
    return {col: rows[ri] for col, ri in pivots.items()}


def _integer_rref(rows, rhs, ncols):
    """Fraction-free Gauss-Jordan over Z for rational systems, on sparse
    rows. Each row, augmented by its rhs at column ``ncols``, is kept as
    its nonzero entries ``{col: int}``, scaled by the lcm of their
    denominators and divided by their content; a row is eliminated by
    ``(p/g) row - (f/g) pivot_row`` with ``g = gcd(p, f)`` over the union
    of the two rows' entries and then divided by its content, so no
    ``Fraction`` is normalised per scalar operation and no zero entry is
    touched. Returns None when inconsistent, else the pivot rows as dense
    ``{col: (row, rhs)}`` with pivot 1 and ``Fraction`` entries."""
    work = []
    for row, b in zip(rows, rhs):
        entries = [(k, c) for k, c in row.items() if c]
        if b:
            entries.append((ncols, b))
        if entries:
            den = lcm(*(c.denominator for _, c in entries))
            ints = {k: c.numerator * (den // c.denominator) for k, c in entries}
            work.append(_primitive_row(ints))
    pivots = {}
    r = 0
    for col in range(ncols):
        # any non-zero pivot gives the same RREF; the smallest keeps
        # the cross-multiplied rows short
        best = None
        for i in range(r, len(work)):
            c = work[i].get(col)
            if c and (best is None or abs(c) < abs(work[best][col])):
                best = i
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        prow = work[r]
        p = prow[col]
        for j in range(len(work)):
            row = work[j]
            f = row.get(col)
            if j != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
                for k, y in prow.items():
                    x = new.get(k, 0) - b * y
                    if x:
                        new[k] = x
                    else:
                        new.pop(k, None)
                work[j] = _primitive_row(new)
        pivots[col] = r
        r += 1
        if r == len(work):
            break

    if any(ncols in work[j] for j in range(r, len(work))):
        return None
    zero = Fraction(0)
    out = {}
    for col, ri in pivots.items():
        row = work[ri]
        p = row[col]
        dense = [zero] * ncols
        for k, a in row.items():
            if k < ncols:
                dense[k] = Fraction(a, p)
        out[col] = (dense, Fraction(row.get(ncols, 0), p))
    return out


def _primitive_row(row: Dict[int, int]) -> Dict[int, int]:
    """A sparse integer row divided by its content."""
    g = gcd(*row.values())
    return {k: a // g for k, a in row.items()} if g > 1 else row


def rref(rows: Sequence[Mapping[int, object]], rhs: Sequence[object], ncols: int):
    """The reduced row-echelon form of ``rows . x = rhs`` over ``ncols``
    columns, each row given sparse as ``{col: entry}`` (a column it does
    not list holds zero). Returns None when inconsistent, else the pivot
    rows as dense ``{col: (row, rhs)}`` with pivot 1, in ascending pivot
    column.

    The scalar types of the listed entries and of the rhs choose the
    branch: an all-``int``/``Fraction`` system runs fraction-free over Z
    on the sparse rows (``_integer_rref``), anything else over its field
    (``_field_rref``) on the rows made dense, with ``Fraction(0)`` at
    each column a row does not list. That choice and the pivot order
    change the cost only; the RREF is unique, so never a value."""
    rational = all(isinstance(c, _RATIONAL) for c in rhs) and all(
        isinstance(c, _RATIONAL) for row in rows for c in row.values())
    if rational:
        return _integer_rref(rows, rhs, ncols)
    zero = Fraction(0)
    return _field_rref([[row.get(k, zero) for k in range(ncols)] for row in rows],
                       rhs, ncols)


def solve_rows(rows: Sequence[Sequence[object]], rhs: Sequence[object],
               ncols: int):
    """Exact RREF solve of ``rows . x = rhs`` over ``ncols`` columns.

    Returns None when inconsistent, otherwise ``(particular, basis,
    free_cols)``: a particular solution, one nullspace vector per free
    column (1 there, 0 at the other free columns), and the free column
    indices.
    """
    return _read_solution(rref([dict(enumerate(row)) for row in rows], rhs, ncols),
                          ncols)


def _read_solution(pivot_rows, ncols: int):
    """``solve_rows``' result from the RREF's pivot rows (None when
    inconsistent)."""
    if pivot_rows is None:
        return None

    free_cols = [c for c in range(ncols) if c not in pivot_rows]
    zero = Fraction(0)
    particular = [zero] * ncols
    for col, (_, b) in pivot_rows.items():
        particular[col] = b
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = Fraction(1)
        for col, (row, _) in pivot_rows.items():
            c = row[fc]
            if c:
                vec[col] = -c
        basis.append(vec)
    return particular, basis, free_cols


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
    """``solve_rows`` on equations keyed by column index, one column per
    name in ``unknowns``. Returns None when inconsistent; raises
    ``ValueError`` on a column index outside the unknowns."""
    unknowns = list(unknowns)
    ncols = len(unknowns)
    rows = []
    for eq in equations:
        for k in eq.coeffs:
            if not 0 <= k < ncols:
                raise ValueError(f"column index {k} outside the "
                                 f"{ncols} unknowns")
        # an int becomes a Fraction, which _pivot_size ranks by its size
        rows.append({k: Fraction(c) if isinstance(c, int) else c
                     for k, c in eq.coeffs.items()})
    solved = _read_solution(rref(rows, [eq.rhs for eq in equations], ncols), ncols)
    return None if solved is None else SolutionFamily(unknowns, *solved)

