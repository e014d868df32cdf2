"""Exact linear algebra over the scalar domains.

All row elimination goes through ``rref``, which reduces a system to its
unique RREF by one Gauss-Jordan loop. Its rows are sparse, one
``{col: entry}`` per row with the rhs at column ``ncols``, as the
tangency systems (about one entry in six nonzero) and Buchberger's
echelon step build them, and the loop touches only their nonzero
entries. The scalar types choose three things, in ``rref`` alone:

- a system of ``int`` and ``Fraction`` entries is scaled to primitive
  integer rows, pivots on the smallest ``|c|`` and eliminates
  fraction-free (cross-multiplication, then division by the row
  content), so ``Fraction`` normalisation is paid only once per output
  entry;
- any other system (``RationalFunc``, ``TowerElement`` or mixed) keeps
  its rows as given, pivots on the smallest ``_pivot_size`` and
  eliminates over its field by a monic pivot row. ``RationalFunc``
  computes on integer polynomials times one rational content and pays
  for a polynomial gcd only where a result can share a factor with its
  denominator (see its docstring), so a parametric system whose pivots
  are constants runs without one.

The types choose the preparation, the pivot order and the row operation,
which change the cost of a solve only: the RREF is unique, so no value
depends on them. ``rref`` returns sparse pivot rows. ``solve_rows``
(dense rows) reads the particular solution and the nullspace off them;
``linear_solve`` (equations keyed by column index, with named columns)
passes its equations to ``rref`` as sparse rows and reads the same;
``nullspace`` is a thin front end to ``solve_rows``, ``matrix_rank``
counts the pivot rows, and Buchberger's echelon step in ``groebner``
calls ``rref`` directly.
Inconsistency is a returned value, not an exception.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence

from .scalars import RationalFunc

_RATIONAL = (int, Fraction)


class LinearEquation:
    """sum(coeffs[k] * x[k]) = rhs, keyed by column index"""
    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: Dict[int, object], rhs: object = Fraction(0)):
        self.coeffs = coeffs
        self.rhs = rhs


class SolutionFamily:
    """Affine solution space: particular + span(basis), as vectors over the
    columns; basis vector k is 1 at column ``free_cols[k]`` and 0 at the
    other free columns. ``unknowns`` names the columns."""
    __slots__ = ("unknowns", "particular", "basis", "free_cols")

    def __init__(self, unknowns: List[str], particular: List[object],
                 basis: List[List[object]], free_cols: List[int]):
        self.unknowns = unknowns
        self.particular = particular
        self.basis = basis
        self.free_cols = free_cols

    def __eq__(self, other):
        return type(other) is SolutionFamily and \
            (self.unknowns, self.particular, self.basis, self.free_cols) == \
            (other.unknowns, other.particular, other.basis, other.free_cols)

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


def _primitive_row(row: Dict[int, int]) -> Dict[int, int]:
    """A sparse integer row divided by its content."""
    g = gcd(*row.values())
    return {k: a // g for k, a in row.items()} if g > 1 else row


def rref(rows: Sequence[Mapping[int, object]], rhs: Sequence[object], ncols: int):
    """The reduced row-echelon form of ``rows . x = rhs`` over ``ncols``
    columns, each row given sparse as ``{col: entry}`` (a column it does
    not list holds zero). Returns None when inconsistent, else the pivot
    rows as sparse ``{col: ({col: entry}, rhs)}``, pivot 1 included and no
    zero entry listed, in ascending pivot column.

    An all-``int``/``Fraction`` system runs on primitive integer rows,
    with the smallest ``|c|`` as pivot and the row operation ``(p/g) row
    - (f/g) pivot_row`` (``g = gcd(p, f)``) followed by division by the
    row content; its pivot rows become ``Fraction`` rows at the end. Any
    other system runs on its rows as given, with the smallest
    ``_pivot_size`` as pivot, the pivot row made monic and the row
    operation ``row - f pivot_row``. That choice and the pivot order
    change the cost only; the RREF is unique, so never a value."""
    rational = all(isinstance(c, _RATIONAL) for c in rhs) and all(
        isinstance(c, _RATIONAL) for row in rows for c in row.values())
    work = []
    for row, b in zip(rows, rhs):
        entries = {k: c for k, c in row.items() if c}
        if b:
            entries[ncols] = b
        if not entries:
            continue
        if rational:
            den = lcm(*(c.denominator for c in entries.values()))
            entries = _primitive_row({k: c.numerator * (den // c.denominator)
                                      for k, c in entries.items()})
        work.append(entries)
    size = abs if rational else _pivot_size
    pivot_cols = []
    for col in range(ncols):
        r = len(pivot_cols)
        # any non-zero pivot gives the same RREF; the smallest keeps the
        # eliminated rows short
        best = None
        for i in range(r, len(work)):
            c = work[i].get(col)
            if c:
                s = size(c)
                if best is None or s < best[1]:
                    best = (i, s)
        if best is None:
            continue
        i = best[0]
        work[r], work[i] = work[i], work[r]
        prow = work[r]
        p = prow[col]
        if not rational:
            if isinstance(p, int):
                p = Fraction(p)
            prow = work[r] = {k: c / p for k, c in prow.items()}
        for j in range(len(work)):
            row = work[j]
            f = row.get(col)
            if j == r or not f:
                continue
            if rational:
                g = gcd(p, f)
                a, f = p // g, f // g
                row = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
            else:
                row = dict(row)
            for k, y in prow.items():
                x = row.get(k, 0) - f * y
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
            work[j] = _primitive_row(row) if rational else row
        pivot_cols.append(col)
        if len(pivot_cols) == len(work):
            break

    # consistency: the rows left without a pivot must have zero rhs
    if any(ncols in row for row in work[len(pivot_cols):]):
        return None
    out = {}
    for col, row in zip(pivot_cols, work):
        b = row.pop(ncols, 0)
        if rational:
            p = row[col]
            out[col] = ({k: Fraction(a, p) for k, a in row.items()}, Fraction(b, p))
        else:
            out[col] = (row, b if b else Fraction(0))
    return out


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
    """``solve_rows``' result from the RREF's sparse pivot rows (None when
    inconsistent): each entry off the pivot lies in a free column."""
    if pivot_rows is None:
        return None

    free_cols = [c for c in range(ncols) if c not in pivot_rows]
    zero = Fraction(0)
    particular = [zero] * ncols
    basis = {fc: [zero] * ncols for fc in free_cols}
    for fc, vec in basis.items():
        vec[fc] = Fraction(1)
    for col, (row, b) in pivot_rows.items():
        particular[col] = b
        for k, c in row.items():
            if k != col:
                basis[k][col] = -c
    return particular, list(basis.values()), free_cols


def nullspace(rows: Sequence[Sequence[object]], ncols: int) -> List[List[object]]:
    """Basis of the nullspace of a matrix given as rows, one vector per
    free column."""
    return solve_rows(rows, [Fraction(0)] * len(rows), ncols)[1]


def matrix_rank(rows: Sequence[Sequence[object]]) -> int:
    """Exact rank of a matrix given as rows: the number of pivot rows of
    its RREF."""
    if not rows:
        return 0
    return len(rref([dict(enumerate(row)) for row in rows], [0] * len(rows),
                    len(rows[0])))


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

