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
  content), so no ``Fraction`` is built at all;
- any other system (``RationalFunc``, ``TowerElement`` or mixed) keeps
  its rows as given, pivots on the smallest ``_pivot_size`` and
  eliminates over its field by a monic pivot row. ``RationalFunc``
  computes on integer polynomials times one rational content and pays
  for a polynomial gcd only where a result can share a factor with its
  denominator (see its docstring), so a parametric system whose pivots
  are constants runs without one.

The types choose the preparation, the pivot order and the row operation,
which change the cost of a solve only: the RREF is unique, so no value
depends on them.

Every vector the module hands on is numerators over one positive
denominator, ``(nums, den)``, with the entries ``nums[k] / den``. Over Q
the numerators are ``int``s and ``den`` is the lcm of the entries'
denominators (no factor is common to ``den`` and every numerator); over
any other domain the numerators are the entries and ``den`` is 1. So
``rref`` returns each pivot row as its primitive integer row over its
pivot (the rational branch) or as its monic row over 1 (the field
branch), ``SolutionFamily`` keeps its vectors so, and ``Fraction``
entries are built only where a reader asks for them: the
``particular`` and ``basis`` views, ``member`` and ``solve_rows``.
``solve_rows`` (dense rows) reads the particular solution and the
nullspace off the pivot rows; ``linear_solve`` (equations keyed by
column index, with named columns) passes its equations to ``rref`` as
sparse rows and reads the same; ``nullspace`` is a thin front end to
``solve_rows``, ``matrix_rank`` counts the pivot rows, and Buchberger's
echelon step in ``groebner`` calls ``rref`` directly.
Inconsistency is a returned value, not an exception.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .scalars import RationalFunc

_RATIONAL = (int, Fraction)
_ZERO = Fraction(0)

# a vector as its numerators over one positive denominator
Vector = Tuple[List[object], int]


class LinearEquation:
    """sum(coeffs[k] * x[k]) = rhs, keyed by column index"""
    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: Dict[int, object], rhs: object = _ZERO):
        self.coeffs = coeffs
        self.rhs = rhs


def _values(vec: Vector) -> List[object]:
    """The entries of a vector, each ``int`` numerator as a ``Fraction``."""
    nums, den = vec
    return [(Fraction(n, den) if n else _ZERO) if type(n) is int else n
            for n in nums]


def _vector(nums: List[object], den: int) -> Vector:
    """nums / den as a vector: over Q divided by the factor common to den
    and every numerator, otherwise divided out to denominator 1."""
    if den == 1:
        return nums, 1
    if all(type(n) is int for n in nums):
        g = gcd(den, *nums)
        return ([n // g for n in nums], den // g) if g > 1 else (nums, den)
    inv = Fraction(1, den)
    return [n * inv if n else 0 for n in nums], 1


class SolutionFamily:
    """Affine solution space: particular + span(basis), as vectors over the
    columns; basis vector k is 1 at column ``free_cols[k]`` and 0 at the
    other free columns. ``unknowns`` names the columns.

    The vectors are kept as numerators over one denominator (``part``
    and ``vecs``, see the module docstring); ``particular`` and ``basis``
    are their views with ``Fraction`` entries."""
    __slots__ = ("unknowns", "part", "vecs", "free_cols")

    def __init__(self, unknowns: List[str], part: Vector, vecs: List[Vector],
                 free_cols: List[int]):
        self.unknowns = unknowns
        self.part = part
        self.vecs = vecs
        self.free_cols = free_cols

    def __eq__(self, other):
        return type(other) is SolutionFamily and \
            (self.unknowns, self.particular, self.basis, self.free_cols) == \
            (other.unknowns, other.particular, other.basis, other.free_cols)

    @property
    def particular(self) -> List[object]:
        return _values(self.part)

    @property
    def basis(self) -> List[List[object]]:
        return [_values(vec) for vec in self.vecs]

    @property
    def free(self) -> List[str]:
        """The names of the free columns."""
        return [self.unknowns[c] for c in self.free_cols]

    @property
    def dimension(self) -> int:
        return len(self.vecs)

    def is_unique(self) -> bool:
        return not self.vecs

    def member(self, free_values: Optional[Dict[str, object]] = None) -> List[object]:
        """The solution, in column order, at the given values of the free
        unknowns (keyed by name), which may be scalars or polynomials;
        unlisted ones are zero.

        The numerators are combined over the lcm L of the vectors'
        denominators and of each rational value's, with the rational
        values as integer weights, and each entry is divided by L once:
        an entry no value reaches keeps the particular's type."""
        free_values = free_values or {}
        terms = [(t, vec) for f, vec in zip(self.free, self.vecs)
                 if (t := free_values.get(f)) is not None and t]
        nums, den = self.part
        L = den
        for t, (_, d) in terms:
            L = lcm(L, d * t.denominator if isinstance(t, _RATIONAL) else d)
        acc = [n * (L // den) if n else n for n in nums] if L != den else list(nums)
        for t, (vn, d) in terms:
            w = (t.numerator * (L // (d * t.denominator)) if isinstance(t, _RATIONAL)
                 else t * (L // d) if L != d else t)
            for k, c in enumerate(vn):
                if c:
                    acc[k] = acc[k] + w * c if acc[k] else w * c
        return _values(_vector(acc, L))

    def restrict(self, equations: Sequence[LinearEquation]) -> "SolutionFamily":
        """The members of this homogeneous family on which the equations
        vanish. An equation's coefficient k weighs the numerators of basis
        vector k (the vector times its denominator), as the rows of
        residuals built on those numerators do. By RREF uniqueness this is
        the solve with the equations' rows appended, entry for entry.

        A kernel vector u / d of the equations, 1 at its free column j,
        gives the member sum(u[k] * nums_k) / (d * den_j), which is 1 at
        the family's free column of j."""
        kernel = linear_solve(equations, self.free)
        n = len(self.unknowns)
        vecs = []
        for (u, d), j in zip(kernel.vecs, kernel.free_cols):
            acc = [0] * n
            for uk, (nums, _) in zip(u, self.vecs):
                if uk:
                    for i, c in enumerate(nums):
                        if c:
                            acc[i] = acc[i] + uk * c if acc[i] else uk * c
            vecs.append(_vector([a if a else 0 for a in acc], d * self.vecs[j][1]))
        return SolutionFamily(self.unknowns, self.part, vecs,
                              [self.free_cols[c] for c in kernel.free_cols])


def _pivot_size(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if isinstance(c, int):
        return c.bit_length() + 1
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
    rows as sparse ``{col: (row, b, den)}`` in ascending pivot column:
    the RREF row is ``row / den`` with rhs ``b / den``, ``row[col]`` is
    ``den``, and no zero entry is listed.

    An all-``int``/``Fraction`` system runs on primitive integer rows,
    with the smallest ``|c|`` as pivot and the row operation ``(p/g) row
    - (f/g) pivot_row`` (``g = gcd(p, f)``) followed by division by the
    row content; each pivot row is returned as it is, primitive, with its
    pivot made positive as ``den``. Any other system runs on its rows as
    given, with the smallest ``_pivot_size`` as pivot, the pivot row made
    monic and the row operation ``row - f pivot_row``; its ``den`` is 1.
    That choice and the pivot order change the cost only; the RREF is
    unique, so never a value."""
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
        den = row[col] if rational else 1
        if den < 0:
            row = {k: -a for k, a in row.items()}
            b, den = -b, -den
        out[col] = (row, b, den)
    return out


def _read_solution(pivot_rows, ncols: int):
    """``(particular, basis, free_cols)`` as vectors (numerators over one
    denominator) from the RREF's sparse pivot rows, or None when they are
    None: each entry off the pivot lies in a free column. Every vector is
    built over the lcm of the rows' denominators and then reduced."""
    if pivot_rows is None:
        return None
    free_cols = [c for c in range(ncols) if c not in pivot_rows]
    L = lcm(*(den for _, _, den in pivot_rows.values()))
    particular = [0] * ncols
    basis = {fc: [0] * ncols for fc in free_cols}
    for fc, vec in basis.items():
        vec[fc] = L
    for col, (row, b, den) in pivot_rows.items():
        s = L // den
        if b:
            particular[col] = b * s if s != 1 else b
        for k, c in row.items():
            if k != col:
                basis[k][col] = -c * s if s != 1 else -c
    return (_vector(particular, L), [_vector(vec, L) for vec in basis.values()],
            free_cols)


def solve_rows(rows: Sequence[Sequence[object]], rhs: Sequence[object],
               ncols: int):
    """Exact RREF solve of ``rows . x = rhs`` over ``ncols`` columns.

    Returns None when inconsistent, otherwise ``(particular, basis,
    free_cols)``: a particular solution, one nullspace vector per free
    column (1 there, 0 at the other free columns), and the free column
    indices, with ``Fraction`` entries where they are rational.
    """
    solved = _read_solution(rref([dict(enumerate(row)) for row in rows], rhs, ncols),
                            ncols)
    if solved is None:
        return None
    part, vecs, free_cols = solved
    return _values(part), [_values(vec) for vec in vecs], free_cols


def nullspace(rows: Sequence[Sequence[object]], ncols: int) -> List[List[object]]:
    """Basis of the nullspace of a matrix given as rows, one vector per
    free column."""
    return solve_rows(rows, [0] * len(rows), ncols)[1]


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
    name in ``unknowns``, as a ``SolutionFamily``. Returns None when
    inconsistent; raises ``ValueError`` on a column index outside the
    unknowns."""
    unknowns = list(unknowns)
    ncols = len(unknowns)
    for eq in equations:
        for k in eq.coeffs:
            if not 0 <= k < ncols:
                raise ValueError(f"column index {k} outside the "
                                 f"{ncols} unknowns")
    solved = _read_solution(rref([eq.coeffs for eq in equations],
                                 [eq.rhs for eq in equations], ncols), ncols)
    return None if solved is None else SolutionFamily(unknowns, *solved)
