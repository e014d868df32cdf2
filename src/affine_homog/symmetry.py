"""Affine symmetry algebras of graph jets.

An affine vector field p -> A.p + v is an infinitesimal symmetry of the
graph w = F(x,y,z) to order M when the tangency residual

    Tr^M [ (F_x, F_y, F_z, -1) . (A.(x,y,z,F)^T + v) ]

vanishes. Tangency is linear in the field: the residual of V is the
coordinate-weighted sum of the residuals of the twenty unit fields (the
columns, ``tangency_columns``), so every tangency system is assembled from
those columns and solved exactly. Bracket closure of the resulting span is
a polynomial condition on the remaining free entries.

There is one tangency solve per jet, ``solve_tangency``: the RREF
nullspace of all twenty columns, the translation columns last, at order
N-1. Every narrower family is its restriction by a few more rows
(``SolutionFamily.restrict``), by RREF uniqueness the solve with those
rows appended, entry for entry: the isotropy at N (the translation-free
fields with vanishing order-N residuals, ``full_algebra``), the algebra
at N+1 (all fields with vanishing order-N residuals, ``raise_order``) and
the gauge-fixed families (``pqr_families``), whose views take the basis
field of a free translation column, 1 there and 0 at the other free
columns, as the field of a fixed unit translation.

A normal form is solved once too. Its series completion (``complete_series``)
adds to the base jet only terms of degree above the base jet's order n, so
the completed jet's columns at order n-1 are the base jet's, and the base
jet's free solve is the completed jet's free family at n-1. The completed
jet's solve at N-1 is that family restricted by the residual rows of
degrees n..N-1 (``full_algebra(..., below=(family, n))``).

There is one Lie bracket, ``_row_bracket``, over the nonzero entries of
the augmented rows [A | v] of two fields. The public ``bracket``, the
closure check and the closure constraints all run it.

A solved span is closed when every bracket of two basis fields lies in it.
The basis is the RREF nullspace basis of the solve, so each field is 1 at
its own free coordinate and 0 at the others: a bracket is reduced in those
free coordinates (it is in the span exactly when it equals the basis
weighted by its own free coordinates), with no elimination. The check
runs over Z (``_closed``): the basis is put over one common denominator D
and bracketed as integer fields, whose brackets are D^2 times the basis
fields' brackets, and ``reduce_against_span`` reads the scale D at the
integer fields' free coordinates.

The closure of the gauge-fixed families, whose free entries are unknowns,
is a polynomial system (``closure_constraints``), built over Q with no
Poly arithmetic: each family is affine in its unknowns and the bracket is
bilinear, so each bracket's residual is a sum over unknown monomials of
the residuals of integer matrices, tabled once, with one Fraction per
constraint term.

A column is the truncated product of a gradient entry (F_x, F_y, F_z or
-1) and a coordinate (x, y, z, F or 1). The partials F_x, F_y, F_z are
computed once per jet (``Jet.gradient``), so the builds that read one jet
share them. Only the three columns F_i . F are products of polynomials;
by x, y or z a column is an exponent shift and by 1 a truncation, with
no coefficient arithmetic. Every solve and residual builds its own
columns, from the jet it is given and at its own order, and a residual
of fields tangent below degree lo builds only the columns they read, in
degrees lo..M (``tangency_columns``' lo): ``complete_series`` the new
degree of each order, a restricted algebra the degrees above the order
of the family it restricts, and the isotropy check of an algebra at N its
degree N.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .jets import Jet
from .linalg import _RATIONAL, LinearEquation, SolutionFamily, linear_solve
from .poly import Poly, grevlex_key
from .scalars import InputError, over_common_denominator

XYZ = ("x", "y", "z")

E_X = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
E_Y = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
E_Z = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
ZERO4 = (Fraction(0),) * 4


class CompletionError(ValueError):
    def __init__(self, message: str, order: int):
        super().__init__(f"{message} (order {order})")
        self.order = order


class AffineVectorField:
    """The field p -> A.p + v on (x, y, z, w)-space."""
    __slots__ = ("A", "v")

    def __init__(self, A: Sequence[Sequence[object]],
                 v: Sequence[object] = ZERO4):
        self.A = tuple(tuple(r) for r in A)
        self.v = tuple(v)

    def coords(self) -> List[object]:
        return [a for r in self.A for a in r] + list(self.v)

    @classmethod
    def from_coords(cls, c: Sequence[object]) -> "AffineVectorField":
        """The field with coordinates c, the inverse of ``coords()``."""
        return cls(tuple(tuple(c[i:i + 4]) for i in range(0, 16, 4)), c[16:])

    def to_json(self):
        return {"A": [[str(a) for a in r] for r in self.A],
                "v": [str(t) for t in self.v]}


def bracket(v1: AffineVectorField, v2: AffineVectorField) -> AffineVectorField:
    """Lie bracket: (A2 A1 - A1 A2, A2 v1 - A1 v2), by ``_row_bracket``
    over the nonzero entries of the augmented rows [A | v] of each field,
    with the int 0 at each coordinate no product touches."""
    return _bracket_field(_augmented_rows(v1.coords()), _augmented_rows(v2.coords()))


def tangency_columns(F: Jet, M: int, ks: Sequence[int], lo: int = 0) -> List[Jet]:
    """Truncated residuals of the unit fields with coordinate indices ks,
    in ``AffineVectorField.coords()`` order (A row-major, then v), with
    only their terms of degrees lo..M. The column of A[i][j] is
    Tr^M(grad_i . coord_j), with grad = (F_x, F_y, F_z, -1) and coords
    (x, y, z, F); the column of v[i] is Tr^M(grad_i).

    Only the three columns F_i . F are products; the others shift or keep
    the exponents of grad_i (or of -F, for A[3][3]) and give each term the
    product's coefficient type: an int coefficient of F_i becomes the
    Fraction a product by the Fraction 1 of a coordinate makes of it."""
    fp = F.poly
    grad = [*F.gradient(), Poly.const(-1, XYZ)]
    cols = []
    for k in ks:
        i, j = divmod(k, 4) if k < 16 else (k - 16, 4)
        if j != 3:
            col = _shifted(grad[i].terms, j, lo, M)
        elif i < 3:
            col = grad[i].mul_truncated(fp, M, lo)
        else:
            col = Poly._canonical(XYZ, {m: -c for m, c in fp.terms.items()
                                        if lo <= sum(m) <= M})
        cols.append(Jet._canonical(col, M))
    return cols


def _shifted(terms: Dict[Tuple[int, ...], object], j: int, lo: int, M: int) -> Poly:
    """The terms of degrees lo..M of a polynomial times x, y or z (j < 3)
    or times 1 (j = 4): an exponent shift, with ints made Fractions."""
    d = int(j < 3)
    return Poly._canonical(XYZ, {
        (m[:j] + (m[j] + 1,) + m[j + 1:] if d else m): Fraction(c) if type(c) is int else c
        for m, c in terms.items() if lo <= sum(m) + d <= M})


def _read_columns(F: Jet, fields: Sequence[AffineVectorField], M: int,
                  lo: int) -> List[Optional[Jet]]:
    """The twenty columns of F at order M, indexed as in
    ``tangency_columns``: those that the fields read (a nonzero
    coordinate), with only their terms of degrees lo..M, and None at the
    others."""
    ks = sorted({k for V in fields for k, c in enumerate(V.coords()) if c})
    columns: List[Optional[Jet]] = [None] * 20
    for k, col in zip(ks, tangency_columns(F, M, ks, lo)):
        columns[k] = col
    return columns


def _combine(columns: Sequence[Jet], weights: Sequence[object], M: int) -> Jet:
    """sum(weights[k] * columns[k]), for columns with no term above M.
    The weights are scalars; no caller in the package passes Poly weights,
    but the sum takes them."""
    acc: Dict[Tuple[int, ...], object] = {}
    for col, c in zip(columns, weights):
        if not c:
            continue
        for m, a in col.poly.terms.items():
            t = a * c
            acc[m] = acc[m] + t if m in acc else t
    return Jet._canonical(Poly(XYZ, acc), M)


def tangency_residual(F: Jet, V: AffineVectorField, M: int,
                      columns: Optional[Sequence[Jet]] = None) -> Jet:
    """Tr^M residual of V: its coordinates weighting their unit columns.
    ``columns``, when given, are F's columns at order M, indexed as in
    ``tangency_columns`` and covering V's nonzero coordinates; given only
    their parts of degrees lo..M (``_read_columns``), it is the residual's
    part of those degrees."""
    coords = V.coords()
    ks = [k for k, c in enumerate(coords) if c]
    cols = (tangency_columns(F, M, ks) if columns is None
            else [columns[k] for k in ks])
    return _combine(cols, [coords[k] for k in ks], M)


def linear_equations(columns: Sequence[Jet], base: Jet) -> List[LinearEquation]:
    """The rows of ``base + sum(x_k * columns[k]) = 0``, keyed by column
    index, one per monomial with a nonzero row, in ascending grevlex
    order."""
    monos = set(base.poly.terms)
    for col in columns:
        monos.update(col.poly.terms)
    eqs = []
    for m in sorted(monos, key=grevlex_key):
        coeffs = {}
        for k, col in enumerate(columns):
            c = col.poly.terms.get(m)
            if c:
                coeffs[k] = c
        b = base.poly.terms.get(m)
        if coeffs or b:
            eqs.append(LinearEquation(coeffs, -b if b else Fraction(0)))
    return eqs


# -- linear tangency solves -----------------------------------------------------

# the coordinate names of a field in coords() order: A[i-1][j-1] is "ij",
# v[i-1] is "ti"; the views of pqr_families prefix them with their letter
COORDINATE_NAMES = ([f"{i}{j}" for i in range(1, 5) for j in range(1, 5)]
                    + [f"t{i}" for i in range(1, 5)])

def solve_tangency(F: Jet, order: Optional[int] = None) -> SolutionFamily:
    """Every affine field tangent to F to the given order: the RREF
    nullspace of F's twenty columns at that order, in ``coords()`` order.

    The order defaults to N-1 (the jet of the graph determines residuals
    only that far). The basis field of a free matrix column has no
    translation; that of a free translation column is 1 there and 0 at the
    other free columns.
    """
    order = F.order - 1 if order is None else order
    columns = tangency_columns(F, order, range(20))
    return linear_solve(linear_equations(columns, Jet.zero(order)), COORDINATE_NAMES)


def pqr_families(fam: SolutionFamily, gauge: Sequence[int] = ()):
    """The three tangency families with unit translation parts along x, y
    and z, or None when one of them does not exist (when translation
    column 16, 17 or 18 is a pivot of the free solve).

    They are views of the free family ``fam``, restricted by the gauge:
    the coordinate indices of entries pinned to zero, which slice away
    the shifts by isotropy generators (adding one to a solution matrix is
    a residual freedom). Each view takes the basis vector of its
    translation column as its particular solution, shares the
    translation-free basis vectors, and names its coordinates with the
    family's letter."""
    if gauge:
        fam = fam.restrict([LinearEquation({i: b[g] for i, b in enumerate(fam.basis) if b[g]})
                            for g in gauge])
    k = sum(c < 16 for c in fam.free_cols)
    if fam.free_cols[k:k + 3] != [16, 17, 18]:
        return None
    return tuple(SolutionFamily([prefix + name for name in COORDINATE_NAMES],
                                fam.basis[k + i], fam.basis[:k], fam.free_cols[:k])
                 for i, prefix in enumerate("pqr"))


# -- closure ---------------------------------------------------------------------

def closure_constraints(F: Jet, famP: SolutionFamily, famQ: SolutionFamily,
                        famR: SolutionFamily) -> List[Poly]:
    """Coefficient-wise polynomial closure constraints on the free entries
    of three gauge-fixed families over Q (at most cubic in the unknowns,
    monic-normalized): for each bracket (P,Q), (Q,R), (R,P), less the
    span's translation part, one per nonzero coefficient of its residual,
    in ascending grevlex order of the xyz monomial.

    A family is affine in its unknowns (its particular vector plus u times
    its basis vector of u) and the bracket is bilinear, so a bracket's
    residual is the sum over unknown monomials mu of u^mu times the residual
    of one matrix. Those matrices are tabled in integers, from the brackets
    of pairs of vectors, with every vector over one common denominator D and
    the sixteen matrix columns (built once, at F's order) over theirs: a
    pair adds D times the matrix part of its bracket at its mu, and each
    translation coordinate c of that bracket subtracts c*x at mu times u for
    each vector x of the field of that translation (all over D^3). The
    coefficient of u^mu at an xyz monomial is the dot product of its matrix
    with the columns' coefficients there, and making the constraint monic
    costs one Fraction per term."""
    fams = (famP, famQ, famR)
    ring = tuple(sorted(famP.free + famQ.free + famR.free))
    vectors = [vec for fam in fams for vec in (fam.particular, *fam.basis)]
    nums, D = over_common_denominator([c for vec in vectors for c in vec])
    nums = iter(nums)
    # each family as (exponent of u, the nonzero entries (j, x) of each row
    # of [A | v] of u's integer vector), the particular vector at exponent 0
    pieces = []
    for fam in fams:
        keys = [(0,) * len(ring)] + [tuple(int(u == v) for v in ring) for u in fam.free]
        pieces.append([(key, _augmented_rows([next(nums) for _ in range(20)]))
                       for key in keys])
    matrices = [[(key, [(4 * i + j, x) for i, row in enumerate(rows) for j, x in row if j < 4])
                 for key, rows in ps] for ps in pieces]
    columns = [col.poly.terms for col in tangency_columns(F, F.order, range(16))]
    nums = iter(over_common_denominator([c for terms in columns for c in terms.values()])[0])
    columns = [[(m, next(nums)) for m in terms] for terms in columns]
    constraints: List[Poly] = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        table: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for ka, ra in pieces[a]:
            for kb, rb in pieces[b]:
                mu = tuple(map(add, ka, kb))
                entry = table.setdefault(mu, {})
                for (i, j), n in _row_bracket(ra, rb).items():
                    if j < 4:
                        entry[4 * i + j] = entry.get(4 * i + j, 0) + D * n
                    elif i < 3:
                        # the span's translation part: its linear part must
                        # be tangent for the span to close
                        for kr, xs in matrices[i]:
                            term = table.setdefault(tuple(map(add, mu, kr)), {})
                            for e, x in xs:
                                term[e] = term.get(e, 0) - n * x
        # the coefficients of each xyz monomial, grevlex-largest mu first
        residual: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
        for mu in sorted(table, key=grevlex_key, reverse=True):
            for e, n in table[mu].items():
                if n:
                    for m, c in columns[e]:
                        coeffs = residual.setdefault(m, {})
                        coeffs[mu] = coeffs.get(mu, 0) + n * c
        for m in sorted(residual, key=grevlex_key):
            coeffs = [(mu, s) for mu, s in residual[m].items() if s]
            if coeffs:
                lead = coeffs[0][1]
                constraints.append(Poly._canonical(
                    ring, {mu: Fraction(s, lead) for mu, s in coeffs}))
    return constraints


def _augmented_rows(vec: Sequence[object]) -> List[List[Tuple[int, object]]]:
    """The nonzero entries (j, x) of each row of [A | v] of a field's
    coordinates, in ``coords()`` order; j = 4 is the translation."""
    return [[(j, x) for j, x in enumerate((*vec[4 * i:4 * i + 4], vec[16 + i])) if x]
            for i in range(4)]


def _row_bracket(rows1, rows2) -> Dict[Tuple[int, int], object]:
    """The one Lie bracket of the package, of two fields given by
    ``_augmented_rows``: the entries at (i, j) of [A2 A1 - A1 A2 | A2 v1 -
    A1 v2] that it touches, over the scalars of the rows (the ints of
    ``_closed`` and ``closure_constraints``, or Q(b) entries unscaled)."""
    out: Dict[Tuple[int, int], object] = {}
    for left, right, sign in ((rows2, rows1, 1), (rows1, rows2, -1)):
        for i, row in enumerate(left):
            for k, x in row:
                if k < 4:
                    for j, y in right[k]:
                        out[i, j] = out.get((i, j), 0) + sign * x * y
    return out


# -- term-by-term completion -------------------------------------------------------

def degree_unknowns(m: int) -> List[Tuple[str, Tuple[int, int, int]]]:
    """(name, monomial) of each coefficient of degree m."""
    out = []
    for i in range(m, -1, -1):
        for j in range(m - i, -1, -1):
            k = m - i - j
            out.append((f"c{i}_{j}_{k}", (i, j, k)))
    return out


def complete_series(f: Jet, P, Q, R, M: int) -> Jet:
    """Extend f order by order so that the three translated fields stay
    tangent; a failure carries the offending order.

    f must be a graph offset (zero constant term; any other f raises
    InputError), so a degree-m term c reaches the (m-1)-truncated residual
    of A.p + e only as e . grad(c): the residuals r_x, r_y, r_z of the
    three fields fix the gradient of c, and c is its integral, with no
    elimination. Each coefficient of x^i y^j z^k is read from the first
    variable with a nonzero exponent, and the order is consistent exactly
    when every r_e + d_e c vanishes.

    Each order builds one column set, of the columns any of the three
    fields reads (``_read_columns``). The first completed order checks the
    residuals in every degree, which is what fails a base jet the fields
    are not tangent to. From the second on, a residual below degree m-1 is
    the r_e + d_e c of the order below, checked zero there, so the columns
    are built in degree m-1 alone and only that degree is combined."""
    if f.poly.constant_term():
        raise InputError("series completion needs a jet with no constant term")
    fields = [AffineVectorField(mat, e) for mat, e in zip((P, Q, R), (E_X, E_Y, E_Z))]
    cur = f.poly
    for m in range(f.order + 1, M + 1):
        F = Jet(cur, m)
        columns = _read_columns(F, fields, m - 1, 0 if m == f.order + 1 else m - 1)
        res = [tangency_residual(F, V, m - 1, columns).poly for V in fields]
        terms = {}
        for _, mono in degree_unknowns(m):
            i = next(i for i, n in enumerate(mono) if n)
            r = res[i].terms.get(mono[:i] + (mono[i] - 1,) + mono[i + 1:])
            if r:
                terms[mono] = -r / mono[i]
        c = Poly._canonical(XYZ, terms)
        if any(r + c.partial(n) for r, n in zip(res, XYZ)):
            raise CompletionError("inconsistent completion system", m)
        cur = cur + c
    return Jet(cur, M)


# -- full algebra ------------------------------------------------------------------

class SymmetryAlgebra:
    __slots__ = ("basis", "free", "isotropy", "order", "closed",
                 "translation_rank", "tangency_ok")

    def __init__(self, basis: List[AffineVectorField], free: List[int],
                 isotropy: List[AffineVectorField], order: int, closed: bool,
                 translation_rank: int, tangency_ok: bool = True):
        self.basis = basis
        self.free = free  # basis field k is 1 at coordinate free[k], 0 at the others
        self.isotropy = isotropy  # a basis of the isotropy at the order
        self.order = order
        self.closed = closed
        self.translation_rank = translation_rank
        self.tangency_ok = tangency_ok

    @property
    def isotropy_dim(self) -> int:
        return len(self.isotropy)

    @property
    def full_dim(self) -> int:
        return len(self.basis)

    def to_json(self):
        return {"basis": [b.to_json() for b in self.basis],
                "order": self.order, "closed": self.closed,
                "isotropy_dim": self.isotropy_dim,
                "full_dim": self.full_dim,
                "translation_rank": self.translation_rank}


def reduce_against_span(fields: Sequence[AffineVectorField],
                        target: AffineVectorField, free: Sequence[int]) -> bool:
    """True when target lies in the exact linear span of the fields.

    The fields are an RREF nullspace basis (``SymmetryAlgebra.basis``),
    or one common nonzero multiple s of it: field k is s at coordinate
    ``free[k]`` and 0 at every other free coordinate. A member of the span
    is then the combination of the fields weighted by its own free
    coordinates, over s, so target is in the span exactly when s times it
    equals that combination; no elimination is needed. The scale s is
    read at the first field's free coordinate; it is 1 for a basis as
    solved, and the integer multiple of ``_closed``."""
    t = target.coords()
    s = fields[0].coords()[free[0]] if fields else 1
    rest = list(t) if s == 1 else [s * x if x else x for x in t]
    for i, f in zip(free, fields):
        w = t[i]
        if w:
            for c, x in enumerate(f.coords()):
                if x:
                    rest[c] = rest[c] - w * x
    return not any(rest)


def _closed(basis: Sequence[AffineVectorField], free: Sequence[int]) -> bool:
    """Whether the span of an RREF nullspace basis (field k is 1 at
    coordinate ``free[k]``, 0 at the other free coordinates) is closed
    under the bracket: ``reduce_against_span(basis, bracket(a, b), free)``
    for every pair a, b in order, stopping at the first pair outside.

    The brackets are taken over Z. Every coordinate of the basis is put
    over one common denominator D (D = 1, and the coordinates kept, when
    one is not rational), so the integer fields are D times the basis and
    ``_row_bracket`` of two of them is D^2 times their bracket; a
    multiple of a bracket lies in the span exactly when the bracket does,
    and ``reduce_against_span`` reads the scale D of the integer fields at
    their free coordinates."""
    coords = [c for V in basis for c in V.coords()]
    if all(isinstance(c, _RATIONAL) for c in coords):
        coords = over_common_denominator(coords)[0]
    vecs = [coords[k:k + 20] for k in range(0, len(coords), 20)]
    fields = [AffineVectorField.from_coords(vec) for vec in vecs]
    rows = [_augmented_rows(vec) for vec in vecs]
    return all(reduce_against_span(fields, _bracket_field(ra, rb), free)
               for i, ra in enumerate(rows) for rb in rows[i + 1:])


def _bracket_field(rows1, rows2) -> AffineVectorField:
    """``_row_bracket`` of two fields' ``_augmented_rows`` as a field,
    with the int 0 at each coordinate it does not touch."""
    coords = [0] * 20
    for (i, j), x in _row_bracket(rows1, rows2).items():
        coords[4 * i + j if j < 4 else 16 + i] = x
    return AffineVectorField.from_coords(coords)


def full_algebra(F: Jet, order: Optional[int] = None,
                 below: Optional[Tuple[SolutionFamily, int]] = None) -> SymmetryAlgebra:
    """Candidate symmetry algebra of the graph w = F at the given order N:
    all affine fields tangent to order N-1 (the one free solve), their
    isotropy at order N, and an exact bracket-closure check, each on the
    columns of F.truncate(N). An order above F's own raises InputError.

    ``below``, when given, is a pair (family, n) with n <= N: F's free
    family at order n-1 (the free solve of a jet whose columns agree with
    F's at that order, such as the base jet of F's series completion). The
    free solve at N-1 is then its restriction by the residual rows of
    degrees n..N-1, with no solve of its own."""
    return _algebra(F, F.order if order is None else order, below)


def raise_order(alg: SymmetryAlgebra, F: Jet) -> SymmetryAlgebra:
    """``full_algebra(F, alg.order + 1)`` with no free solve: the
    restriction of alg's fields to those whose residuals at its order
    vanish, which keeps alg's closure verdict when it keeps every field."""
    fam = SolutionFamily(COORDINATE_NAMES, [Fraction(0)] * 20,
                         [b.coords() for b in alg.basis], alg.free)
    return _algebra(F, alg.order + 1, (fam, alg.order), alg.closed)


def _algebra(F: Jet, N: int,
             below: Optional[Tuple[SolutionFamily, int]] = None,
             closed: Optional[bool] = None) -> SymmetryAlgebra:
    """The algebra at order N of the free family at N-1: solved, or
    restricted from the family at n-1 that ``below`` = (family, n) gives.
    Its k fields without a translation span the isotropy at N-1, and the
    isotropy at N is their restriction to vanishing order-N residuals; a
    field with a translation is tangent at N-1 by construction, so the
    algebra is tangent when no isotropy is lost at N. Each residual read is
    of a field tangent below a known degree (below's fields through n-1,
    the isotropy candidates through N-1), so only the columns those fields
    read are built, in the degrees from there up. Every column set is built
    from F.truncate(N), whose translation columns at N-1 hold F's degree-N
    terms. ``closed``, when given, is the closure verdict of the
    algebra at n whose basis is below's family (``raise_order``): a
    restriction that keeps every field keeps that basis, which is then
    tangent at n, so the verdict is the bracket check's. The translation
    rank counts the fields with an x, y or z translation (of free
    translation columns, independent there)."""
    if N > F.order:
        raise InputError(f"order {N} is above the jet's order {F.order}")
    Ft = F.truncate(N)
    if below is None:
        fam = solve_tangency(Ft, N - 1)
    else:
        fam, n = below
        fields = [AffineVectorField.from_coords(vec) for vec in fam.basis]
        part = _read_columns(Ft, fields, N - 1, n)
        residuals = [tangency_residual(Ft, b, N - 1, part) for b in fields]
        fam = fam.restrict(linear_equations(residuals, Jet.zero(N - 1)))
    basis = [AffineVectorField.from_coords(vec) for vec in fam.basis]
    k = sum(c < 16 for c in fam.free_cols)
    top = _read_columns(Ft, basis[:k], N, N)
    residuals = [tangency_residual(Ft, b, N, top) for b in basis[:k]]
    matrix_part = SolutionFamily(fam.unknowns, fam.particular, fam.basis[:k], fam.free_cols[:k])
    isotropy = [AffineVectorField.from_coords(vec) for vec in
                matrix_part.restrict(linear_equations(residuals, Jet.zero(N))).basis]
    tangency_ok = len(isotropy) == k
    if closed is None or len(basis) != len(below[0].basis):
        closed = _closed(basis, fam.free_cols)
    return SymmetryAlgebra(basis, fam.free_cols, isotropy, N, closed and tangency_ok,
                           sum(1 for b in basis if any(b.v[:3])), tangency_ok)
