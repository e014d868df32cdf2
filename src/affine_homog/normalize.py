"""Normalization of graph jets.

Brings w = F(x,y,z) to the shape 2xy+z^2 + trace-free cubic + O(4),
classifies the cubic by exact invariants taken from its derivatives (the
trace from the h-Laplacian, the Pick invariant from the apolar pairing),
and gives the action of a linear vector field on the trace-free cubic basis.

The class and the Pick invariant are read in the source coordinates. The
trace decomposition c = c0 + q l and the class of c0 do not depend on the
coordinates, and after the quadratic block map, old xyz = T new xyz and
old w = s new w, the Pick invariant is s pick(c0, H). So a
classification builds no map and solves no series.

H^-1 has one source, the congruence diagonalization of the Gram matrix
H: with basis b_k and values d_k it is sum_k b_k b_k^T / d_k
(``NormalizedQuadratic.source_form``). The grams of the normal forms,
2xy+z^2 and x^2+y^2+z^2, are their own inverses, so no matrix is ever
inverted by elimination.

The normalizing change is built only when it is read. The quadratic map
is read off the diagonalization. It is a block map, so the graph after
it is w = F(T x) / s with no series to solve, and its cubic is exactly
c(T x) / s. The shear that makes that cubic trace-free, and the
trace-free cubic it leaves, come from its trace decomposition. The
normalized jet is the one series solve, transform_graph of F through the
composed change, run only when the jet is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import List, Optional, Tuple

from .jets import Jet, solve_series
from .linalg import matrix_rank, solve_rows
from .poly import Poly
from .scalars import Tower, TowerElement, rational_sqrt

XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # exponents of x, y and z


class NormalizationError(ValueError):
    pass


# -- affine maps of 4-space ----------------------------------------------------

class AffineMap:
    """old = linear . new + translation (rows of ``linear`` give old coords)."""
    __slots__ = ("linear", "translation")

    def __init__(self, linear: Tuple[Tuple[object, ...], ...],
                 translation: Tuple[object, ...] = (Fraction(0),) * 4):
        self.linear = linear
        self.translation = translation

    def __eq__(self, other):
        return type(other) is AffineMap and \
            (self.linear, self.translation) == (other.linear, other.translation)

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(tuple(tuple(Fraction(1 if i == j else 0) for j in range(4))
                         for i in range(4)))

    @classmethod
    def xyz_linear(cls, t3, w_scale=Fraction(1)) -> "AffineMap":
        """Block map: old xyz = t3 . new xyz, old w = w_scale * new w."""
        rows = []
        for i in range(3):
            rows.append(tuple(t3[i][j] for j in range(3)) + (Fraction(0),))
        rows.append((Fraction(0),) * 3 + (w_scale,))
        return cls(tuple(rows))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner in substitution order: old = self(inner(new)).
        Products with a zero factor are skipped."""
        cols = tuple(zip(*inner.linear))
        lin = tuple(tuple(_dot(r, c) for c in cols) for r in self.linear)
        tr = tuple(_dot(r, inner.translation) + t
                   for r, t in zip(self.linear, self.translation))
        return AffineMap(lin, tr)

    def component_polys(self):
        """Old coordinates as degree-1 polynomials in (x, y, z, w)."""
        out = []
        for i in range(4):
            p = Poly.const(self.translation[i], XYZW)
            for j, v in enumerate(XYZW):
                if self.linear[i][j]:
                    p = p + Poly.var(v, XYZW).scale(self.linear[i][j])
            out.append(p)
        return out

    def to_json(self):
        return {"linear": [[str(c) for c in row] for row in self.linear],
                "translation": [str(c) for c in self.translation]}


def transform_graph(F: Jet, phi: AffineMap) -> Jet:
    """Defining jet of the graph w=F after the coordinate change ``phi``
    (old = phi(new)), solved for the new w order by order."""
    comps = phi.component_polys()
    # H(x, y, z, w) = old w - F(old x, y, z); the solved w has no constant
    # term, so terms of H above degree N reach only degrees above N
    H = comps[3] - F.poly.substitute(dict(zip(XYZ, comps)), max_degree=F.order)

    def G(w: Jet) -> Jet:
        return Jet(H.substitute({"w": w.poly}, max_degree=w.order), w.order)

    w = Jet.zero(0, XYZ)
    if not G(w).is_zero():
        raise NormalizationError("coordinate change does not fix the basepoint")
    # d(old w - F(old x, y, z))/d(new w) at the origin
    grad = [F.poly.coefficient(e) for e in UNITS]
    slope = phi.linear[3][3] - sum(phi.linear[i][3] * grad[i] for i in range(3))
    if not slope and F.order:
        raise NormalizationError("coordinate change cannot be solved for w")
    return solve_series(G, slope, w, F.order)


def remove_linear(F: Jet) -> Tuple[Jet, AffineMap]:
    """Absorb linear terms into the w coordinate (tangent plane to {w=0})."""
    lin = F.homogeneous_part(1)
    if not lin:
        return F, AffineMap.identity()
    # old w = new w + L(x,y,z)
    rows = [list(r) for r in AffineMap.identity().linear]
    for j, e in enumerate(UNITS):
        rows[3][j] = lin.coefficient(e)
    phi = AffineMap(tuple(tuple(r) for r in rows))
    return Jet(F.poly - lin, F.order), phi


# -- quadratic normal form ------------------------------------------------------

IDENTITY3 = tuple(tuple(Fraction(1 if i == j else 0) for j in range(3))
                  for i in range(3))
HYPERBOLIC_GRAM = ((Fraction(0), Fraction(1), Fraction(0)),
                   (Fraction(1), Fraction(0), Fraction(0)),
                   (Fraction(0), Fraction(0), Fraction(1)))


class QuadraticForm:
    __slots__ = ("gram", "signature", "inverse")

    def __init__(self, gram: Tuple[Tuple[object, ...], ...], signature: str,
                 inverse: Tuple[Tuple[object, ...], ...]):
        self.gram = gram
        self.signature = signature  # "hyperbolic", "elliptic", or "complex"
        # H^-1: the diagonalization's sum_k b_k b_k^T / d_k for a source
        # form (``NormalizedQuadratic.source_form``), the gram itself for the
        # normal forms, whose grams are their own inverses
        self.inverse = inverse


def gram_matrix(F: Jet):
    """The Gram matrix of F's quadratic part, over Q: a coefficient in a
    tower whose irrational coordinates are all zero reads as its rational
    one, and any other tower coefficient raises NormalizationError."""
    q = F.homogeneous_part(2)
    H = [[Fraction(0)] * 3 for _ in range(3)]
    for m, c in q.terms.items():
        if isinstance(c, TowerElement):
            if any(c.vec[1:]):
                raise NormalizationError(
                    f"the quadratic part has the irrational coefficient {c}")
            c = c.vec[0]
        idx = [i for i, e in enumerate(m) for _ in range(e)]
        i, j = idx
        if i == j:
            H[i][i] = c
        else:
            H[i][j] = H[i][j] + c / 2
            H[j][i] = H[j][i] + c / 2
    return tuple(tuple(row) for row in H)


def _dot(u, v):
    """sum u_i v_i, skipping products with a zero factor."""
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _diagonalize(H):
    """Congruence diagonalization: basis vectors b_k with b_k^T H b_l = 0
    for k != l, and the values d_k = b_k^T H b_k.

    Each b_k travels with its image H b_k, updated by the same steps, so an
    inner product is one dot product and no vector is multiplied by H."""
    basis = [list(e) for e in IDENTITY3]
    image = [list(row) for row in H]  # H e_k is row k of the symmetric H

    def ip(k, l):
        return _dot(basis[k], image[l])

    def add(k, f, l):  # b_k <- b_k + f b_l
        basis[k] = [a + f * b for a, b in zip(basis[k], basis[l])]
        image[k] = [a + f * b for a, b in zip(image[k], image[l])]

    d = []
    for k in range(3):
        if not ip(k, k):
            hit = next((l for l in range(k + 1, 3) if ip(l, l)), None)
            if hit is not None:
                basis[k], basis[hit] = basis[hit], basis[k]
                image[k], image[hit] = image[hit], image[k]
            else:
                hit = next((l for l in range(k + 1, 3) if ip(k, l)), None)
                if hit is not None:
                    add(k, 1, hit)
        d.append(ip(k, k))
        if not d[k]:
            raise NormalizationError(
                "degenerate quadratic part (non-degeneracy fails)")
        for l in range(k + 1, 3):
            f = ip(k, l) / d[k]
            if f:
                add(l, -f, k)
    return basis, d


class NormalizedQuadratic:
    """The block map old xyz = T . new xyz, old w = s * new w that brings
    a quadratic part x^T H x to its normal form.

    The congruence diagonalization of H (basis b_k, values d_k) and the
    square roots chosen from it fix the map; ``change`` builds it the
    first time it is read. ``w_scale`` is s, and ``source_form`` is H
    with its inverse sum_k b_k b_k^T / d_k, so the invariants of the
    source need no map. ``scales`` holds the elliptic roots sqrt(d_2 /
    d_k); ``pair`` the indices and root (i, j, s) of the isotropic vector
    b_i + s b_j, s^2 = -d_i / d_j, of the other forms."""

    def __init__(self, gram: Tuple[Tuple[object, ...], ...],
                 basis: List[List[object]], d: List[object], form: QuadraticForm,
                 scales: Optional[List[object]] = None,
                 pair: Optional[Tuple[int, int, object]] = None,
                 tower: Optional[Tower] = None):
        self.gram = gram
        self.basis = basis
        self.d = d
        self.form = form
        self.scales = scales
        self.pair = pair
        self.tower = tower

    @property
    def w_scale(self):
        """s = d_m, m the index outside the isotropic pair, or d_2 for the
        elliptic form; in the tower when one is adjoined."""
        m = 2 if self.pair is None else 3 - self.pair[0] - self.pair[1]
        return _promote(self.d[m], self.tower)

    @cached_property
    def source_form(self) -> QuadraticForm:
        basis, d = self.basis, self.d
        inverse = tuple(tuple(
            sum((b[r] * b[c] / dk for b, dk in zip(basis, d) if b[r] and b[c]),
                Fraction(0)) for c in range(3)) for r in range(3))
        return QuadraticForm(self.gram, self.form.signature, inverse)

    @cached_property
    def change(self) -> AffineMap:
        if self.pair is None:
            cols = [[self.basis[i][r] * self.scales[i] for r in range(3)]
                    for i in range(3)]
        else:
            # The basis is H-orthogonal, so each inner product the
            # hyperbolic basis needs is read off d. The first b that pairs
            # with iso is b_k, k = min(i, j), with beta = (iso, b_k); v =
            # b_k - d_k / (2 beta) iso is isotropic with (iso, v) = beta;
            # and b_m, m the third index, spans the orthogonal complement
            # of span(iso, v) = span(b_i, b_j), with gamma = d_m.
            i, j, s = self.pair
            d = [_promote(c, self.tower) for c in self.d]
            basis = [[_promote(c, self.tower) for c in b] for b in self.basis]
            iso = [a + s * b for a, b in zip(basis[i], basis[j])]
            k, m = min(i, j), 3 - i - j
            beta = d[i] if k == i else s * d[j]
            v = [a - (d[k] / (2 * beta)) * b for a, b in zip(basis[k], iso)]
            cols = [[(d[m] / beta) * c for c in iso], v, basis[m]]
        t3 = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
        return AffineMap.xyz_linear(t3, w_scale=self.w_scale)

    def cubic(self, c: Poly) -> Poly:
        """The cubic, after the change, of a graph w = q + c + O(4).

        The graph s w = F(T x) of a block map is solved for w with no
        series, w = F(T x) / s, so its cubic is exactly c(T x) / s."""
        lin = self.change.linear
        images = {v: Poly(XYZ, zip(UNITS, lin[i][:3])) for i, v in enumerate(XYZ)}
        return c.substitute(images).scale(1 / lin[3][3])


def normalize_quadratic(F: Jet, fld: str = "complex") -> NormalizedQuadratic:
    """Linear change in (x,y,z) plus w-rescaling making the quadratic part
    2xy+z^2 (complex or real-hyperbolic) or x^2+y^2+z^2 (real-elliptic),
    read off the Gram matrix with no jet transformed and built only when
    its ``change`` is read.

    At most two square roots are adjoined; most catalog inputs stay in Q.
    """
    if F.homogeneous_part(0) or F.homogeneous_part(1):
        raise NormalizationError("expected a jet without constant or linear terms")
    H = gram_matrix(F)
    basis, d = _diagonalize(H)

    if fld == "real" and all(x > 0 for x in d) or (
            fld == "real" and all(x < 0 for x in d)):
        # definite: elliptic target x^2+y^2+z^2, reference axis z. The
        # scale sqrt(d_2 / d_i) is q g_k for the first k with d_2 / d_i =
        # q^2 a_k, q rational: a_0 = g_0 = 1, and a_k, k > 0, the square of
        # the generator g_k, an earlier irrational d_2 / d_i
        squares: List[Fraction] = []
        roots = []
        for i in range(3):
            val = d[2] / d[i]  # positive
            for k, a in enumerate([Fraction(1)] + squares):
                q = rational_sqrt(val / a)
                if q is not None:
                    roots.append((q, k))
                    break
            else:
                squares.append(val)
                roots.append((Fraction(1), len(squares)))
        tower = Tower([f"s{k}" for k in range(1, len(squares) + 1)],
                      squares) if squares else None
        scales = [tower.generator(k - 1) * q if k else _promote(q, tower)
                  for q, k in roots]
        return NormalizedQuadratic(H, basis, d,
                                   QuadraticForm(IDENTITY3, "elliptic", IDENTITY3),
                                   scales=scales, tower=tower)

    # hyperbolic / complex target 2xy+z^2: an isotropic vector b_i + s b_j,
    # with s^2 = -d_i / d_j, rational for the first pair that allows it
    pairs = [(i, j) for i in range(3) for j in range(3)
             if i != j and -d[i] / d[j] > 0]
    roots = [(i, j, rational_sqrt(-d[i] / d[j])) for i, j in pairs]
    i, j, s = next((r for r in roots if r[2] is not None), (0, 1, None))
    tower = None
    if s is None:
        if fld == "real":
            # not empty: a definite real form took the elliptic branch
            i, j = pairs[0]
        tower = Tower(("s1",), (-d[i] / d[j],))
        s = tower.generator(0)
    sig = "complex" if fld == "complex" else "hyperbolic"
    return NormalizedQuadratic(H, basis, d,
                               QuadraticForm(HYPERBOLIC_GRAM, sig, HYPERBOLIC_GRAM),
                               pair=(i, j, s), tower=tower)


def _promote(c, tower: Optional[Tower]):
    if tower is None or not isinstance(c, Fraction):
        return c
    return tower.const(c)


# -- trace decomposition and cubic classification --------------------------------

CUBIC_BASIS_POLYS = None


def cubic_basis() -> List[Poly]:
    """The seven trace-free basis cubics for the form 2xy+z^2."""
    global CUBIC_BASIS_POLYS
    if CUBIC_BASIS_POLYS is None:
        x, y, z = (Poly.var(v) for v in XYZ)
        CUBIC_BASIS_POLYS = [
            x ** 3,
            x * x * z,
            x * x * y - 2 * x * z * z,
            3 * x * y * z - z ** 3,
            x * y * y - 2 * y * z * z,
            y * y * z,
            y ** 3,
        ]
    return CUBIC_BASIS_POLYS


def cubic_coordinates(c: Poly):
    """Coordinates of a trace-free cubic in the seven-element basis."""
    basis = cubic_basis()
    monos = sorted({m for b in basis for m in b.terms} | set(c.terms))
    solved = solve_rows([[b.coefficient(m) for b in basis] for m in monos],
                        [c.coefficient(m) for m in monos], 7)
    if solved is None or solved[1]:
        raise NormalizationError("cubic is not in the trace-free span")
    return solved[0]


def cubic_action_matrix(L, weight):
    """Matrix, on the trace-free cubic basis, of c -> V(c) - weight*c for
    the linear vector field V with coefficient matrix L on (x, y, z)."""
    basis = cubic_basis()
    cols = []
    for b in basis:
        img = b.scale(-weight)
        for i, vi in enumerate(XYZ):
            lin = Poly.zero(XYZ)
            for j, vj in enumerate(XYZ):
                if L[i][j]:
                    lin = lin + Poly.var(vj, XYZ).scale(L[i][j])
            img = img + lin * b.partial(vi)
        cols.append(cubic_coordinates(img))
    return tuple(tuple(cols[j][i] for j in range(7)) for i in range(7))


def _laplacian(c: Poly, h: QuadraticForm) -> Poly:
    """The h-Laplacian sum_jk (H^-1)_jk d_j d_k c of a cubic form c."""
    if any(sum(m) != 3 for m in c.terms):
        raise ValueError("not a cubic form")
    Hi = h.inverse
    return sum((c.partial(vj).partial(vk).scale(Hi[j][k])
                for j, vj in enumerate(XYZ) for k, vk in enumerate(XYZ)
                if Hi[j][k]), Poly.zero(XYZ))


def quadratic_poly(h: QuadraticForm) -> Poly:
    """x^T H x; the two entries of an off-diagonal pair name one monomial,
    and the Poly constructor sums them."""
    return Poly(XYZ, ((tuple(a + b for a, b in zip(UNITS[i], UNITS[j])),
                       h.gram[i][j]) for i in range(3) for j in range(3)))


def trace_decompose(c: Poly, h: QuadraticForm) -> Tuple[Poly, Poly]:
    """Unique splitting c = c0 + q_h * l with c0 trace-free.

    For a symmetric nondegenerate h in three variables the h-Laplacian
    sends q_h * l to (2n+4) l = 10 l and kills c0, so l = Lap_h(c) / 10.
    """
    l = _laplacian(c, h).scale(Fraction(1, 10))
    return c - quadratic_poly(h) * l, l


def normal_shear(c: Poly) -> Tuple[Poly, AffineMap]:
    """The shear x_i -> x_i + a_i w that makes the cubic c of a graph
    w = 2xy+z^2 + c + O(4) trace-free, and the trace-free cubic c0 it
    leaves.

    With c = c0 + q l (``trace_decompose``) and w = q + O(3), the shear
    sends q(x) to q(x + a w) = q + 2B(x, a) w + O(w^2) = q + 2B(x, a) q
    + O(4), B the polar form of q, and c to c + O(4): a = -H^-1 l / 2
    gives 2B(x, a) = -l, so the sheared graph's cubic is c - q l = c0 and
    its quadratic part is q.
    """
    h = QuadraticForm(HYPERBOLIC_GRAM, "complex", HYPERBOLIC_GRAM)
    c0, l = trace_decompose(c, h)
    if not l:
        return c0, AffineMap.identity()
    Hi = h.inverse
    lv = [l.coefficient(e) for e in UNITS]
    rows = [list(r) for r in AffineMap.identity().linear]
    for i in range(3):
        rows[i][3] = -sum(Hi[i][j] * lv[j] for j in range(3)) / 2
    return c0, AffineMap(tuple(tuple(r) for r in rows))


CUBIC_ZERO, CUBIC_I3, CUBIC_I2, CUBIC_I1, CUBIC_I0 = "Zero", "I3", "I2", "I1", "I0"


def pick_invariant(c0: Poly, h: QuadraticForm):
    """Full self-contraction sum C_ijk C_lmn H^il H^jm H^kn of a cubic with
    the inverse form: the apolar pairing c0(D) c0 / 6 with D = H^-1 grad.

    The monomial x^m of c0(H^-1 x), as an operator, sends c0 to m! times
    its x^m coefficient. Every product is added, zero or not, so a cubic
    over a tower gives a tower element."""
    if any(sum(m) != 3 for m in c0.terms):
        raise ValueError("not a cubic form")
    Hi = h.inverse
    dual = c0.substitute({v: Poly(XYZ, zip(UNITS, Hi[i]))
                          for i, v in enumerate(XYZ)})
    return sum((a * c0.coefficient(m) * factorial(m[0]) * factorial(m[1])
                * factorial(m[2]) for m, a in dual.terms.items()),
               Fraction(0)) / 6


def partials_span_dimension(c0: Poly) -> int:
    partials = [c0.partial(v).terms for v in XYZ]
    monos = sorted({m for p in partials for m in p})
    return matrix_rank([[p.get(m, Fraction(0)) for m in monos] for p in partials])


def _classify(c0: Poly, h: QuadraticForm):
    """The class of a trace-free cubic and its Pick invariant; the c0 of
    ``trace_decompose`` is trace-free by construction and is not
    re-checked."""
    pick = pick_invariant(c0, h)
    if c0.is_zero():
        return CUBIC_ZERO, pick
    d = partials_span_dimension(c0)
    if d == 1:
        return CUBIC_I3, pick
    if d == 2:
        return CUBIC_I2, pick
    return (CUBIC_I1 if not pick else CUBIC_I0), pick


# -- full normalization pipeline ----------------------------------------------------

class NormalizationReport:
    """The normalization of a graph jet ``source``: the class and the Pick
    invariant of its cubic, read in the source coordinates, and the
    normalizing change and the normalized jet, built when read.

    ``change`` runs the quadratic block map, the cubic after it and the
    shear that makes it trace-free (``normal_shear``) the first time it is
    read; ``jet``, transform_graph(source, change), is solved the first
    time it is read. A classification alone runs neither."""

    def __init__(self, source: Jet, quadratic: NormalizedQuadratic,
                 cubic_class: str, pick: object):
        self.source = source
        self.quadratic = quadratic
        self.cubic_class = cubic_class
        self.pick = pick

    @property
    def form(self) -> QuadraticForm:
        return self.quadratic.form

    @property
    def tower(self) -> Optional[Tower]:
        return self.quadratic.tower

    @cached_property
    def change(self) -> AffineMap:
        nq = self.quadratic
        change = remove_linear(self.source)[1].compose(nq.change)
        if nq.pair is None:
            return change
        return change.compose(normal_shear(nq.cubic(self.source.homogeneous_part(3)))[1])

    @cached_property
    def jet(self) -> Jet:
        return transform_graph(self.source, self.change)

    def to_json(self):
        return {
            "jet": self.jet.to_json(),
            "change": self.change.to_json(),
            "signature": self.form.signature,
            "cubic_class": self.cubic_class,
            "pick_invariant": str(self.pick),
            "tower": list(self.tower.names) if self.tower else [],
        }


def normalize_jet(F: Jet, fld: str = "complex") -> NormalizationReport:
    """Classify the cubic of a graph jet in its own coordinates, with the
    normalizing change left to be built when it is read.

    With H the Gram matrix of the quadratic part, the trace decomposition
    c = c0 + q l and the class of c0 are the same in any coordinates, and
    the block map x -> T x, w -> s w sends c0 to c0(T x) / s and H^-1 to
    s T^-1 H^-1 T^-T, so the normalized Pick invariant is s pick(c0, H).
    The elliptic form leaves c unclassified and reads s pick(c, H). A zero
    cubic has the rational Pick invariant 0, in a tower or not."""
    F1 = remove_linear(F)[0]
    nq = normalize_quadratic(F1, fld)
    h = nq.source_form
    c = F1.homogeneous_part(3)
    if nq.pair is None:
        kind, c0, pick = "unclassified-elliptic", c, pick_invariant(c, h)
    else:
        c0 = trace_decompose(c, h)[0]
        kind, pick = _classify(c0, h)
    return NormalizationReport(F, nq, kind, nq.w_scale * pick if c0 else pick)
