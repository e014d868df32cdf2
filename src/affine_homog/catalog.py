"""Catalog of homogeneous graph hypersurfaces and its verification pipelines.

The data side is a table of twenty explicit defining equations (shipped in
catalog_data.json) and one table of the ten graph normal forms
(``NORMAL_FORMS``), each with its cubic case, isotropy dimension,
determining order, terms above the cubic as polynomials in b, closed form,
rescaling note and the symmetries the paper displays for it; each case
(``CUBIC_CASES``) holds its cubic and its gauge entries. The base jets,
discovery's start jets and orders, the one matcher ``match_component``,
the overlaps and the gauges and displayed symmetries that
``confirm_isotropy`` checks are read from those two tables. The pipeline side
ties the other modules together:

  verify_entry        expand an explicit equation, compute its symmetry
                      algebra, and check homogeneity with the expected
                      isotropy dimension;
  reject_variant      show that a near-miss equation fails the same test;
  discover            start from a normalized low-order jet and recover
                      the normal forms from the closure equations;
  confirm_isotropy    complete a normal form to higher order and confirm
                      its algebra closes with the right isotropy;
  check_overlaps_and_maps / real_catalog_checks
                      parameter bookkeeping and real-coefficient variants.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from itertools import combinations, zip_longest
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .frontend import DomainError, expand_graph, parse_surface
from .groebner import _rational_roots, solve_zero_dim
from .jets import Jet
from .linalg import LinearEquation, linear_solve, nullspace
from .normalize import (HYPERBOLIC_GRAM, AffineMap, QuadraticForm,
                        cubic_action_matrix, cubic_basis, normalize_jet,
                        pick_invariant, transform_graph)
from .poly import Poly
from .scalars import InputError, RationalFunc, Tower, parse_rational
from .symmetry import (E_X, E_Y, E_Z, AffineVectorField, CompletionError,
                       complete_series, closure_constraints, degree_unknowns,
                       full_algebra, linear_equations, pqr_families,
                       raise_order, reduce_against_span, solve_tangency,
                       tangency_residual)

XYZ = ("x", "y", "z")
F = Fraction

DATA_PATH = Path(__file__).with_name("catalog_data.json")


class CatalogError(ValueError):
    pass


# -- reporting ---------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, (Fraction, RationalFunc)):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "to_json"):
        return v.to_json()
    return str(v)


class Report:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool,
                 details: Optional[Dict[str, object]] = None):
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details

    def to_json(self):
        return {"name": self.name, "passed": self.passed,
                "details": _jsonable(self.details)}


# -- catalog entries -----------------------------------------------------------

class CatalogEntry:
    __slots__ = ("id", "surface", "basepoint", "uses_alpha", "excluded_alphas",
                 "expected_isotropy")

    def __init__(self, id: str, surface: str,
                 basepoint: Tuple[Fraction, Fraction, Fraction, Fraction],
                 uses_alpha: bool, excluded_alphas: Tuple[Fraction, ...],
                 expected_isotropy: int):
        self.id = id
        self.surface = surface
        self.basepoint = basepoint
        self.uses_alpha = uses_alpha
        self.excluded_alphas = excluded_alphas
        self.expected_isotropy = expected_isotropy


def load_catalog() -> Dict[str, CatalogEntry]:
    raw = json.loads(DATA_PATH.read_text())
    out = {}
    for e in raw["entries"]:
        out[e["id"]] = CatalogEntry(
            id=e["id"], surface=e["surface"],
            basepoint=tuple(parse_rational(c) for c in e["basepoint"]),
            uses_alpha=e["uses_alpha"],
            excluded_alphas=tuple(parse_rational(c) for c in e["excluded_alphas"]),
            expected_isotropy=e["expected_isotropy"])
    return out


_CATALOG: Optional[Dict[str, CatalogEntry]] = None


def catalog() -> Dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = load_catalog()
    return _CATALOG


# -- normal forms ----------------------------------------------------------------

QUADRIC_TERMS = {(1, 1, 0): F(2), (0, 0, 2): F(1)}

Monomial = Tuple[int, int, int]


class Case(NamedTuple):
    """A cubic case: its normalized cubic; its gauge, the coordinate indices
    of the entries pinned to slice away the isotropy of its model at the
    determining order, one per isotropy direction (A13 is 2, A22 is 5, A23
    is 6, A31 is 8 and A44 is 15); and the test every monomial of a
    completed jet passes, where the case has one."""
    cubic: Dict[Monomial, Fraction]
    gauge: Tuple[int, ...]
    shape: Optional[Callable[[Monomial], bool]] = None


CUBIC_CASES = {
    "no-cubic": Case({}, (2, 5, 8, 15)),
    "I3": Case({(3, 0, 0): F(1)}, (5, 8)),
    "I2": Case({(2, 0, 1): F(1)}, (5,)),
    "I1": Case({(2, 1, 0): F(1), (1, 0, 2): F(-2)}, (5,)),
    # every term is a polynomial in u = xy and z
    "I0": Case({(1, 1, 1): F(3), (0, 0, 3): F(-1)}, (5,), lambda m: m[0] == m[1]),
    # z^2 plus a series in x and y alone
    "Inr": Case({(3, 0, 0): F(1)}, (6,), lambda m: m[2] == 0 or m == (0, 0, 2)),
}


class NormalForm(NamedTuple):
    """A normal form: its cubic case, isotropy dimension and determining
    order; its terms above the cubic, each coefficient a polynomial in b
    given as (c0, c1, c2) of 1, b, b^2; its closed defining equation,
    where there is one; and, where a rescaling normalizes its constant
    quartic, the note of a jet whose quartic is a nonzero multiple of it.
    Where the paper displays them, it also holds the linear part of the
    isotropy generator, up to scale (matched at entry (3, 3)), and a
    parameter value with symmetries (target matrix, translation) that the
    algebra there must contain, each modulo the isotropy direction."""
    id: str
    case: str
    isotropy: int
    order: int
    terms: Dict[Monomial, Tuple[Fraction, ...]]
    closed: Optional[str] = None
    rescale: str = ""
    generator: Optional[Tuple[Tuple[int, ...], ...]] = None
    displayed: Optional[Tuple[Fraction, tuple]] = None

    @property
    def parametric(self) -> bool:
        return any(len(cs) > 1 for cs in self.terms.values())


_I1_GENERATOR = ((0, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))

# the Sp closed form is the implicit quadratic satisfied by the square-root
# branch through the origin
NORMAL_FORMS = {nf.id: nf for nf in (
    NormalForm("Qd", "no-cubic", 4, 4, {}, "W = 2*X*Y + Z^2"),
    NormalForm("Sp", "no-cubic", 3, 4, {(2, 2, 0): (4,), (1, 1, 2): (4,), (0, 0, 4): (1,)},
               "W = 2*X*Y + Z^2 + W^2", "rescaling normalizes the quartic modulus"),
    NormalForm("I3", "I3", 2, 4, {}, "W = 2*X*Y + Z^2 + X^3"),
    NormalForm("I2", "I2", 1, 4, {(4, 0, 0): (0, 1)}, "W = 2*X*Y + Z^2 + X^2*Z + alpha*X^4"),
    NormalForm("I1.1", "I1", 1, 4, {(3, 1, 0): (F(1, 2),), (2, 0, 2): (-1,)},
               "W = (4*X*Y + 2*Z^2 - 5*X*Z^2)*(2 - X)^(-1)",
               generator=_I1_GENERATOR),
    NormalForm("I1.2", "I1", 1, 4, {(3, 1, 0): (F(1, 2),), (2, 0, 2): (F(21, 4),)},
               "W = (8*X*Y + 4*Z^2 + 20*X^2*Y)*((2 - X)*(2 + 5*X))^(-1)",
               generator=_I1_GENERATOR),
    NormalForm("I0.1", "I0", 1, 4, {(2, 2, 0): (F(9, 4),), (1, 1, 2): (F(-9, 2),),
                                    (0, 0, 4): (0, F(15, 32))},
               displayed=(F(6), (
                   (((0, 0, 0, 0), (0, 0, 0, 0), (0, F(-3, 2), 0, 0), (0, 2, 0, 0)), E_X),
                   (((0, 0, 0, 0), (0, 0, 0, 0), (F(-3, 2), 0, 0, 0), (2, 0, 0, 0)), E_Y),
                   (((F(15, 2), 0, 0, 0), (0, 0, 0, 0), (0, 0, 6, F(-9, 8)),
                     (0, 0, 2, 9)), E_Z)))),
    NormalForm("I0.2", "I0", 1, 4, {(2, 2, 0): (F(63, 8), F(-45, 8)),
                                    (1, 1, 2): (F(-81, 8), F(45, 8)),
                                    (0, 0, 4): (0, F(15, 32))}),
    NormalForm("I0.3", "I0", 1, 4, {(2, 2, 0): (F(-7, 4), -2, F(-1, 4)),
                                    (1, 1, 2): (F(13, 2), F(7, 4), F(-1, 4)),
                                    (0, 0, 4): (F(7, 8), F(7, 16), F(-1, 16))}),
    NormalForm("Inr", "Inr", 1, 5, {(4, 0, 0): (1,), (5, 0, 0): (0, 1)},
               rescale="nonzero x^4 multiple; rescales into the nr chain"),
)}

NORMAL_FORM_IDS = tuple(NORMAL_FORMS)
ISOTROPY_DIMS = {nf.id: nf.isotropy for nf in NORMAL_FORMS.values()}

# default alpha bindings for batch sweeps over the parametric entries
SWEEP_ALPHAS = {"N4": F(3), "N7": F(12, 5), "N11": F(4, 3),
                "N13": F(5, 3), "N16": F(5)}


def _poly(terms) -> Poly:
    return Poly(XYZ, dict(terms))


def _first_form(case: str) -> NormalForm:
    return next(nf for nf in NORMAL_FORMS.values() if nf.case == case)


def case_jet(case: str) -> Jet:
    """The normalized truncation discovery starts from: the base jet of the
    case's first form at b = 0, below its determining order."""
    nf = _first_form(case)
    return base_jet(nf.id, F(0)).truncate(nf.order - 1)


def base_jet(nf_id: str, b=None) -> Jet:
    """The defining low-order jet of a normal form, at its determining
    order. Parametric forms default to a generic symbolic parameter."""
    nf = NORMAL_FORMS[nf_id]
    if nf.parametric and b is None:
        b = RationalFunc.gen("b")
    terms = {**QUADRIC_TERMS, **CUBIC_CASES[nf.case].cubic}
    for m, cs in nf.terms.items():
        c = F(cs[-1])
        for a in reversed(cs[:-1]):
            c = c * b + a
        terms[m] = c  # Poly drops a zero
    return Jet(_poly(terms), nf.order)


def closed_form_jet(nf_id: str, order: int, b=None) -> Jet:
    text = NORMAL_FORMS[nf_id].closed
    if text is None:
        raise CatalogError(f"{nf_id} has no closed defining equation")
    if b is None and "alpha" in text:
        b = RationalFunc.gen("b")
    spec = parse_surface(text, (F(0),) * 4, alpha=b)
    return expand_graph(spec, order)


# -- entry verification -----------------------------------------------------------

def homogeneous(alg) -> bool:
    """Closed, tangent, transitive (translation rank 3) and with isotropy."""
    return (alg.closed and alg.tangency_ok and alg.translation_rank == 3
            and alg.isotropy_dim >= 1)


def verify_entry(entry, alpha=None, order: int = 6) -> Report:
    """Expand an explicit catalog equation at its basepoint and test
    homogeneity with the expected isotropy, with stability one order up."""
    if isinstance(entry, str):
        entry = catalog()[entry]
    if entry.uses_alpha:
        if alpha is None:
            raise InputError(f"{entry.id} requires an alpha binding")
        alpha = parse_rational(str(alpha)) if not isinstance(alpha, Fraction) else alpha
        if alpha in entry.excluded_alphas:
            raise ValueError(f"{entry.id} excludes alpha={alpha}")
    elif alpha is not None:
        raise InputError(f"{entry.id} takes no alpha")
    details: Dict[str, object] = {"entry": entry.id, "order": order}
    try:
        spec = parse_surface(entry.surface, entry.basepoint, alpha)
        Fj = expand_graph(spec, order + 1)
    except (DomainError, ValueError) as exc:
        details["error"] = str(exc)
        return Report(f"verify:{entry.id}", False, details)
    alg = full_algebra(Fj, order)
    alg1 = raise_order(alg, Fj)
    stable = (alg.isotropy_dim == alg1.isotropy_dim
              and alg.full_dim == alg1.full_dim)
    # the class and the Pick invariant are read off the 3-jet
    norm = normalize_jet(Fj.truncate(3))
    passed = (homogeneous(alg) and homogeneous(alg1) and stable
              and alg.isotropy_dim == entry.expected_isotropy)
    details.update({
        "closed": alg.closed and alg1.closed,
        "isotropy_dim": alg.isotropy_dim,
        "expected_isotropy": entry.expected_isotropy,
        "full_dim": alg.full_dim,
        "translation_rank": alg.translation_rank,
        "stable": stable,
        "cubic_class": norm.cubic_class,
        "pick_invariant": norm.pick,
    })
    return Report(f"verify:{entry.id}", passed, details)


# -- near-miss variants -------------------------------------------------------------

# the last three share a basepoint where every primitive has an exact value
VARIANTS: Dict[str, Tuple[str, Tuple[str, str, str, str]]] = {
    "v1": ("W = X*Y + Z^2*log(Z)", ("0", "0", "0", "1")),
    # W*Z = X*Y + exp(Z) with the roles of W and Z swapped so the surface
    # is a graph over the remaining coordinates at a rational basepoint
    "v2": ("Z*W = X*Y + exp(W)", ("0", "1", "-1", "2")),
    "v3": ("W*Z = X*Y + log(Z)", ("0", "0", "0", "1")),
    "v4": ("W^2 = X*Y + log(Z)", ("1", "1", "1", "1")),
    "v5": ("W^2 = X*Y + Z*log(Z)", ("1", "1", "1", "1")),
    "v6": ("W^2 = X*Y + Z^2*log(Z)", ("1", "1", "1", "1")),
}

REPLACEMENT_SURFACE = (
    "W + 1/28 + 2/7*Z = X*Y + 9/28*(5/3*Z - 2/3)^(12/5)",
    ("0", "0", "0", "1"))


def reject_variant(vid: str, order: int = 6) -> Report:
    """A variant is rejected when the homogeneity test fails at some order
    up to the given one. Records where the failure first appears and
    whether an order-4-closed algebra loses tangency one order higher, so
    the order must be at least 5."""
    if order < 5:
        raise InputError(f"order {order} is below 5, the order of the re-check")
    text, bp = VARIANTS[vid]
    spec = parse_surface(text, tuple(parse_rational(c) for c in bp))
    Fj = expand_graph(spec, order)
    details: Dict[str, object] = {"variant": vid, "surface": text}
    alg4 = full_algebra(Fj, 4)
    alg5 = raise_order(alg4, Fj)
    details["closed_at_4"] = homogeneous(alg4)
    # do the order-4 symmetries stay tangent one order up?
    details["order_4_algebra_fails_at_5"] = not (alg5.tangency_ok
                                                 and alg5.full_dim == alg4.full_dim)
    alg, first_failure = alg4, None
    for k in range(4, order + 1):
        if k > 4:
            alg = alg5 if k == 5 else raise_order(alg, Fj)
        if not homogeneous(alg):
            first_failure = k
            break
    details["first_failing_order"] = first_failure
    return Report(f"reject:{vid}", first_failure is not None, details)


def replacement_check(order: int = 6) -> Report:
    """The corrected equation near the first variant: genuinely homogeneous,
    same 4-jet as the variant, different 5-jet."""
    text, bp = REPLACEMENT_SURFACE
    spec = parse_surface(text, tuple(parse_rational(c) for c in bp))
    Fj = expand_graph(spec, order)
    v_text, v_bp = VARIANTS["v1"]
    v_spec = parse_surface(v_text, tuple(parse_rational(c) for c in v_bp))
    Vj = expand_graph(v_spec, 5)
    alg = full_algebra(Fj, order)
    same4 = Fj.truncate(4) == Vj.truncate(4)
    differ5 = Fj.truncate(5) != Vj.truncate(5)
    passed = homogeneous(alg) and same4 and differ5
    return Report("replacement", passed, {
        "surface": text, "homogeneous": homogeneous(alg),
        "isotropy_dim": alg.isotropy_dim,
        "same_4_jet_as_v1": same4, "5_jets_differ": differ5})


# -- discovery -----------------------------------------------------------------------

class DiscoveryComponent:
    __slots__ = ("kind", "assignments", "jet", "normal_form", "parameter",
                 "duplicate_of", "note")

    def __init__(self, kind: str, assignments: Dict[str, object],
                 jet: Optional[Jet] = None, normal_form: Optional[str] = None,
                 parameter: Optional[object] = None,
                 duplicate_of: Optional[int] = None, note: str = ""):
        self.kind = kind  # point | family | residual
        self.assignments = assignments
        self.jet = jet
        self.normal_form = normal_form
        self.parameter = parameter
        self.duplicate_of = duplicate_of
        self.note = note

    def to_json(self):
        return {"kind": self.kind,
                "assignments": {k: str(v)
                                for k, v in sorted(self.assignments.items(),
                                                   key=lambda kv: kv[0])},
                "jet": self.jet.to_json() if self.jet is not None else None,
                "normal_form": self.normal_form,
                "parameter": str(self.parameter)
                if self.parameter is not None else None,
                "duplicate_of": self.duplicate_of,
                # always empty: completion divides only by integer exponents
                "degeneracies": [],
                "note": self.note}


def match_component(case: str, jet: Jet):
    """Identify a completed jet against the normal forms that share the
    case's cubic, in table order. A form matches when the jet, to the
    lower of their orders, is the form's base jet at some b: b is solved
    from the coefficient equations of the form's terms, linear in the
    unknowns (b, b^2), and every coefficient is then checked at it. A form
    with a rescaling note also matches a jet whose quartic is a nonzero
    multiple of its own, with the jet's coefficient at the form's first
    quartic monomial as parameter. Returns (normal form id, parameter,
    note)."""
    cubic = CUBIC_CASES[case].cubic
    for nf in NORMAL_FORMS.values():
        if CUBIC_CASES[nf.case].cubic != cubic:
            continue
        got = jet.truncate(min(jet.order, nf.order))
        fam = linear_solve([LinearEquation({k - 1: c for k, c in enumerate(cs) if k and c},
                                           got.poly.coefficient(m) - cs[0])
                            for m, cs in nf.terms.items() if sum(m) <= got.order], ("b", "b2"))
        if fam is not None and not (nf.parametric and 0 in fam.free_cols):
            b = fam.particular[0] if nf.parametric else None
            if got == base_jet(nf.id, b).truncate(got.order):
                return nf.id, b, ""
        if nf.rescale:
            m0, c0 = next((m, cs[0]) for m, cs in nf.terms.items() if sum(m) == 4)
            k, want = jet.poly.coefficient(m0), base_jet(nf.id, F(0))
            if k and jet.truncate(4) == Jet(want.truncate(3).poly
                                            + want.homogeneous_part(4).scale(k / c0), 4):
                return nf.id, k, nf.rescale
    return None, None, "matches no normal form of the case"


def _tag_duplicates(comps: List[DiscoveryComponent]):
    """Components reaching the same normal form (same parameter value, or
    both covering a generic parameter) are copies of one another under the
    residual coordinate freedoms (x<->y swap, rescaling, null rotations)."""
    seen: Dict[tuple, int] = {}
    for idx, comp in enumerate(comps):
        if comp.normal_form is None:
            continue
        par = comp.parameter
        if isinstance(par, RationalFunc) and not par.is_constant():
            key = (comp.normal_form, "generic")
        else:
            key = (comp.normal_form,
                   str(par) if par is not None else "")
        if key in seen:
            comp.duplicate_of = seen[key]
        else:
            seen[key] = idx


def discover(case: str) -> List[DiscoveryComponent]:
    """From the normalized truncation of one cubic case, solve the closure
    equations and complete each solution to its determining order."""
    f = case_jet(case)
    det = _first_form(case).order
    fams = pqr_families(solve_tangency(f), CUBIC_CASES[case].gauge)
    if fams is None:
        raise CatalogError(f"case {case}: no translated tangency solutions")
    famP, famQ, famR = fams
    cons = closure_constraints(f, famP, famQ, famR)
    ring = sorted(set(famP.free + famQ.free + famR.free))
    sols = solve_zero_dim(cons, unknowns=ring)
    comps: List[DiscoveryComponent] = []

    def build(values, kind):
        P, Q, R = (AffineVectorField.from_coords(g.member(values)).A
                   for g in (famP, famQ, famR))
        comp = DiscoveryComponent(kind, dict(values))
        try:
            jet = complete_series(f, P, Q, R, det)
        except CompletionError as exc:
            comp.note = f"completion failed: {exc}"
            comps.append(comp)
            return
        comp.jet = jet
        comp.normal_form, comp.parameter, comp.note = match_component(case, jet)
        shape = CUBIC_CASES[case].shape
        if shape and not all(shape(m) for m in jet.poly.terms):
            comp.note = (comp.note + "; " if comp.note else "") + \
                "structural identity violated"
        comps.append(comp)

    for pt in sols.points:
        build(pt, "point")
    for fam in sols.families:
        build(fam.assignments, "family")
    for res in sols.residual:
        comps.append(DiscoveryComponent(
            "residual", dict(res.assignments),
            note="unresolved: " + "; ".join(str(p) for p in res.basis)))

    comps.sort(key=lambda comp: (
        {"point": 0, "family": 1, "residual": 2}[comp.kind],
        comp.normal_form or "~",
        str(comp.parameter) if isinstance(comp.parameter, Fraction) else ""))
    _tag_duplicates(comps)
    return comps


# -- isotropy confirmation ---------------------------------------------------------

def confirm_isotropy(nf_id: str, b=None, order: int = 6) -> Report:
    """Complete a normal form to the given order with its translated
    symmetries and confirm the full algebra closes with the expected
    isotropy dimension; the translated solutions must be unique modulo
    the isotropy directions.

    Tangency is solved once, on the base jet: the gauged and ungauged
    families are views of that solve, and the completed jet, which adds
    only terms above the base jet's order, restricts it to its own free
    family (``full_algebra``'s ``below``)."""
    nf = NORMAL_FORMS[nf_id]
    if order < nf.order:
        raise InputError(f"order {order} is below the determining order "
                         f"{nf.order} of {nf_id}")
    if nf.parametric and b is None:
        b = RationalFunc.gen("b")
    elif not nf.parametric and b is not None:
        raise InputError(f"{nf_id} takes no b")
    jet0 = base_jet(nf_id, b)
    gauge = CUBIC_CASES[nf.case].gauge
    details: Dict[str, object] = {"normal_form": nf_id, "order": order}
    if b is not None:
        details["b"] = b
    # the gauged and ungauged families are views of one free solve
    fam = solve_tangency(jet0)
    gauged, ungauged = pqr_families(fam, gauge), pqr_families(fam)
    if gauged is None or ungauged is None:
        details["error"] = "no translated tangency solutions"
        return Report(f"isotropy:{nf_id}", False, details)
    details["ungauged_dims"] = [g.dimension for g in ungauged]
    details["gauged_dims"] = [g.dimension for g in gauged]
    # at the determining order the translated families see the isotropy of
    # the truncated model, which for Sp coincides with the quadric's: one
    # direction per gauge entry, which the gauge cuts away
    unique_mod_iso = all(g.dimension == len(gauge) for g in ungauged)
    gauge_cuts = all(g.is_unique() for g in gauged)
    P, Q, R = (AffineVectorField.from_coords(g.particular).A for g in gauged)
    try:
        completed = complete_series(jet0, P, Q, R, order)
    except CompletionError as exc:
        details["error"] = str(exc)
        return Report(f"isotropy:{nf_id}", False, details)
    alg = full_algebra(completed, below=(fam, jet0.order))
    details.update({
        "closed": alg.closed, "isotropy_dim": alg.isotropy_dim,
        "expected_isotropy": nf.isotropy, "full_dim": alg.full_dim,
        "translation_rank": alg.translation_rank,
        "unique_mod_isotropy": unique_mod_iso,
        "gauge_fixes_solution": gauge_cuts,
        # always empty: completion divides only by integer exponents
        "degeneracies": [],
    })
    passed = (homogeneous(alg) and alg.isotropy_dim == nf.isotropy
              and unique_mod_iso and gauge_cuts)

    if nf.generator is not None:
        gen_ok = False
        if alg.isotropy_dim == 1:
            g = alg.isotropy[0].A
            s = g[3][3]
            if s:
                scale = nf.generator[3][3]
                scaled = tuple(tuple(scale * a / s for a in row) for row in g)
                gen_ok = scaled == nf.generator
        details["isotropy_generator_ok"] = gen_ok
        passed = passed and gen_ok

    if nf.displayed is not None and b == nf.displayed[0]:
        # some field of the algebra has the target matrix and translation
        found = [reduce_against_span(alg.basis, AffineVectorField(target, e),
                                     alg.free)
                 for target, e in nf.displayed[1]]
        details["displayed_triple_in_algebra"] = found
        passed = passed and all(found)

    details["completed_jet"] = completed
    return Report(f"isotropy:{nf_id}", passed, details)


# -- parameter bookkeeping -----------------------------------------------------------

def overlaps() -> List[Tuple[Tuple[str, str], Fraction]]:
    """((form, form), b) for each rational b at which two parametric forms
    of one case coincide: the common rational roots of their coefficient
    differences, in table order."""
    out = []
    forms = [nf for nf in NORMAL_FORMS.values() if nf.parametric]
    for p, q in combinations(forms, 2):
        if p.case != q.case:
            continue
        roots = []
        for m in {**p.terms, **q.terms}:
            diff = Poly(("b",), {(k,): F(c) - F(d) for k, (c, d) in enumerate(
                zip_longest(p.terms.get(m, ()), q.terms.get(m, ()), fillvalue=0))})
            if diff.terms:
                roots.append(_rational_roots(diff, "b")[0])
        common = roots[0] if roots else ()
        out += [((p.id, q.id), r) for r in common if all(r in rs for rs in roots)]
    return out


def overlap_identities() -> Report:
    """The parameter values where two forms coincide, checked by exact
    comparison of their base jets."""
    results = {}
    passed = True
    for (a, bnf), bval in overlaps():
        same = base_jet(a, bval) == base_jet(bnf, bval)
        results[f"{a}={bnf} at b={bval}"] = same
        passed = passed and same
    return Report("overlaps", passed, results)


MAP_ROWS: List[Tuple[str, Callable, str]] = [
    ("N7", lambda b: (2 * b - 2) / (b + 4), "I0"),
    ("N11", lambda b: (4 * b - 4) / (4 * b - 9), "I0"),
    ("N13", lambda b: F(15) / (b + 4), "I0"),
    ("N16", lambda b: (15 * b - 16) / (5 * b - 4), "I3"),
]

MAP_SAMPLES = (F(0), F(2), F(6), F(-4), F(1), F(7, 2), F(9, 4), F(11))


def check_overlaps_and_maps() -> Report:
    """Overlap identities plus spot checks of the parameter maps relating
    the explicit equations to the normal forms: at each b of MAP_SAMPLES
    either the induced alpha is excluded by the entry's restrictions (a
    neighbouring entry covers it) or the entry verifies at order 5 with
    isotropy 1 and the expected cubic class."""
    rep = overlap_identities()
    details: Dict[str, object] = {"overlaps": rep.details}
    passed = rep.passed
    cat = catalog()
    for eid, amap, cls in MAP_ROWS:
        entry = cat[eid]
        for bval in MAP_SAMPLES:
            key = f"{eid} b={bval}"
            try:
                alpha = amap(bval)
            except ZeroDivisionError:
                details[key] = "excluded (pole)"
                continue
            if alpha in entry.excluded_alphas:
                details[key] = f"excluded (alpha={alpha})"
                continue
            r = verify_entry(entry, alpha, 5)
            good = (r.passed and r.details.get("isotropy_dim") == 1
                    and r.details.get("cubic_class") == cls)
            details[key] = (f"alpha={alpha}: "
                            + ("ok" if good else f"FAILED {r.details}"))
            passed = passed and good
    return Report("overlaps-and-maps", passed, details)


# -- real-coefficient checks ----------------------------------------------------------

def sphere_series(sign: int, order: int = 4) -> Jet:
    """The two real square-root branches over the quadric: the graph
    solving w = 2xy+z^2 +/- w^2 through the origin."""
    text = "W = 2*X*Y + Z^2 " + ("+" if sign > 0 else "-") + " W^2"
    return expand_graph(parse_surface(text, (F(0),) * 4), order)


def real_catalog_checks() -> Report:
    """The real refinements of the complex list: both square-root branch
    expansions, both nr quartic signs, the hyperbolic-to-split change of
    the I0 cubic over Q(i, sqrt 2), the elliptic change of the quadric,
    and the vanishing Pick invariants."""
    details: Dict[str, object] = {}
    passed = True

    sp_minus = sphere_series(-1)
    exp_minus = Jet(_poly({**QUADRIC_TERMS, (2, 2, 0): F(-4),
                           (1, 1, 2): F(-4), (0, 0, 4): F(-1)}), 4)
    ok = sp_minus == exp_minus
    details["sphere_minus_series"] = ok
    passed = passed and ok
    ok = sphere_series(1) == base_jet("Sp")
    details["sphere_plus_series"] = ok
    passed = passed and ok

    inr_minus = Jet(_poly({**QUADRIC_TERMS, (3, 0, 0): F(1),
                           (4, 0, 0): F(-1)}), 4)
    ok = (base_jet("Inr", F(0)).truncate(4)
          == Jet(_poly({**QUADRIC_TERMS, (3, 0, 0): F(1),
                        (4, 0, 0): F(1)}), 4))
    details["nr_plus_4_jet"] = ok
    passed = passed and ok
    details["nr_minus_4_jet"] = str(inr_minus)

    # split form of the I0 cubic over Q(i, sqrt 2)
    tw = Tower(("i", "s"), (F(-1), F(2)))
    i_, s = tw.generator(0), tw.generator(1)
    iovs = i_ / s
    x, y, z = (Poly.var(n, XYZ) for n in XYZ)
    img = {"x": x.scale(iovs) + y.scale(iovs) + z,
           "y": x.scale(iovs) + y.scale(iovs) - z,
           "z": x - y}
    f_old = _poly({**QUADRIC_TERMS, **CUBIC_CASES["I0"].cubic})
    f_new = f_old.substitute(img).scale(F(-1, 2))
    expected_cubic = _poly({(3, 0, 0): F(5, 4), (2, 1, 0): F(-3, 4),
                            (1, 0, 2): F(3, 2), (1, 2, 0): F(3, 4),
                            (0, 1, 2): F(-3, 2), (0, 3, 0): F(-5, 4)})
    ok = (f_new.homogeneous_part(2) == _poly(QUADRIC_TERMS)
          and f_new.homogeneous_part(3) == expected_cubic)
    details["i0_split_form"] = ok
    passed = passed and ok

    # elliptic change of the quadric
    img2 = {"x": (x + y.scale(i_)).scale(1 / s),
            "y": (x - y.scale(i_)).scale(1 / s)}
    quad = _poly(QUADRIC_TERMS).substitute(img2)
    ok = quad == _poly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1)})
    details["elliptic_quadric"] = ok
    passed = passed and ok

    # Pick invariant vanishes for the cubic chains that stay hyperbolic
    h = QuadraticForm(HYPERBOLIC_GRAM, "hyperbolic", HYPERBOLIC_GRAM)
    basis = cubic_basis()
    picks = [pick_invariant(basis[i], h) for i in (0, 1, 2)]
    ok = not any(picks)
    details["pick_zero_I3_I2_I1"] = ok
    passed = passed and ok
    pick_i0 = pick_invariant(_poly(CUBIC_CASES["I0"].cubic), h)
    details["pick_I0"] = pick_i0
    passed = passed and bool(pick_i0)

    return Report("real", passed, details)


# -- rigidity of the bare quadric ----------------------------------------------------

def quadric_rigidity(max_order: int = 8) -> Report:
    """Tangency of the anisotropic dilation diag(1,1,1,2) forces every
    coefficient of degree three and up to vanish, order by order."""
    mono_of = dict(nm for d in range(3, max_order + 1)
                   for nm in degree_unknowns(d))
    unknowns = sorted(mono_of)
    dil = AffineVectorField(((F(1), 0, 0, 0), (0, F(1), 0, 0),
                             (0, 0, F(1), 0), (0, 0, 0, F(2))))
    # the dilation has no F in its x, y, z rows, so its residual is linear
    # in the jet: one column per monomial, plus the quadric's own residual
    columns = [tangency_residual(Jet(_poly({mono_of[u]: F(1)}), max_order),
                                 dil, max_order) for u in unknowns]
    quadric = Jet(_poly(QUADRIC_TERMS), max_order)
    base = tangency_residual(quadric, dil, max_order)
    fam = linear_solve(linear_equations(columns, base), unknowns)
    forced_zero = (fam is not None and fam.is_unique()
                   and not any(fam.particular))
    iso_dim = full_algebra(quadric).isotropy_dim
    return Report("quadric-rigidity",
                  forced_zero and iso_dim == 4,
                  {"max_order": max_order, "forced_zero": forced_zero,
                   "isotropy_dim": iso_dim})


# -- cubic eigen-analysis -----------------------------------------------------------

def _scaling_matrix(t):
    # (t-1)x d/dx + (t+1)y d/dy + t z d/dz
    return ((t - 1, F(0), F(0)), (F(0), t + 1, F(0)), (F(0), F(0), t))


def _null_rotation_matrix(t):
    # t x d/dx + (t y - z) d/dy + (x + t z) d/dz
    return ((t, F(0), F(0)), (F(0), t, F(-1)), (F(1), F(0), t))


def _generator_check(matrix, m0, survivor, t_range):
    """One residual-isotropy generator t -> matrix(t) on the cubic basis.

    Checks that its action with weight 2t is m0 + t (``m0`` holds the
    nonzero entries at t = 0) and, for each integer t in [-t_range,
    t_range], that the kernel is spanned by the basis cubic survivor(t),
    or is zero where survivor(t) is None. Returns (matrix shape holds,
    kernel dimension by t, kernels as expected)."""
    a0 = cubic_action_matrix(matrix(F(0)), F(0))
    a1 = cubic_action_matrix(matrix(F(1)), F(2))
    shape = all(a0[i][j] == m0.get((i, j), 0)
                and a1[i][j] - a0[i][j] == int(i == j)
                for i in range(7) for j in range(7))
    dims, kernels = {}, True
    for k in range(-t_range, t_range + 1):
        ker = nullspace(cubic_action_matrix(matrix(F(k)), F(2 * k)), 7)
        dims[k] = len(ker)
        j = survivor(k)
        want = [] if j is None else [[F(int(i == j)) for i in range(7)]]
        kernels = kernels and [[abs(c) for c in v] for v in ker] == want
    return shape, dims, kernels


def cubic_eigen_analysis(t_range: int = 6) -> Report:
    """Which cubics survive the two kinds of residual isotropy.

    The scaling generator acts diagonally on the seven-element basis with
    eigenvalues t-3, ..., t+3, so a single basis cubic survives for each
    integer t in [-3, 3]. The null-rotation generator is singular only at
    t = 0 and there its kernel is spanned by x^3."""
    sc_shape, sc_dims, sc_ok = _generator_check(
        _scaling_matrix, {(i, i): F(i - 3) for i in range(7)},
        {k: 3 - k for k in range(-3, 4)}.get, t_range)
    nr_shape, nr_dims, nr_ok = _generator_check(
        _null_rotation_matrix, {(0, 1): F(1), (1, 2): F(-5), (2, 3): F(3),
                                (3, 4): F(-2), (4, 5): F(1), (5, 6): F(-3)},
        {0: 0}.get, t_range)
    return Report("cubic-eigen-analysis",
                  sc_shape and sc_ok and nr_shape and nr_ok,
                  {"scaling_matrix_is_diag_shift": sc_shape,
                   "scaling_kernel_dims": sc_dims,
                   "null_rotation_matrix_shape": nr_shape,
                   "null_rotation_kernel_dims": nr_dims})


# -- coordinate-change fixtures ------------------------------------------------------

CHAIN_SURFACE = ("75*W = 75*X*Y + (1 + 10*Z)*log(1 + 10*Z) + 40*Z",
                 ("0", "0", "0", "0"))

COORDINATE_CHANGES = {
    # graph coordinates of the source surface expressed in graph
    # coordinates of the catalog entry (rows: old x, y, z, w)
    "N10": AffineMap(((F(1, 75), F(0), F(0), F(0)),
                      (F(0), F(1), F(0), F(0)),
                      (F(0), F(0), F(1, 10), F(0)),
                      (F(0), F(0), F(4, 75), F(1, 75)))),
    "N5": AffineMap(((F(-2, 5), F(0), F(0), F(0)),
                     (F(0), F(-5), F(0), F(-1)),
                     (F(0), F(0), F(2), F(0)),
                     (F(0), F(0), F(0), F(4)))),
    "N6": AffineMap(((F(2, 5), F(0), F(0), F(0)),
                     (F(-2), F(-7), F(-6), F(2)),
                     (F(-2), F(0), F(0), F(2)),
                     (F(8), F(8), F(4), F(-8)))),
}


def coordinate_change_fixtures(order: int = 6) -> Report:
    """Explicit affine changes carrying derived surfaces onto catalog
    entries, checked as jet identities.

    The source for N10 is the solved orbit equation of the b = 6 chain
    surface; the sources for N5 and N6 are the two one-variable closed
    forms of the I1 completions."""
    cat = catalog()
    details: Dict[str, object] = {}
    ok = True

    text, bp = CHAIN_SURFACE
    chain = expand_graph(parse_surface(text, bp), order)
    sources = {"N10": chain,
               "N5": closed_form_jet("I1.1", order),
               "N6": closed_form_jet("I1.2", order)}
    for eid, src in sources.items():
        entry = cat[eid]
        target = expand_graph(parse_surface(entry.surface, entry.basepoint),
                              order)
        moved = transform_graph(src, COORDINATE_CHANGES[eid])
        same = moved == target
        details[eid] = same
        ok = ok and same
    return Report("coordinate-changes", ok, details)
