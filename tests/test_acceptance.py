"""Acceptance suite. Each test prints one pass/fail line; run with -s to
see them as the suite executes."""

import importlib.util
import time
from fractions import Fraction as F
from pathlib import Path

from affine_homog import catalog as cat
from affine_homog.normalize import (cubic_basis, partials_span_dimension,
                                    pick_invariant)
from affine_homog.poly import Poly
from affine_homog.symmetry import (AffineVectorField, closure_constraints,
                                   full_algebra, pqr_families, solve_tangency)
from test_normalize import HYP, cubic_type

XYZ = ("x", "y", "z")


def _report(num, label, ok):
    print(f"criterion {num:2d} ({label}): {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_sphere_series():
    t0 = time.perf_counter()
    j4 = cat.sphere_series(+1, order=4)
    expected = Poly(XYZ, {(1, 1, 0): F(2), (0, 0, 2): F(1), (2, 2, 0): F(4),
                          (1, 1, 2): F(4), (0, 0, 4): F(1)})
    ok = j4.poly == expected
    alg = full_algebra(cat.sphere_series(+1, order=8), 8)
    ok = ok and alg.closed and alg.tangency_ok
    ok = ok and time.perf_counter() - t0 < 5
    _report(1, "degree-two branch series", ok)


def test_criterion_02_two_point_discovery():
    t0 = time.perf_counter()
    f = cat.case_jet("I1")
    fams = pqr_families(solve_tangency(f), cat.CUBIC_CASES["I1"].gauge)
    free = sum(len(g.free) for g in fams)
    cons = closure_constraints(f, *fams)
    comps = cat.discover("I1")
    ok = free == 18 and len(cons) == 41
    ok = ok and [c.kind for c in comps] == ["point", "point"]
    ok = ok and [c.normal_form for c in comps] == ["I1.1", "I1.2"]
    expected = {
        "I1.1": (((F(-5, 2), 0, 0, 0), (0, 0, 0, F(1, 2)),
                  (0, 0, F(1, 4), 0), (0, 2, 0, F(-3, 2))),
                 ((0, 0, 0, 0), (F(-1, 2), 0, 0, 0),
                  (0, 0, 0, 0), (2, 0, 0, 0)),
                 ((0, 0, 0, 0), (0, 0, 2, 0),
                  (0, 0, 0, 0), (0, 0, 2, 0))),
        "I1.2": (((F(5, 2), 0, 0, 0), (0, 0, 0, F(-3, 4)),
                  (0, 0, F(11, 4), 0), (0, 2, 0, F(7, 2))),
                 ((0, 0, 0, 0), (F(-1, 2), 0, 0, 0),
                  (0, 0, 0, 0), (2, 0, 0, 0)),
                 ((0, 0, 0, 0), (0, 0, F(-1, 2), 0),
                  (F(5, 2), 0, 0, 0), (0, 0, 2, 0))),
    }
    for comp in comps:
        got = tuple(AffineVectorField.from_coords(g.member(comp.assignments)).A
                    for g in fams)
        want = tuple(tuple(tuple(F(c) for c in row) for row in m)
                     for m in expected[comp.normal_form])
        ok = ok and got == want
    ok = ok and time.perf_counter() - t0 < 60
    _report(2, "two-point discovery, exact matrices", ok)


def test_criterion_03_completions_and_closed_forms():
    comps = cat.discover("I1")
    quartics = {c.normal_form: c.jet.homogeneous_part(4) for c in comps}
    ok = quartics["I1.1"] == Poly(XYZ, {(3, 1, 0): F(1, 2), (2, 0, 2): F(-1)})
    ok = ok and quartics["I1.2"] == Poly(
        XYZ, {(3, 1, 0): F(1, 2), (2, 0, 2): F(21, 4)})
    for nf in ("I1.1", "I1.2"):
        rep = cat.confirm_isotropy(nf, order=6)
        ok = ok and rep.passed
        ok = ok and cat.closed_form_jet(nf, 6) == rep.details["completed_jet"]
    _report(3, "order-4 completions match closed forms", ok)


def test_criterion_04_catalog_sweep():
    ok = True
    expected = [4, 3, 2] + [1] * 17
    for k in range(1, 21):
        eid = f"N{k}"
        alpha = cat.SWEEP_ALPHAS.get(eid)
        t0 = time.perf_counter()
        r6 = cat.verify_entry(eid, alpha=alpha, order=6)
        t1 = time.perf_counter()
        r7 = cat.verify_entry(eid, alpha=alpha, order=7)
        t2 = time.perf_counter()
        ok = ok and r6.passed and r7.passed
        ok = ok and t1 - t0 < 10 and t2 - t1 < 10
        ok = ok and r6.details["isotropy_dim"] == expected[k - 1]
        ok = ok and r7.details["isotropy_dim"] == expected[k - 1]
    _report(4, "all twenty entries verify at orders 6 and 7", ok)


def test_criterion_05_negative_suite():
    r = cat.reject_variant("v1")
    ok = (r.passed and r.details["closed_at_4"] is True
          and r.details["order_4_algebra_fails_at_5"] is True
          and r.details["first_failing_order"] == 5)
    for vid in ("v2", "v3", "v4", "v5", "v6"):
        ok = ok and cat.reject_variant(vid).passed
    rep = cat.replacement_check()
    ok = (ok and rep.passed and rep.details["same_4_jet_as_v1"]
          and rep.details["5_jets_differ"])
    _report(5, "six variants rejected, replacement passes", ok)


def test_criterion_06_quadric_rigidity():
    rep = cat.quadric_rigidity(max_order=8)
    rep2 = cat.verify_entry("N1", order=6)
    ok = rep.passed and rep2.passed and rep2.details["isotropy_dim"] == 4
    _report(6, "dilation tangency forces the quadric", ok)


def test_criterion_07_no_cubic_family():
    comps = cat.discover("no-cubic")
    live = [c for c in comps if c.duplicate_of is None]
    ok = len(live) == 1 and live[0].kind == "family"
    fam = live[0]
    h4 = fam.jet.homogeneous_part(4)
    k = h4.coefficient((2, 2, 0))
    # the whole family is one pencil: k(x^2y^2 + xyz^2 + z^4/4), k free
    pencil = Poly(XYZ, {(2, 2, 0): k, (1, 1, 2): k, (0, 0, 4): k / 4})
    ok = ok and h4 == pencil and not k.is_constant()
    ok = ok and fam.normal_form == "Sp"  # generic member rescales onto Sp
    ok = ok and all(c(F(0)) == 0 for c in h4.terms.values())  # k=0 is Qd
    ok = ok and cat.match_component("no-cubic", cat.base_jet("Qd"))[0] == "Qd"
    ok = ok and cat.match_component("no-cubic", cat.base_jet("Sp"))[0] == "Sp"
    _report(7, "one-parameter family splits into the two branches", ok)


def test_criterion_08_overlap_identities():
    rep = cat.overlap_identities()
    ok = rep.passed and set(rep.details) == {
        "I0.1=I0.2 at b=1", "I0.1=I0.3 at b=-4", "I0.2=I0.3 at b=7/2"}
    _report(8, "quartic coefficient overlaps", ok)


def test_criterion_09_cubic_invariants():
    basis = cubic_basis()
    reps = [basis[0], basis[1], basis[2], basis[3]]
    ok = [pick_invariant(c, HYP) for c in reps] == [0, 0, 0, F(5, 2)]
    ok = ok and [partials_span_dimension(c) for c in reps] == [1, 2, 3, 3]
    ok = ok and [cubic_type(c, HYP) for c in reps] == ["I3", "I2", "I1", "I0"]
    _report(9, "Pick invariant, partials span, cubic types", ok)


def test_criterion_10_eigen_analysis():
    rep = cat.cubic_eigen_analysis(t_range=6)
    _report(10, "scaling and null-rotation spectra on cubics", rep.passed)


def test_criterion_11_real_suite():
    rep = cat.real_catalog_checks()
    neg = cat.sphere_series(-1, order=4)
    expected = Poly(XYZ, {(1, 1, 0): F(2), (0, 0, 2): F(1), (2, 2, 0): F(-4),
                          (1, 1, 2): F(-4), (0, 0, 4): F(-1)})
    ok = rep.passed and neg.poly == expected
    _report(11, "real variants and the complex substitution", ok)


def test_criterion_12_coordinate_change_fixtures():
    rep = cat.coordinate_change_fixtures(order=6)
    _report(12, "coordinate-change fixtures at order 6", rep.passed)


def test_criterion_13_property_suites_configured():
    path = Path(__file__).with_name("test_properties.py")
    spec = importlib.util.spec_from_file_location("prop_suite", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    wanted = ["jet", "bracket", "tangency", "trace", "groebner", "completion"]
    names = [n for n in dir(mod) if n.startswith("test_")]
    ok = all(any(w in n for n in names) for w in wanted)
    for n in names:
        s = getattr(getattr(mod, n), "_hypothesis_internal_use_settings", None)
        ok = ok and s is not None and s.max_examples >= 200
    _report(13, "randomized suites cover the laws at >=200 cases", ok)
