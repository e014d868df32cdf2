from fractions import Fraction as F

import pytest

from affine_homog import catalog as cat
from affine_homog.frontend import expand_graph, parse_surface
from affine_homog.jets import Jet
from affine_homog.linalg import matrix_rank, nullspace
from affine_homog.normalize import (cubic_action_matrix, cubic_basis, cubic_coordinates,
                                    normalize_jet)
from affine_homog.poly import XYZ, Poly
from affine_homog.scalars import InputError, RationalFunc


def test_catalog_loads_twenty_entries():
    entries = cat.catalog()
    assert len(entries) == 20
    dims = [entries[f"N{k}"].expected_isotropy for k in range(1, 21)]
    assert dims == [4, 3, 2] + [1] * 17


def test_alpha_restrictions_recorded():
    entries = cat.catalog()
    assert entries["N7"].excluded_alphas == (F(0), F(1), F(2))
    assert entries["N16"].excluded_alphas == (F(0), F(1), F(2), F(3))
    assert not entries["N8"].uses_alpha


@pytest.mark.parametrize("eid", [f"N{k}" for k in range(1, 21)])
def test_class_and_pick_are_read_off_the_3_jet(eid):
    entry = cat.catalog()[eid]
    spec = parse_surface(entry.surface, entry.basepoint,
                         cat.SWEEP_ALPHAS.get(eid))
    jet = expand_graph(spec, 6)
    full, cubic = normalize_jet(jet), normalize_jet(jet.truncate(3))
    assert (cubic.cubic_class, cubic.pick) == (full.cubic_class, full.pick)


def test_base_jet_quartics():
    assert cat.NORMAL_FORMS["I1.1"].terms == {(3, 1, 0): (F(1, 2),), (2, 0, 2): (-1,)}
    j = cat.base_jet("I1.1")
    assert j.poly.coefficient((3, 1, 0)) == F(1, 2)
    assert j.poly.coefficient((2, 0, 2)) == F(-1)
    j = cat.base_jet("I1.2")
    assert j.poly.coefficient((2, 0, 2)) == F(21, 4)


def test_i0_quartic_formulas():
    # the table's coefficients in (1, b, b^2) are the factored formulas
    b = RationalFunc.gen("b")
    formulas = {
        "I0.1": (F(9, 4), F(-9, 2), F(15, 32) * b),
        "I0.2": (F(-9, 8) * (5 * b - 7), F(9, 8) * (5 * b - 9), F(15, 32) * b),
        "I0.3": (F(-1, 4) * (b + 1) * (b + 7), F(-1, 4) * (b * b - 7 * b - 26),
                 F(-1, 16) * (b * b - 7 * b - 14)),
    }
    for nf, want in formulas.items():
        c = cat.base_jet(nf, b).poly.coefficient
        assert (c((2, 2, 0)), c((1, 1, 2)), c((0, 0, 4))) == want
    assert cat.base_jet("I0.3", F(2)).poly.coefficient((2, 2, 0)) == F(-1, 4) * 3 * 9
    # a zero coefficient is dropped
    assert (0, 0, 4) not in cat.base_jet("I0.1", F(0)).poly.terms


@pytest.mark.parametrize("nf", cat.NORMAL_FORM_IDS)
def test_matcher_recovers_every_form_and_its_parameter(nf):
    form = cat.NORMAL_FORMS[nf]
    for b in (RationalFunc.gen("b"), F(3, 2)) if form.parametric else (None,):
        assert cat.match_component(form.case, cat.base_jet(nf, b)) == (nf, b, "")


def test_matcher_takes_a_nonzero_multiple_of_a_rescaled_quartic():
    sp = cat.base_jet("Sp")
    jet = Jet(cat.base_jet("Qd").poly + sp.homogeneous_part(4).scale(F(3)), 4)
    assert cat.match_component("no-cubic", jet) == ("Sp", F(12), cat.NORMAL_FORMS["Sp"].rescale)
    # the I3 case completes to order 4, below the x^5 term that carries b
    jet = Jet(cat.base_jet("I3").poly + Poly(XYZ, {(4, 0, 0): F(5)}), 4)
    assert cat.match_component("I3", jet) == ("Inr", F(5), cat.NORMAL_FORMS["Inr"].rescale)


@pytest.mark.parametrize("case, nf, m", [
    ("no-cubic", "Sp", (1, 1, 2)), ("I3", "I3", (3, 0, 0)), ("I2", "I2", (2, 0, 1)),
    ("I1", "I1.1", (2, 0, 2)), ("I0", "I0.2", (2, 2, 0)), ("Inr", "Inr", (3, 0, 0))])
def test_matcher_refuses_a_table_coefficient_moved_by_a_thousandth(case, nf, m):
    jet = cat.base_jet(nf, F(3, 2) if cat.NORMAL_FORMS[nf].parametric else None)
    moved = Jet(jet.poly + Poly(XYZ, {m: F(1, 1000)}), jet.order)
    assert cat.match_component(case, moved) == (None, None, "matches no normal form of the case")


def test_overlap_identities():
    rep = cat.overlap_identities()
    assert rep.passed
    assert set(rep.details) == {"I0.1=I0.2 at b=1", "I0.1=I0.3 at b=-4",
                                "I0.2=I0.3 at b=7/2"}
    # derived from the table: the forms of different cases never compare
    assert cat.overlaps() == [(("I0.1", "I0.2"), F(1)), (("I0.1", "I0.3"), F(-4)),
                              (("I0.2", "I0.3"), F(7, 2))]


def test_verify_entry_quadric_and_cubic():
    rep = cat.verify_entry("N1", order=5)
    assert rep.passed and rep.details["isotropy_dim"] == 4
    rep = cat.verify_entry("N3", order=5)
    assert rep.passed and rep.details["isotropy_dim"] == 2
    assert rep.details["cubic_class"] == "I3"


def test_verify_entry_rejects_excluded_alpha():
    with pytest.raises(ValueError):
        cat.verify_entry("N7", alpha=F(2))
    with pytest.raises(ValueError):
        cat.verify_entry("N7")  # binding required


def test_discover_i1_two_points():
    comps = cat.discover("I1")
    assert [c.kind for c in comps] == ["point", "point"]
    assert [c.normal_form for c in comps] == ["I1.1", "I1.2"]


def test_discover_i0_two_parametric_families():
    comps = cat.discover("I0")
    assert [c.kind for c in comps] == ["family", "family"]
    assert sorted(c.normal_form for c in comps) == ["I0.1", "I0.2"]
    for c in comps:
        assert c.parameter is not None and not c.parameter.is_constant()


def test_confirm_isotropy_samples():
    assert cat.confirm_isotropy("I3", order=5).passed
    assert cat.confirm_isotropy("I0.2", b=F(9, 4), order=5).passed


def test_sphere_series_negative_branch():
    j = cat.sphere_series(-1, order=4)
    # (sqrt(1+4u)-1)/2 = u - u^2 + 2u^3 - 5u^4 in u = 2xy+z^2 collapsed
    assert j.poly.coefficient((2, 2, 0)) == F(-4)
    assert j.poly.coefficient((0, 0, 4)) == F(-1)


def test_reject_variant_v1_closes_then_fails():
    rep = cat.reject_variant("v1")
    assert rep.passed
    assert rep.details["closed_at_4"] is True
    assert rep.details["first_failing_order"] == 5


def test_reject_variant_needs_the_order_of_its_recheck():
    # the order-4 algebra is re-checked at order 5, which a lower jet lacks
    with pytest.raises(InputError):
        cat.reject_variant("v1", order=4)
    rep = cat.reject_variant("v1", order=5)
    assert rep.details["order_4_algebra_fails_at_5"] is True
    assert rep.details["first_failing_order"] == 5


def test_closed_forms_match_completions_quick():
    for nf in ("I3", "I1.1"):
        cf = cat.closed_form_jet(nf, order=5)
        comp = cat.confirm_isotropy(nf, order=5).details["completed_jet"]
        assert cf == comp


def test_cubic_eigen_analysis():
    rep = cat.cubic_eigen_analysis(t_range=4)
    assert rep.passed
    assert rep.details["scaling_kernel_dims"] == {
        -4: 0, -3: 1, -2: 1, -1: 1, 0: 1, 1: 1, 2: 1, 3: 1, 4: 0}
    assert rep.details["null_rotation_kernel_dims"] == {
        k: int(k == 0) for k in range(-4, 5)}


def test_generators_are_singular_exactly_where_the_paper_says_at_every_t():
    # over Q(t) both action matrices at weight 2t are upper triangular, so
    # each determinant is its diagonal's product: (t-3)...(t+3) for the
    # scaling generator, singular for t in {-3, ..., 3} alone, and t^7 for
    # the null rotation, singular at t = 0 alone, at every rational t
    t = RationalFunc.gen("t")
    for matrix, diagonal in ((cat._scaling_matrix, [t + (i - 3) for i in range(7)]),
                             (cat._null_rotation_matrix, [t] * 7)):
        a = cubic_action_matrix(matrix(t), 2 * t)
        assert all(a[i][j] == 0 for i in range(7) for j in range(i))
        assert [a[i][i] for i in range(7)] == diagonal


def test_case_cubics_span_the_generator_kernels():
    # the cubic of each case is the one cubic its residual isotropy keeps:
    # the scaling generator at weight 2t keeps basis cubic 3-t (I3, I2, I1
    # and I0 at t = 3, 2, 1, 0), and the null rotation at t = 0 keeps x^3
    for case, matrix, t in (("I3", cat._scaling_matrix, 3), ("I2", cat._scaling_matrix, 2),
                            ("I1", cat._scaling_matrix, 1), ("I0", cat._scaling_matrix, 0),
                            ("Inr", cat._null_rotation_matrix, 0)):
        kernel = nullspace(cubic_action_matrix(matrix(F(t)), F(2 * t)), 7)
        cubic = cubic_coordinates(Poly(XYZ, cat.CUBIC_CASES[case].cubic))
        assert len(kernel) == 1 and any(cubic)
        assert matrix_rank([kernel[0], cubic]) == 1


def test_cubic_coordinates_of_basis_are_unit_vectors():
    for k, b in enumerate(cubic_basis()):
        assert cubic_coordinates(b) == [F(int(j == k)) for j in range(7)]


def test_coordinate_change_fixtures():
    assert cat.coordinate_change_fixtures(order=5).passed


def test_report_json_serializable():
    import json
    rep = cat.verify_entry("N1", order=4)
    json.dumps(rep.to_json())
