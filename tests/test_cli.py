import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from time import perf_counter

import pytest

from affine_homog import catalog, groebner, linalg, normalize, scalars, symmetry
from affine_homog.cli import _build_parser, run
from affine_homog.poly import Poly

SPHERE = ["--surface", "W^2 = X*Y + Z^2 + 1", "--basepoint", "1,0,0,0"]


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code", [(["catalog"], 0),
                                        (["verify", "--entry=Qd", "--order=2"], 2)])
def test_python_dash_m_runs_the_command_line(argv, code):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-m", "affine_homog", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code
    assert (proc.stdout.startswith("N1:") if code == 0
            else "below the determining order" in proc.stderr)


def _modules_after(code):
    """The names in sys.modules of a fresh isolated interpreter that ran
    ``code`` with the source directory as its first argument."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code + "\nprint(*sys.modules)", src],
        capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.split())


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # what the package adds to a bare interpreter, loaded as the
    # benchmark's set-up child loads it: dataclasses brings inspect, ast
    # and dis, and builds each decorated class by exec
    bare = _modules_after("import sys")
    loaded = _modules_after("import sys\nsys.path.insert(0, sys.argv[1])\n"
                            "import affine_homog.cli as cli\ncli.cat.catalog()")
    added = loaded - bare
    assert "affine_homog.symmetry" in added
    assert not added & {"dataclasses", "inspect"}


def test_expand_sphere_two_jet(capsys):
    code, out, _ = invoke(capsys, "expand", *SPHERE,
                          "--order", "2", "--format", "json")
    assert code == 0
    jet = json.loads(out)
    terms = {tuple(t["m"]): t["c"] for t in jet["terms"]}
    assert terms == {(1, 1, 0): "1/2", (0, 0, 2): "1/2"}


def test_normalize_writes_a_dependent_root_over_the_first_generator(capsys):
    # the scales sqrt(2) and sqrt(1/2) = s1/2 need one generator
    code, out, _ = invoke(capsys, "normalize", "--real=elliptic",
                          "--surface=W = X^2 + 4*Y^2 + 2*Z^2 + X^3",
                          "--basepoint=0,0,0,0", "--format=json")
    assert code == 0
    rep = json.loads(out)
    assert rep["tower"] == ["s1"]
    quadratic = {tuple(t["m"]): t["c"] for t in rep["jet"]["terms"]
                 if sum(t["m"]) == 2}
    one = {"basis": ["1", "s1"], "coords": ["1", "0"]}
    assert quadratic == {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): one}


def test_verify_catalog_entry(capsys):
    code, out, _ = invoke(capsys, "verify", "--entry", "N7",
                          "--alpha", "12/5", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["details"]["isotropy_dim"] == 1


def test_verify_normal_form_with_parameter(capsys):
    code, out, _ = invoke(capsys, "verify", "--entry", "I0.1",
                          "--b", "6", "--order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_symmetry_round_trip_through_stdin(capsys, monkeypatch):
    surface = ["--surface", "W = X*Y + Z^2 + X^3",
               "--basepoint", "0,0,0,0", "--order", "5"]
    code, expanded, _ = invoke(capsys, "expand", *surface, "--format", "json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(expanded))
    code, via_jet, _ = invoke(capsys, "symmetry", "--jet", "-",
                              "--format", "json")
    assert code == 0
    code, one_shot, _ = invoke(capsys, "symmetry", *surface,
                               "--format", "json")
    assert code == 0
    assert via_jet == one_shot


def test_order_truncates_a_jet_and_defaults_to_its_order(capsys, monkeypatch):
    surface = ["--surface", "W = X*Y + Z^2 + X^3", "--basepoint", "0,0,0,0"]
    _, jet5, _ = invoke(capsys, "expand", *surface, "--order", "5",
                        "--format", "json")

    def symmetry(*argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(jet5))
        return invoke(capsys, "symmetry", "--jet", "-", *argv,
                      "--format", "json")

    # no --order: the jet's own order with --jet, 6 without
    code, out, _ = symmetry()
    assert code == 0 and json.loads(out)["order"] == 5
    code, out, _ = invoke(capsys, "symmetry", *surface, "--format", "json")
    assert code == 0 and json.loads(out)["order"] == 6
    # at or below the jet's order: the truncated jet, as if expanded to it
    for k in ("4", "5"):
        code, via_jet, _ = symmetry("--order", k)
        assert code == 0 and json.loads(via_jet)["order"] == int(k)
        assert via_jet == invoke(capsys, "symmetry", *surface, "--order", k,
                                 "--format", "json")[1]
    # above it: a usage error
    with pytest.raises(SystemExit) as exc:
        symmetry("--order", "9")
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "affine-homog: error: --order 9 is above the jet's order 5")


def test_output_is_deterministic(capsys):
    runs = [invoke(capsys, "discover", "--case", "I1", "--format", "json")
            for _ in range(2)]
    assert runs[0] == runs[1]
    comps = json.loads(runs[0][1])["components"]
    assert [c["normal_form"] for c in comps] == ["I1.1", "I1.2"]


def test_normalize_real_signature_mismatch_exits_one(capsys):
    code, out, _ = invoke(capsys, "normalize",
                          "--surface", "W = X^2 + Y^2 + Z^2",
                          "--basepoint", "0,0,0,0",
                          "--real", "hyperbolic", "--format", "json")
    assert code == 1
    assert json.loads(out)["signature"] == "elliptic"


def test_symmetry_failure_exits_one(capsys):
    code, _, _ = invoke(capsys, "symmetry",
                        "--surface", "W = X*Y + Z^2 + X^4*Y^2",
                        "--basepoint", "0,0,0,0", "--order", "6")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    for argv in (["expand"],                           # missing --surface
                 ["expand", *SPHERE, "--order", "1"],  # order too small
                 ["verify", "--entry", "N99"],
                 ["expand", *SPHERE[:2], "--basepoint", "1,0,0"],
                 ["expand", *SPHERE, "--alpha", "x"],
                 ["discover", "--case", "bogus"],
                 ["verify", "--entry", "N7", "--order", "6"],  # no alpha
                 ["verify", "--entry", "N1", "--alpha", "2"],  # takes none
                 # a parameter the entry does not take: b on a catalog entry,
                 # an ad-hoc surface or a normal form without one, alpha on
                 # any normal form
                 ["verify", "--entry=N1", "--b=3"],
                 ["verify", *SPHERE, "--b=3"],
                 ["verify", "--entry=Qd", "--b=3"],
                 ["verify", "--entry=I2", "--alpha=3"],
                 ["verify", "--entry=Qd", "--alpha=3"],
                 ["verify", "--entry", "I0.1", "--order", "3"],
                 ["expand", "--surface", "W=X+", "--basepoint", "0,0,0,0"],
                 # basepoint off the surface
                 ["expand", "--surface", "W=X*Y+1", "--basepoint", "0,0,0,0"],
                 ["symmetry", "--jet", "/nonexistent/jet.json"],
                 # deeper than the parser's bound: nested brackets, and a
                 # flat sum, which parses to a left-deep tree
                 ["expand", "--surface", "W = " + "(" * 5000 + "X" + ")" * 5000,
                  "--basepoint", "0,0,0,0"],
                 ["expand", "--surface", "W = " + "+".join(["X"] * 5000),
                  "--basepoint", "0,0,0,0"],
                 # past the constant budget: the first once overran Python's
                 # 4,300-digit conversion limit, the second ran for minutes
                 ["expand", "--surface", "W = X*Y + Z^2 + 3^1000000",
                  "--basepoint", "0,0,0,0"],
                 ["expand", "--surface", "W = X*Y + Z^2 + 3^100000000",
                  "--basepoint", "0,0,0,0"],
                 # powers past the same budget through --alpha and through
                 # a 4,000-digit basepoint coordinate
                 ["expand", "--surface",
                  "W = X*Y + (Z+1)^alpha - (Z+1)^alpha",
                  "--basepoint", "0,0,0,1", "--alpha=100000000"],
                 ["expand", "--surface", "W = X*Y + Z^100 - Z^100",
                  "--basepoint", "0,0,0," + "9" * 4000],
                 # an alpha past the digit budget of a number literal, at
                 # a base of 1, where the power budget passes it
                 ["expand", "--surface",
                  "W = X*Y + (Z+1)^alpha - (Z+1)^alpha",
                  "--basepoint", "0,0,0,0", "--alpha=1" + "0" * 40],
                 ["verify", "--entry=N7", "--alpha=1/1" + "0" * 40],
                 # exponent notation, which once built 10^10000000
                 ["verify", "--entry=N7", "--alpha=1e10000000"],
                 ["verify", "--entry=I0.1", "--b=1e10000000"],
                 ["expand", *SPHERE[:2], "--basepoint", "0,0,0,1e10000000"],
                 ["real", "--order", "5"],                  # takes no order
                 # a 2-jet does not determine the cubic that normalize
                 # classifies
                 ["normalize", "--surface=W=2*X*Y+Z^2+X^3",
                  "--basepoint=0,0,0,0", "--order=2"]):
        start = perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert perf_counter() - start < 2, argv
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ": error: " in err.splitlines()[-1]


def test_malformed_jet_on_stdin_exits_two(capsys, monkeypatch):
    for raw in ("{}", '{"terms": 3, "order": 2}',
                '{"order": 3, "vars": ["a", "b", "c"], '
                '"terms": [{"m": [1, 1, 0], "c": "1"}]}',
                '{"order": 2, "terms": [{"m": [2, 0, 0], "c": '
                '{"basis": ["1", "s1"], "coords": ["1", "2"]}}]}',
                # below the order of the quadric part, and negative; not
                # an int
                *(f'{{"order": {k}, "terms": [{{"m": [2, 0, 0], "c": "1"}}]}}'
                  for k in (1, 0, -1, 6.5, "true", '"6"')),
                # exponents that are not non-negative ints
                *(f'{{"order": 4, "terms": [{{"m": {m}, "c": "1"}}, '
                  f'{{"m": [2, 0, 0], "c": "1"}}]}}'
                  for m in ("[-1, 0, 0]", "[1.5, 1, 0]", "[1, true, 0]")),
                # a monomial listed twice
                '{"order": 3, "terms": [{"m": [1, 1, 0], "c": "2"}, '
                '{"m": [0, 0, 2], "c": "1"}, {"m": [0, 0, 2], "c": "5"}]}'):
        for command in ("symmetry", "normalize"):
            monkeypatch.setattr("sys.stdin", io.StringIO(raw))
            with pytest.raises(SystemExit) as exc:
                run([command, "--jet", "-"])
            assert exc.value.code == 2, (command, raw)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines()[-1].startswith("affine-homog: error: malformed jet")
    # a well-formed 2-jet is a usage error for normalize alone
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"order": 2, "terms": [{"m": [1, 1, 0], "c": "2"}, '
        '{"m": [0, 0, 2], "c": "1"}]}'))
    with pytest.raises(SystemExit) as exc:
        run(["normalize", "--jet", "-"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("affine-homog: error: normalize needs")


def test_math_errors_exit_one(capsys):
    # excluded alpha value for N7 is a mathematical rejection, not usage
    code, _, err = invoke(capsys, "verify", "--entry", "N7", "--alpha", "2")
    assert code == 1 and "error" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_a_mathematical_failure(capsys, monkeypatch):
    closed = _ClosedPipe()
    monkeypatch.setattr("sys.stdout", closed)
    code = run(["expand", *SPHERE, "--format", "json"])
    assert code == 2
    assert capsys.readouterr().err == "error: stdout was closed\n"
    # stdout now points at the null device, so a later flush cannot raise
    assert sys.stdout is not closed and sys.stdout.name == os.devnull
    print("more", flush=True)
    sys.stdout.close()


def test_order_warning_on_stderr(capsys, monkeypatch):
    code, _, err = invoke(capsys, "expand", *SPHERE, "--order", "11")
    assert code == 0
    assert "warning" in err and "11" in err
    # a --jet input carries its own order
    code, out, _ = invoke(capsys, "expand", *SPHERE, "--order", "11",
                          "--format", "json")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, _, err = invoke(capsys, "normalize", "--jet", "-")
    assert code == 0
    assert "warning: order 11" in err


def test_catalog_listing_and_verify_all(capsys):
    code, out, _ = invoke(capsys, "catalog", "--format", "json")
    assert code == 0
    listing = json.loads(out)
    assert len(listing) == 20 and listing["N1"]["expected_isotropy"] == 4
    code, out, _ = invoke(capsys, "catalog", "--verify-all",
                          "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert len(rep["entries"]) == 20
    assert all(e["passed"] for e in rep["entries"] + rep["bookkeeping"])


def test_real_subcommand(capsys):
    code, out, _ = invoke(capsys, "real", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_text_format_renders_without_json_noise(capsys):
    code, out, _ = invoke(capsys, "verify", "--entry", "N1",
                          "--format", "text")
    assert code == 0
    assert "passed: yes" in out and "{" not in out


def test_parser_is_built_once_and_reused(capsys):
    argv = ("expand", *SPHERE, "--order", "4", "--format", "json")
    first = invoke(capsys, *argv)
    assert first[0] == 0
    for bad in (["expand", *SPHERE, "--order", "1"],  # rejected after parsing
                ["discover", "--case", "bogus"]):      # rejected by argparse
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        capsys.readouterr()
    assert invoke(capsys, *argv) == first
    assert _build_parser.cache_info().misses == 1


def test_parametric_verify_runs_few_polynomial_gcds(capsys, monkeypatch):
    # RationalFunc pays for a gcd only where a result can share a factor
    # with its denominator, which a normal form's systems almost never do
    calls = []
    gcd = scalars._ugcd
    monkeypatch.setattr(scalars, "_ugcd", lambda a, b: calls.append(1) or gcd(a, b))
    code, out, _ = invoke(capsys, "verify", "--entry=I0.2", "--order=6",
                          "--format", "json")
    assert code == 0 and json.loads(out)["passed"] is True
    assert len(calls) < 100


@pytest.mark.parametrize("argv, builds", [
    # the free solve at 5 (all twenty columns), the isotropy check at 6
    # (degree 6 of the matrix columns its candidates read), then order 7:
    # the restriction by degree 6 of the columns the order-6 basis reads,
    # and the isotropy check in degree 7
    (["verify", "--entry=N6", "--order=6"],
     [(5, 0, 20), (6, 6, 8), (6, 6, 14), (7, 7, 8)]),
    (["symmetry", *SPHERE], [(5, 0, 20), (6, 6, 6)]),
    # the free solve of the base jet (order 4) at 3; the residuals of the
    # series completion at 4 (every degree) and 5 (degree 5 alone), on the
    # columns its three fields read; the completed jet's restriction of
    # the base jet's solve by degrees 4..5, and its isotropy check in
    # degree 6
    (["verify", "--entry=I1.1"],
     [(3, 0, 20), (4, 0, 12), (5, 5, 12), (5, 4, 13), (6, 6, 3)]),
])
def test_each_build_has_its_own_order_and_degrees(capsys, monkeypatch, argv, builds):
    # every solve and residual builds, from its own jet, only the columns
    # its fields read, at its own order and in the degrees it reads:
    # (order, lowest degree, number of columns) of each build
    calls = []
    columns = symmetry.tangency_columns

    def recorded(F, M, ks, lo=0):
        calls.append((M, lo, len(ks)))
        return columns(F, M, ks, lo)

    monkeypatch.setattr(symmetry, "tangency_columns", recorded)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out
    assert calls == builds


def test_normal_form_verify_solves_tangency_once(capsys, monkeypatch):
    # the base jet's free solve gives the gauged and ungauged families, and
    # the completed jet's algebra restricts it instead of solving afresh
    calls = []
    solve = symmetry.solve_tangency
    counted = lambda *a, **k: calls.append(1) or solve(*a, **k)
    monkeypatch.setattr(symmetry, "solve_tangency", counted)
    monkeypatch.setattr(catalog, "solve_tangency", counted)
    code, out, _ = invoke(capsys, "verify", "--entry=I0.2", "--order=6")
    assert code == 0 and out
    assert len(calls) == 1


def test_catalog_verify_differentiates_each_jet_once(capsys, monkeypatch):
    # the four column builds of N6 (free solve at 5 and isotropy at 6 on
    # the jet truncated to 6, restriction and isotropy at 7 on the jet at
    # 7) read two gradients of three partials each; the other 19 partials
    # are the normalization of the 3-jet (16 in its trace decomposition and
    # the three partials of its trace-free cubic, whose span is its class)
    calls = []
    partial = Poly.partial
    monkeypatch.setattr(Poly, "partial",
                        lambda p, name: calls.append(name) or partial(p, name))
    code, out, _ = invoke(capsys, "verify", "--entry=N6", "--order=6")
    assert code == 0 and out
    assert len(calls) == 6 + 19


@pytest.mark.parametrize("argv, solves", [
    (("verify", "--entry=N6", "--order=6"), 0),
    (("normalize", "--surface=W = X*Y + Z^2 + X*Z^2", "--basepoint=0,0,0,0",
      "--order=6"), 1),
], ids=["verify", "normalize"])
def test_normalization_solves_the_graph_only_to_print_its_jet(
        capsys, monkeypatch, argv, solves):
    # the class and the Pick invariant are read through the composed
    # change with no series solve; `normalize` solves the jet it prints
    # once, though this surface's cubic needs a shear
    calls = []
    transform = normalize.transform_graph
    counted = lambda *a: calls.append(1) or transform(*a)
    monkeypatch.setattr(normalize, "transform_graph", counted)
    monkeypatch.setattr(catalog, "transform_graph", counted)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out
    assert len(calls) == solves


def test_bracket_closure_runs_no_elimination(capsys, monkeypatch):
    # full_algebra reduces each bracket in the basis's free coordinates, so
    # the only eliminations left are the tangency solves, the ranks and
    # normalize's (the closure check used to add one per bracket: 33 calls)
    calls = []
    solve_rows = linalg.solve_rows
    counted = lambda *a: calls.append(1) or solve_rows(*a)
    for module in (linalg, normalize, symmetry, catalog):
        if hasattr(module, "solve_rows"):
            monkeypatch.setattr(module, "solve_rows", counted)
    code, out, _ = invoke(capsys, "verify", "--entry=N6", "--order=6")
    assert code == 0 and out
    assert len(calls) <= 23


@pytest.mark.parametrize("argv", (("verify", "--entry=I0.1", "--order=6"),
                                  ("discover", "--case=I1")))
def test_completion_runs_no_elimination(capsys, monkeypatch, argv):
    # complete_series integrates the gradient its residuals fix, so no
    # elimination runs inside it (it used to run one per completed order)
    inside, calls, completions = [], [], []
    solve_rows, complete = linalg.solve_rows, catalog.complete_series

    def completing(*a):
        inside.append(1)
        try:
            return complete(*a)
        finally:
            inside.pop()
            completions.append(1)

    def counted(*a):
        if inside:
            calls.append(1)
        return solve_rows(*a)

    monkeypatch.setattr(catalog, "complete_series", completing)
    monkeypatch.setattr(linalg, "solve_rows", counted)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out
    assert completions and calls == []


def test_discover_computes_each_pair_lcm_once(capsys, monkeypatch):
    # buchberger computes each S-pair's lcm once, when the pair is queued,
    # not in a sort key on every selection
    calls = []
    lcm = groebner._lcm
    monkeypatch.setattr(groebner, "_lcm", lambda a, b: calls.append(1) or lcm(a, b))
    code, out, _ = invoke(capsys, "discover", "--case=I2", "--format", "json")
    assert code == 0 and json.loads(out)["components"]
    assert len(calls) < 2000


def test_discover_renders_polynomials_only_to_break_ties(capsys, monkeypatch):
    # the linear elimination picks its pivot polynomial by size and renders
    # text only to order pivot polynomials of the same size
    calls = []
    text = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda p: calls.append(1) or text(p))
    code, out, _ = invoke(capsys, "discover", "--case=I2")
    assert code == 0 and out
    assert len(calls) < 150
