"""Byte-identity of `expand`, `normalize` and `symmetry` output for the
catalog entries, for three definite quadrics normalized over the reals, for
an indefinite quadric whose normalization adjoins a square root (over the
complex numbers and over the hyperbolic reals), of the completed normal
forms of `verify --entry=NF` (over symbolic b and at b = 3/2), of
`symmetry --jet -` on each normal form's completed jet (at b = 3/2 for the
parametric ones), of the default text output of `discover --case=C` for
each of the six cubic cases, of the catalog-wide `catalog` (with and
without `--verify-all`) and `real` reports, and of `verify --surface` on an
ad-hoc surface that passes (N6) and one that fails (variant v1 at order 5).

``cli_digests.json`` holds, for each argv below, the exit code and the
sha256 of stdout recorded from an earlier version of the program. These
tests replay them, so a change to jet expansion, normalization, the
tangency solves, the closure constraints or the series completion that
alters any printed coefficient or basis field fails here. A `symmetry --jet -` run reads its
jet on stdin; its key is the argv followed by `<` and the `verify` argv
whose completed jet it reads. One more test replays the whole table in a
fresh process under a fixed `PYTHONHASHSEED`, so output that followed the
hash order of a set or a dict would fail there.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from affine_homog import catalog as cat
from affine_homog.cli import CASES, run

DATA = Path(__file__).with_name("cli_digests.json")

COMMANDS = (["expand", "--order=8"],
            ["normalize", "--order=6"],
            ["normalize", "--order=5", "--real=hyperbolic"],
            ["symmetry", "--order=6"],
            ["symmetry", "--order=7"])

# definite quadrics normalized over the reals, adjoining 0, 1 and 2 square roots
ELLIPTIC = ("W = X^2 + Y^2 + Z^2",
            "W = -X^2 - 7*Y^2 - Z^2 + Y^3",
            "W = X^2 + 2*Y^2 + 3*Z^2 + X^3")

# an indefinite quadric with no rational isotropic vector: `normalize --order=6`
# and `normalize --order=5 --real=hyperbolic` each adjoin s1
TOWER = "W = X^2 + Y^2 - 3*Z^2"


def argvs():
    out = []
    entries = cat.catalog()
    for eid in sorted(entries, key=lambda s: int(s[1:])):
        e = entries[eid]
        spec = ["--surface=" + e.surface,
                "--basepoint=" + ",".join(str(c) for c in e.basepoint)]
        if eid in cat.SWEEP_ALPHAS:
            spec.append(f"--alpha={cat.SWEEP_ALPHAS[eid]}")
        for cmd in COMMANDS:
            out.append(cmd + spec + ["--format=json"])
    for surface in ELLIPTIC:
        out.append(["normalize", "--order=5", "--real=elliptic",
                    "--surface=" + surface, "--basepoint=0,0,0,0",
                    "--format=json"])
    for cmd in COMMANDS[1:3]:
        out.append(cmd + ["--surface=" + TOWER, "--basepoint=0,0,0,0",
                          "--format=json"])
    for nf in cat.NORMAL_FORM_IDS:
        out.append(["verify", "--entry=" + nf, "--order=8", "--format=json"])
        if cat.NORMAL_FORMS[nf].parametric:
            out.append(["verify", "--entry=" + nf, "--order=8", "--b=3/2",
                        "--format=json"])
    for case in CASES:
        out.append(["discover", "--case=" + case])
    out.append(["catalog", "--format=json"])
    out.append(["catalog", "--verify-all", "--format=json"])
    out.append(["real", "--format=json"])
    n6 = entries["N6"]
    v1_text, v1_bp = cat.VARIANTS["v1"]
    for surface, bp, order in ((n6.surface, n6.basepoint, []),
                               (v1_text, v1_bp, ["--order=5"])):
        out.append(["verify", "--surface=" + surface,
                    "--basepoint=" + ",".join(str(c) for c in bp)]
                   + order + ["--format=json"])
    return out


SYMMETRY_STDIN = ["symmetry", "--jet", "-", "--format=json"]


def jet_sources():
    """The `verify` argv whose completed jet each `symmetry --jet -` run
    reads: one per normal form, at b = 3/2 for the parametric ones."""
    return [["verify", "--entry=" + nf, "--order=8"]
            + (["--b=3/2"] if cat.NORMAL_FORMS[nf].parametric else []) + ["--format=json"]
            for nf in cat.NORMAL_FORM_IDS]


def stdin_key(source):
    return " ".join(SYMMETRY_STDIN + ["<"] + source)


def completed_jet(source) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(list(source)) == 0
    return json.dumps(json.loads(buf.getvalue())["details"]["completed_jet"])


def run_on_stdin(argv, text):
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        return run(list(argv))
    finally:
        sys.stdin = stdin


def _entry(code, out):
    return {"exit": code,
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_argv_is_recorded():
    keys = [" ".join(a) for a in argvs()] + [stdin_key(s) for s in jet_sources()]
    assert len(keys) == 141
    assert set(keys) == set(RECORDED)


@pytest.mark.parametrize("argv", argvs(), ids=lambda a: " ".join(a))
def test_output_matches_recorded_digest(argv, capsys):
    code = run(list(argv))
    assert _entry(code, capsys.readouterr().out) == RECORDED[" ".join(argv)]


@pytest.mark.parametrize("source", jet_sources(), ids=stdin_key)
def test_symmetry_of_completed_jet_matches_recorded_digest(source, capsys):
    jet = completed_jet(source)
    code = run_on_stdin(SYMMETRY_STDIN, jet)
    assert _entry(code, capsys.readouterr().out) == RECORDED[stdin_key(source)]


def table():
    """The exit code and stdout digest of every argv, as this program
    gives them."""
    out = {}
    for argv in argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(list(argv))
        out[" ".join(argv)] = _entry(code, buf.getvalue())
    for source in jet_sources():
        jet = completed_jet(source)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_on_stdin(SYMMETRY_STDIN, jet)
        out[stdin_key(source)] = _entry(code, buf.getvalue())
    return out


def test_output_does_not_depend_on_the_hash_seed():
    # the whole table once more, in a fresh process under a fixed seed
    # (pytest's own process draws a random one)
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, test_cli_digests as t; print(json.dumps(t.table()))"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": "3", "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == RECORDED


if __name__ == "__main__":
    DATA.write_text(json.dumps(table(), indent=1, sort_keys=True) + "\n")
