"""Byte-identity of CLI output against the benchmark's recorded digests.

``perfbench/reference.json`` maps each benchmark argv (joined by spaces)
to the sha256 of its stdout. These tests replay every entry: the
discover, normal-form and N6 ops, and then the other catalog-entry ops.
A change to the exact output fails here and not only in a benchmark run.
The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from affine_homog import catalog as cat
from affine_homog.cli import CASES, run

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())

KEYS = ([f"discover --case={case} --format=json" for case in CASES]
        + [f"verify --entry={nf} --order=6 --format=json"
           for nf in cat.NORMAL_FORM_IDS]
        + ["verify --entry=I0.1 --order=6 --format=json --b=6",
           "verify --entry=N6 --order=6 --format=json"])


def test_keys_cover_the_guarded_ops():
    assert len(KEYS) == 18
    assert set(KEYS) <= set(REFERENCE)


# every other catalog-entry op: N1..N20 at their pooled alpha values
ENTRY_KEYS = sorted(k for k in REFERENCE
                    if k.startswith("verify --entry=N") and k not in KEYS)


def _replay(key, capsys):
    assert run(key.split(" ")) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE[key]


def test_every_reference_key_is_replayed():
    assert len(ENTRY_KEYS) == 41
    assert set(KEYS) | set(ENTRY_KEYS) == set(REFERENCE)


@pytest.mark.parametrize("key", KEYS)
def test_stdout_matches_reference_digest(key, capsys):
    _replay(key, capsys)


@pytest.mark.parametrize("key", ENTRY_KEYS)
def test_entry_stdout_matches_reference_digest(key, capsys):
    _replay(key, capsys)
