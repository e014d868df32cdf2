"""Byte-identity of the paper's checks that no command prints: the six
near-miss variants, the replacement surface, the rigidity of the bare
quadric, the cubic eigen-analysis and the coordinate-change fixtures.

Each digest is the sha256 of the check's report, rendered as the CLI
renders a report (``json.dumps(report, indent=2)``), at its default
arguments, recorded from an earlier version of the program. Print the
table afresh (only when an output change is intended) with

    PYTHONPATH=src python tests/test_paper_checks.py
"""

import hashlib
import json

import pytest

from affine_homog import catalog as cat

CHECKS = {**{f"reject_variant {vid}": (lambda vid=vid: cat.reject_variant(vid))
             for vid in cat.VARIANTS},
          "replacement_check": cat.replacement_check,
          "quadric_rigidity": cat.quadric_rigidity,
          "cubic_eigen_analysis": cat.cubic_eigen_analysis,
          "coordinate_change_fixtures": cat.coordinate_change_fixtures}

RECORDED = {
    "reject_variant v1": "24df3e5c1d4ae6fd229fe6bce1bde68f04fffb2cc5a61507396d002a0bec1355",
    "reject_variant v2": "a2948349a1cc0f795cc76c784c021791f5e3f9e6d5f259bd1397672820e17e00",
    "reject_variant v3": "a8bf3453cb8e3b892002eab38efa5f4f906fd06ed00dbb23560db080a9fa4410",
    "reject_variant v4": "e7b8c3e5c71a4c4e47d3be3c3871c027c7e4c0ddd2e20ee4354d6e57c984c145",
    "reject_variant v5": "fd98650e85ce63d7483036f56a4216c29f0607c152a9e48dd14f322aa5ca6e5f",
    "reject_variant v6": "bb9a1bb5d18a3e80c777dd110ad22889aaebcddde275f651ea3ef3df3b7613d8",
    "replacement_check": "704edf22342aac536ea3ae439470ea173df79e120507735c985da9d22916db37",
    "quadric_rigidity": "4ba4135a9e157ea6fe7a39f56eef36313920bf0c7bb4d9ac7b04b7186f999756",
    "cubic_eigen_analysis": "64e0b0460faeed42c2af967c95149c46fe1e4b71b992b66967a9f046c193bde1",
    "coordinate_change_fixtures": "cc8485452bdf392d7437d188bc3db80d9e63d8a05a15ad625048747e55ad02f1",
}


def digest(name):
    text = json.dumps(CHECKS[name]().to_json(), indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_check_is_recorded():
    assert len(CHECKS) == 10 and set(CHECKS) == set(RECORDED)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_report_matches_recorded_digest(name):
    assert digest(name) == RECORDED[name]


if __name__ == "__main__":
    for name in CHECKS:
        print(f'    "{name}": "{digest(name)}",')
