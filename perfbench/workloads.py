"""Seeded operation lists for the benchmark workloads, and the checks on
each operation's output.

An operation (op) is one argv for ``affine_homog.cli.run``; a pass runs a
workload's op list once. A workload's list depends only on the seed, which
also fixes the order of the ops. Values are passed as ``--opt=value``
because argparse reads a separate value that starts with ``-`` (a negative
alpha or basepoint) as an option.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from affine_homog import catalog as cat
from affine_homog.frontend import DomainError, ParseError, expand_graph, parse_surface

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ENTRY_IDS = tuple(f"N{k}" for k in range(1, 21))
CASES = ("no-cubic", "I3", "I2", "I1", "I0", "Inr")

# Alpha values per parametric entry: catalog.SWEEP_ALPHAS first, then the
# alphas catalog.MAP_ROWS induce from catalog.MAP_SAMPLES that the entry
# does not exclude. Each one verifies at order 6.
ALPHA_POOL = {
    "N4": ("3",),
    "N7": ("12/5", "-1/2", "1/3", "2/3", "2/5", "4/3"),
    "N11": ("4/3", "4/9", "-4", "4/5", "8/7"),
    "N13": ("5/3", "15/4", "5/2", "3/2", "3", "12/5"),
    "N16": ("5", "4", "7/3", "37/13", "19/6", "-1", "73/27", "71/29", "149/51"),
}

# Cubic class of each entry. catalog.MAP_ROWS states it for N7, N11, N13
# and N16; the others are as the seed commit reports them.
CUBIC_CLASS = {"N1": "Zero", "N2": "Zero", "N3": "I3", "N4": "I2",
               "N5": "I1", "N6": "I1",
               **{f"N{k}": "I0" for k in range(7, 16)},
               **{f"N{k}": "I3" for k in range(16, 21)}}

# (kind, normal form) of each discovered component, per cubic case.
DISCOVERED = {
    "no-cubic": [["family", "Sp"]],
    "I3": [["family", "Inr"]],
    "I2": [["family", "I2"]],
    "I1": [["point", "I1.1"], ["point", "I1.2"]],
    "I0": [["family", "I0.1"], ["family", "I0.2"]],
    "Inr": [["family", "Inr"]],
}

# range of the entries of a dense-images map
DENSE_ENTRY_RANGE = 2
# images per dense-images pass
DENSE_IMAGES = 5


@dataclass
class Op:
    argv: Tuple[str, ...]
    expect: Dict[str, object]  # verdict field -> value the catalog states
    fixed: bool  # argv does not depend on the seed, so a reference is required

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, str]:
    """sha256 of the stdout of each recorded argv, recorded at the seed commit."""
    return json.loads(REFERENCE_PATH.read_text())


def verdict_fields(out) -> Dict[str, object]:
    """The fields of one JSON report that the checks compare."""
    if "components" in out:
        return {"components": [[c["kind"], c["normal_form"]]
                               for c in out["components"]]}
    fields = dict(out.get("details", out))
    if "passed" in out:
        fields["passed"] = out["passed"]
    return fields


def check(op: Op, rc, stdout: str, reference: Dict[str, str]) -> Optional[str]:
    """Why the op's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit {rc}"
    try:
        got = verdict_fields(json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError):
        return "stdout is not the expected JSON report"
    for name, want in op.expect.items():
        if got.get(name) != want:
            return f"{name} is {got.get(name)!r}, expected {want!r}"
    ref = reference.get(op.key)
    if ref is None:
        return "no reference output recorded" if op.fixed else None
    if digest(stdout) != ref:
        return "stdout differs from the reference"
    return None


# -- workloads ---------------------------------------------------------------

def _verify_entry_op(eid: str, alpha: Optional[str]) -> Op:
    entry = cat.catalog()[eid]
    argv = ["verify", f"--entry={eid}", "--order=6", "--format=json"]
    if alpha is not None:
        argv.append(f"--alpha={alpha}")
    return Op(tuple(argv),
              {"passed": True, "closed": True, "translation_rank": 3,
               "isotropy_dim": entry.expected_isotropy,
               "cubic_class": CUBIC_CLASS[eid]},
              fixed=alpha is None)


def _discover_op(case: str) -> Op:
    return Op(("discover", f"--case={case}", "--format=json"),
              {"components": DISCOVERED[case]}, fixed=True)


def _normal_form_op(nf: str, b: Optional[str] = None) -> Op:
    argv = ["verify", f"--entry={nf}", "--order=6", "--format=json"]
    if b is not None:
        argv.append(f"--b={b}")
    return Op(tuple(argv),
              {"passed": True, "closed": True, "translation_rank": 3,
               "isotropy_dim": cat.ISOTROPY_DIMS[nf]}, fixed=True)


def catalog_sweep(rng: random.Random) -> List[Op]:
    return [_verify_entry_op(eid, rng.choice(ALPHA_POOL[eid])
                             if eid in ALPHA_POOL else None)
            for eid in ENTRY_IDS]


def discover_cases(rng: random.Random) -> List[Op]:
    return [_discover_op(case) for case in CASES]


def normal_forms(rng: random.Random) -> List[Op]:
    return ([_normal_form_op(nf) for nf in cat.NORMAL_FORM_IDS]
            + [_normal_form_op("I0.1", "6")])


def _linear_text(row) -> str:
    """Integer combination of W, X, Y, Z in the surface grammar, which
    accepts a unary minus only at the start of an expression."""
    parts = []
    for c, name in zip(row, "WXYZ"):
        if c:
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return "(" + " ".join(parts) + ")"


def _inverse(m):
    """Exact inverse of a 4x4 matrix, or None when it is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def affine_image(rng: random.Random, eid: str, alpha: Optional[str]):
    """Text of a catalog surface after a seeded invertible linear change
    of (W, X, Y, Z), and the preimage of its basepoint.

    Draws are repeated, in the same seeded sequence, until the text parses
    and the image can be solved for W at the basepoint.
    """
    entry = cat.catalog()[eid]
    while True:
        m = [[rng.randint(-DENSE_ENTRY_RANGE, DENSE_ENTRY_RANGE)
              for _ in range(4)] for _ in range(4)]
        inv = _inverse(m)
        if inv is None:
            continue
        images = {name: _linear_text(row) for name, row in zip("WXYZ", m)}
        text = "".join(images.get(ch, ch) for ch in entry.surface)
        point = [sum(inv[i][j] * entry.basepoint[j] for j in range(4))
                 for i in range(4)]
        try:
            expand_graph(parse_surface(text, point, alpha), 1)
        except (DomainError, ParseError):
            continue
        return text, ",".join(str(c) for c in point)


def dense_images(rng: random.Random) -> List[Op]:
    """Images of DENSE_IMAGES entries, drawn from one image of every entry.

    A pass of all 20 images takes about 15 s, which would make a timed
    run, at least 13 passes, last over 3 minutes.
    """
    ops = []
    for eid in ENTRY_IDS:
        alpha = rng.choice(ALPHA_POOL[eid]) if eid in ALPHA_POOL else None
        text, point = affine_image(rng, eid, alpha)
        argv = ["symmetry", f"--surface={text}", f"--basepoint={point}",
                "--order=7", "--format=json"]
        if alpha is not None:
            argv.append(f"--alpha={alpha}")
        # affine invariance: the image has the entry's isotropy
        ops.append(Op(tuple(argv),
                      {"closed": True, "translation_rank": 3,
                       "isotropy_dim": cat.catalog()[eid].expected_isotropy},
                      fixed=False))
    return rng.sample(ops, DENSE_IMAGES)


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "dense-images": dense_images,
    "discover-cases": discover_cases,
    "normal-forms": normal_forms,
}


def build(workload: str, seed: int) -> List[Op]:
    """The workload's op list for this seed, in the seed's order."""
    rng = random.Random(seed)
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


def reference_ops() -> List[Op]:
    """Every op whose output has a recorded reference: all ops of the
    workloads other than dense-images, over every pooled alpha."""
    ops = [_verify_entry_op(eid, alpha)
           for eid in ENTRY_IDS for alpha in ALPHA_POOL.get(eid, (None,))]
    return (ops + discover_cases(random.Random(0))
            + normal_forms(random.Random(0)))
