#!/usr/bin/env python3
"""Record reference.json: the sha256 of the stdout of every op whose
argv is known in advance (see workloads.reference_ops).

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose output is the
reference; the benchmark then requires byte-identical stdout for these ops.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from affine_homog import cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for op in workloads.reference_ops():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(list(op.argv))
        if rc != 0:
            print(f"{op.key}: exit {rc}", file=sys.stderr)
            return 1
        digests[op.key] = workloads.digest(out.getvalue())
    workloads.REFERENCE_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} references written to {workloads.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
