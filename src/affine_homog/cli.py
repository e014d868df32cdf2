"""Command line interface.

JSON is the machine interface: every subcommand builds a JSON-serializable
report and the text format is rendered from it, so identical invocations
produce byte-identical output.

Exit codes: 0 success/pass, 1 mathematical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog as cat
from .frontend import MAX_DIGITS, expand_graph, parse_surface
from .jets import Jet
from .normalize import normalize_jet
from .poly import XYZ
from .scalars import InputError, parse_rational
from .symmetry import full_algebra

DEFAULT_ORDER = 6
ORDER_WARNING = 10

ENTRY_IDS = tuple(f"N{k}" for k in range(1, 21))
CASES = tuple(cat.CUBIC_CASES)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: an
    argparse parser is a cyclic object graph, and in-process callers run
    many commands."""
    parser = argparse.ArgumentParser(
        prog="affine-homog",
        description="Exact verification toolkit for homogeneous graph "
                    "hypersurfaces in affine four-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jet_input=False):
        # None lets _load_jet keep the order of a --jet
        p.add_argument("--order", type=int,
                       default=None if jet_input else DEFAULT_ORDER,
                       help=f"truncation order (default {DEFAULT_ORDER}"
                            f"{', or that of --jet' if jet_input else ''})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--surface", help="defining equation in W,X,Y,Z")
        p.add_argument("--basepoint", help="basepoint as W,X,Y,Z rationals")
        p.add_argument("--alpha", help="rational binding for alpha")
        if jet_input:
            p.add_argument("--jet", help="JSON jet input: a path, or - for stdin")

    p = sub.add_parser("expand", help="expand a graph jet at a basepoint")
    common(p)

    p = sub.add_parser("normalize", help="normalize a jet to the reference "
                                         "quadratic and trace-free cubic")
    common(p, jet_input=True)
    p.add_argument("--real", choices=("hyperbolic", "elliptic"),
                   help="normalize over the reals and require this signature")

    p = sub.add_parser("symmetry", help="symmetry algebra of a graph jet")
    common(p, jet_input=True)

    p = sub.add_parser("verify", help="verify a catalog entry or normal form")
    common(p)
    p.add_argument("--entry", help="catalog id N1..N20 or a normal form id")
    p.add_argument("--b", dest="b", help="rational parameter for a "
                                         "parametric normal form")

    p = sub.add_parser("discover", help="recover normal forms from the "
                                        "closure equations of a cubic case")
    p.add_argument("--case", choices=CASES, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("catalog", help="catalog-wide checks")
    p.add_argument("--verify-all", action="store_true",
                   help="verify all twenty entries plus the parameter "
                        "bookkeeping; exit 0 only if everything passes")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("real", help="real-coefficient catalog checks")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


# -- input plumbing ---------------------------------------------------------------

def _parse_basepoint(text: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise InputError("basepoint must be four comma-separated rationals")
    return tuple(parse_rational(s) for s in parts)


def _load_jet(args) -> Jet:
    if getattr(args, "jet", None):
        if args.jet == "-":
            raw = sys.stdin.read()
        else:
            try:
                with open(args.jet, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read --jet: {exc}") from exc
        F = Jet.from_json(json.loads(raw))
        # the pipeline names the graph's coordinates x, y, z
        if F.vars != XYZ:
            raise InputError(f"malformed jet JSON (vars {list(F.vars)} "
                             f"are not {list(XYZ)})")
        if F.order < 2:
            raise InputError(f"malformed jet JSON (order {F.order} is below 2)")
        if args.order is None:
            _check_order(F.order)
            return F
        if args.order > F.order:
            raise InputError(f"--order {args.order} is above the jet's "
                             f"order {F.order}")
        return F.truncate(args.order)
    spec = parse_surface(args.surface, _parse_basepoint(args.basepoint),
                         alpha=args.alpha)
    return expand_graph(spec, DEFAULT_ORDER if args.order is None
                        else args.order)


def _require(parser, args, *names):
    for n in names:
        if getattr(args, n, None) is None:
            parser.error(f"--{n.replace('_', '-')} is required here")


def _check_order(order: int):
    if order < 2:
        raise InputError("order must be at least 2")
    if order > ORDER_WARNING:
        print(f"warning: order {order} may be slow "
              "(exact coefficients grow quickly)", file=sys.stderr)


# -- output plumbing ---------------------------------------------------------------

def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_render_text_scalar(v)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(f"{pad}- {_render_text_scalar(v)}"
                         if not isinstance(v, (dict, list)) or not v
                         else f"{pad}-\n{_render_text(v, indent + 1)}"
                         for v in obj)
    return pad + _render_text_scalar(obj)


def _render_text_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None or (isinstance(v, (list, dict)) and not v):
        return "none"
    return str(v)


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(_render_text(obj))


# -- subcommands ---------------------------------------------------------------

def _cmd_expand(parser, args) -> int:
    _require(parser, args, "surface", "basepoint")
    F = _load_jet(args)
    _emit(F.to_json(), args.format)
    return 0


def _cmd_normalize(parser, args) -> int:
    if not args.jet:
        _require(parser, args, "surface", "basepoint")
    F = _load_jet(args)
    if F.order < 3:
        raise InputError(f"normalize needs a jet of order 3 or more (order "
                         f"{F.order} does not determine the cubic)")
    fld = "real" if args.real else "complex"
    rep = normalize_jet(F, fld)
    out = rep.to_json()
    _emit(out, args.format)
    if args.real and rep.form.signature != args.real:
        return 1
    return 0


def _cmd_symmetry(parser, args) -> int:
    if not args.jet:
        _require(parser, args, "surface", "basepoint")
    F = _load_jet(args)
    alg = full_algebra(F)
    _emit(alg.to_json(), args.format)
    return 0 if alg.closed and alg.tangency_ok else 1


def _cmd_verify(parser, args) -> int:
    if args.entry in ENTRY_IDS:
        if args.b is not None:
            raise InputError(f"{args.entry} takes no b")
        alpha = parse_rational(args.alpha) if args.alpha else None
        rep = cat.verify_entry(args.entry, alpha=alpha, order=args.order)
    elif args.entry in cat.NORMAL_FORM_IDS:
        if args.alpha is not None:
            raise InputError(f"{args.entry} takes no alpha")
        b = parse_rational(args.b) if args.b else None
        rep = cat.confirm_isotropy(args.entry, b=b, order=args.order)
    elif args.entry is not None:
        parser.error(f"unknown entry {args.entry!r}")
    elif args.surface:
        _require(parser, args, "basepoint")
        if args.b is not None:
            raise InputError("--surface takes no b")
        F = _load_jet(args)
        alg = full_algebra(F)
        rep = cat.Report("verify:ad-hoc", cat.homogeneous(alg),
                         {"surface": args.surface, "order": args.order,
                          "algebra": alg})
    else:
        parser.error("verify needs --entry or --surface/--basepoint")
    _emit(rep.to_json(), args.format)
    return 0 if rep.passed else 1


def _cmd_discover(parser, args) -> int:
    comps = cat.discover(args.case)
    out = {"case": args.case,
           "components": [c.to_json() for c in comps]}
    _emit(out, args.format)
    unresolved = any(c.kind == "residual" for c in comps)
    return 1 if unresolved or not comps else 0


def _cmd_catalog(parser, args) -> int:
    entries = cat.catalog()
    if not args.verify_all:
        out = {eid: {"surface": e.surface,
                     "basepoint": [str(c) for c in e.basepoint],
                     "expected_isotropy": e.expected_isotropy}
               for eid, e in entries.items()}
        _emit(out, args.format)
        return 0
    reports = []
    ok = True
    for eid in sorted(entries, key=lambda s: int(s[1:])):
        rep = cat.verify_entry(eid, alpha=cat.SWEEP_ALPHAS.get(eid),
                               order=args.order)
        reports.append(rep)
        ok = ok and rep.passed
    extra = [cat.overlap_identities(), cat.check_overlaps_and_maps()]
    ok = ok and all(r.passed for r in extra)
    out = {"passed": ok,
           "entries": [{"name": r.name, "passed": r.passed} for r in reports],
           "bookkeeping": [{"name": r.name, "passed": r.passed}
                           for r in extra]}
    _emit(out, args.format)
    return 0 if ok else 1


def _cmd_real(parser, args) -> int:
    rep = cat.real_catalog_checks()
    _emit(rep.to_json(), args.format)
    return 0 if rep.passed else 1


DISPATCH = {
    "expand": _cmd_expand,
    "normalize": _cmd_normalize,
    "symmetry": _cmd_symmetry,
    "verify": _cmd_verify,
    "discover": _cmd_discover,
    "catalog": _cmd_catalog,
    "real": _cmd_real,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", None) is not None:
            _check_order(args.order)
        if getattr(args, "alpha", None) is not None:
            a = parse_rational(args.alpha)  # a long one passes the power budget at base 1
            if max(abs(a.numerator), a.denominator) >= 10 ** MAX_DIGITS:
                raise InputError(f"--alpha has more than {MAX_DIGITS} digits "
                                 "in its numerator or denominator")
        if getattr(args, "basepoint", None) is not None:
            _parse_basepoint(args.basepoint)
        code = DISPATCH[args.command](parser, args)
        # a reader that went away shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered for the closed pipe goes to the null
        # device, so that the flush at exit does not raise again
        sys.stdout = open(os.devnull, "w")
        print("error: stdout was closed", file=sys.stderr)
        return 2
    except (InputError, json.JSONDecodeError) as exc:
        parser.error(str(exc))
    except (ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
