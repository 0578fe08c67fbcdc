"""Command-line front end.

Exit codes: 0 success/certified/true, 1 refuted/false, 2 unknown,
64 usage errors, 65 parse/data errors.  A command takes --budget, --out or
--witness only when it reads it.  The search budget of desingularize,
collapse, pipeline and certify comes from --budget or else the ZRK_BUDGET
environment variable; one that is not a nonnegative integer is a usage
error.  Other commands ignore ZRK_BUDGET.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import collapse as collapse_mod
from . import regular, scx, subdivide, zmaps
from .complexes import RPoint
from .exactnum import invariant_factors, parse_rat
from .regular import BudgetExhausted, is_regular
from .scx import ScxDocument, ScxError

EX_OK, EX_FALSE, EX_UNKNOWN, EX_USAGE, EX_DATA = 0, 1, 2, 64, 65


def _budget(text: str) -> int:
    """A search budget: a nonnegative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return int(text)


def _load(path: str, kind: str):
    doc = scx.load(path)
    if doc.kind != kind:
        raise ScxError(f"expected a {kind} document, found {doc.kind}", path)
    return doc.payload


def _emit(doc: ScxDocument, out: str | None) -> None:
    text = scx.print_scx(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_point_arg(text: str) -> RPoint:
    """The point of ``--at``: comma-separated 'p' or 'p/q' coordinates.  A
    bad coordinate is reported with its position, counted from 0."""
    coords = []
    for i, t in enumerate(text.split(",")):
        try:
            coords.append(parse_rat(t))
        except ValueError as exc:
            raise ValueError(f"--at coordinate {i}: {exc}") from None
    return RPoint(tuple(coords))


def _witness_dir(args) -> Path | None:
    if args.witness:
        path = Path(args.witness)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return None


def cmd_check_regular(args) -> int:
    cx = _load(args.file, "complex")
    # Faces of a regular simplex are regular.
    bad = sorted({f for s in cx.maximal_simplexes() if not is_regular(s)
                  for f in s.faces() if not is_regular(f)})
    for s in bad:
        factors = invariant_factors(s._vertex_rows)
        print(f"simplex {s} not regular: invariant factors {factors}")
    if bad:
        return EX_FALSE
    print("all simplexes regular")
    return EX_OK


def cmd_check_strongly_regular(args) -> int:
    cx = _load(args.file, "complex")
    if regular.is_strongly_regular(cx):
        print("strongly regular")
        return EX_OK
    if all(is_regular(s) for s in cx.maximal_simplexes()):
        for s in cx.maximal_simplexes():
            if not regular.is_strongly_regular_simplex(s):
                g = math.gcd(*map(regular.den, s.vertices))
                print(f"maximal simplex {s} has denominator gcd {g}")
    else:
        print("not regular")
    return EX_FALSE


def cmd_desingularize(args) -> int:
    cx = _load(args.file, "complex")
    out = regular.desingularize(cx, budget=args.budget)
    _emit(ScxDocument("complex", out), args.out)
    return EX_OK


def cmd_stellar(args) -> int:
    cx = _load(args.file, "complex")
    out = subdivide.stellar(cx, _parse_point_arg(args.at))
    _emit(ScxDocument("complex", out), args.out)
    return EX_OK


def cmd_refine(args) -> int:
    a = _load(args.file, "complex")
    b = _load(args.other, "complex")
    out = subdivide.common_refinement(a, b)
    _emit(ScxDocument("complex", out), args.out)
    return EX_OK


def cmd_restrict(args) -> int:
    a = _load(args.file, "complex")
    p = _load(args.part, "complex")
    out = subdivide.restrict(a, p)
    _emit(ScxDocument("complex", out), args.out)
    return EX_OK


def cmd_collapse(args) -> int:
    cx = _load(args.file, "complex")
    seq = collapse_mod.find_collapse_sequence(cx, budget=args.budget)
    if seq is None:
        print("no collapse sequence found within budget", file=sys.stderr)
        return EX_UNKNOWN
    print(f"collapse sequence with {len(seq.steps)} steps "
          f"ending at {seq.terminal}")
    doc = ScxDocument("sequence", seq)
    if args.out:
        _emit(doc, args.out)
    wdir = _witness_dir(args)
    if wdir:
        scx.dump(doc, wdir / "collapse_sequence.scx")
    return EX_OK


def cmd_replay(args) -> int:
    cx = _load(args.file, "complex")
    seq = _load(args.sequence, "sequence")
    ok = collapse_mod.replay(cx, seq)
    print("replay valid" if ok else "replay invalid")
    return EX_OK if ok else EX_FALSE


def cmd_zmap_check(args) -> int:
    eta = _load(args.file, "plmap")
    ok = zmaps.is_zmap(eta)
    print("Z-map" if ok else "not a Z-map")
    return EX_OK if ok else EX_FALSE


def cmd_retract_verify(args) -> int:
    p = _load(args.part, "complex")
    eta = _load(args.file, "plmap")
    ok = zmaps.verify_zretract(p, eta)
    print("valid Z-retraction" if ok else "not a Z-retraction")
    return EX_OK if ok else EX_FALSE


def cmd_part2(args) -> int:
    eta = _load(args.file, "plmap")
    p = _load(args.part, "complex")
    result = zmaps.part2_reduce(eta, eta.domain, p)
    wdir = _witness_dir(args)
    if wdir:
        scx.dump(ScxDocument("weighted", result.weighted), wdir / "weighted.scx")
        scx.dump(ScxDocument("complex", result.realization), wdir / "realization.scx")
        scx.dump(ScxDocument("plmap", result.section), wdir / "section.scx")
        scx.dump(ScxDocument("plmap", result.retraction), wdir / "retraction.scx")
        print(f"witnesses written to {wdir}")
    else:
        _emit(ScxDocument("weighted", result.weighted), args.out)
    return EX_OK


def cmd_pipeline(args) -> int:
    eta = _load(args.file, "plmap")
    p = _load(args.part, "complex")
    result = zmaps.pipeline_dh(eta, p, collapse_budget=args.budget)
    wdir = _witness_dir(args)
    if wdir:
        scx.dump(ScxDocument("plmap", result.map), wdir / "retraction.scx")
        scx.dump(ScxDocument("complex", result.triangulation),
                 wdir / "triangulation.scx")
        if result.collapse_sequence is not None:
            scx.dump(ScxDocument("sequence", result.collapse_sequence),
                     wdir / "collapse_sequence.scx")
        print(f"witnesses written to {wdir}")
    else:
        _emit(ScxDocument("plmap", result.map), args.out)
    if result.status != "ok":
        print("collapse search inconclusive", file=sys.stderr)
        return EX_UNKNOWN
    return EX_OK


def cmd_certify(args) -> int:
    p = _load(args.file, "complex")
    verdict = zmaps.certify_main(p, budget=args.budget)
    doc = ScxDocument("verdict", verdict)
    if args.out:
        _emit(doc, args.out)
    wdir = _witness_dir(args)
    if wdir:
        scx.dump(doc, wdir / "verdict.scx")
        if verdict.witnesses:
            wit = verdict.witnesses
            scx.dump(ScxDocument("complex", wit.collapse_complex),
                     wdir / "collapse_complex.scx")
            scx.dump(ScxDocument("sequence", wit.collapse_sequence),
                     wdir / "collapse_sequence.scx")
            scx.dump(ScxDocument("complex", wit.strongly_regular),
                     wdir / "strongly_regular.scx")
    if verdict.status == "certified":
        print("certified")
        return EX_OK
    if verdict.status == "refuted":
        print(f"refuted: condition(s) {verdict.refutation_reason} fail")
        return EX_FALSE
    print("unknown: collapse search or desingularization inconclusive")
    return EX_UNKNOWN


def cmd_realize(args) -> int:
    w = _load(args.file, "weighted")
    from .complexes import realize
    _emit(ScxDocument("complex", realize(w)), args.out)
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zrk",
        description="Exact simplicial geometry and Z-retract certification "
                    "over .scx documents.")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--budget": {"type": _budget,
                     "help": "search/iteration budget (default: ZRK_BUDGET or 100000)"},
        "--out": {"help": "write the result document here"},
        "--witness": {"help": "directory for witness sidecar files"},
    }

    def add(name, handler, help_text, options=(), **files):
        p = sub.add_parser(name, help=help_text)
        for arg, kind in files.items():
            p.add_argument(arg, help=f"path to a {kind} .scx document")
        for option in options:
            p.add_argument(option, **shared[option])
        p.set_defaults(handler=handler)
        return p

    add("check-regular", cmd_check_regular, "test regularity of every simplex",
        file="complex")
    add("check-strongly-regular", cmd_check_strongly_regular,
        "test strong regularity", file="complex")
    add("desingularize", cmd_desingularize,
        "stellar subdivision with all simplexes regular", ("--budget", "--out"),
        file="complex")
    p = add("stellar", cmd_stellar, "elementary stellar subdivision at a point",
            ("--out",), file="complex")
    p.add_argument("--at", required=True,
                   help="the point, e.g. '1/2,1/3'")
    add("refine", cmd_refine, "common refinement of two triangulations",
        ("--out",), file="complex", other="complex")
    add("restrict", cmd_restrict,
        "subdivide until the subpolyhedron is triangulated by a subcomplex",
        ("--out",), file="complex", part="complex")
    add("collapse", cmd_collapse, "search for a collapse sequence",
        ("--budget", "--out", "--witness"), file="complex")
    add("replay", cmd_replay, "verify a collapse sequence",
        file="complex", sequence="sequence")
    add("zmap-check", cmd_zmap_check, "test the Z-map criterion", file="plmap")
    add("retract-verify", cmd_retract_verify,
        "verify a Z-map retraction of the cube onto |P|",
        part="complex", file="plmap")
    add("part2", cmd_part2,
        "build the weighted complex and the section/retraction pair",
        ("--out", "--witness"), file="plmap", part="complex")
    add("pipeline", cmd_pipeline,
        "run the constructive steps from a rational PL retraction",
        ("--budget", "--out", "--witness"), file="plmap", part="complex")
    add("certify", cmd_certify, "three-valued Z-retract certification",
        ("--budget", "--out", "--witness"), file="complex")
    add("realize", cmd_realize, "geometric realization of a weighted complex",
        ("--out",), file="weighted")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "budget" in vars(args) and args.budget is None:
            args.budget = _budget(os.environ.get("ZRK_BUDGET") or "100000")
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    except argparse.ArgumentTypeError as exc:
        print(f"zrk: error: ZRK_BUDGET: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.handler(args)
    except BudgetExhausted as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EX_UNKNOWN
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
