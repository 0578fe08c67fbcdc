"""Command-line front end.

A command is one row of ``COMMANDS``: its help text, the options it takes,
the document kind of each positional file, in order, and its handler.
``main`` loads every file argument by its declared kind, in declaration
order, before the handler runs, so a handler receives the parsed payloads
and reads no file; a file of another kind is a data error that names it.
``_witness`` writes a command's named --witness documents, ``_complex``
makes the handler of a command that prints one complex, and ``_answer``
that of a command that prints yes or no.  A new command is a handler and
a row; an option shared by several commands is an entry of ``OPTIONS``
named in their rows, plus whatever ``main`` does with it for every command
that takes it, as it does for --budget.

Exit codes: 0 success/certified/true, 1 refuted/false, 2 unknown,
64 usage errors, 65 parse/data errors.  A run that exhausts a search budget
or runs out of memory is unknown, not a traceback: it prints ``unknown:``
and the reason (``out of memory`` for a ``MemoryError``) to standard error
and exits 2.  An unknown certify verdict is a result, not a failure: it
prints ``unknown:`` and its reason, ``collapse-search`` or
``desing-budget``, to standard output.  A command takes --budget, --out
or --witness only when it reads it.  The search budget of desingularize,
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

from . import collapse, regular, scx, subdivide, zmaps
from .complexes import RPoint, _closure, realize
from .exactnum import invariant_factors, parse_rat
from .regular import BudgetExhausted, is_regular
from .scx import ScxDocument, ScxError

EX_OK, EX_FALSE, EX_UNKNOWN, EX_USAGE, EX_DATA = 0, 1, 2, 64, 65


def _budget(text: str) -> int:
    """A search budget: a nonnegative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"too many digits ({len(text)})") from None


def _load(path: str, kind: str):
    doc = scx.load(path)
    if doc.kind != kind:
        raise ScxError(f"expected a {kind} document, found {doc.kind}", path)
    return doc.payload


def _emit(doc: ScxDocument, out) -> None:
    """Write the document to the path out, or to stdout without one."""
    if out:
        scx.dump(doc, out)
    else:
        sys.stdout.write(scx.print_scx(doc))


def _witness(args, *named) -> Path | None:
    """Write each (name, kind, payload) whose payload is not None as
    name.scx, in order, into the --witness directory, made if need be, and
    return the directory; None without one."""
    if not args.witness:
        return None
    wdir = Path(args.witness)
    wdir.mkdir(parents=True, exist_ok=True)
    for name, kind, payload in named:
        if payload is not None:
            _emit(ScxDocument(kind, payload), wdir / f"{name}.scx")
    return wdir


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


def _complex(build):
    """The handler of a command that prints the complex build(args,
    *inputs), or writes it to --out."""
    def handler(args, *inputs) -> int:
        _emit(ScxDocument("complex", build(args, *inputs)), args.out)
        return EX_OK
    return handler


def _answer(test, yes: str, no: str):
    """The handler of a command that prints yes or no as test(*inputs)
    holds, and exits 0 or 1."""
    def handler(args, *inputs) -> int:
        ok = test(*inputs)
        print(yes if ok else no)
        return EX_OK if ok else EX_FALSE
    return handler


def cmd_check_regular(args, cx) -> int:
    # Faces of a regular simplex are regular.
    irregular = [r for s, r in zip(cx.maximal_simplexes(), cx._ranks) if not is_regular(s)]
    bad = sorted(f for f in map(cx._simplex, _closure(irregular)) if not is_regular(f))
    for s in bad:
        factors = invariant_factors(s._vertex_rows)
        print(f"simplex {s} not regular: invariant factors {factors}")
    if bad:
        return EX_FALSE
    print("all simplexes regular")
    return EX_OK


def cmd_check_strongly_regular(args, cx) -> int:
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


def cmd_collapse(args, cx) -> int:
    seq = collapse.find_collapse_sequence(cx, budget=args.budget)
    if seq is None:
        print("no collapse sequence found within budget", file=sys.stderr)
        return EX_UNKNOWN
    print(f"collapse sequence with {len(seq.pairs)} steps ending at {seq.terminal}")
    if args.out:
        _emit(ScxDocument("sequence", seq), args.out)
    _witness(args, ("collapse_sequence", "sequence", seq))
    return EX_OK


def cmd_part2(args, eta, part) -> int:
    result = zmaps.part2_reduce(eta, eta.domain, part)
    wdir = _witness(args, ("weighted", "weighted", result.weighted),
                    ("realization", "complex", result.realization),
                    ("section", "plmap", result.section),
                    ("retraction", "plmap", result.retraction))
    if wdir:
        print(f"witnesses written to {wdir}")
    else:
        _emit(ScxDocument("weighted", result.weighted), args.out)
    return EX_OK


def cmd_pipeline(args, eta, part) -> int:
    result = zmaps.pipeline_dh(eta, part, collapse_budget=args.budget)
    wdir = _witness(args, ("retraction", "plmap", result.map),
                    ("triangulation", "complex", result.triangulation),
                    ("collapse_sequence", "sequence", result.collapse_sequence))
    if wdir:
        print(f"witnesses written to {wdir}")
    else:
        _emit(ScxDocument("plmap", result.map), args.out)
    if result.status != "ok":
        print("collapse search inconclusive", file=sys.stderr)
        return EX_UNKNOWN
    return EX_OK


def cmd_certify(args, part) -> int:
    verdict = zmaps.certify_main(part, budget=args.budget)
    if args.out:
        _emit(ScxDocument("verdict", verdict), args.out)
    wit = verdict.witnesses
    _witness(args, ("verdict", "verdict", verdict),
             ("collapse_complex", "complex", wit and wit.collapse_complex),
             ("collapse_sequence", "sequence", wit and wit.collapse_sequence),
             ("strongly_regular", "complex", wit and wit.strongly_regular))
    if verdict.status == "certified":
        print("certified")
        return EX_OK
    if verdict.status == "refuted":
        print(f"refuted: condition(s) {verdict.refutation_reason} fail")
        return EX_FALSE
    print(f"unknown: {verdict.unknown_reason}")
    return EX_UNKNOWN


OPTIONS = {
    "--budget": {"type": _budget,
                 "help": "search/iteration budget (default: ZRK_BUDGET or 100000)"},
    "--out": {"help": "write the result document here"},
    "--witness": {"help": "directory for witness sidecar files"},
    "--at": {"required": True, "help": "the point, e.g. '1/2,1/3'"},
}

# name: (help, options, {positional: document kind}, handler).  The handler
# is called with the parsed arguments and the payloads of the positionals.
COMMANDS = {
    "check-regular": ("test regularity of every simplex", (),
                      {"file": "complex"}, cmd_check_regular),
    "check-strongly-regular": ("test strong regularity", (),
                               {"file": "complex"}, cmd_check_strongly_regular),
    "desingularize": (
        "stellar subdivision with all simplexes regular", ("--budget", "--out"),
        {"file": "complex"},
        _complex(lambda args, cx: regular.desingularize(cx, budget=args.budget))),
    "stellar": (
        "elementary stellar subdivision at a point", ("--out", "--at"),
        {"file": "complex"},
        _complex(lambda args, cx: subdivide.stellar(cx, _parse_point_arg(args.at)))),
    "refine": ("common refinement of two triangulations", ("--out",),
               {"file": "complex", "other": "complex"},
               _complex(lambda args, a, b: subdivide.common_refinement(a, b))),
    "restrict": ("subdivide until the subpolyhedron is triangulated by a subcomplex",
                 ("--out",), {"file": "complex", "part": "complex"},
                 _complex(lambda args, cx, part: subdivide.restrict(cx, part))),
    "collapse": ("search for a collapse sequence", ("--budget", "--out", "--witness"),
                 {"file": "complex"}, cmd_collapse),
    "replay": ("verify a collapse sequence", (),
               {"file": "complex", "sequence": "sequence"},
               _answer(collapse.replay, "replay valid", "replay invalid")),
    "zmap-check": ("test the Z-map criterion", (), {"file": "plmap"},
                   _answer(zmaps.is_zmap, "Z-map", "not a Z-map")),
    "retract-verify": ("verify a Z-map retraction of the cube onto |P|", (),
                       {"part": "complex", "file": "plmap"},
                       _answer(zmaps.verify_zretract, "valid Z-retraction",
                               "not a Z-retraction")),
    "part2": ("build the weighted complex and the section/retraction pair",
              ("--out", "--witness"), {"file": "plmap", "part": "complex"}, cmd_part2),
    "pipeline": ("run the constructive steps from a rational PL retraction",
                 ("--budget", "--out", "--witness"), {"file": "plmap", "part": "complex"},
                 cmd_pipeline),
    "certify": ("three-valued Z-retract certification", ("--budget", "--out", "--witness"),
                {"file": "complex"}, cmd_certify),
    "realize": ("geometric realization of a weighted complex", ("--out",),
                {"file": "weighted"}, _complex(lambda args, w: realize(w))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zrk",
        description="Exact simplicial geometry and Z-retract certification "
                    "over .scx documents.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, files, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kind in files.items():
            p.add_argument(arg, help=f"path to a {kind} .scx document")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
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
    _, _, files, handler = COMMANDS[args.command]
    try:
        return handler(args, *[_load(getattr(args, arg), kind)
                               for arg, kind in files.items()])
    except (BudgetExhausted, MemoryError) as exc:
        reason = exc if isinstance(exc, BudgetExhausted) else "out of memory"
        print(f"unknown: {reason}", file=sys.stderr)
        return EX_UNKNOWN
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
