import argparse
import collections
import functools
import json
import random
from importlib import resources
from fractions import Fraction
from pathlib import Path

import pytest

from zrk import (GeoSimplex, certify_main, common_refinement, desingularize,
                 find_collapse_sequence, from_maximal, is_regular, is_subdivision,
                 part2_reduce, pipeline_dh, realize, restrict, rpoint, standard_cube, stellar)
from zrk import cli, zmaps
from zrk.cli import build_parser, main
from zrk.exactnum import invariant_factors
from zrk.scx import ScxDocument, parse_scx, print_scx
from zrk.subdivide import inside_subcomplex, support_equal
from zrk.zmaps import DomainError

from oracles import closure_complex
from test_zmaps import _path_through_an_even_edge, _stellar_square_and_part


def corpus_path(name: str) -> str:
    return str(resources.files("zrk.corpus") / name)


def run(*argv) -> int:
    return main(list(argv))


def test_check_regular(capsys):
    assert run("check-regular", corpus_path("cube2.scx")) == 0
    assert run("check-regular", corpus_path("third_interval.scx")) == 1
    out = capsys.readouterr().out
    assert "not regular" in out and "invariant factors" in out


def test_check_regular_lists_the_same_faces_as_testing_every_face(tmp_path, capsys):
    # Two of the four triangles are regular and two are not, and so is an
    # edge of the latter; only faces of non-regular maximal simplexes are
    # tested, and the listing equals the one over every face.
    cx = stellar(standard_cube(2), rpoint("1/3", "1/3"))
    assert sorted(map(is_regular, cx.maximal_simplexes())) == [False, False, True, True]
    path = tmp_path / "mixed.scx"
    path.write_text(print_scx(ScxDocument("complex", cx)), encoding="utf-8")
    capsys.readouterr()
    assert run("check-regular", str(path)) == 1
    bad = sorted(s for s in closure_complex(cx.maximal_simplexes()).simplexes
                 if not is_regular(s))
    assert [s.dim for s in bad] == [2, 2, 1]
    assert capsys.readouterr().out == "".join(
        f"simplex {s} not regular: invariant factors "
        f"{invariant_factors(s._vertex_rows)}\n" for s in bad)


def test_check_strongly_regular(tmp_path, capsys):
    assert run("check-strongly-regular", corpus_path("half_interval.scx")) == 0
    capsys.readouterr()
    assert run("check-strongly-regular", corpus_path("antidiagonal.scx")) == 1
    assert capsys.readouterr().out == (
        "maximal simplex conv((0, 1/2), (1/2, 0)) has denominator gcd 2\n")
    # Every maximal simplex of the path is regular, so each one whose
    # vertex denominators have a common factor is reported with that gcd,
    # in simplex order; the last segment is strongly regular.
    points = [rpoint(0, "1/2"), rpoint("1/2", 0), rpoint(1, "1/2"), rpoint(1, 1)]
    path_cx = from_maximal([GeoSimplex(pair) for pair in zip(points, points[1:])])
    assert all(map(is_regular, path_cx.maximal_simplexes()))
    path = tmp_path / "path.scx"
    path.write_text(print_scx(ScxDocument("complex", path_cx)), encoding="utf-8")
    assert run("check-strongly-regular", str(path)) == 1
    assert capsys.readouterr().out == (
        "maximal simplex conv((0, 1/2), (1/2, 0)) has denominator gcd 2\n"
        "maximal simplex conv((1/2, 0), (1, 1/2)) has denominator gcd 2\n")


def test_desingularize_roundtrip(tmp_path, capsys):
    out = tmp_path / "out.scx"
    assert run("desingularize", corpus_path("third_interval.scx"),
               "--out", str(out)) == 0
    doc = parse_scx(out.read_text())
    assert run("check-regular", str(out)) == 0


def test_desingularize_budget_overrun_is_unknown(tmp_path, capsys):
    tri = tmp_path / "tri.scx"
    tri.write_text('{"version": "1", "kind": "complex", "dim": 2, '
                   '"maximal_simplexes": [[["0", "0"], ["1", "1/3"], ["1/5", "1"]]]}')
    assert run("desingularize", str(tri), "--budget", "1") == 2
    assert "budget exhausted" in capsys.readouterr().err


def test_running_out_of_memory_is_unknown(monkeypatch, capsys):
    # A MemoryError ends the run as unknown, with no traceback: the
    # handler is replaced by one that raises it, and nothing is allocated.
    def exhausted(args, cx):
        raise MemoryError()

    help_text, options, files, _ = cli.COMMANDS["desingularize"]
    monkeypatch.setitem(cli.COMMANDS, "desingularize", (help_text, options, files, exhausted))
    assert run("desingularize", corpus_path("third_interval.scx")) == 2
    captured = capsys.readouterr()
    assert captured.err == "unknown: out of memory\n" and captured.out == ""


def test_stellar(tmp_path):
    out = tmp_path / "st.scx"
    assert run("stellar", corpus_path("cube2.scx"), "--at", "1/2,1/2",
               "--out", str(out)) == 0
    doc = parse_scx(out.read_text())
    assert len(doc.payload.maximal_simplexes()) == 4


def test_stellar_names_a_bad_coordinate(capsys):
    cube = corpus_path("cube2.scx")
    for at, where, why in (("1/2,x", 1, "invalid literal"),
                           ("2/4,1/2", 0, "not in lowest terms"),
                           ("1/2,1/-2", 1, "denominator must be positive"),
                           ("1/2,", 1, "invalid literal")):
        assert run("stellar", cube, "--at", at) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"error: --at coordinate {where}: "), err
        assert why in err and "Traceback" not in err


def test_refine_and_restrict(tmp_path):
    out = tmp_path / "r.scx"
    assert run("refine", corpus_path("cube2.scx"), corpus_path("cube2.scx"),
               "--out", str(out)) == 0
    assert run("restrict", corpus_path("cube2.scx"),
               corpus_path("half_diagonal.scx"), "--out", str(out)) == 0
    doc = parse_scx(out.read_text())
    assert doc.kind == "complex"


def test_restrict_to_a_quadrilateral_with_an_interior_facet(tmp_path):
    # The edge from (0,0) to (1,1/2) is a facet of both triangles of P that
    # crosses the lower triangle of cx, but it is interior to |P|: restrict
    # leaves its row out and succeeds.
    paths = {}
    for name, simplexes in (
            ("cx", [((0, 0), (0, 1), (1, 0)), ((0, 1), (1, 0), (1, 1))]),
            ("part", [((0, 0), (0, 1), (1, "1/2")), ((0, 0), (1, 0), (1, "1/2"))])):
        cx = from_maximal([GeoSimplex(tuple(rpoint(*p) for p in s)) for s in simplexes])
        paths[name] = tmp_path / f"{name}.scx"
        paths[name].write_text(print_scx(ScxDocument("complex", cx)), encoding="utf-8")
    out = tmp_path / "adapted.scx"
    assert run("restrict", str(paths["cx"]), str(paths["part"]), "--out", str(out)) == 0
    assert len(parse_scx(out.read_text()).payload.maximal_simplexes()) == 3


def test_restrict_slices_on_by_its_left_out_rows(tmp_path):
    # The rows restrict keeps do not adapt this stellar square to the
    # triangle with a dangling edge; it slices on by the rows it left out
    # and exits 0, where it exited 65.
    cx, part = _stellar_square_and_part()
    paths = {}
    for name, complex_ in (("cx", cx), ("part", part)):
        paths[name] = tmp_path / f"{name}.scx"
        paths[name].write_text(print_scx(ScxDocument("complex", complex_)), encoding="utf-8")
    out = tmp_path / "adapted.scx"
    assert run("restrict", str(paths["cx"]), str(paths["part"]), "--out", str(out)) == 0
    adapted = parse_scx(out.read_text()).payload
    assert is_subdivision(adapted, cx)
    assert support_equal(inside_subcomplex(adapted, part), part)


def test_collapse_replay_cycle(tmp_path):
    seq = tmp_path / "seq.scx"
    assert run("collapse", corpus_path("cube2.scx"), "--out", str(seq)) == 0
    assert run("replay", corpus_path("cube2.scx"), str(seq)) == 0
    # replaying against the wrong complex fails
    assert run("replay", corpus_path("cube1.scx"), str(seq)) == 1


def test_collapse_and_replay_build_no_step_objects(tmp_path, monkeypatch, capsys):
    # The collapse command counts the search's rank pairs, and the printer
    # and replay read pairs too, so no CollapseStep is made.  The line is
    # the one the command printed when it counted step objects.
    from zrk.collapse import CollapseStep

    built = []
    monkeypatch.setattr(CollapseStep, "_raw", classmethod(lambda cls, *a: built.append(a)))
    seq = tmp_path / "seq.scx"
    assert run("collapse", corpus_path("cube3.scx"), "--out", str(seq)) == 0
    assert capsys.readouterr().out == "collapse sequence with 25 steps ending at conv((1, 1, 1))\n"
    assert run("replay", corpus_path("cube3.scx"), str(seq)) == 0
    assert not built


def test_zmap_check():
    assert run("zmap-check", corpus_path("tent_retraction.scx")) == 0


def test_retract_verify():
    assert run("retract-verify", corpus_path("half_interval.scx"),
               corpus_path("tent_retraction.scx")) == 0


def test_part2_witnesses(tmp_path):
    wdir = tmp_path / "w"
    assert run("part2", corpus_path("tent_retraction.scx"),
               corpus_path("half_interval.scx"), "--witness", str(wdir)) == 0
    for name in ("weighted.scx", "realization.scx", "section.scx",
                 "retraction.scx"):
        assert (wdir / name).exists()
    # the emitted maps re-verify as Z-maps
    assert run("zmap-check", str(wdir / "section.scx")) == 0
    assert run("zmap-check", str(wdir / "retraction.scx")) == 0
    assert run("check-strongly-regular", str(wdir / "realization.scx")) == 0


def test_pipeline(tmp_path):
    wdir = tmp_path / "w"
    assert run("pipeline", corpus_path("square_to_half_diagonal.scx"),
               corpus_path("half_diagonal.scx"), "--witness", str(wdir)) == 0
    assert (wdir / "triangulation.scx").exists()
    assert run("replay", str(wdir / "triangulation.scx"),
               str(wdir / "collapse_sequence.scx")) == 0


def test_pipeline_refuses_a_part_failing_condition_iii(tmp_path, capsys):
    eta, part = _path_through_an_even_edge()
    for name, doc in (("map", ScxDocument("plmap", eta)),
                      ("part", ScxDocument("complex", part))):
        (tmp_path / f"{name}.scx").write_text(print_scx(doc), encoding="utf-8")
    capsys.readouterr()
    assert run("pipeline", str(tmp_path / "map.scx"), str(tmp_path / "part.scx")) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: condition (iii) violated: |P| has no strongly "
                            "regular triangulation\n")


def test_certify_exit_codes(tmp_path):
    assert run("certify", corpus_path("half_interval.scx")) == 0
    assert run("certify", corpus_path("third_interval.scx")) == 1
    assert run("certify", corpus_path("antidiagonal.scx")) == 1


def test_certify_refuses_a_part_outside_the_cube(tmp_path, capsys):
    # certify_main takes only polyhedra in [0,1]^n; a vertex outside is a
    # DomainError, which the CLI reports as a data error.
    part = from_maximal([GeoSimplex((rpoint("1/2"), rpoint("3/2")))])
    with pytest.raises(DomainError) as err:
        certify_main(part)
    assert str(err.value) == "|P| must lie inside the unit cube"
    path = tmp_path / "outside.scx"
    path.write_text(print_scx(ScxDocument("complex", part)), encoding="utf-8")
    capsys.readouterr()
    assert run("certify", str(path)) == 65
    assert capsys.readouterr().err == "error: |P| must lie inside the unit cube\n"


def test_a_zero_search_budget_is_unknown(capsys):
    # A search with no budget ends inconclusive: exit 2, with the reason on
    # stderr, for each command that searches for a collapse.
    cases = [
        (["collapse", corpus_path("cube2.scx")], "",
         "no collapse sequence found within budget\n"),
        (["pipeline", corpus_path("square_to_half_diagonal.scx"),
          corpus_path("half_diagonal.scx")], "}\n", "collapse search inconclusive\n"),
        (["certify", corpus_path("cube2.scx")],
         "unknown: collapse-search\n", ""),
    ]
    for argv, out, err in cases:
        capsys.readouterr()
        assert run(*argv, "--budget", "0") == 2, argv
        captured = capsys.readouterr()
        assert captured.out.endswith(out) and captured.err == err, argv


def test_certify_says_why_a_verdict_is_unknown(tmp_path, monkeypatch, capsys):
    # An unknown verdict names its reason: the collapse search ran out of
    # budget on both candidates, or desingularization ran out of its own,
    # so that (iii) stays undecided.  The reason explains the run: it takes
    # no part in equality and the printed verdict does not hold it.
    path = tmp_path / "segment.scx"
    segment = from_maximal([GeoSimplex((rpoint(0), rpoint("2/3")))])
    path.write_text(print_scx(ScxDocument("complex", segment)), encoding="utf-8")
    starved = functools.partial(certify_main, desing_budget=0)
    for budget, certify, reason in (("0", certify_main, "collapse-search"),
                                    ("100", starved, "desing-budget")):
        verdict = certify(segment, budget=int(budget))
        assert (verdict.status, verdict.unknown_reason) == ("unknown", reason)
        text = print_scx(ScxDocument("verdict", verdict))
        assert reason not in text and parse_scx(text).payload == verdict
        assert parse_scx(text).payload.unknown_reason is None
        monkeypatch.setattr(zmaps, "certify_main", certify)
        capsys.readouterr()
        assert run("certify", str(path), "--budget", budget) == 2
        assert capsys.readouterr() == (f"unknown: {reason}\n", "")


def test_certify_witnesses_reverify(tmp_path):
    wdir = tmp_path / "w"
    assert run("certify", corpus_path("corner_triangle.scx"),
               "--witness", str(wdir)) == 0
    assert run("replay", str(wdir / "collapse_complex.scx"),
               str(wdir / "collapse_sequence.scx")) == 0
    assert run("check-strongly-regular", str(wdir / "strongly_regular.scx")) == 0
    verdict = parse_scx((wdir / "verdict.scx").read_text())
    assert verdict.payload.status == "certified"


def test_realize(tmp_path):
    wdoc = tmp_path / "w.scx"
    wdoc.write_text(json.dumps({
        "version": "1", "kind": "weighted",
        "vertices": ["a", "b"], "faces": [[0], [1], [0, 1]],
        "weights": [1, 2]}))
    out = tmp_path / "realized.scx"
    assert run("realize", str(wdoc), "--out", str(out)) == 0
    doc = parse_scx(out.read_text())
    assert doc.payload.ambient_dim == 2


def test_usage_and_parse_errors(tmp_path, capsys):
    assert run("no-such-command") == 64
    bad = tmp_path / "bad.scx"
    bad.write_text('{"version": "1", "kind": "complex", "dim": 1, '
                   '"maximal_simplexes": [[["2/4"]]]}')
    assert run("check-regular", str(bad)) == 65
    err = capsys.readouterr().err
    assert "lowest terms" in err


def test_a_document_that_is_not_an_object_exits_65(tmp_path, capsys):
    path = tmp_path / "list.scx"
    path.write_text("[]")
    assert run("check-regular", str(path)) == 65
    out, err = capsys.readouterr()
    assert "document: the document must be a JSON object" in err
    assert not out and "Traceback" not in err


def test_bad_budget_is_a_usage_error(monkeypatch, capsys):
    # A budget of more digits than int() converts (4,300 by default) is a
    # usage error too, named by its length, not a traceback.
    cube = corpus_path("cube1.scx")
    for budget in ("abc", "-1", "1.5", "", "9" * 5000):
        assert run("certify", cube, "--budget", budget) == 64
        err = capsys.readouterr().err
        assert "--budget" in err and "Traceback" not in err and "_budget" not in err
    for budget in ("abc", "-1", "1.5", "9" * 5000):
        monkeypatch.setenv("ZRK_BUDGET", budget)
        assert run("certify", cube) == 64
        assert capsys.readouterr().err.startswith("zrk: error: ZRK_BUDGET: ")
    assert run("certify", cube, "--budget", "9" * 5000) == 64
    assert capsys.readouterr().err.endswith("--budget: too many digits (5000)\n")
    # A valid flag overrides the variable; an empty variable is unset.
    assert run("certify", cube, "--budget", "100") == 0
    monkeypatch.setenv("ZRK_BUDGET", "")
    assert run("certify", cube) == 0


def test_only_commands_that_read_a_budget_take_one(monkeypatch, capsys):
    cube = corpus_path("cube1.scx")
    assert run("check-regular", cube, "--budget", "5") == 64
    assert "--budget" in capsys.readouterr().err
    assert run("replay", cube, cube, "--out", "x.scx") == 64
    assert run("stellar", cube, "--at", "1/2", "--witness", "w") == 64
    monkeypatch.setenv("ZRK_BUDGET", "abc")
    assert run("check-regular", cube) == 0
    assert run("desingularize", cube) == 64


def test_corpus_verdicts_match():
    for name in ("half_interval", "third_interval", "antidiagonal", "cube1",
                 "cube2", "cube3", "corner_triangle", "edge_path",
                 "half_diagonal"):
        expected = parse_scx(
            Path(corpus_path(f"{name}.verdict.scx")).read_text()).payload
        code = run("certify", corpus_path(f"{name}.scx"))
        assert code == {"certified": 0, "refuted": 1, "unknown": 2}[expected.status]


def _corpus_documents() -> dict[str, dict]:
    """The corpus documents by name, as JSON values, with the collapse
    complex and sequence of each certified verdict as documents of their
    own (``cube2.complex``, ``cube2.sequence``)."""
    docs = {}
    for path in sorted(resources.files("zrk.corpus").iterdir()):
        if not path.name.endswith(".scx"):
            continue
        name, body = path.name.split(".")[0], json.loads(path.read_text(encoding="utf-8"))
        if body["kind"] != "verdict":
            docs[name] = body
        elif "witnesses" in body:
            for kind in ("complex", "sequence"):
                docs[f"{name}.{kind}"] = dict(body["witnesses"][f"collapse_{kind}"],
                                              kind=kind, version="1")
    return docs


# Each two-file command with the corpus pairs it accepts, file order kept.
_TWO_FILE_PAIRS = {
    "refine": [(c, c) for c in ("cube1", "cube2", "cube3", "edge_path", "half_diagonal")]
              + [("cube2", "cube2.complex"), ("cube3", "cube3.complex")],
    "restrict": [("cube1", "half_interval"), ("cube1", "third_interval"),
                 ("cube2", "half_diagonal"), ("cube2", "antidiagonal"),
                 ("cube2", "edge_path"), ("cube2", "corner_triangle"), ("cube3", "cube3")],
    "replay": [(f"{c}.complex", f"{c}.sequence")
               for c in ("cube1", "cube2", "cube3", "edge_path", "half_diagonal")],
    "retract-verify": [("half_interval", "tent_retraction"),
                       ("half_diagonal", "square_to_half_diagonal")],
    "part2": [("tent_retraction", "half_interval"),
              ("square_to_half_diagonal", "half_diagonal")],
}
_TWO_FILE_PAIRS["pipeline"] = _TWO_FILE_PAIRS["part2"]


def _mutate(value, rng):
    """The JSON value with one leaf, list or key changed at random: a
    coordinate moved in [0, 1] mostly, else a malformed rational or a value
    of another type put in, a list entry dropped, repeated or swapped, or a
    key dropped."""
    if isinstance(value, dict) and value:
        keys, how = sorted(value), rng.random()
        if how < 0.05:
            return {k: v for k, v in value.items() if k != rng.choice(keys)}
        # Mostly into the simplexes, images or steps, seldom the header.
        deep = [k for k in keys if isinstance(value[k], list)]
        key = rng.choice(deep if deep and how < 0.9 else keys)
        return dict(value, **{key: _mutate(value[key], rng)})
    if isinstance(value, list) and value:
        out, i = list(value), rng.randrange(len(value))
        how = rng.random()
        if how < 0.1:
            del out[i]
        elif how < 0.2:
            out.insert(i, out[i])
        elif how < 0.3:
            j = rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = _mutate(out[i], rng)
        return out
    how = rng.random()
    if how < 0.7:
        q = rng.randint(1, 6)
        return str(Fraction(rng.randint(0, q), q))
    if how < 0.85:
        return rng.choice(["-1", "3/2", "2/4", "1/0", "x", "", "1/2/3", "9" * 30, 2, -1])
    return rng.choice([None, [], {}, [["0"]], 1.5, True])


def test_two_file_commands_survive_mutated_documents(tmp_path, capsys):
    # Each case gives a two-file command a pair of corpus documents, mostly
    # one it accepts, each mutated zero to three times and now and then
    # truncated: every run ends in an exit code, never in a traceback.
    rng = random.Random(3808)
    docs = _corpus_documents()
    codes = collections.Counter()
    for case in range(200):
        command = sorted(_TWO_FILE_PAIRS)[case % len(_TWO_FILE_PAIRS)]
        names = rng.choice(_TWO_FILE_PAIRS[command])
        if rng.random() < 0.2:
            names = rng.sample(sorted(docs), 2)
        paths = []
        for k, name in enumerate(names):
            body = docs[name]
            for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
                body = _mutate(body, rng)
            text = json.dumps(body)
            if rng.random() < 0.05:
                text = text[:rng.randrange(len(text))]
            paths.append(tmp_path / f"{case}-{k}.scx")
            paths[-1].write_text(text, encoding="utf-8")
        argv = [command, *map(str, paths)] + (["--budget", "200"] if command == "pipeline" else [])
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 65) and "Traceback" not in err, (argv, code, err)
        codes[command, code] += 1
    # Every command gets past parsing to an answer now and then.
    assert {c for _, c in codes} >= {0, 1, 65}, codes
    assert all(codes[command, 0] + codes[command, 1] + codes[command, 2] >= 3
               for command in _TWO_FILE_PAIRS), codes


# The command surface: each command's positionals with their document
# kinds, in order, then its options, in order.
_SURFACE = {
    "check-regular": ((("file", "complex"),), ()),
    "check-strongly-regular": ((("file", "complex"),), ()),
    "desingularize": ((("file", "complex"),), ("--budget", "--out")),
    "stellar": ((("file", "complex"),), ("--out", "--at")),
    "refine": ((("file", "complex"), ("other", "complex")), ("--out",)),
    "restrict": ((("file", "complex"), ("part", "complex")), ("--out",)),
    "collapse": ((("file", "complex"),), ("--budget", "--out", "--witness")),
    "replay": ((("file", "complex"), ("sequence", "sequence")), ()),
    "zmap-check": ((("file", "plmap"),), ()),
    "retract-verify": ((("part", "complex"), ("file", "plmap")), ()),
    "part2": ((("file", "plmap"), ("part", "complex")), ("--out", "--witness")),
    "pipeline": ((("file", "plmap"), ("part", "complex")),
                 ("--budget", "--out", "--witness")),
    "certify": ((("file", "complex"),), ("--budget", "--out", "--witness")),
    "realize": ((("file", "weighted"),), ("--out",)),
}


def test_the_command_surface_is_the_declared_table():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    surface = {name: (tuple((a.dest, a.help.split()[3]) for a in p._actions
                            if not a.option_strings),
                      tuple(a.option_strings[0] for a in p._actions
                            if a.option_strings and a.dest != "help"))
               for name, p in commands.choices.items()}
    assert list(surface.items()) == list(_SURFACE.items())
    for name, p in commands.choices.items():
        for a in p._actions:
            if not a.option_strings:
                assert a.help == f"path to a {a.help.split()[3]} .scx document", (name, a)


def _contract_cases(inputs: Path):
    """(argv, exit code, stdout, stderr, files) for every command, run in a
    directory of its own: files maps each path the run writes there to the
    text print_scx gives the library call's own result."""
    budget = 100_000
    cube1, cube2, tent, square, half, diag, corner, third = map(corpus_path, (
        "cube1.scx", "cube2.scx", "tent_retraction.scx", "square_to_half_diagonal.scx",
        "half_interval.scx", "half_diagonal.scx", "corner_triangle.scx",
        "third_interval.scx"))
    load = lambda path: parse_scx(Path(path).read_text(encoding="utf-8")).payload  # noqa: E731
    text = lambda kind, x: print_scx(ScxDocument(kind, x))  # noqa: E731
    seq = find_collapse_sequence(load(cube2), budget=budget)
    said = f"collapse sequence with {len(seq.steps)} steps ending at {seq.terminal}\n"
    red = part2_reduce(load(tent), load(tent).domain, load(half))
    piped = pipeline_dh(load(square), load(diag), collapse_budget=budget)
    starved = pipeline_dh(load(square), load(diag), collapse_budget=0)
    assert starved.collapse_sequence is None
    verdict, refuted = certify_main(load(corner), budget=budget), certify_main(load(third))
    wit = verdict.witnesses
    inputs.mkdir()
    seq_path, weighted_path = inputs / "seq.scx", inputs / "weighted.scx"
    seq_path.write_text(text("sequence", seq), encoding="utf-8")
    weighted_path.write_text(text("weighted", red.weighted), encoding="utf-8")
    desing = text("complex", desingularize(load(third), budget=budget))
    st = text("complex", stellar(load(cube2), rpoint("1/2", "1/2")))
    ref = text("complex", common_refinement(load(cube2), load(cube2)))
    res = text("complex", restrict(load(cube2), load(diag)))
    real = text("complex", realize(red.weighted))
    seq_text, verdict_text = text("sequence", seq), text("verdict", verdict)
    part2_files = {"w/weighted.scx": text("weighted", red.weighted),
                   "w/realization.scx": text("complex", red.realization),
                   "w/section.scx": text("plmap", red.section),
                   "w/retraction.scx": text("plmap", red.retraction)}
    piped_files = {"w/retraction.scx": text("plmap", piped.map),
                   "w/triangulation.scx": text("complex", piped.triangulation)}
    refused = f"refuted: condition(s) {refuted.refutation_reason} fail\n"
    return [
        (["check-regular", cube2], 0, "all simplexes regular\n", "", {}),
        (["check-strongly-regular", half], 0, "strongly regular\n", "", {}),
        (["check-strongly-regular", third], 1, "not regular\n", "", {}),
        (["desingularize", third], 0, desing, "", {}),
        (["desingularize", third, "--budget", "100000", "--out", "o.scx"], 0, "", "",
         {"o.scx": desing}),
        (["stellar", cube2, "--at", "1/2,1/2"], 0, st, "", {}),
        (["stellar", cube2, "--at", "1/2,1/2", "--out", "o.scx"], 0, "", "", {"o.scx": st}),
        (["refine", cube2, cube2], 0, ref, "", {}),
        (["refine", cube2, cube2, "--out", "o.scx"], 0, "", "", {"o.scx": ref}),
        (["restrict", cube2, diag], 0, res, "", {}),
        (["restrict", cube2, diag, "--out", "o.scx"], 0, "", "", {"o.scx": res}),
        (["collapse", cube2], 0, said, "", {}),
        (["collapse", cube2, "--out", "o.scx"], 0, said, "", {"o.scx": seq_text}),
        (["collapse", cube2, "--witness", "w", "--out", "o.scx"], 0, said, "",
         {"o.scx": seq_text, "w/collapse_sequence.scx": seq_text}),
        (["collapse", cube2, "--budget", "0", "--witness", "w"], 2, "",
         "no collapse sequence found within budget\n", {}),
        (["replay", cube2, str(seq_path)], 0, "replay valid\n", "", {}),
        (["replay", cube1, str(seq_path)], 1, "replay invalid\n", "", {}),
        (["zmap-check", tent], 0, "Z-map\n", "", {}),
        (["zmap-check", square], 1, "not a Z-map\n", "", {}),
        (["retract-verify", half, tent], 0, "valid Z-retraction\n", "", {}),
        (["retract-verify", diag, square], 1, "not a Z-retraction\n", "", {}),
        (["part2", tent, half], 0, text("weighted", red.weighted), "", {}),
        (["part2", tent, half, "--out", "o.scx"], 0, "", "",
         {"o.scx": text("weighted", red.weighted)}),
        (["part2", tent, half, "--out", "o.scx", "--witness", "w"], 0,
         "witnesses written to w\n", "", part2_files),
        (["pipeline", square, diag], 0, text("plmap", piped.map), "", {}),
        (["pipeline", square, diag, "--out", "o.scx"], 0, "", "",
         {"o.scx": text("plmap", piped.map)}),
        (["pipeline", square, diag, "--witness", "w"], 0, "witnesses written to w\n", "",
         dict(piped_files, **{"w/collapse_sequence.scx":
                              text("sequence", piped.collapse_sequence)})),
        (["pipeline", square, diag, "--budget", "0", "--witness", "w"], 2,
         "witnesses written to w\n", "collapse search inconclusive\n",
         {"w/retraction.scx": text("plmap", starved.map),
          "w/triangulation.scx": text("complex", starved.triangulation)}),
        (["certify", corner], 0, "certified\n", "", {}),
        (["certify", corner, "--out", "o.scx", "--witness", "w"], 0, "certified\n", "",
         {"o.scx": verdict_text, "w/verdict.scx": verdict_text,
          "w/collapse_complex.scx": text("complex", wit.collapse_complex),
          "w/collapse_sequence.scx": text("sequence", wit.collapse_sequence),
          "w/strongly_regular.scx": text("complex", wit.strongly_regular)}),
        (["certify", third, "--witness", "w"], 1, refused, "",
         {"w/verdict.scx": text("verdict", refuted)}),
        (["certify", cube2, "--budget", "0", "--out", "o.scx"], 2,
         "unknown: collapse-search\n", "",
         {"o.scx": text("verdict", certify_main(load(cube2), budget=0))}),
        (["realize", str(weighted_path)], 0, real, "", {}),
        (["realize", str(weighted_path), "--out", "o.scx"], 0, "", "", {"o.scx": real}),
        # Inputs load in declaration order, so the first bad one is named;
        # a file written before a failure stays written.
        (["replay", cube2, cube2], 65, "",
         f"error: {cube2}: expected a sequence document, found complex\n", {}),
        (["retract-verify", tent, cube2], 65, "",
         f"error: {tent}: expected a complex document, found plmap\n", {}),
        (["part2", cube2, str(seq_path)], 65, "",
         f"error: {cube2}: expected a plmap document, found complex\n", {}),
        (["check-regular", "missing.scx"], 65, "",
         "error: [Errno 2] No such file or directory: 'missing.scx'\n", {}),
        (["certify", corner, "--out", "o.scx", "--witness", "o.scx"], 65, "",
         "error: [Errno 17] File exists: 'o.scx'\n", {"o.scx": verdict_text}),
    ]


def test_every_command_prints_and_writes_what_its_library_call_returns(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ZRK_BUDGET", raising=False)
    cases = _contract_cases(tmp_path / "in")
    assert {argv[0] for argv, *_ in cases} == set(_SURFACE)
    for i, (argv, code, out, err, files) in enumerate(cases):
        workdir = tmp_path / f"run{i}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        assert run(*argv) == code, argv
        assert capsys.readouterr() == (out, err), argv
        written = {p.relative_to(workdir).as_posix(): p.read_text(encoding="utf-8")
                   for p in workdir.rglob("*") if p.is_file()}
        assert written == files, argv
