import json
from importlib import resources
from pathlib import Path

import pytest

from zrk.cli import main
from zrk.scx import parse_scx


def corpus_path(name: str) -> str:
    return str(resources.files("zrk.corpus") / name)


def run(*argv) -> int:
    return main(list(argv))


def test_check_regular(capsys):
    assert run("check-regular", corpus_path("cube2.scx")) == 0
    assert run("check-regular", corpus_path("third_interval.scx")) == 1
    out = capsys.readouterr().out
    assert "not regular" in out and "invariant factors" in out


def test_check_strongly_regular():
    assert run("check-strongly-regular", corpus_path("half_interval.scx")) == 0
    assert run("check-strongly-regular", corpus_path("antidiagonal.scx")) == 1


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


def test_stellar(tmp_path):
    out = tmp_path / "st.scx"
    assert run("stellar", corpus_path("cube2.scx"), "--at", "1/2,1/2",
               "--out", str(out)) == 0
    doc = parse_scx(out.read_text())
    assert len(doc.payload.maximal_simplexes()) == 4


def test_refine_and_restrict(tmp_path):
    out = tmp_path / "r.scx"
    assert run("refine", corpus_path("cube2.scx"), corpus_path("cube2.scx"),
               "--out", str(out)) == 0
    assert run("restrict", corpus_path("cube2.scx"),
               corpus_path("half_diagonal.scx"), "--out", str(out)) == 0
    doc = parse_scx(out.read_text())
    assert doc.kind == "complex"


def test_collapse_replay_cycle(tmp_path):
    seq = tmp_path / "seq.scx"
    assert run("collapse", corpus_path("cube2.scx"), "--out", str(seq)) == 0
    assert run("replay", corpus_path("cube2.scx"), str(seq)) == 0
    # replaying against the wrong complex fails
    assert run("replay", corpus_path("cube1.scx"), str(seq)) == 1


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


def test_certify_exit_codes(tmp_path):
    assert run("certify", corpus_path("half_interval.scx")) == 0
    assert run("certify", corpus_path("third_interval.scx")) == 1
    assert run("certify", corpus_path("antidiagonal.scx")) == 1


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


def test_bad_budget_is_a_usage_error(monkeypatch, capsys):
    cube = corpus_path("cube1.scx")
    for budget in ("abc", "-1", "1.5", ""):
        assert run("certify", cube, "--budget", budget) == 64
        err = capsys.readouterr().err
        assert "--budget" in err and "Traceback" not in err
    for budget in ("abc", "-1", "1.5"):
        monkeypatch.setenv("ZRK_BUDGET", budget)
        assert run("certify", cube) == 64
        assert capsys.readouterr().err.startswith("zrk: error: ZRK_BUDGET: ")
    # A valid flag overrides the variable; an empty variable is unset.
    assert run("certify", cube, "--budget", "100") == 0
    monkeypatch.setenv("ZRK_BUDGET", "")
    assert run("certify", cube) == 0


def test_corpus_verdicts_match():
    for name in ("half_interval", "third_interval", "antidiagonal", "cube1",
                 "cube2", "cube3", "corner_triangle", "edge_path",
                 "half_diagonal"):
        expected = parse_scx(
            Path(corpus_path(f"{name}.verdict.scx")).read_text()).payload
        code = run("certify", corpus_path(f"{name}.scx"))
        assert code == {"certified": 0, "refuted": 1, "unknown": 2}[expected.status]
