"""The stdlib regularity checker of ``tests/independent.py`` against zrk."""

import ast
import json
import random
from importlib import resources
from pathlib import Path

from zrk import (GeoComplex, certify_main, desingularize, is_regular, is_strongly_regular,
                 rpoint, standard_cube)
from zrk import regular
from zrk.collapse import replay
from zrk.scx import ScxDocument, parse_scx, print_scx

import independent
from conftest import random_rational, random_simplex
from oracles import stellar_chain


def test_the_independent_checker_imports_no_zrk_module():
    # It checks zrk's witnesses by arithmetic zrk did not do, so it reads
    # the .scx text itself and uses the standard library alone.
    tree = ast.parse(Path(independent.__file__).read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "fractions", "itertools", "json", "math"}, imported


def _verdicts(text: str, cx) -> tuple:
    """The independent checker's regularity and strong regularity of the
    complex in ``text``, and zrk's of cx, asked with an empty cache."""
    simplexes = independent.maximal_simplexes(text)
    regular.is_regular.cache_clear()
    return ((all(map(independent.is_regular, simplexes)),
             independent.is_strongly_regular(simplexes)),
            (all(map(is_regular, cx.maximal_simplexes())), is_strongly_regular(cx)))


def test_the_independent_checker_agrees_on_the_shipped_witnesses():
    files = resources.files("zrk.corpus")
    seen = 0
    for path in sorted(files.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".verdict.scx"):
            continue
        verdict = parse_scx(path.read_text(encoding="utf-8")).payload
        if verdict.witnesses is None or verdict.witnesses.strongly_regular is None:
            continue
        text = print_scx(ScxDocument("complex", verdict.witnesses.strongly_regular))
        mine, zrks = _verdicts(text, verdict.witnesses.strongly_regular)
        assert mine == zrks == (True, True), path.name
        assert independent.maximal_simplexes(path.read_text(encoding="utf-8")) == \
            independent.maximal_simplexes(text)
        seen += 1
    assert seen == 7


def test_the_independent_checker_agrees_on_certify_witnesses():
    # Seeded random simplexes in [0,1]^2..3 and stellar cube3s and cube4s.
    # certify_main's strongly regular witness is a desingularization, whose
    # cones hold the determinants their blow-ups handed them, so zrk decides
    # its regularity on carried determinants; read back from its printed
    # text, on the checking constructor's.  The inputs and the
    # desingularizations of refuted ones give the checker noes to agree on.
    rng = random.Random(2014)
    parts = [GeoComplex([random_simplex(rng, n, 6)], validate=False)
             for n in (2, 2, 2, 2, 3, 3, 3, 3, 3, 3)]
    parts += [stellar_chain(standard_cube(n), [rpoint(*[random_rational(rng, 5)
                                                       for _ in range(n)])
                                               for _ in range(2)])
              for n in (3, 3, 3, 4, 4, 4)]
    answers, certified = [], 0
    for part in parts:
        sigma = desingularize(part)
        verdict = certify_main(part)
        if verdict.status == "certified":
            assert verdict.witnesses.strongly_regular == sigma
            certified += 1
        for cx in (part, sigma):
            text = print_scx(ScxDocument("complex", cx))
            mine, zrks = _verdicts(text, cx)
            assert mine == zrks == _verdicts(text, parse_scx(text).payload)[1], text
            answers.append(mine)
    assert certified >= 8
    assert {(True, True), (True, False), (False, False)} <= set(answers), answers


def _tampered(witnesses: dict) -> list[dict]:
    """Copies of a verdict's collapse sequence that no collapse accepts: one
    step dropped, which leaves two faces more than the terminal; the first
    and last steps swapped; and every other vertex of the collapse complex
    as the terminal."""
    seq = witnesses["collapse_sequence"]
    steps, terminal = seq["steps"], seq["terminal"]
    copies = [dict(seq, steps=steps[:i] + steps[i + 1:]) for i in range(len(steps))]
    if len(steps) > 1:
        copies.append(dict(seq, steps=[steps[-1], *steps[1:-1], steps[0]]))
    vertices = {tuple(point) for simplex in witnesses["collapse_complex"]["maximal_simplexes"]
                for point in simplex}
    return copies + [dict(seq, terminal=list(v)) for v in sorted(vertices)
                     if list(v) != terminal]


def test_the_independent_replay_agrees_on_the_shipped_sequences():
    # The collapse sequence of each certified verdict, as shipped and
    # tampered with: collapse.replay on the parsed document and the
    # independent replay on its text give one answer, True for the shipped
    # sequence only.
    files = resources.files("zrk.corpus")
    seen, tampered = 0, 0
    for path in sorted(files.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".verdict.scx"):
            continue
        text = path.read_text(encoding="utf-8")
        body = json.loads(text)
        if body["status"] != "certified":
            continue
        shipped = body["witnesses"]["collapse_sequence"]
        copies = _tampered(body["witnesses"])
        for seq in [shipped] + copies:
            body["witnesses"]["collapse_sequence"] = seq
            witnesses = parse_scx(json.dumps(body)).payload.witnesses
            mine = independent.replay(text, seq)
            assert mine == replay(witnesses.collapse_complex, witnesses.collapse_sequence), \
                (path.name, seq)
            assert mine == (seq is shipped), (path.name, seq)
        seen += 1
        tampered += len(copies)
    assert seen == 7 and tampered > 50, (seen, tampered)
