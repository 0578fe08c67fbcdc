"""The stdlib regularity checker of ``tests/independent.py`` against zrk."""

import ast
import random
from importlib import resources
from pathlib import Path

from zrk import (GeoComplex, certify_main, desingularize, is_regular, is_strongly_regular,
                 rpoint, standard_cube)
from zrk import regular
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
