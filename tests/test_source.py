"""Checks on the source text of the package itself."""

import ast
from pathlib import Path

import zrk
import zrk.collapse
import zrk.linalg

SOURCES = sorted(Path(zrk.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so an invariant checked by
    # one silently stops being checked; src/ raises typed errors instead.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 10
    assert not found, f"assert statements in src/zrk: {found}"


def test_linalg_builds_no_fractions():
    # The linalg kernels work on integers alone; the Fraction LP and the
    # coercion helper it used live in tests/oracles.py.
    tree = ast.parse(Path(zrk.linalg.__file__).read_text(encoding="utf-8"))
    found = [f"{getattr(top, 'name', 'module level')}:{node.lineno}"
             for top in tree.body
             for node in ast.walk(top)
             if "Fraction" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None))]
    assert not found, f"Fraction in linalg: {found}"


def test_no_indented_json_dumps():
    # json.dumps with ``indent`` runs the pure-Python encoder; .scx text is
    # printed by scx's own emitter, so no module in src/zrk calls it so.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("dump", "dumps")
             and any(k.arg == "indent" for k in node.keywords)]
    assert not found, f"json.dumps with indent in src/zrk: {found}"


def test_collapse_search_makes_no_per_node_copies():
    # The search walks the one sorted free list and keys failed states by
    # an int bitmask.  A sorted copy of the free pairs and a frozenset of
    # the live set at every node made cube6 take 37 s and 4.5 GB.
    tree = ast.parse(Path(zrk.collapse.__file__).read_text(encoding="utf-8"))
    (search,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "find_collapse_sequence"]
    found = [f"{node.id}:{node.lineno}" for node in ast.walk(search)
             if isinstance(node, ast.Name) and node.id in ("sorted", "frozenset")]
    assert not found, f"per-node copies in find_collapse_sequence: {found}"
