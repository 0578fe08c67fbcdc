"""Checks on the source text of the package itself."""

import ast
from pathlib import Path

import zrk
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


def test_linalg_builds_fractions_only_in_its_fraction_kernels():
    # The linalg kernels work on integers; a Fraction is built only by the
    # coercion helper and the LP kernel.
    allowed = {"frac", "lp_maximize"}
    tree = ast.parse(Path(zrk.linalg.__file__).read_text(encoding="utf-8"))
    found = [f"{getattr(top, 'name', 'module level')}:{node.lineno}"
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and "Fraction" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
             and getattr(top, "name", None) not in allowed]
    assert not found, f"Fraction(...) outside {sorted(allowed)}: {found}"
