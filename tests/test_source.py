"""Checks on the source text of the package itself."""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import zrk
import zrk.cli
import zrk.collapse
import zrk.complexes
import zrk.linalg
import zrk.regular
import zrk.scx
import zrk.subdivide
import zrk.zmaps

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


def test_pulling_eliminates_nothing():
    # pull_triangulation reads each face's rank off the rows' tight masks.
    # Ranking every face it visited by a Bareiss elimination made it the
    # largest caller of _bareiss on the pipeline.
    tree = ast.parse(Path(zrk.linalg.__file__).read_text(encoding="utf-8"))
    (pull,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "pull_triangulation"]
    found = [f"{name}:{node.lineno}" for node in ast.walk(pull)
             for name in (getattr(node, "id", None), getattr(node, "attr", None))
             if name in ("matrix_rank", "pivot_columns", "_bareiss", "rank_det")]
    assert not found, f"elimination in pull_triangulation: {found}"


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


def test_printer_builds_no_body_to_walk():
    # Each document kind writes its members in their fixed order.  A body
    # dict per document, walked by a printer that sorted every dict's keys
    # and switched on every value's type, cost a small certify op more than
    # finding its verdict.
    tree = ast.parse(Path(zrk.scx.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert not defined & {"_payload_body", "_Simplexes", "_Steps", "_emit"}, defined
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "namedtuple" not in imported and "collections" not in imported, imported


def test_collapse_search_makes_no_per_node_copies():
    # The search walks the one sorted free list and keys failed states by
    # a Zobrist word.  A sorted copy of the free pairs and a frozenset of
    # the live set at every node made cube6 take 37 s and 4.5 GB, and a
    # live bitmask rebuilt at every flip made each node cost a big-int
    # shift and test over every face.
    tree = ast.parse(Path(zrk.collapse.__file__).read_text(encoding="utf-8"))
    (search,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "find_collapse_sequence"]
    (table,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "_FaceTable"]
    (toggle,) = [node for node in table.body if isinstance(node, ast.FunctionDef)
                 and node.name == "toggle"]
    found = [f"{node.id}:{node.lineno}" for node in ast.walk(search)
             if isinstance(node, ast.Name) and node.id in ("sorted", "frozenset")]
    assert not found, f"per-node copies in find_collapse_sequence: {found}"
    found = [f"{fn.name}:{node.lineno}" for fn in (search, toggle) for node in ast.walk(fn)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift)
             or isinstance(node, ast.Attribute) and node.attr == "bit_length"]
    assert not found, f"bitmask work in the search: {found}"


def test_check_path_takes_no_shared_lock_and_derives_no_step_twice():
    # functools.cached_property takes a lock shared by every instance on
    # each first read before Python 3.12, and a checked value type reads
    # several cached attributes per instance.  The sequence parser resolves
    # each step entry once; _read_off and _facet_ids looked its points up
    # again and rebuilt id tuples from the simplexes it had just built.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and "cached_property" in {alias.name for alias in node.names}
             or isinstance(node, ast.Attribute) and node.attr == "cached_property"]
    assert not found, f"cached_property in src/zrk: {found}"
    names = {name for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))}
    assert not names & {"_read_off", "_facet_ids", "face_id", "free_pair"}


def test_cube_test_reads_no_barycentric_rows():
    # The cube test reads orientations and volumes off each simplex's
    # determinant; asking for barycentric rows made every parsed simplex
    # eliminate twice, once for its rank and once for its rows.  The facet
    # pass it shares with the hull test reads determinants too, and the
    # hull test reads one normal per boundary hyperplane and orientations
    # where rows cost an elimination per simplex.
    tree = ast.parse(Path(zrk.complexes.__file__).read_text(encoding="utf-8"))
    tests = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_boundary_facets", "_triangulates_cube",
                               "_triangulates_hull")]
    assert len(tests) == 3
    found = [f"{test.name}:{node.lineno}" for test in tests for node in ast.walk(test)
             for name in (getattr(node, "id", None), getattr(node, "attr", None))
             if name in ("_point_rows", "_weights", "barycenter")]
    assert not found, f"barycentric rows in the linear tests: {found}"


def test_subdivide_asks_complexes_about_points_only_by_hosts_and_carrier():
    # is_subdivision files a fine simplex under the hosts its vertices
    # share.  Locating its barycentre scanned the coarse maximal simplexes
    # with barycentric tests, 720 scans for cube6 against itself.  The one
    # barycentric test left is refine_for_map's: it reads a new vertex's
    # weights on the one simplex it cut the vertex from, which locates
    # nothing, and hands them to GeoSimplex._image.
    tree = ast.parse(Path(zrk.subdivide.__file__).read_text(encoding="utf-8"))
    found = [f"{name}:{node.lineno}" for top in tree.body for node in ast.walk(top)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))
             if name in ("_locate", "_weights", "contains", "barycentric",
                         "barycenter", "_simplex_inside")
             and (name, getattr(top, "name", None)) != ("_weights", "refine_for_map")]
    assert not found, f"point location in subdivide: {found}"


def _callers(name: str) -> list[str]:
    """file:top-level definition of each call to ``name`` in src/zrk, as a
    function or as an attribute, in file order."""
    return [f"{path.name}:{getattr(top, 'name', 'module level')}"
            for path in SOURCES
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_subdivide_has_one_tiling_test_and_one_slicing_pass():
    # Every "do these pieces tile s?" question goes through _tiles, which
    # measures in s's own projection; three helpers once asked it four
    # ways.  The cube test measures its maximal simplexes the same way.
    # restrict slices its maximal simplexes in one pass, where slicing the
    # whole complex by one row at a time built a complex per cutting row.
    callers = _callers("_volume")
    assert callers == ["complexes.py:_triangulates_cube", "subdivide.py:_tiles",
                       "subdivide.py:_tiles"], callers
    tree = ast.parse(Path(zrk.subdivide.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    gone = {"_relative_volume_total", "_volume_covers", "_slice_complex"}
    assert not defined & gone, defined & gone


def test_the_complex_layer_does_each_job_one_way():
    # A complex makes every face from a rank tuple of the closure of its
    # rank tuples (GeoComplex._simplex), where GeoSimplex.faces was a second
    # enumeration; it keeps derived state in _cached attributes, where
    # None-checked slots were a second mechanism; and one integer sum
    # (_adds_up) decides both the tiling test and the cube test's volume
    # clause, which wrote that sum out a second time.
    assert not hasattr(zrk.complexes.GeoSimplex, "faces")
    assert "__slots__" not in vars(zrk.complexes.GeoComplex)
    callers = _callers("_adds_up")
    assert callers == ["complexes.py:_triangulates_cube", "subdivide.py:_tiles"], callers


def test_subdivide_has_one_overlay():
    # supports, common_refinement and refine_for_map cut a simplex against
    # a complex's maximal simplexes in _cells alone.  Three loops once did
    # it, each with a shortcut the others lacked: a box test, an a == b
    # return, and keeping a simplex whose images share a host.  _cells also
    # decides once whether a target's rows are pulled back.
    callers: dict[str, set] = {}
    names = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                names.update(filter(None, (getattr(node, "id", None),
                                           getattr(node, "attr", None),
                                           getattr(node, "name", None))))
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    callers.setdefault(name, set()).add(
                        f"{path.name}:{getattr(top, 'name', 'module level')}")
    assert "_pieces" not in names
    assert callers["_pull_cell"] == {"subdivide.py:_cells", "subdivide.py:restrict"}
    assert callers["_pullback_rows"] == {"subdivide.py:_cells"}


def test_restrict_raises_only_on_bad_input():
    # Where the rows restrict keeps do not adapt cx, the same loop slices
    # on by the rows it left out, so it answers every P inside |cx|.  It
    # raised RestrictionError there, on valid input; now its only raises
    # are the two containment errors.
    found = [path.name for path in SOURCES
             if "RestrictionError" in path.read_text(encoding="utf-8")]
    assert not found, f"RestrictionError in src/zrk: {found}"
    tree = ast.parse(Path(zrk.subdivide.__file__).read_text(encoding="utf-8"))
    (restrict,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "restrict"]
    raised = [ast.unparse(node.exc) for node in ast.walk(restrict)
              if isinstance(node, ast.Raise)]
    assert raised == [
        "SupportMismatch('containment violation: ambient dimensions differ')",
        "SupportMismatch('containment violation: |P| is not inside the support')"], raised


def _function_names(module=zrk.zmaps) -> dict[str, set]:
    """The names and attributes each top-level function of a module reads."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {top.name: {name for node in ast.walk(top)
                       for name in (getattr(node, "id", None), getattr(node, "attr", None))}
            for top in tree.body if isinstance(top, ast.FunctionDef)}


def test_only_the_pipeline_restricts_in_zmaps():
    # Fixity refines P against the map's domain.  Restricting the domain to
    # |P| slices all of it along P's hyperplanes, and it once refused some
    # valid inputs, so a check that ran it crashed where it should answer;
    # only pipeline_dh's step E, a construction itself, restricts.
    named = _function_names()
    assert [fn for fn, names in named.items() if "restrict" in names] == ["pipeline_dh"]
    assert not named["fixes_pointwise"] & {"restrict", "inside_subcomplex"}


def test_the_constructive_path_establishes_each_fact_once():
    # Once (a)-(h) hold, part2_reduce's section and retraction are Z-maps
    # and their composite fixes |P|, as its docstring proves; re-checking
    # that is verify_section_retraction's job.  compose leaves containment
    # to refine_for_map, which a pre-pass over the image hulls decided a
    # second time.  Step H replaces the star of each offending simplex in
    # one star index, where a stellar call per simplex looked up a carrier
    # it already had and built a whole complex.  certify_main and pipeline_dh
    # decide (iii) on P's own maximal simplexes, where testing a
    # desingularization cost a (ii) refutation its whole run and refused a
    # P failing (iii) only after steps C-F.  pipeline_dh leaves (a)-(h) to
    # part2_reduce, which checks them at its input, and step H reads step
    # G's inside subcomplex, which step G keeps, instead of asking for it
    # again.  Each step hands on what it built: step F returns the inside
    # subcomplex it kept, so pipeline_dh asks for none, and step G's
    # refine_for_map returns the refined map, whose new vertices it images
    # on the simplex it cut them from, with the helper PLMap.eval calls
    # after locating a point.  Rebasing the map onto delta_g located every
    # new vertex again with a linear scan.
    named = _function_names()
    assert not named["part2_reduce"] & {"is_zmap", "compose", "fixes_pointwise", "_placement"}
    assert "_image_leaving" not in named["compose"]
    assert "stellar" not in named["pipeline_dh"]
    assert not named["pipeline_dh"] & {"_check_part1_properties", "desingularize",
                                       "has_strongly_regular_triangulation"}
    for fn in ("certify_main", "pipeline_dh"):
        assert "is_strongly_regular_polyhedron" in named[fn], fn
        assert "is_strongly_regular" not in named[fn], fn
    assert not named["pipeline_dh"] & {"rebase", "inside_subcomplex"}
    tree = ast.parse(Path(zrk.zmaps.__file__).read_text(encoding="utf-8"))
    (compose,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "compose"]
    assert [ast.unparse(node.func) for node in ast.walk(compose) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "eval"] == ["theta.eval"]
    assert list(inspect.signature(zrk.subdivide.refine_for_map).parameters) == ["plmap", "target"]
    assert {"_image", "eval"} & _function_names(zrk.subdivide)["refine_for_map"] == {"_image"}
    (plmap,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "PLMap"]
    (evaluate,) = [node for node in plmap.body if isinstance(node, ast.FunctionDef)
                   and node.name == "eval"]
    assert "_image" in {getattr(node, "attr", None) for node in ast.walk(evaluate)}


def test_stellar_moves_go_through_one_star_index():
    # subdivide._Stars holds the maximal simplexes under stellar moves and
    # finds a star by its carrier's vertices.  stellar, the blow-ups of
    # desingularization and step H move only through it, and regular and
    # zmaps build no set of their own, as they did for a star replacement
    # that scanned the whole set at every blow-up.
    assert not hasattr(zrk.subdivide, "_replace_star")
    for module, fn in ((zrk.subdivide, "stellar"), (zrk.regular, "_blow_up"),
                       (zrk.zmaps, "pipeline_dh")):
        assert {"_Stars", "replace"} <= _function_names(module)[fn], fn
    for module in (zrk.regular, zrk.zmaps):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "set"]
        assert not found, (module.__name__, found)


def test_the_cli_loads_and_writes_documents_in_one_place():
    # main loads each file argument by the kind its COMMANDS row declares,
    # before the handler runs, and _emit alone writes a document.  The
    # handlers once named their inputs' kinds a second time, in 20 _load
    # calls, and four wrote their own witness files, in 12 scx.dump calls.
    calls = []
    for top in ast.parse(Path(zrk.cli.__file__).read_text(encoding="utf-8")).body:
        owner = (ast.unparse(top.targets[0]) if isinstance(top, ast.Assign)
                 else getattr(top, "name", "module level"))
        calls += [(ast.unparse(node.func), owner) for node in ast.walk(top)
                  if isinstance(node, ast.Call)]
    assert [owner for func, owner in calls if func == "_load"] == ["main"]
    assert [owner for func, owner in calls if func == "scx.load"] == ["_load"]
    assert [owner for func, owner in calls if func == "scx.dump"] == ["_emit"]
    assert {"COMMANDS", "cmd_certify", "cmd_pipeline"} <= {owner for _, owner in calls}


# Code lines in src/zrk when the gate was set.  Lower it when code goes;
# raise it only with a line in CHANGES.md saying why.
CODE_LINES = 2108


def code_lines(text: str) -> int:
    """Lines holding a token of code: not blank, not only a comment, and
    not in a module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def test_code_line_count():
    assert code_lines('"""Doc."""\n\n# note\nx = 1  # one\ny = """a\nb"""\n') == 3
    count = sum(code_lines(path.read_text(encoding="utf-8")) for path in SOURCES)
    assert count <= CODE_LINES, f"src/zrk has {count} code lines, over {CODE_LINES}"
