"""Checks on the source text of the package itself."""

import ast
import inspect
import io
import textwrap
import tokenize
from pathlib import Path

import zrk
import zrk.cli
import zrk.collapse
import zrk.complexes
import zrk.exactnum
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
    # nothing, and hands them to GeoSimplex._image.  The one location left
    # is stellar's: it locates its one point once, as the carrier search it
    # replaced did, and reads the move's coefficients off the weights.
    tree = ast.parse(Path(zrk.subdivide.__file__).read_text(encoding="utf-8"))
    allowed = {("_weights", "refine_for_map"), ("_locate", "stellar")}
    found = [f"{name}:{node.lineno}" for top in tree.body for node in ast.walk(top)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))
             if name in ("_locate", "_weights", "contains", "barycentric",
                         "barycenter", "_simplex_inside")
             and (name, getattr(top, "name", None)) not in allowed]
    assert not found, f"point location in subdivide: {found}"
    assert _callers("_locate").count("subdivide.py:stellar") == 1


def _callers(name: str) -> list[str]:
    """file:innermost enclosing function of each call to ``name`` in
    src/zrk, as a function or as an attribute, in file order."""
    found = []

    def walk(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == name:
                found.append(f"{path.name}:{owner}")
            walk(child, path, child.name if isinstance(child, ast.FunctionDef) else owner)

    for path in SOURCES:
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "module level")
    return found


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
    # clause, which wrote that sum out a second time.  A point hashes as
    # its vector, where it once rebuilt the hash of its Fraction coordinate
    # tuple by modular arithmetic on sys.hash_info; and the public
    # constructor ranks vertices by hashing, as the other constructors do,
    # where it ranked them by id() to spare that hash.
    assert not hasattr(zrk.complexes.GeoSimplex, "faces")
    assert "__slots__" not in vars(zrk.complexes.GeoComplex)
    callers = _callers("_adds_up")
    assert callers == ["complexes.py:_triangulates_cube", "subdivide.py:_tiles"], callers
    source = Path(zrk.complexes.__file__).read_text(encoding="utf-8")
    assert "hash_info" not in source
    init = ast.parse(textwrap.dedent(inspect.getsource(zrk.complexes.GeoComplex.__init__)))
    assert "id" not in {node.id for node in ast.walk(init) if isinstance(node, ast.Name)}


def test_subdivide_has_one_overlay(monkeypatch):
    # supports, common_refinement and refine_for_map cut a simplex against
    # a complex's maximal simplexes in _cells alone.  Three loops once did
    # it, each with a shortcut the others lacked: a box test, an a == b
    # return, and keeping a simplex whose images share a host.  _cells also
    # decides once whether a target's rows are pulled back, and pulls them
    # through one matrix (_pullback), made outside its loop over the
    # targets, where _pullback_rows worked out every row's weights twice
    # per target; the identity clips by the targets' own rows.
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
    assert callers["_pullback"] == {"subdivide.py:_cells"}
    assert "_pullback_rows" not in names
    tree = ast.parse(Path(zrk.subdivide.__file__).read_text(encoding="utf-8"))
    (cells,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_cells"]
    (call,) = [node for node in ast.walk(cells) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_pullback"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not any(call in ast.walk(node) for node in ast.walk(cells)
                   if isinstance(node, loops))
    # On a triangle crossing the square's diagonal, the identity clips by
    # the very row tuples the targets keep and makes no matrix; a map makes
    # one.
    made, clips = [], []
    pullback, pull = zrk.subdivide._pullback, zrk.subdivide._pull_cell
    monkeypatch.setattr(zrk.subdivide, "_pullback",
                        lambda s, images: made.append(s) or pullback(s, images))
    monkeypatch.setattr(zrk.subdivide, "_pull_cell",
                        lambda s, eqs, ineqs: clips.append((eqs, ineqs)) or pull(s, eqs, ineqs))
    square = zrk.standard_cube(2)
    s = zrk.GeoSimplex((zrk.rpoint(0, 0), zrk.rpoint(0, 1), zrk.rpoint(1, 0)))
    zrk.subdivide._cells(s, s.vertices, square)
    own = {(id(t._point_rows[0]), id(t._point_rows[1])) for t in square.maximal_simplexes()}
    assert not made and len(clips) == 2
    assert {(id(eqs), id(ineqs)) for eqs, ineqs in clips} == own
    del clips[:]
    zrk.subdivide._cells(s, tuple(zrk.rpoint(x, y / 2) for x, y in s.vertices), square)
    assert made == [s] and len(clips) == 2


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


def test_a_subdivision_places_its_new_points_in_the_whole_table():
    # _subdivision places each new point by one bisection of its parent's
    # vertex table.  _Stars.replace and refine_for_map once read a range of
    # places for each point off its neighbours or its carrier's ranks, to
    # shorten that bisection.  The ranges saved point comparisons, not
    # time: 1,473 of 8,467 on rfold(2, 15)'s pipeline and part 2, with no
    # end-to-end time moved; and each range had to hold its point's place.
    assert list(inspect.signature(zrk.subdivide._subdivision).parameters) == [
        "cx", "simplexes"]
    assert zrk.subdivide._Stars.__slots__ == ("_star", "_start")
    assert "_rank" not in _function_names(zrk.subdivide)["refine_for_map"]


def test_complexes_alone_keeps_a_complexs_answers(monkeypatch):
    # A complex keeps its answers about the whole complex in one memo, which
    # only complexes writes, and the hosts of each point in one host map.
    # subdivide decided coverage of a known cube triangulation by a second,
    # coordinate-bounds rule, which ran the cube test on any complex not yet
    # known to be the cube; the inside subcomplex wrote a cube answer into
    # the memo to spare it that test; and hosts kept a point's answer in the
    # memo under a tuple key built on every call, next to the vertex stars.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "complexes.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
             and getattr(node.value, "attr", None) == "_answers"
             or isinstance(node, ast.Attribute) and node.attr != "get"
             and getattr(node.value, "attr", None) == "_answers"]
    assert not found, f"writes into a complex's answers outside complexes: {found}"
    callers = _callers("_is_cube")
    assert callers == ["complexes.py:_validate", "zmaps.py:verify_zretract",
                       "zmaps.py:pipeline_dh"], callers
    tree = ast.parse(Path(zrk.complexes.__file__).read_text(encoding="utf-8"))
    (hosts,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "hosts"]
    found = [f"{type(node).__name__}:{node.lineno}" for node in ast.walk(hosts)
             if isinstance(node, (ast.Lambda, ast.FunctionDef)) and node is not hosts
             or getattr(node, "attr", None) == "_answer"]
    assert not found, f"hosts asks the memo or builds a closure: {found}"
    # The seed-1 ops of the benchmark's pipeline workload, built in memory;
    # every complex made while they run is kept to be read after.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    ops, made = workloads.build("pipeline", 1), []
    fill = zrk.complexes.GeoComplex._fill
    monkeypatch.setattr(zrk.complexes.GeoComplex, "_fill",
                        lambda cx, *args: made.append(cx) or fill(cx, *args))
    for op in ops:
        op.run()
    keys = [key for cx in made for key in vars(cx).get("_answers", {})]
    assert keys and not [key for key in keys if key[0] == "hosts"], keys
    assert any(len(vars(cx).get("_hosts", ())) > len(cx.vertices()) for cx in made)


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


def test_the_smith_kernel_keeps_one_matrix():
    # _smith reduces one augmented matrix, each row of A followed by its
    # row of the identity, and returns (U, D).  It used to update a column
    # transform V beside A and U at every column operation, swap and
    # divisibility fold, and no caller read V; the full decomposition
    # smith_with_transforms is a test oracle now.
    assert not hasattr(zrk.exactnum, "smith_with_transforms")
    (smith,) = ast.parse(inspect.getsource(zrk.exactnum._smith)).body
    bound = {node.id for node in ast.walk(smith)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not {"u", "v"} & bound, bound
    returns = [node.value for node in ast.walk(smith) if isinstance(node, ast.Return)]
    assert returns and all(isinstance(r, ast.Tuple) and len(r.elts) == 2
                           for r in returns), [ast.unparse(r) for r in returns if r]


# Code lines in src/zrk when the gate was set.  Lower it when code goes;
# raise it only with a line in CHANGES.md saying why.
CODE_LINES = 2072


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
