"""Stellar moves, desingularization, the certifier, printing, parsing,
replay and the Z-map criterion under the signed coordinate permutations
of the cube (``symmetry.act``)."""

import collections
import itertools
import random
from fractions import Fraction
from importlib import resources

from zrk import (GeoComplex, GeoSimplex, PLMap, certify_main, common_refinement,
                 desingularize, desingularize_relative, find_collapse_sequence, from_maximal,
                 is_subdivision, is_zmap, part2_reduce, pipeline_dh, replay, restrict, rpoint,
                 standard_cube, stellar, subdivide, verify_section_retraction)
from zrk.regular import is_regular, is_strongly_regular_polyhedron
from zrk.complexes import _meet_in_common_face
from zrk.scx import ScxDocument, ScxError, parse_scx, print_scx
from zrk.zmaps import _lattice_points_in

from conftest import random_rational, random_simplex, random_simplex_pool
from improper import FAMILIES, improper_families
from oracles import simplex_faces, stellar_chain
from symmetry import act, random_symmetry
from test_subdivide import _star_move_inputs
from test_zmaps import _face_projection, _seeded_folds


def _point_in(rng: random.Random, cx: GeoComplex):
    """A positive combination of the vertices of a random face of a random
    maximal simplex: a vertex, or a point inside a face."""
    m = rng.choice(cx.maximal_simplexes())
    face = rng.sample(m.vertices, rng.randint(1, len(m.vertices)))
    weights = [rng.randint(1, 4) for _ in face]
    return rpoint(*[Fraction(sum(w * v[i] for w, v in zip(weights, face)), sum(weights))
                    for i in range(cx.ambient_dim)])


def _relative_pairs(rng: random.Random):
    """Stellar squares and cube3s restricted to the facet x_n = 0, at points
    half of which lie on it, with that facet's triangulation."""
    for n in 4 * (2, 2, 3):
        part = from_maximal([GeoSimplex(tuple(v for v in s.vertices if v[-1] == 0))
                             for s in standard_cube(n).maximal_simplexes()
                             if sum(v[-1] == 0 for v in s.vertices) == n])
        points = []
        for _ in range(rng.randint(1, 3)):
            p = [random_rational(rng, 6) for _ in range(n)]
            if rng.random() < 0.5:
                p[-1] = 0
            points.append(rpoint(*p))
        yield subdivide.restrict(stellar_chain(standard_cube(n), points), part), part


def test_stellar_moves_commute_with_cube_symmetries():
    # For a cube symmetry g: stellar(gK, gp) is g applied to stellar(K, p),
    # exactly; desingularize(gK) is regular and subdivides gK; the inside
    # subcomplex desingularize_relative(gK, gP) returns is the one found in
    # its output, and regular; and certify_main gives
    # gK the status and reason it gives K.  Sort orders change under g, so
    # blow-up orders may differ and only answers are compared.
    rng = random.Random(2026)
    moves = 0
    for cx in _star_move_inputs(rng):
        for _ in range(2):
            g = random_symmetry(rng, cx.ambient_dim)
            gcx = act(g, cx)
            for _ in range(3):
                p = _point_in(rng, cx)
                assert stellar(gcx, act(g, p)) == act(g, stellar(cx, p)), (cx, g, p)
                moves += 1
            out = desingularize(gcx)
            assert all(map(is_regular, out.maximal_simplexes())), (cx, g)
            assert is_subdivision(out, gcx), (cx, g)
    assert moves == 264
    blown = 0
    for cx, part in _relative_pairs(rng):
        g = random_symmetry(rng, cx.ambient_dim)
        gcx, gpart = act(g, cx), act(g, part)
        out, inside = desingularize_relative(gcx, gpart)
        assert inside == subdivide.inside_subcomplex(out, gpart), (cx, part, g)
        assert all(map(is_regular, inside.maximal_simplexes())), (cx, part, g)
        blown += out != gcx
    assert blown >= 3, blown
    statuses = set()
    parts = [GeoComplex([s]) for s in random_simplex_pool()[::3]] + _star_move_inputs(rng)[:7]
    for part in parts:
        want = certify_main(part)
        for _ in range(2):
            got = certify_main(act(random_symmetry(rng, part.ambient_dim), part))
            assert (got.status, got.refutation_reason) == (want.status, want.refutation_reason)
        statuses.add((want.status, want.refutation_reason))
    assert len(statuses) >= 3, statuses


def _same(a, b) -> bool:
    """Equal payloads; a PL map is its domain and its vertex images."""
    if isinstance(a, PLMap):
        return type(b) is PLMap and a.domain == b.domain and a.images == b.images
    return a == b


def test_printing_replay_and_zmaps_commute_with_cube_symmetries():
    # For a cube symmetry g, the printed gK, g seq and g eta g^-1 parse back
    # to themselves; g seq replays on gK; and g eta g^-1 is a Z-map iff eta
    # is.  The maps are face projections, which are Z-maps, and the corpus
    # map onto the half diagonal, which is not, each on its cube and on
    # stellar subdivisions of it at seeded points.
    rng = random.Random(1405)
    corpus = resources.files("zrk.corpus")
    square = parse_scx((corpus / "square_to_half_diagonal.scx").read_text()).payload
    maps = []
    for eta in [_face_projection(2)[0], _face_projection(3)[0], square] * 2:
        dom = eta.domain
        for _ in range(rng.randint(0, 2)):
            dom = stellar(dom, _point_in(rng, dom))
        maps.append(eta.rebase(dom))
    zmaps = []
    for eta in maps:
        cx = eta.domain
        seq = find_collapse_sequence(cx)
        assert seq is not None
        for _ in range(2):
            g = random_symmetry(rng, cx.ambient_dim)
            for kind, x in (("complex", cx), ("sequence", seq), ("plmap", eta)):
                gx = act(g, x)
                assert _same(parse_scx(print_scx(ScxDocument(kind, gx))).payload, gx), (kind, g)
            assert replay(act(g, cx), act(g, seq)), (cx, g)
            assert is_zmap(act(g, eta)) == is_zmap(eta), (eta, g)
        zmaps.append(is_zmap(eta))
    assert zmaps == [True, True, False] * 2


def _parses(cx: GeoComplex) -> bool:
    """Does the printed cx parse, that is pass the common-face check?"""
    try:
        parse_scx(print_scx(ScxDocument("complex", cx)))
    except ScxError:
        return False
    return True


def test_parse_answers_on_improper_families_commute_with_cube_symmetries():
    # For a cube symmetry g, parse_scx accepts the printed gK exactly when
    # it accepts K, on Kuhn sets that leave one grid (improper.py): a
    # vertex off the grid, chains of two grids, nested regions and
    # T-junctions.  Its answer is the pair loop's, so the linear tests
    # that settle some of them first change no answer; every family has
    # sets of both answers.
    rng = random.Random(1306)
    answers = collections.Counter()
    for name, simplexes in improper_families(rng):
        cx = GeoComplex(simplexes, validate=False)
        want = _parses(cx)
        assert want == all(_meet_in_common_face(a, b) for a, b in
                           itertools.combinations(cx.maximal_simplexes(), 2)), name
        for _ in range(2):
            g = random_symmetry(rng, cx.ambient_dim)
            assert _parses(act(g, cx)) == want, (name, simplexes, g)
        answers[name, want] += 1
    assert all(answers[name, want] for name in FAMILIES for want in (True, False)), answers


def _pipeline_answer(eta, part):
    """pipeline_dh's status, and whether part2_reduce's pair verifies."""
    result = pipeline_dh(eta, part)
    red = part2_reduce(result.map, result.triangulation, part)
    return result.status, verify_section_retraction(part, red.retraction, red.section)


def test_cell_kernel_answers_commute_with_cube_symmetries():
    # For a cube symmetry g: restrict(gK, gP) subdivides gK and its inside
    # subcomplex triangulates |gP|; common_refinement(gA, gB) subdivides gA
    # and gB; and the pipeline and part 2 on (g eta g^-1, gP) give eta's
    # status, with a section and retraction that verify.  g changes the
    # lexicographic pulling order, so answers are compared, not bytes.
    rng = random.Random(1407)
    restricted = 0
    for cx in _star_move_inputs(rng)[:7] * 2:
        n = cx.ambient_dim
        part = from_maximal([random_simplex(rng, n, 2)])
        g = random_symmetry(rng, n)
        gcx, gpart = act(g, cx), act(g, part)
        out = restrict(gcx, gpart)
        assert is_subdivision(out, gcx), (cx, part, g)
        assert subdivide._adapted(subdivide.inside_subcomplex(out, gpart), gpart), (cx, part, g)
        restricted += out != gcx
        other = stellar(standard_cube(n), _point_in(rng, standard_cube(n)))
        overlay = common_refinement(gcx, act(g, other))
        assert is_subdivision(overlay, gcx) and is_subdivision(overlay, act(g, other)), (cx, g)
    assert restricted >= 8, restricted
    cases = [_face_projection(2), _face_projection(3)] + _seeded_folds()[:3]
    for eta, part in cases:
        want = _pipeline_answer(eta, part)
        assert want == ("ok", True), (eta, part)
        g = random_symmetry(rng, part.ambient_dim)
        assert _pipeline_answer(act(g, eta), act(g, part)) == want, (eta, part, g)


def _shell_with_hairs(rng: random.Random, cx: GeoComplex) -> GeoComplex:
    """The boundary sphere of a triangulated cube with two hairs into the
    inside, v1 to the centre c and v2 halfway to c, at seeded boundary
    vertices: not collapsible, but with free faces, so the search collapses
    the hairs in both orders, backtracking and filing failed states."""
    n = cx.ambient_dim
    shell = sorted({f for m in cx.maximal_simplexes() for f in simplex_faces(m)
                    if f.dim == n - 1 and any(len({v[i] for v in f.vertices}) == 1
                                              and f.vertices[0][i] in (0, 1) for i in range(n))})
    v1, v2 = rng.sample(sorted({v for f in shell for v in f.vertices}), 2)
    c = rpoint(*["1/2"] * n)
    m = rpoint(*[(a + b) / 2 for a, b in zip(v2, c)])
    return from_maximal(shell + [GeoSimplex((v1, c)), GeoSimplex((v2, m))])


def _condition_inputs(rng: random.Random) -> list[GeoComplex]:
    """The corpus complexes, seeded stellar squares and cube3s and their
    shells with hairs, the random_simplex pool, and the boundaries of the
    pool's simplexes of positive dimension, which are spheres or point
    pairs and so not collapsible."""
    docs = [parse_scx(path.read_text(encoding="utf-8"))
            for path in sorted(resources.files("zrk.corpus").iterdir())
            if path.name.endswith(".scx")]
    corpus = [doc.payload for doc in docs if doc.kind == "complex"]
    stellars = [stellar_chain(standard_cube(n), [_point_in(rng, standard_cube(n))
                                                 for _ in range(rng.randint(1, 3))])
                for n in (2, 2, 3, 3, 3, 3)]
    pool = random_simplex_pool()
    return (corpus + stellars + [_shell_with_hairs(rng, cx) for cx in stellars]
            + [GeoComplex([s]) for s in pool]
            + [from_maximal([f for f in simplex_faces(s) if f.dim == s.dim - 1])
               for s in pool if s.dim > 0])


def test_condition_kernels_and_the_collapse_search_commute_with_cube_symmetries():
    # For a cube symmetry g: |gK| has a strongly regular triangulation iff
    # |K| has; the cube vertices in |gK| are g applied to those in |K|; and
    # find_collapse_sequence finds a sequence on gK iff it finds one on K.
    # A search that finds none within the budget may have run out of it,
    # so a difference the other side undoes at ten times the budget is
    # counted as budget-bound, not as a mismatch.
    rng = random.Random(1444)
    answers, budget_bound = collections.Counter(), 0
    for cx in _condition_inputs(rng):
        g = random_symmetry(rng, cx.ambient_dim)
        gcx = act(g, cx)
        srp = is_strongly_regular_polyhedron(cx)
        assert is_strongly_regular_polyhedron(gcx) == srp, (cx, g)
        corners = {act(g, v) for v in _lattice_points_in(cx)}
        assert set(_lattice_points_in(gcx)) == corners, (cx, g)
        found = [find_collapse_sequence(k, budget=500) is not None for k in (cx, gcx)]
        if found[0] != found[1]:
            retried = find_collapse_sequence((cx, gcx)[found[0]], budget=5000)
            assert retried is not None, (cx, g)
            budget_bound += 1
        answers[srp, bool(corners), found[0]] += 1
    print(f"budget-bound collapse differences: {budget_bound}")
    assert {a for a, _, _ in answers} == {b for _, b, _ in answers} == {True, False}, answers
    assert answers[True, True, False] >= 10 and answers[True, True, True] >= 10, answers
