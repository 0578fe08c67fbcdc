import collections
import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

from zrk import (AbsComplex, GeoComplex, GeoSimplex, PLMap, RPoint, WeightedComplex,
                 certify_main, desingularize, find_collapse_sequence, free_faces, from_maximal, realize, replay,
                 rpoint, skeleton, standard_cube, stellar,
                 pipeline_dh, part2_reduce, refine_for_map,
                 common_refinement, verify_zretract)
from zrk import linalg
from zrk import complexes
from zrk.collapse import CollapseSequence
from zrk.exactnum import lcd
from zrk.complexes import (NotASimplicialComplex, _boundary_facets,
                           _independent_vertices, _meet_in_common_face, _placement,
                           _separated, _triangulates_cube, _triangulates_hull)
from zrk.zmaps import DomainError
from zrk.regular import coprime_point, is_regular
from zrk.scx import ScxDocument, ScxError, parse_scx, print_scx

from conftest import random_rational, random_simplex, seg, tri
from oracles import (FractionRPoint, _json_point, barycentric_coords, closure_complex,
                     closure_realize, elementary_collapse,
                     enumerate_meet_in_common_face, fraction_aff_dim, fraction_barycenter,
                     lp_meet_in_common_face, relint_contains, scan_carrier,
                     retarget_to_carrier_vertices, rows_triangulates_cube, scan_hosts,
                     scan_maximal_simplexes, simplex_faces, simplicially_isomorphic,
                     stellar_chain, volume_triangulates_cube)


def test_from_maximal_segment():
    cx = from_maximal([seg(0, 1)])
    # vertex a, vertex b, the edge
    assert len(cx.simplexes) == 3


def test_from_maximal_two_triangles():
    cx = from_maximal([tri((0, 0), (1, 0), (1, 1)), tri((0, 0), (0, 1), (1, 1))])
    by_dim = {}
    for s in cx.simplexes:
        by_dim.setdefault(s.dim, 0)
        by_dim[s.dim] += 1
    assert by_dim == {0: 4, 1: 5, 2: 2}


def test_from_maximal_rejects_overlap():
    with pytest.raises(NotASimplicialComplex, match="not a simplicial complex"):
        from_maximal([seg(0, 1), seg("1/2", "3/2")])


def test_from_maximal_rejects_vertex_inside_edge():
    with pytest.raises(NotASimplicialComplex):
        from_maximal([seg(0, 1), GeoSimplex((rpoint("1/2"),))])


def test_common_face_hand_cases_in_r3():
    base = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
    cases = [
        # a segment piercing the interior of a triangle
        (tri(("1/4", "1/4", -1), ("1/4", "1/4", 1)), base, False),
        # two coplanar triangles that overlap
        (base, tri(("1/4", "1/4", 0), (2, "1/4", 0), ("1/4", 2, 0)), False),
        # coplanar triangles sharing a vertex and still overlapping
        (base, tri((0, 0, 0), (1, 1, 0), (1, 2, 0)), False),
        # two triangles touching only at a shared vertex
        (base, tri((0, 0, 0), (1, 1, 1), (1, 0, 1)), True),
        # two triangles sharing an edge, one bent out of the plane
        (base, tri((0, 0, 0), (1, 0, 0), (1, 1, 1)), True),
        # two tetrahedra sharing an edge whose interiors overlap
        (tri((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
         tri((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1)), False),
        # disjoint simplexes whose bounding boxes overlap
        (tri((0, 0, 0), (1, 1, 1)), tri((1, 0, 0), (0, 1, 0), (1, 1, 0)), True),
    ]
    for a, b, expected in cases:
        for x, y in ((a, b), (b, a)):
            assert _meet_in_common_face(x, y) is expected, (x, y)
            assert enumerate_meet_in_common_face(x, y) is expected, (x, y)


def test_first_failing_pair_is_reported():
    # In combinations order the pairs are (s0, s1), (s0, s2), (s1, s2); the
    # second is the first improper one.
    s0 = tri((0, 0), (1, 0), (0, 1))
    s1 = tri((1, 0), (0, 1), (1, 1))
    s2 = tri(("1/4", "1/4"), (2, 2))
    message = ("not a simplicial complex: conv((0, 0), (0, 1), (1, 0)) and "
               "conv((1/4, 1/4), (2, 2)) do not meet in a common face")
    with pytest.raises(NotASimplicialComplex) as err:
        from_maximal([s2, s1, s0])
    assert str(err.value) == message
    text = ('{"version": "1", "kind": "complex", "dim": 2, "maximal_simplexes": '
            '[[["1/4", "1/4"], ["2", "2"]], [["1", "0"], ["0", "1"], ["1", "1"]], '
            '[["0", "0"], ["1", "0"], ["0", "1"]]]}')
    with pytest.raises(ScxError) as err:
        parse_scx(text)
    assert err.value.where == "maximal_simplexes"
    assert str(err.value) == "maximal_simplexes: " + message


def _pool_simplex(rng: random.Random, pool: list, k: int) -> GeoSimplex:
    while True:
        try:
            return GeoSimplex(tuple(rng.sample(pool, k + 1)))
        except ValueError:
            continue


def _seeded_pairs() -> list[tuple[GeoSimplex, GeoSimplex]]:
    rng = random.Random(20144)
    pairs = []
    # Faces of two stellar subdivisions of one cube: maximal simplexes and
    # random faces, from the same subdivision (always proper) and from two
    # different ones (often improper while sharing cube corners).
    for n in (2, 3, 4):
        for _ in range(2):
            cxs = []
            for _ in range(2):
                cx = standard_cube(n)
                for _ in range(rng.randint(1, 2)):
                    cx = stellar(cx, rpoint(*[random_rational(rng, 3)
                                              for _ in range(n)]))
                cxs.append((cx.maximal_simplexes(), sorted(cx.simplexes)))
            for _ in range(15):
                first, second = rng.choice([(0, 1), (0, 0), (1, 0)])
                pairs.append((rng.choice(rng.choice(cxs[first])),
                              rng.choice(rng.choice(cxs[second]))))
    # Simplexes of every dimension 0..d in R^d, drawn from one small pool:
    # the origin, the unit vectors and three points with denominators <= 3.
    for d in (1, 2, 3, 4):
        for _ in range(4):
            pool = [rpoint(*[Fraction(int(i == j)) for j in range(d)])
                    for i in range(-1, d)]
            pool += [rpoint(*[random_rational(rng, 3) for _ in range(d)])
                     for _ in range(3)]
            pool = list(dict.fromkeys(pool))
            for _ in range(12):
                pairs.append(tuple(_pool_simplex(rng, pool, rng.randint(0, d))
                                   for _ in range(2)))
    return pairs


def _shared(a: GeoSimplex, b: GeoSimplex) -> set:
    return set(a._vertex_rows) & set(b._vertex_rows)


def test_common_face_lp_matches_enumeration_oracle(monkeypatch):
    # The separating form may only ever certify proper pairs; it must also
    # fire often enough to matter.
    improper = shared_improper = fired = 0
    pairs = _seeded_pairs()
    for a, b in pairs:
        expected = enumerate_meet_in_common_face(a, b)
        for x, y in ((a, b), (b, a)):
            assert _meet_in_common_face(x, y) is expected, (x, y)
            assert lp_meet_in_common_face(x, y) is expected, (x, y)
            hit = _separated(x, y, _shared(x, y))
            assert not hit or expected, (x, y)
            fired += hit
        if not expected:
            improper += 1
            shared_improper += bool(set(a.vertices) & set(b.vertices))
    assert improper >= 20 and shared_improper >= 10
    assert fired >= len(pairs) - improper
    # Every box of cube4 overlaps every other, and 84 of its 276 pairs have
    # no separating form; the clip shows each of them proper.
    missed = [(a, b) for a, b in itertools.combinations(
                  standard_cube(4).maximal_simplexes(), 2)
              if not (_separated(a, b, _shared(a, b)) or _separated(b, a, _shared(a, b)))]
    assert len(missed) == 84
    calls = []
    clip = linalg.clip_simplex
    monkeypatch.setattr(linalg, "clip_simplex",
                        lambda *args: calls.append(1) or clip(*args))
    for a, b in missed:
        assert _meet_in_common_face(a, b) and enumerate_meet_in_common_face(a, b), (a, b)
    assert len(calls) == len(missed)


def test_common_face_clip_matches_lp_and_enumeration_oracles():
    # 2,000 pairs in R^1..R^5, each tested in both orders.  Each pool holds
    # the origin, the unit vectors, midpoints of up to three pairs of them
    # and a point with denominators <= 3, and simplexes of every dimension
    # are drawn from it: pairs share vertices, and a midpoint of an edge of
    # one simplex is often a vertex of the other.  Most pools are in low
    # dimensions, where the enumeration oracle is cheap.
    rng = random.Random(2013)
    seen = {"improper": 0, "shared": 0, "low": 0, "midpoint": 0}
    for d, pools in ((1, 60), (2, 70), (3, 40), (4, 20), (5, 10)):
        corners = [rpoint(*[int(i == j) for j in range(d)]) for i in range(-1, d)]
        for _ in range(pools):
            mids = {rpoint(*[(x + y) / 2 for x, y in zip(p, q)])
                    for p, q in rng.sample(list(itertools.combinations(corners, 2)),
                                           min(d, 3))}
            pool = corners + sorted(mids - set(corners)) + [
                rpoint(*[random_rational(rng, 3) for _ in range(d)])]
            pool = list(dict.fromkeys(pool))
            for _ in range(10):
                a, b = (_pool_simplex(rng, pool, rng.randint(0, d)) for _ in range(2))
                expected = enumerate_meet_in_common_face(a, b)
                for x, y in ((a, b), (b, a)):
                    assert _meet_in_common_face(x, y) is expected, (x, y)
                    assert lp_meet_in_common_face(x, y) is expected, (x, y)
                seen["improper"] += not expected
                seen["shared"] += bool(set(a.vertices) & set(b.vertices))
                seen["low"] += min(a.dim, b.dim) < d
                seen["midpoint"] += bool(mids & set(a.vertices + b.vertices))
    assert min(seen.values()) >= 250, seen


def test_separating_form_never_fires_on_overlaps():
    # Improper pairs with shared vertices, where no form may fire.
    base = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
    for a, b in [
            # coplanar triangles sharing a vertex and still overlapping
            (base, tri((0, 0, 0), (1, 1, 0), (1, 2, 0))),
            # tetrahedra sharing an edge whose interiors overlap
            (tri((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
             tri((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1))),
            # a segment piercing a triangle
            (tri(("1/4", "1/4", -1), ("1/4", "1/4", 1)), base)]:
        for x, y in ((a, b), (b, a)):
            assert not _separated(x, y, _shared(x, y)), (x, y)


def test_separating_form_fires_through_an_equality_row():
    # a lies in z = 0 and b meets it in the origin only.  The barycentric
    # forms x and y of a take both signs on b's other vertices, so only the
    # hull equality z = 0 of a separates.
    a = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
    b = tri((0, 0, 0), (1, 1, 1), (-1, 0, 1), (0, -1, 1))
    assert _separated(a, b, _shared(a, b))
    # A segment on the x axis against a triangle above it, sharing nothing.
    c = tri((0, 0, 0), (1, 0, 0))
    d = tri((-1, -1, 1), (2, 1, 1), (0, 2, "1/2"))
    assert _separated(c, d, _shared(c, d))
    for x, y in ((a, b), (c, d)):
        assert _meet_in_common_face(x, y) and enumerate_meet_in_common_face(x, y)


def _t_junction() -> list[GeoSimplex]:
    """A T-junction: one of the two tetrahedra of cube3 at the triangle
    (0,0,0), (1,0,0), (1,1,1) is coned from a point inside it."""
    cube = standard_cube(3).maximal_simplexes()
    triangle = (rpoint(0, 0, 0), rpoint(1, 0, 0), rpoint(1, 1, 1))
    coned = next(m for m in cube if set(triangle) <= set(m.vertices))
    inside = rpoint("2/3", "1/6", "1/6")
    return [m for m in cube if m != coned] + [
        GeoSimplex(tuple(v for v in coned.vertices if v != u) + (inside,))
        for u in triangle]


_CORNERS = [(0, 0), (1, 0), (1, 1), (0, 1)]


def _square_fans() -> tuple[list[GeoSimplex], list[GeoSimplex]]:
    """Two fans that each triangulate the square, with different facets."""
    ring = [(0, 0), ("1/2", 0), (1, 0), (1, "1/2"), (1, 1), ("1/2", 1), (0, 1),
            (0, "1/2")]
    return ([tri(("1/3", "1/3"), _CORNERS[i], _CORNERS[(i + 1) % 4]) for i in range(4)],
            [tri(("2/3", "1/2"), ring[i], ring[(i + 1) % 8]) for i in range(8)])


def _fan(p) -> list[GeoSimplex]:
    """A fan from the centre of the square with the triangle at the bottom
    split from p: a triangulation for p inside it, a fold otherwise."""
    return [tri((0, 0), (1, 0), p), tri((1, 0), ("1/2", "1/2"), p),
            tri(("1/2", "1/2"), (0, 0), p)] + [
        tri(_CORNERS[i], _CORNERS[(i + 1) % 4], ("1/2", "1/2")) for i in (1, 2, 3)]


def _folded_corners() -> list[GeoSimplex]:
    """The four corner triangles cut off the square by the diamond on its
    edge midpoints, each covered twice: once whole and once coned from its
    centroid.  Every edge lies in two triangles and the areas add up to 1,
    but the two at each edge of a corner triangle lie on one side of it."""
    half = Fraction(1, 2)
    maxi = []
    for t in (((0, 0), (half, 0), (0, half)), ((1, 0), (half, 0), (1, half)),
              ((1, 1), (half, 1), (1, half)), ((0, 1), (half, 1), (0, half))):
        centroid = tuple(sum(map(Fraction, c)) / 3 for c in zip(*t))
        maxi += [tri(*t)] + [tri(t[i], t[i - 1], centroid) for i in range(3)]
    return maxi


def _moved_vertex_cubes():
    """Seeded stellar subdivisions of cube1-4, each with the complex made by
    moving one vertex that is not a corner: nudged, or moved to a random
    point, some out of the cube.  The moved complex is None when there is
    no such vertex or the move flattened a simplex."""
    rng = random.Random(4321)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
            inner = [v for v in cx.vertices() if any(0 < c < 1 for c in v)]
            if not inner:
                yield cx, None
                continue
            old = rng.choice(inner)
            if rng.random() < 0.5:  # a nudge, which often keeps the complex proper
                new = rpoint(*[c + Fraction(rng.randint(-1, 1), 16) for c in old])
            else:
                new = rpoint(*[random_rational(rng, 4, -1 if rng.random() < 0.2 else 0)
                               for _ in range(n)])
            try:
                moved = GeoComplex([GeoSimplex(tuple(new if v == old else v
                                                     for v in m.vertices))
                                    for m in cx.maximal_simplexes()], validate=False)
            except ValueError:
                moved = None
            yield cx, moved


def test_cube_fast_path_turns_down_improper_cubes():
    # Each complex fails the linear cube test, and the pairwise loop then
    # reports the pair it reported before the cube test existed.
    fans = _square_fans()
    # Either fan triangulates the square, and their facets differ, so the
    # double-wound square passes every test but the volume sum.
    assert all(_triangulates_cube(GeoComplex(fan, validate=False)) for fan in fans)
    assert _triangulates_cube(GeoComplex(_fan(("1/2", "1/4")), validate=False))
    cases = [
        (fans[0] + fans[1], "conv((0, 0), (0, 1/2), (2/3, 1/2))",
         "conv((0, 0), (0, 1), (1/3, 1/3))"),
        (_t_junction(), "conv((0, 0, 0), (2/3, 1/6, 1/6), (1, 0, 0), (1, 0, 1))",
         "conv((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))"),
        # A fold: p is moved across the edges from the centre to (0,0) and (1,0).
        (_fan(("1/2", "3/4")), "conv((0, 0), (0, 1), (1/2, 1/2))",
         "conv((0, 0), (1/2, 1/2), (1/2, 3/4))"),
        # The same fold with p outside the cube.
        (_fan(("1/2", "3/2")), "conv((0, 0), (0, 1), (1/2, 1/2))",
         "conv((0, 0), (1/2, 1/2), (1/2, 3/2))"),
    ]
    for maxi, a, b in cases:
        cx = GeoComplex(maxi, validate=False)
        assert not _triangulates_cube(cx)
        with pytest.raises(NotASimplicialComplex) as err:
            cx._validate()
        assert str(err.value) == (
            f"not a simplicial complex: {a} and {b} do not meet in a common face")


def test_cube_fast_path_never_accepts_an_improper_complex():
    # Whatever the cube test accepts of the moved-vertex complexes, the
    # pairwise loop accepts too.  Unmoved, every one passes the cube test.
    seen = collections.Counter()
    for cx, moved in _moved_vertex_cubes():
        assert _triangulates_cube(cx)
        if moved is None:
            continue
        fast = _triangulates_cube(moved)
        proper = all(_meet_in_common_face(a, b) for a, b in
                     itertools.combinations(moved.maximal_simplexes(), 2))
        assert proper or not fast, moved
        seen[fast, proper] += 1
    assert seen[False, False] >= 10 and seen[True, True] >= 10, seen


def test_cube_test_matches_the_row_oracle():
    # Orientations and volumes decide what barycentric rows and a
    # barycentre count decided, on cube triangulations and on complexes
    # that fail each of (c)-(f): cube1-5, seeded stellar subdivisions and
    # common refinements, the two square fans overlaid (covering twice),
    # the T-junction, the folds, the folded corners, which fail (e) alone,
    # the overlaid square, the moved-vertex complexes and cubes with one
    # maximal simplex dropped.
    rng = random.Random(1405)
    cubes = [standard_cube(n) for n in (1, 2, 3, 4, 5)]
    for n in (1, 2, 3, 4):
        pair = []
        for _ in range(2):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 6) for _ in range(n)]))
            pair.append(cx)
        cubes += pair + [common_refinement(*pair)]
    fans = _square_fans()
    square = standard_cube(2).maximal_simplexes()
    cases = [GeoComplex(maxi, validate=False) for maxi in (
        fans[0], fans[1], fans[0] + fans[1], _t_junction(), _fan(("1/2", "1/4")),
        _fan(("1/2", "3/4")), _fan(("1/2", "3/2")), _folded_corners(),
        list(square) + [tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])]
    cases += [moved for _, moved in _moved_vertex_cubes() if moved is not None]
    for cx in cubes:
        maxi = cx.maximal_simplexes()
        if len(maxi) > 1:
            dropped = rng.randrange(len(maxi))
            cases.append(GeoComplex(maxi[:dropped] + maxi[dropped + 1:], validate=False))
    seen = collections.Counter()
    for cx in cubes + cases:
        fresh = GeoComplex(cx.maximal_simplexes(), validate=False)
        expected = rows_triangulates_cube(fresh)
        assert _triangulates_cube(cx) is expected, cx
        seen[expected] += 1
    assert seen[True] >= 40 and seen[False] >= 60, seen


def test_constructor_determinant_is_the_plain_one():
    # The checking constructor keeps the determinant of its rank
    # elimination; a simplex built raw computes it by a plain elimination.
    rng = random.Random(7105)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            s = random_simplex(rng, n, 5)
            raw = GeoSimplex._raw(s.vertices)
            assert s._det == raw._det == linalg.det(s._vertex_rows), s
            assert (s._det != 0) is (s.dim == n), s


def test_cube_test_eliminates_once_per_simplex(monkeypatch):
    # Parsing cube5 eliminates each maximal simplex once, for its rank and
    # determinant, and builds no barycentric rows; a complex of simplexes
    # built raw, a stellar cube3 or the domain of a pipeline_dh map, is
    # tested with one plain elimination per maximal simplex.
    cube = standard_cube(5)
    text = print_scx(ScxDocument("complex", cube))
    stellars = stellar_chain(standard_cube(3), [rpoint("1/3", "1/5", "1/2"),
                                                rpoint("2/3", "3/4", "1/7")])
    half = rpoint("1/2", "1/2")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {rpoint(0, 0): rpoint(0, 0), rpoint(1, 0): half,
                          rpoint(0, 1): half, rpoint(1, 1): half})
    fold = fold.rebase(stellar(square, rpoint("1/4", "1/2")))
    domain = pipeline_dh(fold, from_maximal([GeoSimplex((rpoint(0, 0), half))])).map.domain
    raws = [GeoComplex([GeoSimplex._raw(s.vertices) for s in cx.maximal_simplexes()],
                       validate=False) for cx in (stellars, domain)]
    calls = collections.Counter()
    bareiss, rows = linalg._bareiss, linalg.simplex_rows
    monkeypatch.setattr(linalg, "_bareiss", lambda m, reduced=False: calls.update(
        ["reduced" if reduced else "plain"]) or bareiss(m, reduced))
    monkeypatch.setattr(linalg, "simplex_rows",
                        lambda vectors: calls.update(["rows"]) or rows(vectors))
    assert parse_scx(text).payload == cube
    assert calls == {"plain": 120}, calls
    for raw in raws:
        calls.clear()
        assert raw._is_cube()
        assert calls == {"plain": len(raw.maximal_simplexes())}, calls


def test_cube_test_matches_summing_volumes():
    # The linear cube test that a complex keeps (GeoComplex._is_cube) and
    # the volume sum that zmaps used before agree on complexes: cube1-4,
    # seeded stellar subdivisions and common refinements of them, parsed
    # corpus domains, and complexes in the cube that miss part of it.
    rng = random.Random(20210)
    stellars = {n: [] for n in (1, 2, 3)}
    for n in stellars:
        for _ in range(4):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
            stellars[n].append(cx)
    cubes = [standard_cube(n) for n in (1, 2, 3, 4)]
    cubes += [cx for n in stellars for cx in stellars[n]]
    cubes += [common_refinement(stellars[n][0], stellars[n][1]) for n in stellars]
    for name in ("tent_retraction", "square_to_half_diagonal", "cube1", "cube2", "cube3"):
        doc = parse_scx((resources.files("zrk.corpus") / f"{name}.scx").read_text())
        cubes.append(doc.payload.domain if doc.kind == "plmap" else doc.payload)
    others = []
    for cx in cubes:
        maxi = cx.maximal_simplexes()
        if len(maxi) > 1:
            others.append(from_maximal(rng.sample(maxi, len(maxi) - 1)))
    others += [stellar_chain(from_maximal([tri((0, 0), (1, 0), (0, 1))]),
                             [rpoint("1/4", "1/2"), rpoint("1/3", "1/3")]),
               from_maximal([tri((0, 0), (2, 0), (2, 1)), tri((0, 0), (0, 1), (2, 1))])]
    for cx in cubes + others:
        expected = cx in cubes
        assert volume_triangulates_cube(cx) is expected, cx
        fresh = GeoComplex(cx.maximal_simplexes(), validate=False)
        assert cx._is_cube() is fresh._is_cube() is cx._is_cube() is expected, cx


def test_cube_test_turns_down_what_is_not_a_cube_triangulation():
    # Not complexes triangulating the cube: a vertex moved out of the cube,
    # the two triangulations of the square overlaid, and a T-junction.  The
    # volume sum accepts the T-junction, which is no simplicial complex, so
    # it could only reach the cube test unvalidated; verify_zretract turns
    # each down.
    square = standard_cube(2).maximal_simplexes()
    cases = {
        "outside": [GeoSimplex(tuple(rpoint(1, "3/2") if v == rpoint(1, 1) else v
                                     for v in m.vertices)) for m in square],
        "overlaid": list(square) + [tri((0, 0), (1, 0), (0, 1)),
                                    tri((1, 0), (0, 1), (1, 1))],
        "junction": _t_junction(),
    }
    for name, maxi in cases.items():
        cx = GeoComplex(maxi, validate=False)
        assert not cx._is_cube(), name
        assert volume_triangulates_cube(cx) is (name == "junction"), name
        if name != "outside":
            with pytest.raises(NotASimplicialComplex):
                cx._validate()
        part = GeoComplex([GeoSimplex((cx.vertices()[0],))], validate=False)
        with pytest.raises(DomainError, match="must triangulate the unit cube"):
            verify_zretract(part, PLMap(cx, {v: v for v in cx.vertices()}))


def test_cube_complexes_validate_without_pair_tests(monkeypatch):
    # Parsing cube5 ran 7,140 pair tests before the linear cube test.
    text = print_scx(ScxDocument("complex", standard_cube(5)))
    calls = []
    meet = complexes._meet_in_common_face
    monkeypatch.setattr(complexes, "_meet_in_common_face",
                        lambda a, b: calls.append(1) or meet(a, b))
    assert parse_scx(text).payload == standard_cube(5)
    assert not calls


def _x0_first(n: int) -> GeoComplex:
    """The chains of cube n that rise along x_0 first: a triangulation of
    the convex region x_0 >= x_i of the cube, with (n - 1)! simplexes."""
    first = rpoint(1, *[0] * (n - 1))
    return GeoComplex([s for s in standard_cube(n).maximal_simplexes()
                       if s.vertices[1] == first], validate=False)


def _pair_loop_accepts(cx: GeoComplex) -> bool:
    return all(_meet_in_common_face(a, b)
               for a, b in itertools.combinations(cx.maximal_simplexes(), 2))


def _linear_tests_accept(cx: GeoComplex) -> bool:
    return _independent_vertices(cx) or _triangulates_hull(cx)


def _random_point_in(rng: random.Random, s: GeoSimplex) -> RPoint:
    """A convex combination of s's vertices with random weights, some of
    them 0, so the point may lie on a proper face."""
    weights = [rng.randint(0, 3) for _ in s.vertices]
    weights[rng.randrange(len(weights))] += 1
    total = sum(weights)
    return RPoint(tuple(sum(Fraction(w, total) * v[i] for w, v in zip(weights, s.vertices))
                        for i in range(s.ambient_dim)))


def _random_realization(rng: random.Random) -> GeoComplex:
    labels = "abcdefg"[:rng.randint(4, 7)]
    indices = range(len(labels))
    faces = [rng.sample(indices, rng.randint(1, 3)) for _ in range(rng.randint(3, 6))]
    faces += [(i,) for i in indices]
    base = AbsComplex(labels, faces)
    return realize(WeightedComplex(base, [rng.randint(1, 6) for _ in labels]))


def test_linear_tests_accept_convex_triangulations_and_realizations():
    # Seeded stellar subdivisions of a simplex and of the x0-first region of
    # a cube pass the hull test, and realizations the vertex-set test; the
    # pair loop, the oracle, accepts every one.
    rng = random.Random(7118)
    convex = []
    for n in (1, 2, 3, 4):
        for _ in range(5):
            s = random_simplex(rng, n, 5)
            while s.dim < n:
                s = random_simplex(rng, n, 5)
            convex.append(GeoComplex([s], validate=False))
        convex += [_x0_first(n)] * 4 if n > 2 else []
    subdivided = []
    for cx in convex:
        steps = rng.randint(2, 4)
        while steps or len(cx.maximal_simplexes()) < 3:
            cx = stellar(cx, _random_point_in(rng, rng.choice(cx.maximal_simplexes())))
            steps = max(steps - 1, 0)
        subdivided.append(cx)
    subdivided += [_x0_first(n) for n in (4, 5)]
    realized = [_random_realization(rng) for _ in range(20)]
    for cx in subdivided:
        assert len(cx.maximal_simplexes()) >= 3, cx
        assert _triangulates_hull(cx) and _pair_loop_accepts(cx), cx
    for cx in realized:
        assert _independent_vertices(cx) and _pair_loop_accepts(cx), cx
    assert sum(len(cx.maximal_simplexes()) >= 3 for cx in realized) >= 10


def _stacked_fans() -> list[GeoSimplex]:
    """Two triangulations of the square with no facet in common, stacked:
    every edge lies in one triangle on the square's boundary or in two on
    opposite sides, so only the barycentre test finds the double cover."""
    fans = _square_fans()
    return fans[0] + fans[1]


def _plane_t_junction() -> list[GeoSimplex]:
    """A triangle whose long edge is met across by two smaller edges."""
    return [tri((0, 0), (1, 0), (0, 1)), tri((1, 0), ("1/2", "1/2"), (1, 1)),
            tri(("1/2", "1/2"), (0, 1), (1, 1))]


def _double_annulus() -> list[GeoSimplex]:
    """A strip of triangles between an inner and an outer ring that winds
    twice around the origin, the second turn on slightly larger rings."""
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    inner, outer = [], []
    for j in range(8):
        r = Fraction(3, 2) if j >= 4 else Fraction(1)
        x, y = directions[j % 4]
        inner.append((x * r, y * r))
        outer.append((x * (r + 2), y * (r + 2)))
    maxi = []
    for j in range(8):
        k = (j + 1) % 8
        maxi += [tri(inner[j], outer[j], outer[k]), tri(inner[j], outer[k], inner[k])]
    return maxi


def _moved_kuhn() -> list[GeoSimplex]:
    """The x0-first region of cube4 with the vertex e_0 moved off the cube."""
    old, new = rpoint(1, 0, 0, 0), rpoint(0, "-1/2", "-1/2", "1/2")
    return [GeoSimplex(tuple(new if v == old else v for v in m.vertices))
            for m in _x0_first(4).maximal_simplexes()]


def test_linear_tests_turn_down_improper_complexes():
    # Improper complexes of three or more maximal simplexes, among them some
    # that every local test passes: the stacked fans (found by the
    # barycentre), the T-junction and the annulus (by a boundary facet that
    # does not support the hull), a moved Kuhn vertex, and a path folding
    # back (by the orientations).  The linear tests turn each down and the
    # pair loop rejects it.
    cases = {
        "stacked": _stacked_fans(),
        "plane junction": _plane_t_junction(),
        "space junction": _t_junction(),
        "annulus": _double_annulus(),
        "moved kuhn": _moved_kuhn(),
        "fold": [seg(0, "1/2"), seg("1/2", 1), seg("3/4", 1)],
    }
    for name, maxi in cases.items():
        cx = GeoComplex(maxi, validate=False)
        assert len(cx.maximal_simplexes()) >= 3, name
        assert not _linear_tests_accept(cx), name
        assert not _pair_loop_accepts(cx), name
        with pytest.raises(NotASimplicialComplex):
            cx._validate()
    stacked = GeoComplex(cases["stacked"], validate=False)
    assert _boundary_facets(stacked) is not None


def test_a_facet_in_three_triangles_fails_the_linear_tests():
    # Three triangles of [0,1]^2 on its diagonal, holding all four corners:
    # the facet pass finds the diagonal in three maximal simplexes and
    # stops, so the cube and hull tests answer no, and the parse fails at
    # the first pair of the pair loop that overlaps.
    maxi = [tri((0, 0), (0, 1), (1, 1)), tri((0, 0), (1, 0), (1, 1)),
            tri((0, 0), (1, "1/2"), (1, 1))]
    cx = GeoComplex(maxi, validate=False)
    assert _boundary_facets(cx) is None
    assert not _triangulates_cube(cx) and not _triangulates_hull(cx)
    with pytest.raises(ScxError) as err:
        parse_scx(print_scx(ScxDocument("complex", cx)))
    assert err.value.where == "maximal_simplexes"
    assert str(err.value) == (f"maximal_simplexes: not a simplicial complex: {maxi[1]} and "
                              f"{maxi[2]} do not meet in a common face")


@pytest.mark.parametrize("build, error, message", [
    (lambda: GeoSimplex(()), ValueError, "a simplex needs at least one vertex"),
    (lambda: GeoSimplex((rpoint(0), rpoint(0, 1))), ValueError,
     "vertices must share an ambient dimension"),
    (lambda: GeoComplex([]), NotASimplicialComplex, "a complex needs at least one simplex"),
    (lambda: GeoComplex([seg(0, 1), tri((0, 0), (1, 0), (0, 1))]), NotASimplicialComplex,
     "mixed ambient dimensions"),
    (lambda: standard_cube(0), ValueError, "n must be >= 1"),
    (lambda: CollapseSequence((), seg(0, 1)), ValueError, "terminal must be a vertex"),
    (lambda: lcd([]), ValueError, "empty input"),
    (lambda: coprime_point(tri((0, 0), (1, 0), (0, 1)), 0), ValueError, "k must be positive"),
    (lambda: PLMap(from_maximal([seg(0, 1)]), {rpoint(0): rpoint(0), rpoint(1): rpoint(0, 1)}),
     ValueError, "vertex images must share an ambient dimension"),
])
def test_constructor_checks_refuse_with_their_text(build, error, message):
    # Checks on the arguments of constructors and helpers that no other
    # test reached: each raises its own error type with its own text.
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_linear_tests_never_accept_what_the_pair_loop_rejects():
    # Seeded stellar subdivisions of cube1-4 and of the x0-first regions of
    # cube3-4 with one vertex moved: whatever the linear tests accept, the
    # pair loop accepts too.
    seen = collections.Counter()
    moved = [m for _, m in _moved_vertex_cubes() if m is not None]
    rng = random.Random(1405)
    for n in (3, 4):
        for _ in range(30):
            cx = _x0_first(n)
            for _ in range(rng.randint(1, 2)):
                cx = stellar(cx, _random_point_in(rng, rng.choice(cx.maximal_simplexes())))
            old = rng.choice(cx.vertices())
            new = rpoint(*[c + Fraction(rng.randint(-2, 2), 4) for c in old])
            try:
                moved.append(GeoComplex([GeoSimplex(tuple(new if v == old else v
                                                          for v in m.vertices))
                                         for m in cx.maximal_simplexes()], validate=False))
            except ValueError:
                pass
    for cx in moved:
        fast = _linear_tests_accept(cx)
        proper = _pair_loop_accepts(cx)
        assert proper or not fast, cx
        seen[fast, proper] += 1
    assert seen[True, True] >= 20 and seen[False, False] >= 20, seen


def _count_pair_tests(monkeypatch) -> list:
    calls = []
    meet = complexes._meet_in_common_face
    monkeypatch.setattr(complexes, "_meet_in_common_face",
                        lambda a, b: calls.append(1) or meet(a, b))
    return calls


def test_a_valid_non_convex_complex_passes_the_pair_loop(monkeypatch):
    # An L of three unit squares is no convex region: the hull test turns it
    # down, and the pair loop accepts it.
    maxi = []
    for x, y in ((0, 0), (1, 0), (0, 1)):
        maxi += [tri((x, y), (x + 1, y), (x + 1, y + 1)), tri((x, y), (x, y + 1), (x + 1, y + 1))]
    calls = _count_pair_tests(monkeypatch)
    cx = from_maximal(maxi)
    assert not _triangulates_hull(cx) and not _independent_vertices(cx)
    assert len(calls) == 15


def test_convex_witnesses_validate_without_pair_tests(monkeypatch):
    # Parsing the x0-first cube6 region ran 7,140 pair tests before the
    # hull test; its desingularizations, the seed-23 ones with three or
    # more maximal simplexes, and realizations run none.
    from test_regular import _desingularize_inputs

    texts = [print_scx(ScxDocument("complex", _x0_first(n))) for n in (5, 6)]
    fine = [desingularize(cx) for cx in _desingularize_inputs()[:15]]
    texts += [print_scx(ScxDocument("complex", cx)) for cx in fine
              if len(cx.maximal_simplexes()) >= 3]
    rng = random.Random(3)
    realized = [_random_realization(rng) for _ in range(10)]
    texts += [print_scx(ScxDocument("complex", cx)) for cx in realized
              if len(cx.maximal_simplexes()) >= 3]
    assert len(texts) >= 2 + 6 + 5
    calls = _count_pair_tests(monkeypatch)
    for text in texts:
        parse_scx(text)
    assert not calls


def test_points_compare_as_fraction_tuples():
    # Points compare their integer vectors; the reference is the order of
    # their Fraction coordinate tuples, which the generated dataclass
    # methods used.  Coordinates are negative and positive over mixed
    # denominators, ambient dimensions differ, equal points come as
    # distinct objects and some points are prefixes of others.  Equal
    # points hash alike.
    rng = random.Random(7118)
    points = [RPoint(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12)))
                           for _ in range(rng.randint(1, 3))))
              for _ in range(160)]
    points += [RPoint(p.coords) for p in rng.sample(points, 20)]
    points += [RPoint(p.coords[:-1]) for p in points[:60] if p.dim > 1]
    for p, q in itertools.product(points, repeat=2):
        x, y = p.coords, q.coords
        assert ((p == q, p != q, p < q, p <= q, p > q, p >= q)
                == (x == y, x != y, x < y, x <= y, x > y, x >= y)), (p, q)
        assert p != q or hash(p) == hash(q), (p, q)
    assert [p.coords for p in sorted(points)] == sorted(p.coords for p in points)
    p = points[0]
    assert p != p.coords and not p == p.coords
    with pytest.raises(TypeError):
        p < p.coords


def test_point_order_comes_from_one_lt():
    # RPoint writes __lt__ alone and functools.total_ordering derives <=,
    # > and >= from it.  Seeded pairs with equal denominators, unequal
    # ones, equal points as distinct objects, and coordinate tuples of
    # which one is a proper prefix of the other: each operator agrees with
    # comparing the tuples.  Against a non-point each returns NotImplemented.
    rng = random.Random(4971)

    def point(k: int, d: int) -> RPoint:
        return RPoint(tuple(Fraction(rng.randint(-6, 6), d) for _ in range(k)))

    pairs = []
    for _ in range(300):
        k, d = rng.randint(1, 4), rng.choice((1, 2, 3, 4, 6))
        p = point(k, d)
        pairs += [(p, point(k, d)), (p, point(k, rng.choice((1, 2, 3, 5)))),
                  (p, RPoint(p.coords))]
        if k > 1:
            pairs.append((p, RPoint(p.coords[:rng.randint(1, k - 1)])))
    kinds = collections.Counter(
        "prefix" if p.dim != q.dim else "equal" if p == q
        else "same denominator" if p._homog[-1] == q._homog[-1] else "other denominator"
        for p, q in pairs)
    assert min(kinds.values()) >= 100 and len(kinds) == 4, kinds
    for p, q in pairs + [(q, p) for p, q in pairs]:
        x, y = p.coords, q.coords
        assert (p < q, p <= q, p > q, p >= q) == (x < y, x <= y, x > y, x >= y), (p, q)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        for other in (p.coords, 1, None):
            assert getattr(p, name)(other) is NotImplemented, (name, other)


def test_checking_a_certificate_compares_no_fractions(monkeypatch):
    # Once a point is parsed, parsing, validation, replay and point location
    # compare integers only.  The complex and its collapse sequence are
    # separate documents, so their points are distinct objects.
    cx = standard_cube(4)
    texts = (print_scx(ScxDocument("complex", cx)),
             print_scx(ScxDocument("sequence", find_collapse_sequence(cx))))
    calls = collections.Counter()
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _n=name, _f=real: calls.update([_n]) or _f(*args))
    assert Fraction(1, 2) < Fraction(2, 3) and calls == {"__lt__": 1}

    def count(stage, run):
        calls.clear()
        result = run()
        assert not calls, (stage, calls)
        return result

    parsed = count("parse the complex", lambda: parse_scx(texts[0]).payload)
    seq = count("parse the sequence", lambda: parse_scx(texts[1]).payload)
    assert parsed == cx
    assert not {id(v) for v in parsed.vertices()} & {id(v) for st in seq.steps
                                                     for v in st.maximal.vertices}
    count("validate", parsed._validate)
    assert count("replay", lambda: replay(parsed, seq))
    for p in (rpoint("1/3", "1/5", "2/7", "1/2"), rpoint(1, 0, 1, 1),
              rpoint(0, "1/2", 1, "1/2"), rpoint("-1/3", 0, 0, 0)):
        count("carrier", lambda: parsed.carrier(p))


def _count_hash_computations(points) -> list:
    """Forget the cached hash of each point and give it an equal vector
    that records every hash computed from it; the list of those records."""
    computed = []

    class Counted(tuple):
        def __hash__(self):
            computed.append(self)
            return tuple.__hash__(self)

    for p in points:
        complexes._set(p, "_homog", Counted(p._homog))
        complexes._set(p, "_hash", None)
    return computed


def test_hash_is_the_vector_hash_computed_once(monkeypatch):
    # A point hashes as its vector and a simplex as its vertex tuple, each
    # computed once per object and cached; no Fraction is hashed.
    s = tri(("1/2", 0), (0, "1/3"), (1, 1))
    raw = GeoSimplex._raw(s.vertices)
    simplexes = [s, raw, *simplex_faces(s), tri((1, 1), ("1/2", 0), (0, "1/3"))]
    for t in simplexes:
        assert hash(t) == hash((t.vertices,))
        for v in t.vertices:
            assert hash(v) == hash(v._homog)
    assert raw == s and hash(raw) == hash(s) == hash(simplexes[-1])
    assert hash(rpoint("1/2", 0)) == hash(s.vertices[1])

    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda x: calls.append(x) or fraction_hash(x))
    p = rpoint("2/5", "3/7")
    computed = _count_hash_computations([p])
    hash(p)
    assert calls == [] and computed == [p._homog]  # read off the integer vector
    t = GeoSimplex._raw((rpoint(0, 0), p))
    face = simplex_faces(tri((0, 0), ("2/5", "3/7"), (1, 0)))[0]
    for obj in (p, t, face):
        hash(obj)
        before = len(calls), len(computed)
        hash(obj)
        {obj}
        frozenset([obj])
        assert (len(calls), len(computed)) == before
    assert calls == [] and computed == [p._homog]
    monkeypatch.undo()
    assert hash(p) == hash(p._homog) == hash(rpoint("2/5", "3/7"))


def _random_face(rng: random.Random, s: GeoSimplex) -> GeoSimplex:
    return GeoSimplex(tuple(rng.sample(s.vertices, rng.randint(1, len(s.vertices)))))


def _stellar_chain(rng: random.Random, n: int, max_den: int, steps: int):
    cx = standard_cube(n)
    for _ in range(steps):
        cx = stellar(cx, rpoint(*[random_rational(rng, max_den) for _ in range(n)]))
    return cx


def test_maximal_simplexes_match_scanning_oracle():
    # cx.simplexes is read off the maximal simplexes, so the oracle closes
    # and scans the input itself: the maximal simplexes of stellar chains,
    # listed with random faces of them in random order.
    rng = random.Random(20145)
    non_pure = [tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (2, 0), (2, 1)),
                seg((0, 1), (-1, 2)), GeoSimplex((rpoint(3, 3),))]
    inputs = [non_pure, non_pure + [seg((0, 0), (1, 0)), GeoSimplex((rpoint(2, 1),))]]
    for n in (1, 2, 3, 4):
        for _ in range(2):
            cx = _stellar_chain(rng, n, 4, rng.randint(1, 3))
            assert cx.maximal_simplexes() == scan_maximal_simplexes(
                closure_complex(cx.maximal_simplexes()))
            maxi = list(cx.maximal_simplexes())
            inputs.append(maxi + [_random_face(rng, s)
                                  for s in rng.sample(maxi, min(6, len(maxi)))])
    for simplexes in inputs:
        rng.shuffle(simplexes)
        expected = scan_maximal_simplexes(closure_complex(simplexes))
        assert from_maximal(simplexes).maximal_simplexes() == expected
    assert {s.dim for s in from_maximal(non_pure).maximal_simplexes()} == {0, 1, 2}


def test_rank_tuples_read_the_vertex_table():
    # A complex numbers its vertices once: ``_rank`` maps each vertex to
    # its index in ``vertices()`` and ``_ranks[i]`` is the rank tuple of
    # ``maximal_simplexes()[i]``; the host map of a fresh complex is each
    # vertex's star, read off the rank tuples.
    # Inputs are cubes, stellar cubes, and non-pure lists with faces of
    # their simplexes and copies of their points, in seeded random order;
    # the kept simplexes are the scanning oracle's.
    rng = random.Random(20233)
    non_pure = [tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (2, 0), (2, 1)),
                seg((0, 1), (-1, 2)), GeoSimplex((rpoint(3, 3),)),
                seg((0, 0), (1, 0)), GeoSimplex((rpoint(2, 1),))]
    inputs = [non_pure]
    for n in (1, 2, 3, 4):
        inputs.append(list(standard_cube(n).maximal_simplexes()))
        maxi = list(_stellar_chain(rng, n, 4, rng.randint(1, 3)).maximal_simplexes())
        copies = [GeoSimplex(tuple(RPoint(v.coords) for v in s.vertices))
                  for s in rng.sample(maxi, min(4, len(maxi)))]
        inputs += [maxi, maxi + copies + [_random_face(rng, s)
                                          for s in rng.choices(maxi, k=6)]]
    for simplexes in inputs:
        rng.shuffle(simplexes)
        cx = GeoComplex(simplexes, validate=False)
        maxi, verts = cx.maximal_simplexes(), cx.vertices()
        assert maxi == scan_maximal_simplexes(closure_complex(simplexes))
        assert cx._rank == {v: i for i, v in enumerate(verts)}
        assert cx._ranks == tuple(tuple(verts.index(v) for v in s.vertices) for s in maxi)
        assert cx._hosts == {
            v: frozenset(i for i, s in enumerate(maxi) if v in s.vertices) for v in verts}
        # The map then keeps the hosts of a point that is not a vertex, which
        # makes it no vertex of the complex.
        b = max(maxi, key=lambda s: s.dim).barycenter()
        assert cx.hosts(b) == cx._hosts[b] and b not in cx._rank
        assert GeoSimplex((b,)) not in cx and GeoSimplex((verts[0], b)) not in cx
        assert all(s in cx for s in maxi)
    assert {s.dim for s in GeoComplex(non_pure).maximal_simplexes()} == {0, 1, 2}


def test_maximal_simplexes_come_in_sorted_order():
    # The constructor sorts by tuples of vertex ranks; the order must be
    # sorted() on GeoSimplex, the lexicographic order of the vertex tuples.
    # Inputs mix dimensions and hold equal points as distinct objects.
    rng = random.Random(20151)

    def check(cx, expected):
        assert cx.maximal_simplexes() == tuple(sorted(set(expected)))
        assert cx.vertices() == tuple(sorted({v for s in expected for v in s.vertices}))

    for n in (1, 2, 3, 4, 5):
        cube = standard_cube(n)
        s = rng.choice(cube.maximal_simplexes())
        face = GeoSimplex(tuple(rng.sample(s.vertices, rng.randint(2, n + 1))))
        cx = stellar(cube, face.barycenter())
        maxi = list(cx.maximal_simplexes())
        check(cx, maxi)
        far = rpoint(*[2] * n)
        extra = [GeoSimplex((rpoint(*[1] * n), far)), GeoSimplex((rpoint(*[3] * n),))]
        copies = [GeoSimplex(tuple(RPoint(v.coords) for v in s.vertices))
                  for s in rng.sample(maxi, min(5, len(maxi)))]
        mixed = maxi + extra + copies + [GeoSimplex((far,))] + [
            _random_face(rng, s) for s in rng.choices(maxi, k=6)]
        rng.shuffle(mixed)
        check(GeoComplex(mixed, validate=n <= 3), maxi + extra)


def _grid(n: int, rng: random.Random) -> list:
    """Points k/4 in [-1/4, 5/4]^n: every one for n <= 2, else 60 of them
    plus the corners of [0, 1]^n."""
    steps = [Fraction(k, 4) for k in range(-1, 6)]
    if n <= 2:
        return [rpoint(*c) for c in itertools.product(steps, repeat=n)]
    corners = [rpoint(*c) for c in itertools.product((0, 1), repeat=n)]
    return corners + [rpoint(*[rng.choice(steps) for _ in range(n)]) for _ in range(60)]


def test_representation_matches_closure_oracle():
    # Each case is a complex and the simplexes it was built from; the
    # oracle is their face closure with scanned maximal simplexes, as the
    # eager constructor stored them.  Cases: seeded stellar chains of
    # cube1-4, non-pure complexes, inputs listing simplexes with some of
    # their faces (also through parse_scx), realize outputs and
    # elementary_collapse results.
    rng = random.Random(20150)
    cases = []
    chains = {}
    for n in (1, 2, 3, 4):
        cx = chains[n] = _stellar_chain(rng, n, 4 if n <= 2 else 2, rng.randint(1, 3))
        cases.append((cx, cx.maximal_simplexes()))
        with_faces = list(cx.maximal_simplexes()) + [
            _random_face(rng, s) for s in rng.choices(cx.maximal_simplexes(), k=4)]
        rng.shuffle(with_faces)
        cases.append((GeoComplex(with_faces), with_faces))
    non_pure = [tri((0, 0, 0), (1, 0, 0), (0, 1, 0)), tri((1, 0, 0), (1, 1, 1)),
                GeoSimplex((rpoint(0, 0, 1),)), seg((0, 0, 0), (1, 0, 0)),
                GeoSimplex((rpoint(1, 1, 1),))]
    cases.append((from_maximal(non_pure), non_pure))
    text = ('{"version": "1", "kind": "complex", "dim": 2, "maximal_simplexes": '
            '[[["0", "0"], ["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]}')
    doc = parse_scx(text)
    triangle = tri((0, 0), (1, 0), (0, 1))
    assert print_scx(doc) == print_scx(ScxDocument("complex", from_maximal([triangle])))
    cases.append((doc.payload, [triangle, seg((1, 0), (0, 1))]))
    for base in (standard_cube(2), chains[2]):
        w = WeightedComplex(skeleton(base), [rng.randint(1, 3) for _ in base.vertices()])
        placed = _placement(w)
        cases.append((realize(w), [GeoSimplex(tuple(placed[v] for v in f))
                                   for f in w.base.faces]))
    for base in (standard_cube(2), chains[3]):
        faces = closure_complex(base.maximal_simplexes()).simplexes
        for t, f in rng.sample(free_faces(base), 2):
            cases.append((elementary_collapse(base, t, f), faces - {t, f}))

    refs = [closure_complex(simplexes) for _, simplexes in cases]
    others = [s for ref in refs for s in ref.simplexes]
    for (cx, _), ref in zip(cases, refs):
        assert cx.simplexes == ref.simplexes
        assert cx.maximal_simplexes() == ref.maximal
        assert cx.vertices() == ref.vertices()
        assert cx.dim == ref.dim
        assert len(cx) == len(ref.simplexes)
        rank = {v: i for i, v in enumerate(ref.vertices())}
        assert skeleton(cx) == AbsComplex(ref.vertices(), [[rank[v] for v in s.vertices]
                                                           for s in ref.simplexes])
        assert skeleton(cx).given == set(cx._ranks)
        for again in (GeoComplex(ref.simplexes, validate=False),
                      GeoComplex(ref.maximal, validate=False)):
            assert cx == again and hash(cx) == hash(again)
        for s in rng.sample(others, 60):
            assert (s in cx) == (s in ref.simplexes), (cx, s)
        for p in _grid(cx.ambient_dim, rng):
            assert cx.carrier(p) == scan_carrier(ref, p), (cx, p)
    for (a, _), ref_a in zip(cases, refs):
        for (b, _), ref_b in zip(cases, refs):
            assert (a == b) == (ref_a.simplexes == ref_b.simplexes)


def test_faces_come_from_the_rank_closure():
    # A complex makes every face from a rank tuple of the closure of its
    # maximal simplexes' rank tuples (GeoComplex._simplex), and a maximal
    # simplex comes back as the complex's own object, with its cached
    # determinant and rows.  Inputs: seeded stellar cube2-4, desingularized
    # seed-23 simplexes, and a complex whose maximal simplexes have
    # dimensions 0, 1 and 2.
    from test_regular import _desingularize_inputs

    rng = random.Random(20261)
    cxs = [_stellar_chain(rng, n, 4, rng.randint(1, 3)) for n in (2, 3, 4)]
    cxs += [desingularize(cx) for cx in _desingularize_inputs()[:15]]
    mixed = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (2, 0), (2, 1)),
                          seg((0, 1), (-1, 2)), GeoSimplex((rpoint(3, 3),))])
    assert {s.dim for s in mixed.maximal_simplexes()} == {0, 1, 2}
    for cx in cxs + [mixed]:
        ref = closure_complex(cx.maximal_simplexes())
        assert len(cx) == len(ref.simplexes), cx
        assert cx.simplexes == ref.simplexes, cx
        own = {s: s for s in cx.simplexes}
        assert all(own[s] is s for s in cx.maximal_simplexes()), cx


def test_no_face_is_built_on_the_maximal_paths(monkeypatch):
    # Building, subdividing, desingularizing, certifying, printing, parsing
    # and replaying all work on maximal simplexes: none asks a complex for a
    # face (``GeoComplex._simplex``).
    calls = []
    simplex = GeoComplex._simplex

    def counted(self, r):
        calls.append(r)
        return simplex(self, r)

    monkeypatch.setattr(GeoComplex, "_simplex", counted)
    cube = standard_cube(4)
    fine = stellar(stellar(cube, rpoint("1/2", "1/2", "1/2", "1/2")),
                   rpoint("1/3", "1/3", "1/3", 0))
    assert desingularize(fine) != fine
    verdict = certify_main(cube)
    assert verdict.status == "certified"
    parsed = parse_scx(print_scx(ScxDocument("verdict", verdict))).payload
    wit = parsed.witnesses
    assert replay(wit.collapse_complex, wit.collapse_sequence)
    assert calls == []


def test_point_location_matches_solving_oracles():
    # Complexes: seeded stellar subdivisions of cube1-4, the triangulation
    # that pipeline_dh builds for the fold of the square onto its half
    # diagonal, and a non-pure complex.  Points: vertices, barycentres of
    # edges and higher faces, and random rationals in and around the
    # support; for each tested simplex also points on its affine hull
    # (inside and outside it) and points pushed off that hull.
    rng = random.Random(20147)
    half = rpoint("1/2", "1/2")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {rpoint(0, 0): rpoint(0, 0), rpoint(1, 0): half,
                          rpoint(0, 1): half, rpoint(1, 1): half})
    diagonal = from_maximal([GeoSimplex((rpoint(0, 0), half))])
    cxs = [pipeline_dh(fold, diagonal).triangulation,
           from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (2, 0), (2, 1)),
                         seg((0, 1), (-1, 2)), GeoSimplex((rpoint(3, 3),))])]
    for n in (1, 2, 3, 4):
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 2)):
            cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
        cxs.append(cx)

    def oracle_barycentric(s, p):
        return barycentric_coords([v.coords for v in s.vertices], p.coords)

    for cx in cxs:
        n = cx.ambient_dim
        faces = sorted(cx.simplexes)
        points = list(cx.vertices())
        points += [s.barycenter() for s in rng.sample(faces, min(16, len(faces)))
                   if s.dim >= 1]
        points += [rpoint(*[random_rational(rng, 4, -1, 3) for _ in range(n)])
                   for _ in range(12)]
        # A map with random images, interpolated by hand as the oracle.
        images = {v: rpoint(random_rational(rng, 5), random_rational(rng, 5))
                  for v in cx.vertices()}
        eta = PLMap(cx, images)
        for p in points:
            car = scan_carrier(cx, p)
            assert cx.carrier(p) == car, (cx, p)
            assert cx.contains_point(p) == (car is not None)
            if car is None:
                with pytest.raises(DomainError):
                    eta.eval(p)
                continue
            lam = oracle_barycentric(car, p)
            assert eta.eval(p) == rpoint(*[
                sum(c * images[v].coords[i] for c, v in zip(lam, car.vertices))
                for i in range(2)])
        tested = list(cx.maximal_simplexes())[:8] + rng.sample(faces, min(12, len(faces)))
        for s in tested:
            on_hull = []
            for _ in range(4):
                weights = [random_rational(rng, 3, -1, 1) for _ in s.vertices]
                weights[0] = 1 - sum(weights[1:])
                on_hull.append(rpoint(*[
                    sum(w * v.coords[i] for w, v in zip(weights, s.vertices))
                    for i in range(n)]))
            pushed = [rpoint(*[c + random_rational(rng, 4, -1, 1) for c in p.coords])
                      for p in on_hull]
            for p in rng.sample(points, min(10, len(points))) + on_hull + pushed:
                lam = oracle_barycentric(s, p)
                assert s.barycentric(p) == lam, (s, p)
                assert s.contains(p) == (lam is not None
                                         and all(c >= 0 for c in lam))
                assert relint_contains(s, p) == (lam is not None
                                                 and all(c > 0 for c in lam))


def test_from_maximal_idempotent():
    cx = from_maximal([tri((0, 0), (1, 0), (1, 1)), tri((0, 0), (0, 1), (1, 1))])
    again = from_maximal(list(cx.maximal_simplexes()))
    assert again == cx


def test_skeleton_segment():
    cx = from_maximal([seg(0, 1)])
    sk = skeleton(cx)
    assert len(sk.vertices) == 2
    assert len(sk.faces) == 3


def test_skeleton_square():
    cx = standard_cube(2)
    sk = skeleton(cx)
    assert sk.vertices == cx.vertices()
    assert sk.given == {(0, 1, 3), (0, 2, 3)}
    assert sum(1 for f in sk.faces if len(f) == 3) == 2
    # face-closure, on sorted index tuples
    for f in sk.faces:
        assert list(f) == sorted(f)
        for k in range(1, len(f)):
            for sub in itertools.combinations(f, k):
                assert sub in sk.faces


def test_standard_cube_counts():
    import math
    for n in (1, 2, 3):
        cx = standard_cube(n)
        maxi = cx.maximal_simplexes()
        assert len(maxi) == math.factorial(n)
        assert all(s.dim == n for s in maxi)
        for v in cx.vertices():
            assert all(c in (0, 1) for c in v.coords)
        # the construction is a genuine complex
        GeoComplex(maxi, validate=True)


def test_standard_cube_builds_its_chains_without_rank_checks(monkeypatch):
    # Each maximal chain is built raw: it is sorted and independent by
    # construction.  The reference validates every chain, given in reverse
    # order, with the checking constructor, and the complex with
    # ``from_maximal``.
    real = linalg.matrix_rank
    for n in (1, 2, 3, 4, 5):
        chains = []
        for perm in itertools.permutations(range(n)):
            point = [0] * n
            chain = [rpoint(*point)]
            for i in perm:
                point[i] = 1
                chain.append(rpoint(*point))
            chains.append(GeoSimplex(tuple(reversed(chain))))
        expected = from_maximal(chains)
        ranks = []
        monkeypatch.setattr(linalg, "matrix_rank", lambda rows: ranks.append(1) or real(rows))
        cx = standard_cube(n)
        monkeypatch.undo()
        assert not ranks
        assert cx == expected and cx.vertices() == expected.vertices()
        assert cx._ranks == expected._ranks


def test_standard_cube_support_grid():
    cx = standard_cube(2)
    step = Fraction(1, 4)
    for i in range(5):
        for j in range(5):
            p = rpoint(i * step, j * step)
            assert cx.contains_point(p)
    assert not cx.contains_point(rpoint(2, 2))


def test_carrier():
    cx = standard_cube(2)
    diag = cx.carrier(rpoint("1/2", "1/2"))
    assert diag == GeoSimplex((rpoint(0, 0), rpoint(1, 1)))
    v = rpoint(1, 0)
    assert cx.carrier(v) == GeoSimplex((v,))
    assert cx.carrier(rpoint(2, 2)) is None


def test_hosts_match_scanning_oracle():
    # GeoComplex.hosts reads the maximal simplexes holding a point off the
    # stars of its carrier's vertices; the oracle tests every maximal
    # simplex.  Points: the vertices (also as fresh equal objects), the
    # barycentre of every face, which lies in the relative interior of a
    # shared edge or facet or inside a maximal simplex, a grid reaching
    # outside |K|, and points of another ambient dimension.
    rng = random.Random(20190)
    cases = []
    for n in (2, 3):
        cx = standard_cube(n)
        for _ in range(4):
            cx = stellar(cx, rpoint(*[random_rational(rng, 5) for _ in range(n)]))
        cases.append(cx)
    # Not pure: a triangle with a dangling edge, and an isolated vertex.
    cases.append(from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (2, 1)),
                               GeoSimplex((rpoint(3, 3),))]))
    seen = collections.Counter()
    for cx in cases:
        n = cx.ambient_dim
        points = [*cx.vertices(), *(RPoint(tuple(v.coords)) for v in cx.vertices()),
                  *(s.barycenter() for s in cx.simplexes), *_grid(n, rng),
                  rpoint(*[0] * (n + 1)), rpoint(*[Fraction(1, 2)] * (n - 1))]
        for p in points:
            want = scan_hosts(cx, p)
            assert cx.hosts(p) == want, (cx, p)
            if p.dim == n:
                assert cx.contains_point(p) == bool(want)
            seen[min(len(want), 2)] += 1
        for s in cx.simplexes:
            assert s in cx
            assert GeoSimplex._raw(s.vertices[:-1] + (rpoint(*[7] * n),)) not in cx
    # Points outside, in exactly one and in several maximal simplexes.
    assert min(seen[0], seen[1], seen[2]) > 20, seen


def test_points_of_another_dimension_are_rejected():
    cx = standard_cube(2)
    with pytest.raises(ValueError, match=r"R\^3 .* R\^2"):
        cx.contains_point(rpoint(0, 0, 5))
    with pytest.raises(ValueError, match=r"R\^3 .* R\^2"):
        cx.carrier(rpoint(1, 1, 7))
    with pytest.raises(ValueError, match=r"R\^1 .* R\^2"):
        cx.carrier(rpoint("1/2"))
    diagonal = GeoSimplex((rpoint(0, 0), rpoint(1, 1)))
    with pytest.raises(ValueError, match=r"R\^3 .* R\^2"):
        diagonal.contains(rpoint(1, 1, 7))
    with pytest.raises(ValueError, match=r"R\^1 .* R\^2"):
        diagonal.barycentric(rpoint("1/2"))
    # A map into R^3 does not map into a complex in R^2.
    lift = PLMap(cx, {v: rpoint(*v.coords, 1) for v in cx.vertices()})
    with pytest.raises(ValueError, match=r"R\^3 .* R\^2"):
        refine_for_map(lift, cx)
    with pytest.raises(ValueError, match=r"R\^3 .* R\^2"):
        retarget_to_carrier_vertices(lift, cx, keep=lambda v: False)


def test_carrier_minimality():
    cx = standard_cube(2)
    pts = [rpoint("1/2", "1/2"), rpoint("1/4", "1/8"), rpoint(0, "1/2"), rpoint(1, 1)]
    for p in pts:
        car = cx.carrier(p)
        assert car is not None and car.contains(p)
        for s in cx.simplexes:
            if s.contains(p):
                assert set(car.vertices) <= set(s.vertices)


def test_simplicially_isomorphic_identity():
    cx = standard_cube(2)
    iso = simplicially_isomorphic(cx, cx)
    assert iso is not None and all(iso[v] == v for v in iso)


def test_simplicially_isomorphic_mirror_path():
    path = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    mirror = from_maximal([seg(0, "1/3"), seg("1/3", 1)])
    iso = simplicially_isomorphic(path, mirror)
    assert iso is not None
    sk_a, sk_b = skeleton(path), skeleton(mirror)
    faces_b = {frozenset(sk_b.vertices[i] for i in f) for f in sk_b.faces}
    for f in sk_a.faces:
        assert frozenset(iso[sk_a.vertices[i]] for i in f) in faces_b


def test_simplicially_isomorphic_absent():
    disc = standard_cube(2)
    path = from_maximal([seg(0, "1/3"), seg("1/3", "2/3"), seg("2/3", 1)])
    assert simplicially_isomorphic(disc, path) is None


def test_realize_two_vertices():
    base = AbsComplex(["a", "b"], [(0, 1)])
    w = WeightedComplex(base, (1, 2))
    cx = realize(w)
    assert set(cx.vertices()) == {rpoint(1, 0), rpoint(0, "1/2")}
    assert cx.dim == 1


def test_realize_unit_weights_standard_embedding():
    base = AbsComplex(["a", "b", "c"], [(0, 1, 2)])
    w = WeightedComplex(base, (1, 1, 1))
    cx = realize(w)
    assert set(cx.vertices()) == {rpoint(1, 0, 0), rpoint(0, 1, 0), rpoint(0, 0, 1)}


def test_realize_path():
    base = AbsComplex(["a", "b", "c"], [(0, 1), (1, 2)])
    w = WeightedComplex(base, (1, 2, 1))
    cx = realize(w)
    maxi = sorted(cx.maximal_simplexes())
    assert len(maxi) == 2
    assert GeoSimplex((rpoint(1, 0, 0), rpoint(0, "1/2", 0))) in maxi
    assert GeoSimplex((rpoint(0, "1/2", 0), rpoint(0, 0, 1))) in maxi


def test_realize_always_regular():
    # cross-module property: realizations are regular triangulations
    base = AbsComplex(["a", "b", "c", "d"], [(0, 1, 2), (2, 3)])
    w = WeightedComplex(base, (2, 3, 1, 6))
    cx = realize(w)
    GeoComplex(cx.maximal_simplexes(), validate=True)
    assert all(is_regular(s) for s in cx.simplexes)


def _realize_validated(w: WeightedComplex) -> GeoComplex:
    """The realization built with the validating simplex constructor."""
    k = len(w.base.vertices)
    placed = [rpoint(*[Fraction(int(i == j), weight) for j in range(k)])
              for i, weight in enumerate(w.weights)]
    return GeoComplex([GeoSimplex(tuple(placed[i] for i in f))
                       for f in w.base.faces], validate=False)


def test_realize_matches_validating_build():
    ws = [WeightedComplex(AbsComplex(["a", "b"], [(0, 1)]), (1, 2)),
          WeightedComplex(AbsComplex(["a", "b", "c"], [(0, 1), (1, 2)]), (1, 2, 1)),
          WeightedComplex(AbsComplex(["a", "b", "c", "d"], [(0, 1, 2), (2, 3)]),
                          (2, 3, 1, 6))]
    # The weighted skeleton part2_reduce builds for the fold of the square
    # onto its half diagonal, its domain subdivided at a seeded point.
    rng = random.Random(20148)
    half = rpoint("1/2", "1/2")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {rpoint(0, 0): rpoint(0, 0), rpoint(1, 0): half,
                          rpoint(0, 1): half, rpoint(1, 1): half})
    point = rpoint(*[Fraction(rng.randint(1, 3), 4) for _ in range(2)])
    fold = fold.rebase(stellar(square, point))
    diagonal = from_maximal([GeoSimplex((rpoint(0, 0), half))])
    result = pipeline_dh(fold, diagonal)
    ws.append(part2_reduce(result.map, result.triangulation, diagonal).weighted)
    for w in ws:
        assert realize(w) == _realize_validated(w)
    assert len(ws[-1].base.faces) > 20


def test_abscomplex_invariants():
    uncovered = "the union of the faces must be the vertex set"
    for faces in ([(0,)], [(0, 2)], [(-1, 0)], [()]):  # b uncovered, or no vertex 2, -1
        with pytest.raises(ValueError, match=uncovered):
            AbsComplex(["a", "b"], faces)
    base = AbsComplex(["a", "b"], [(1, 0), ()])
    assert base.given == {(0, 1)}  # sorted, the empty face dropped
    assert (0,) in base.faces  # subset closure
    # Equality and the hash are the labelled complex's: the same faces on
    # the labels listed in another order.
    again = AbsComplex(["b", "a", "c"], [(0, 1), (2, 1)])
    assert again == AbsComplex(["a", "b", "c"], [(0, 1), (0, 2)])
    assert hash(again) == hash(AbsComplex(["c", "a", "b"], [(1, 2), (0, 1)]))
    assert again != AbsComplex(["a", "b", "c"], [(0, 1), (1, 2)])


def test_duplicate_vertex_labels_are_refused():
    # A label listed twice was merged into one vertex; an index tuple
    # cannot say which of the two copies a face means.
    with pytest.raises(ValueError, match="vertex labels must be distinct"):
        AbsComplex(["a", "b", "a"], [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="vertex labels must be distinct"):
        AbsComplex([rpoint(0, "1/2"), RPoint((0, Fraction(2, 4)))], [(0, 1)])


def test_weighted_validation():
    base = AbsComplex(["a"], [(0,)])
    with pytest.raises(ValueError, match="positive"):
        WeightedComplex(base, (0,))
    for weights in ((), (1, 1)):
        with pytest.raises(ValueError, match="exactly on the vertices"):
            WeightedComplex(base, weights)
    assert WeightedComplex(base, [3]).weights == (3,)


def test_standard_cube_shares_one_object_per_vertex():
    cx = standard_cube(3)
    objects = {id(v) for s in cx.simplexes for v in s.vertices}
    assert objects == {id(v) for v in cx.vertices()} and len(objects) == 8


def test_independence_matches_fraction_rank():
    # GeoSimplex checks independence by the integer rank of the vertices'
    # homogeneous vectors; the Fraction echelon rank is the reference.
    rng = random.Random(1968)
    rejected = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        pts = list({rpoint(*[rng.choice((0, 1, "1/2", "1/3", "2/3"))
                             for _ in range(n)]) for _ in range(rng.randint(1, n + 2))})
        independent = fraction_aff_dim([p.coords for p in pts]) == len(pts) - 1
        try:
            GeoSimplex(tuple(pts))
        except ValueError:
            rejected += 1
            assert not independent, pts
        else:
            assert independent, pts
    assert 50 <= rejected <= 250, rejected


def test_points_refuse_floats_and_bools():
    # No float stands in for a rational and no bool for an integer; a
    # Fraction coordinate is kept as the object it is.
    with pytest.raises(ValueError, match="coordinate 0 is a float"):
        rpoint(0.1)
    with pytest.raises(ValueError, match="coordinate 2 is a float"):
        rpoint(1, "1/2", 0.5)
    with pytest.raises(ValueError, match="coordinate 1 is a bool"):
        RPoint((Fraction(1, 2), True))
    with pytest.raises(ValueError, match="coordinate 0 is a bool"):
        RPoint([False])
    half = Fraction(1, 2)
    p = RPoint((half, 3))
    assert p.coords[0] is half and type(p.coords[1]) is Fraction
    assert p == rpoint("1/2", 3) == RPoint([half, Fraction(3)])
    assert type(RPoint([half]).coords) is tuple


def test_geosimplex_canonical_order_and_independence():
    s = GeoSimplex((rpoint(1, 1), rpoint(0, 0)))
    assert s.vertices[0] == rpoint(0, 0)
    with pytest.raises(ValueError, match="affinely independent"):
        GeoSimplex((rpoint(0, 0), rpoint(1, 1), rpoint("1/2", "1/2")))


def _seeded_coordinates(rng: random.Random, count: int) -> list[tuple]:
    """Coordinate tuples in R^1..R^3 with negative, zero and integer
    entries and small and huge denominators, after some edge cases of
    Fraction's own hash: a denominator that is the hash modulus M
    (2^61 - 1 on 64-bit builds), which has no inverse mod M, and
    -(M + 2)/2, whose hash before the -1 rule is -1."""
    modulus = sys.hash_info.modulus
    coords = [(Fraction(1, modulus),), (Fraction(-3, modulus), 2), (-1,), (0, 0),
              (Fraction(-(modulus + 2), 2), Fraction(-1, 2)), (Fraction(7, 3), -4, 0)]
    for _ in range(count):
        coords.append(tuple(random_rational(rng, rng.choice((1, 6, 10 ** 20)), -2, 2)
                            for _ in range(rng.randint(1, 3))))
    return coords


def test_points_match_the_fraction_dataclass():
    # A point is its integer vector; the dataclass it was kept Fraction
    # coordinates.  Built from coordinates or from the vector, a point
    # agrees with that dataclass on ==, the orders, repr, coords, dim and
    # its printed text, on seeded coordinates, and the two builds of one
    # point hash alike, as its vector.
    rng = random.Random(4001)
    coords = _seeded_coordinates(rng, 300)
    given = [RPoint(c) for c in coords]
    computed = [RPoint._from_homog(linalg.homogeneous(tuple(map(Fraction, c)))) for c in coords]
    assert any(p._homog[-1] == sys.hash_info.modulus for p in computed)
    for p, q in zip(given, computed):
        assert hash(p) == hash(q) == hash(q._homog), p
    new = given + computed
    old = [FractionRPoint(c) for c in coords] * 2
    for p, o in zip(new, old):
        assert repr(p) == repr(o) and p.coords == o.coords and p.dim == o.dim
        assert p._texts() == tuple(_json_point(o))
    ops = ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__")
    for _ in range(3000):
        i, j = rng.randrange(len(new)), rng.randrange(len(new))
        for op in ops:
            assert getattr(new[i], op)(new[j]) == getattr(old[i], op)(old[j]), (old[i], old[j], op)
    for p in new[:12]:
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert q == p and q.coords == p.coords and hash(q) == hash(p)
    with pytest.raises(AttributeError):
        new[0]._homog = (1, 1)
    with pytest.raises(ValueError):
        RPoint(())


def test_barycenter_matches_the_fraction_sum():
    # barycenter sums the vertex vectors over one lcm and divides by the
    # gcd; the oracle sums Fraction coordinates.  Seeded simplexes in
    # R^1..R^4 with negative, zero and integer coordinates.
    rng = random.Random(4002)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(15):
            points = [rpoint(*[random_rational(rng, rng.choice((1, 5)), -1, 1) for _ in range(n)])
                      for _ in range(rng.randint(1, n + 1))]
            try:
                s = GeoSimplex(tuple(points))
            except ValueError:
                continue
            got, want = s.barycenter(), fraction_barycenter(s)
            assert got == want and got.coords == want.coords and hash(got) == hash(want)
            checked += 1
    assert checked > 40


def test_complex_hashes_each_distinct_vertex_object_once():
    # The constructor ranks vertices by hashing, and a point computes its
    # hash once: 16 computations on a parsed cube4 complex, which shares
    # one object per point.  It once hashed each of the 120 vertex
    # occurrences three times and each vertex once more.
    parsed = parse_scx(print_scx(ScxDocument("complex", standard_cube(4)))).payload
    simplexes = [GeoSimplex._raw(s.vertices) for s in parsed.maximal_simplexes()]
    computed = _count_hash_computations(parsed.vertices())
    cx = GeoComplex(simplexes)
    assert len(computed) == 16
    assert sorted(map(id, computed)) == sorted(id(v._homog) for v in parsed.vertices())
    assert cx == parsed and cx._rank == parsed._rank


def test_realize_from_given_faces_matches_the_closure():
    # realize builds one simplex per given face; the closure adds only
    # faces of those, which GeoComplex drops, so the printed bytes agree
    # with the oracle's on seeded weighted complexes.
    rng = random.Random(4003)
    for _ in range(40):
        labels = "abcdefgh"[:rng.randint(1, 8)]
        indices = range(len(labels))
        faces = [rng.sample(indices, rng.randint(1, min(4, len(labels))))
                 for _ in range(rng.randint(1, 6))]
        faces += [(i,) for i in indices if rng.random() < 0.5 or
                  not any(i in f for f in faces)]
        w = WeightedComplex(AbsComplex(labels, faces), [rng.randint(1, 7) for _ in labels])
        assert (print_scx(ScxDocument("complex", realize(w)))
                == print_scx(ScxDocument("complex", closure_realize(w))))
