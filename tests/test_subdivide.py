import collections
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from zrk import (AbsComplex, GeoComplex, GeoSimplex, PLMap, RPoint, WeightedComplex,
                 common_refinement, complexes, desingularize, from_maximal, is_subdivision,
                 linalg, part2_reduce, pipeline_dh, realize, refine_for_map, restrict, rpoint,
                 standard_cube, stellar, subdivide, verify_section_retraction)
from zrk.complexes import _triangulates_cube
from zrk.regular import _box_point, is_regular
from zrk.scx import ScxDocument, parse_scx, print_scx
from zrk.subdivide import (PointNotInSupport, SupportMismatch, covers,
                           inside_subcomplex, supports, support_equal)

from conftest import random_rational, random_simplex, random_simplex_pool, seg, tri
import oracles
from oracles import (RestrictionRefused, caratheodory_supports, clip_is_subdivision,
                     clip_supports, face_stellar, pullback_rows, rowwise_restrict,
                     scan_inside_subcomplex, scan_replace_star, scan_supports, split_supports,
                     stellar_chain, volume_triangulates_cube)
from rfold import rfold


def test_stellar_segment_midpoint():
    cx = from_maximal([seg(0, 1)])
    st = stellar(cx, rpoint("1/2"))
    assert sorted(st.maximal_simplexes()) == [seg(0, "1/2"), seg("1/2", 1)]


def test_stellar_triangle_barycenter():
    t = tri((0, 0), (1, 0), (0, 1))
    cx = from_maximal([t])
    st = stellar(cx, t.barycenter())
    maxi = st.maximal_simplexes()
    assert len(maxi) == 3
    assert all(t.barycenter() in s.vertices for s in maxi)


def test_stellar_at_existing_vertex_is_identity():
    cx = standard_cube(2)
    assert stellar(cx, rpoint(0, 0)) == cx


def test_stellar_outside_support():
    with pytest.raises(PointNotInSupport, match="point not in support"):
        stellar(standard_cube(1), rpoint(2))


def test_stellar_preserves_support_on_grid():
    cx = from_maximal([tri((0, 0), (1, 0), (0, 1))])
    st = stellar(cx, rpoint("1/4", "1/4"))
    step = Fraction(1, 8)
    for i in range(9):
        for j in range(9):
            p = rpoint(i * step, j * step)
            assert cx.contains_point(p) == st.contains_point(p)


def test_stellar_chain():
    cx = from_maximal([seg(0, 1)])
    assert stellar_chain(cx, []) == cx
    out = stellar_chain(cx, [rpoint("1/2"), rpoint("1/4")])
    assert sorted(out.maximal_simplexes()) == [
        seg(0, "1/4"), seg("1/4", "1/2"), seg("1/2", 1)]
    t = tri((0, 0), (1, 0), (0, 1))
    cx2 = from_maximal([t])
    out2 = stellar_chain(cx2, [t.barycenter(), rpoint("1/2", 0)])
    assert len(out2.maximal_simplexes()) == 4


def test_is_subdivision_directions():
    cx = from_maximal([seg(0, 1)])
    st = stellar(cx, rpoint("1/2"))
    assert is_subdivision(st, cx)
    assert not is_subdivision(cx, st)


def test_is_subdivision_distinct_diagonals():
    a = standard_cube(2)
    b = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    assert not is_subdivision(a, b)
    assert not is_subdivision(b, a)
    assert support_equal(a, b)


def test_stellar_chains_always_subdivide():
    cx = standard_cube(2)
    chain = [rpoint("1/2", "1/2"), rpoint("1/4", "1/4"), rpoint("1/2", 0)]
    out = stellar_chain(cx, chain)
    assert is_subdivision(out, cx)


def test_is_subdivision_matches_clipping_oracle():
    # Volume accounting against the containment scan plus support_equal it
    # replaced: stellar-and-desingularized subdivisions of cubes and of
    # random simplexes (some lower-dimensional) in R^1..R^4 and of a
    # non-pure complex, each also with a maximal simplex dropped, with an
    # extra one, and the other way round; hand cases where a fine simplex
    # straddles coarse ones, and where its vertices share two or more
    # coarse hosts: the square's diagonal, and segments and a triangle on
    # facets shared by two cube simplexes, alone and refined.
    rng = random.Random(11805)
    non_pure = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (1, 1)),
                             GeoSimplex((rpoint("1/2", 1),))])
    coarse_ones = [non_pure]
    for n in (1, 2, 3, 4):
        coarse_ones.append(standard_cube(n))
        coarse_ones += [GeoComplex([random_simplex(rng, n, 4)]) for _ in range(2)]
    pairs = []
    for coarse in coarse_ones:
        n = coarse.ambient_dim
        fine = coarse
        for _ in range(rng.randint(1, 2)):
            s = rng.choice(coarse.maximal_simplexes())
            weights = [rng.randint(1, 3) for _ in s.vertices]
            fine = stellar(fine, rpoint(*[
                Fraction(sum(w * v[i] for w, v in zip(weights, s.vertices)),
                         sum(weights)) for i in range(n)]))
        fine = desingularize(fine)
        maxi = list(fine.maximal_simplexes())
        pairs += [(fine, coarse), (coarse, fine),
                  (GeoComplex(maxi + [GeoSimplex((rpoint(*[2] * n),))]), coarse)]
        if len(maxi) > 1:
            maxi.remove(rng.choice(maxi))
            pairs.append((GeoComplex(maxi, validate=False), coarse))
    halves = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    pairs += [
        (from_maximal([seg(0, "1/4"), seg("1/4", "3/4"), seg("3/4", 1)]), halves),
        (from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))]),
         standard_cube(2)),
        (standard_cube(1), standard_cube(2)),
        (non_pure, from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (1, 1))])),
    ]
    diagonal = from_maximal([seg2d((0, 0), (1, 1))])
    on_facet = from_maximal([tri((0, 0, 0), (1, 0, 0), (1, "1/2", "1/2"))])
    shared = [(diagonal, standard_cube(2)),
              (stellar(diagonal, rpoint("1/2", "1/2")), standard_cube(2)),
              (from_maximal([seg2d((0, 0), (1, 1)), seg2d((0, 0), (1, 0))]),
               standard_cube(2)),
              (from_maximal([seg2d((0, 0, 0), (1, 1, 1))]), standard_cube(3)),
              (on_facet, standard_cube(3))]
    for fine, coarse in shared:
        assert any(len(frozenset.intersection(*map(coarse.hosts, s.vertices))) > 1
                   for s in fine.maximal_simplexes())
    pairs += shared + [(standard_cube(2), diagonal),
                       (stellar(diagonal, rpoint("1/2", "1/2")), diagonal),
                       (stellar(on_facet, rpoint("2/3", "1/6", "1/6")), on_facet)]
    answers = []
    for fine, coarse in pairs:
        answers.append(clip_is_subdivision(fine, coarse))
        assert is_subdivision(fine, coarse) is answers[-1], (fine, coarse)
    assert answers.count(True) >= 16 and answers.count(False) >= 40, answers


def test_is_subdivision_locates_only_new_vertices(monkeypatch):
    # Work bound: a fine vertex that is a coarse vertex has its star as
    # hosts, and any other is located once per coarse complex.  So parsed
    # cube5 against itself locates nothing, and a stellar cube5 against
    # cube5 locates at most its new vertices.  Locating the barycentre of
    # every fine maximal simplex made 120 and 264 scans.
    located = []
    locate = GeoComplex._locate
    monkeypatch.setattr(GeoComplex, "_locate",
                        lambda cx, p: located.append(p) or locate(cx, p))
    h = "1/2"
    cube = standard_cube(5)
    fine = stellar_chain(cube, [rpoint(h, h, h, h, h), rpoint(h, h, 0, 0, h),
                                rpoint("1/4", "1/4", "1/4", 0, 0)])
    new = set(fine.vertices()) - set(cube.vertices())
    assert len(new) == 3 and len(fine.maximal_simplexes()) == 264
    cube_text, fine_text = (print_scx(ScxDocument("complex", cx)) for cx in (cube, fine))
    for a_text, b_text, answer, bound in ((cube_text, cube_text, True, 0),
                                          (fine_text, cube_text, True, len(new)),
                                          (cube_text, fine_text, False, 0)):
        a, b = parse_scx(a_text).payload, parse_scx(b_text).payload
        located.clear()
        assert is_subdivision(a, b) is answer
        assert len(located) == len(set(located)) <= bound, located


def test_is_subdivision_clips_no_cell(monkeypatch):
    cube = standard_cube(4)
    fine = stellar_chain(cube, [rpoint("1/2", "1/2", "1/2", "1/2"),
                                rpoint("1/2", "1/2", 0, 0)])
    calls = []
    clip = linalg.clip_simplex
    monkeypatch.setattr(linalg, "clip_simplex",
                        lambda *args: calls.append(1) or clip(*args))
    assert is_subdivision(fine, cube) and not is_subdivision(cube, fine)
    assert not calls


def test_stellar_matches_face_oracle():
    # Ten seeded stellar chains, two each on cube1-4 and on a non-pure complex (a
    # triangle, an edge and a vertex), at random points of the cube and at
    # positive combinations of the vertices of a random simplex of the
    # current complex: points on vertices, edges, facets and interiors.
    rng = random.Random(2015)
    non_pure = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (1, 1)),
                             GeoSimplex((rpoint("1/2", 1),))])
    seen = set()
    for cx in 2 * ([standard_cube(n) for n in (1, 2, 3, 4)] + [non_pure]):
        for _ in range(6):
            if cx.dim == cx.ambient_dim and rng.random() < 0.3:
                p = rpoint(*[random_rational(rng, 5) for _ in range(cx.ambient_dim)])
            else:
                s = rng.choice(sorted(cx.simplexes))
                weights = [rng.randint(1, 4) for _ in s.vertices]
                p = rpoint(*[Fraction(sum(w * v[i] for w, v in zip(weights, s.vertices)),
                                      sum(weights)) for i in range(cx.ambient_dim)])
            car = cx.carrier(p)
            seen.add({0: "vertex", 1: "edge"}.get(car.dim, "higher"))
            if any(m.dim == car.dim + 1 and set(car.vertices) <= set(m.vertices)
                   for m in cx.maximal_simplexes()):
                seen.add("facet")
            expected = face_stellar(cx, p)
            got = stellar(cx, p)
            assert got.simplexes == expected.simplexes, (cx, p)
            cx = got
    assert seen == {"vertex", "edge", "facet", "higher"}


def _star_move_inputs(rng: random.Random) -> list[GeoComplex]:
    """Seeded stellar squares and cube3s, blown up at one to three points
    with denominators <= 5, and every 7th simplex of positive dimension of
    the benchmark's random_simplex pool."""
    cxs = [stellar_chain(standard_cube(n), [rpoint(*[random_rational(rng, 5) for _ in range(n)])
                                           for _ in range(rng.randint(1, 3))])
           for n in (2, 2, 2, 2, 3, 3, 3)]
    return cxs + [GeoComplex([s]) for s in random_simplex_pool()[::7] if s.dim > 0]


def test_stars_match_scan_oracle():
    # subdivide._Stars finds a star as the intersection of the carrier's
    # vertex stars; the oracle scans a bare set of maximal simplexes.  Both
    # make the same moves: the box point of the least non-regular simplex,
    # as desingularization does, the barycentre of a maximal simplex, as
    # step H does, and a point inside a random face.  After every move the
    # cones, the maximal simplexes and the star of every vertex agree, so a
    # stale star entry, or a replaced simplex still held, fails.  Each move
    # is handed p's coefficients over the carrier, and every determinant a
    # cone is handed is its rows' own.
    rng = random.Random(2041)
    kinds = collections.Counter()
    for cx in _star_move_inputs(rng):
        stars, maximal = subdivide._Stars(cx), set(cx.maximal_simplexes())
        for _ in range(8):
            bad = sorted((m.dim, m) for m in maximal if not is_regular(m))
            kind = rng.choice(("box", "barycentre", "face")[0 if bad else 1:])
            m = bad[0][1] if kind == "box" else rng.choice(sorted(maximal))
            if kind == "box":
                p, coefficients = _box_point(m)
            else:
                carrier = (m.vertices if kind == "barycentre" else
                           tuple(rng.sample(m.vertices, rng.randint(2, len(m.vertices)))))
                weights = [1 if kind == "barycentre" else rng.randint(1, 4) for _ in carrier]
                p = rpoint(*[Fraction(sum(w * v[i] for w, v in zip(weights, carrier)),
                                      sum(weights)) for i in range(cx.ambient_dim)])
                # p = sum (w_j / W) p_j, so P = sum (w_j d_p / (W d_j)) X_j.
                coefficients = {v: (w * p._homog[-1], sum(weights) * v._homog[-1])
                                for w, v in zip(weights, carrier)}
            kinds[kind] += 1
            before = set(maximal)
            cones = stars.replace(p, coefficients)
            assert set(cones) == set(scan_replace_star(maximal, p, frozenset(coefficients))), \
                (cx, p)
            # A cone of a parent holding its determinant holds its own.
            assert all(c._det == linalg.det(c._vertex_rows) for c in cones
                       if "_det" in vars(c)), (cx, p)
            rebuilt = collections.defaultdict(set)
            for s in maximal:
                for v in s.vertices:
                    rebuilt[v].add(s)
            assert dict(stars._star) == rebuilt, (cx, p)
            assert all(s in stars for s in maximal)
            assert not any(s in stars for s in before - maximal)
        assert stars.complex() == GeoComplex(maximal, validate=False)
    assert min(kinds.values()) >= 20, kinds


def test_common_refinement_identity():
    cx = standard_cube(2)
    assert common_refinement(cx, cx) == cx


def test_common_refinement_segments():
    a = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    b = from_maximal([seg(0, "1/3"), seg("1/3", 1)])
    out = common_refinement(a, b)
    assert sorted(out.maximal_simplexes()) == [
        seg(0, "1/3"), seg("1/3", "1/2"), seg("1/2", 1)]


def test_common_refinement_diagonals_fan():
    a = standard_cube(2)
    b = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    out = common_refinement(a, b)
    assert len(out.maximal_simplexes()) == 4
    center = rpoint("1/2", "1/2")
    assert all(center in s.vertices for s in out.maximal_simplexes())
    assert is_subdivision(out, a) and is_subdivision(out, b)


def test_common_refinement_moreover_clause():
    # simplexes of a inside a simplex of b survive
    a = from_maximal([seg(0, "1/4"), seg("1/4", "1/2"), seg("1/2", 1)])
    b = from_maximal([seg(0, "1/2"), seg("1/2", "3/4"), seg("3/4", 1)])
    out = common_refinement(a, b)
    for s in a.simplexes:
        if any(all(t.contains(v) for v in s.vertices) for t in b.simplexes):
            assert s in out.simplexes, s


def test_common_refinement_support_mismatch():
    a = from_maximal([seg(0, 1)])
    b = from_maximal([seg(0, "1/2")])
    with pytest.raises(SupportMismatch):
        common_refinement(a, b)


def test_common_refinement_validates():
    from zrk.complexes import GeoComplex
    a = standard_cube(2)
    b = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    out = common_refinement(a, b)
    GeoComplex(out.maximal_simplexes(), validate=True)


def test_restrict_point():
    cx = from_maximal([seg(0, 1)])
    part = from_maximal([GeoSimplex((rpoint("1/3"),))])
    out = restrict(cx, part)
    assert sorted(out.maximal_simplexes()) == [seg(0, "1/3"), seg("1/3", 1)]


def test_restrict_whole_support():
    cx = standard_cube(2)
    assert restrict(cx, cx) == cx


def test_restrict_existing_face():
    cx = standard_cube(2)
    part = from_maximal([seg2d((0, 0), (1, 0))])
    assert restrict(cx, part) == cx


def seg2d(a, b):
    return GeoSimplex((rpoint(*a), rpoint(*b)))


def test_restrict_inside_support_check():
    cx = from_maximal([seg(0, "1/2")])
    part = from_maximal([seg(0, 1)])
    with pytest.raises(SupportMismatch, match="containment violation"):
        restrict(cx, part)


def test_restrict_half_diagonal_adapts():
    cx = standard_cube(2)
    part = from_maximal([seg2d((0, 0), ("1/2", "1/2"))])
    out = restrict(cx, part)
    assert is_subdivision(out, cx)
    inside = inside_subcomplex(out, part)
    assert inside is not None
    assert all(supports(inside, q.vertices) for q in part.maximal_simplexes())


def test_restrict_preserves_interior_simplexes():
    # [1/4,3/4] straddles the two halves of |P| but lies inside it, so the
    # restriction must keep it.
    cx = from_maximal([seg(0, "1/4"), seg("1/4", "3/4"), seg("3/4", 1)])
    part = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    out = restrict(cx, part)
    assert seg("1/4", "3/4") in out.simplexes
    assert out == cx  # already adapted: |P| is the whole support


def test_restrict_nonconvex_part():
    cx = standard_cube(2)
    part = from_maximal([seg2d((0, 0), (1, 0)), seg2d((0, 0), (0, 1))])
    out = restrict(cx, part)
    inside = inside_subcomplex(out, part)
    assert all(supports(inside, q.vertices) for q in part.maximal_simplexes())
    assert is_subdivision(out, cx)


def _check_restricted(out: GeoComplex, cx: GeoComplex, part: GeoComplex,
                      preserved: bool = True) -> None:
    """out subdivides cx, its simplexes inside |part| triangulate |part|,
    and, when ``preserved`` (the kept rows adapt cx), every simplex of cx
    inside |part| is still in out."""
    assert is_subdivision(out, cx)
    assert support_equal(inside_subcomplex(out, part), part)
    if preserved:
        assert all(s in out for s in inside_subcomplex(cx, part).maximal_simplexes())


def test_restrict_leaves_out_a_facet_row_interior_to_the_part():
    # |P| is the quadrilateral (0,0), (1,0), (1,1/2), (0,1), and the lower
    # triangle of cx lies in it.  The edge from (0,0) to (1,1/2) is a facet
    # of both triangles of P and crosses that triangle, but it is interior
    # to |P| and needs no cut: its row is left out, and slicing by the
    # other rows adapts cx.
    cx = from_maximal([tri((0, 0), (0, 1), (1, 0)), tri((0, 1), (1, 0), (1, 1))])
    part = from_maximal([tri((0, 0), (0, 1), (1, "1/2")),
                         tri((0, 0), (1, 0), (1, "1/2"))])
    out = restrict(cx, part)
    assert sorted(out.maximal_simplexes()) == [
        tri((0, 0), (0, 1), (1, 0)), tri((0, 1), (1, 0), (1, "1/2")),
        tri((0, 1), (1, "1/2"), (1, 1))]
    _check_restricted(out, cx, part)


def test_restrict_shifts_a_facet_row_off_a_preserved_triangle(monkeypatch):
    # Found by a seeded search (random.Random(1)) over K a stellar cube2 at
    # one to four quarter points and P a triangle of K with an edge from
    # one of its vertices to a quarter point: the first case whose K has
    # three triangles, and whose restriction needs a shifted facet row.
    # The facet row x = 1/2 of the dangling edge crosses the preserved
    # triangle; shifted by a multiple of the edge's hull equality y = 0 it
    # passes through (1/2, 0) and (1, 1/4) instead.
    cx = stellar(standard_cube(2), rpoint(1, "1/4"))
    part = from_maximal([tri((0, 0), (1, "1/4"), (1, 1)), tri((0, 0), ("1/2", 0))])
    out = restrict(cx, part)
    assert sorted(out.maximal_simplexes()) == [
        tri((0, 0), (0, 1), (1, 1)), tri((0, 0), ("1/2", 0), (1, "1/4")),
        tri((0, 0), (1, "1/4"), (1, 1)), tri(("1/2", 0), (1, 0), (1, "1/4"))]
    _check_restricted(out, cx, part)
    # Without the shifts the row is left out, and the kept rows do not
    # adapt cx: the left-out row x = 1/2 slices on, and it alone cuts the
    # preserved triangle.
    monkeypatch.setattr(subdivide, "_shifts", lambda f, eqs: iter((f,)))
    cx = stellar(standard_cube(2), rpoint(1, "1/4"))
    out = restrict(cx, part)
    assert sorted(out.maximal_simplexes()) == [
        tri((0, 0), (0, 1), ("1/2", 1)), tri((0, 0), ("1/2", 0), ("1/2", "1/8")),
        tri((0, 0), ("1/2", "1/8"), ("1/2", "1/2")),
        tri((0, 0), ("1/2", "1/2"), ("1/2", 1)),
        tri(("1/2", 0), ("1/2", "1/8"), (1, "1/4")), tri(("1/2", 0), (1, 0), (1, "1/4")),
        tri(("1/2", "1/8"), ("1/2", "1/2"), (1, 1)),
        tri(("1/2", "1/8"), (1, "1/4"), (1, 1)),
        tri(("1/2", "1/2"), ("1/2", 1), (1, 1))]
    assert is_subdivision(out, cx)
    assert support_equal(inside_subcomplex(out, part), part)
    assert tri((0, 0), (1, "1/4"), (1, 1)) not in out


def _half_cube_cases(n, seed, count):
    """Seeded pairs (cx, part): cx the standard n-cube, and part its
    maximal simplexes whose second vertex has x0 = 1 or x1 = 1, with a
    dangling simplex on one of their vertices and ``count`` further points,
    random with denominators <= 4."""
    rng = random.Random(seed)
    half = [s for s in standard_cube(n).maximal_simplexes()
            if 1 in s.vertices[1].coords[:2]]
    corners = sorted({v for s in half for v in s.vertices})
    while True:
        points = {rng.choice(corners)}
        points.update(rpoint(*[random_rational(rng, 4) for _ in range(n)])
                      for _ in range(count))
        try:
            part = from_maximal(half + [GeoSimplex(tuple(points))])
        except ValueError:  # dependent points, or a simplex crossing the half cube
            continue
        if len(points) == count + 1:
            yield standard_cube(n), part


def test_restrict_falls_back_on_its_left_out_rows():
    # Half of cube4, and once of cube5, with a dangling edge: a facet row of
    # the edge may cross a preserved simplex however it is shifted, and then
    # the kept rows may not adapt the cube.  There restrict slices on by the
    # rows it left out, where it once refused, and the result still
    # subdivides the cube, triangulates |P| by its simplexes inside, and
    # equals slicing row by row.  Where the kept rows adapt it, nothing
    # preserved is cut.  Each side gets its own copy of the inputs.
    def triples(n, start, stop):
        return itertools.islice(zip(*(_half_cube_cases(n, 2039, 1) for _ in range(3))),
                                start, stop)

    seen = collections.Counter()
    for (cx, part), (cx2, part2), (cx3, part3) in itertools.chain(triples(4, 0, 8),
                                                                  triples(5, 1, 2)):
        out = restrict(cx, part)
        assert print_scx(ScxDocument("complex", out)) == _restricted(rowwise_restrict, cx2, part2)
        kept = _restricted(_kept_rows_only, cx3, part3)
        fell_back = kept == (RestrictionRefused, "restriction failed to adapt to |P|")
        assert fell_back or isinstance(kept, str), kept
        _check_restricted(out, cx, part, preserved=not fell_back)
        seen["cube" if out is cx else "fell back" if fell_back else "kept rows"] += 1
    assert seen["fell back"] >= 3 and seen["kept rows"] >= 2 and seen["cube"], seen


def test_restrict_bounds_its_shift_search(monkeypatch):
    # _shifts yields f, then f plus each nonzero combination of the hull
    # equalities with coefficients in -6..6 in lexicographic order, and
    # stops after _SHIFTS rows: all of them up to codimension two.  Without
    # the bound a facet row of a simplex of codimension k tried 13^k + 1
    # rows before it was left out.
    f, eqs = (1, 2, 3, 4, 5), [(0, 1, 0, 0, 1), (0, 0, 1, 0, 0), (1, 0, 0, 1, 0)]

    def every_shift(k):
        return [f] + [tuple(x + sum(c * e[j] for c, e in zip(coeffs, eqs))
                            for j, x in enumerate(f))
                      for coeffs in itertools.product(range(-6, 7), repeat=k) if any(coeffs)]

    for k in range(4):
        assert list(subdivide._shifts(f, eqs[:k])) == every_shift(k)[:subdivide._SHIFTS]
    assert len(every_shift(2)) <= subdivide._SHIFTS < len(every_shift(3))
    # A codimension-3 case, an edge in R^4 with a facet row that crosses a
    # preserved simplex under each of its first _SHIFTS rows (the unbounded
    # search took its 1,399th): the search stops at the bound, the row is
    # left out, and restrict falls back and finishes within a second.
    drawn, real = [], subdivide._shifts

    def counted(f, eqs):
        drawn.append(0)
        for row in real(f, eqs):
            drawn[-1] += 1
            yield row

    monkeypatch.setattr(subdivide, "_shifts", counted)
    cx, part = next(itertools.islice(_half_cube_cases(4, 2039, 1), 3, None))
    start = time.perf_counter()
    out = restrict(cx, part)
    assert time.perf_counter() - start < 1
    assert max(drawn) == subdivide._SHIFTS
    _check_restricted(out, cx, part, preserved=False)


def _restrict_cases():
    """48 seed-2029 pairs (cx, part): cube2 or cube3 stellar-subdivided at
    one to three random points, against a random simplex of the cube, all
    with denominators <= 4; every fourth simplex is scaled by 3/2, so that
    it may leave the cube."""
    rng = random.Random(2029)
    out = []
    for i in range(48):
        n = 2 + i % 2
        points = [rpoint(*[random_rational(rng, 4) for _ in range(n)])
                  for _ in range(rng.randint(1, 3))]
        cx = stellar_chain(standard_cube(n), points)
        q = random_simplex(rng, n, 4)
        if i % 4 == 3:
            q = GeoSimplex(tuple(rpoint(*[c * Fraction(3, 2) for c in v])
                                 for v in q.vertices))
        out.append((cx, from_maximal([q])))
    return out


def _restricted(restrict_fn, cx, part):
    """The printed restriction, or the error's type and text."""
    try:
        return print_scx(ScxDocument("complex", restrict_fn(cx, part)))
    except (SupportMismatch, RestrictionRefused) as exc:
        return type(exc), str(exc)


def test_restrict_matches_slicing_row_by_row(monkeypatch):
    # One pass over the maximal simplexes keeps exactly the simplexes that
    # slicing the whole complex by one row at a time kept, error texts
    # included.  Each side gets its own copy of the inputs, so neither
    # reads answers the other kept.
    got = [_restricted(restrict, cx, part) for cx, part in _restrict_cases()]
    want = [_restricted(rowwise_restrict, cx, part) for cx, part in _restrict_cases()]
    assert got == want
    kinds = collections.Counter(map(type, got))
    assert kinds[str] >= 30 and kinds[tuple] >= 5, kinds
    # The shifted-row case without its shifts falls back alike, where the
    # kept rows alone are refused.
    monkeypatch.setattr(subdivide, "_shifts", lambda f, eqs: iter((f,)))
    part = from_maximal([tri((0, 0), (1, "1/4"), (1, 1)), tri((0, 0), ("1/2", 0))])
    got, want, kept = (_restricted(fn, stellar(standard_cube(2), rpoint(1, "1/4")), part)
                       for fn in (restrict, rowwise_restrict, _kept_rows_only))
    assert got == want and isinstance(got, str)
    assert kept == (RestrictionRefused, "restriction failed to adapt to |P|")


def _kept_rows_only(cx, part):
    """``rowwise_restrict`` refusing where its kept rows do not adapt cx."""
    return rowwise_restrict(cx, part, fallback=False)


def test_restrict_builds_one_complex_after_choosing_its_rows(monkeypatch):
    # Work bound: the rows slice the maximal simplexes in one pass and one
    # complex is built at the end.  Slicing row by row built a complex per
    # cutting row, and several rows cut on some of these inputs.
    built, cuts, depth = [], [], [0]
    real_complex, real_inside = subdivide.GeoComplex, subdivide._inside_subcomplex
    real_slice = oracles.slice_complex

    def count():
        if not depth[0]:  # the inside subcomplexes are not slicing work
            built.append(1)

    def counted(*args, **kwargs):
        count()
        return real_complex(*args, **kwargs)

    def counted_on_table(*args):
        count()
        return real_complex._on_table(*args)

    counted._on_table = counted_on_table  # the private constructor builds too

    def tracked(cx, part):
        depth[0] += 1
        try:
            return real_inside(cx, part)
        finally:
            depth[0] -= 1

    def sliced(cx, row):
        out = real_slice(cx, row)
        cuts.append(out is not cx)
        return out

    monkeypatch.setattr(subdivide, "GeoComplex", counted)
    monkeypatch.setattr(subdivide, "_inside_subcomplex", tracked)
    monkeypatch.setattr(oracles, "slice_complex", sliced)
    most_cuts = 0
    for (cx, part), (cx2, part2) in zip(_restrict_cases(), _restrict_cases()):
        built.clear()
        _restricted(restrict, cx, part)
        assert len(built) <= 1, (cx, part, len(built))
        cuts.clear()
        _restricted(rowwise_restrict, cx2, part2)
        most_cuts = max(most_cuts, sum(cuts))
    assert most_cuts >= 2


def test_refine_for_map_identity():
    cx = standard_cube(1)
    eta = PLMap(cx, {v: v for v in cx.vertices()})
    assert refine_for_map(eta, cx) is eta


def test_refine_for_map_steep_tent():
    # tent of slope 2: preimages of the target vertex 1/2 are 1/4 and 3/4
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint(1),
                      rpoint(1): rpoint(0)})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    refined = refine_for_map(eta, target)
    out = refined.domain
    assert sorted(out.vertices()) == [rpoint(0), rpoint("1/4"), rpoint("1/2"),
                                      rpoint("3/4"), rpoint(1)]
    assert refined.images[rpoint("1/4")] == refined.images[rpoint("3/4")] == rpoint("1/2")
    for s in out.maximal_simplexes():
        imgs = [eta.eval(v) for v in s.vertices]
        assert any(all(t.contains(i) for i in imgs)
                   for t in target.maximal_simplexes())


def test_refine_for_map_constant():
    dom = standard_cube(1)
    eta = PLMap(dom, {v: rpoint("1/2") for v in dom.vertices()})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    assert refine_for_map(eta, target).domain is dom


def test_refine_for_map_shallow_tent_already_good():
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint("1/2"),
                      rpoint(1): rpoint(0)})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    assert refine_for_map(eta, target).domain is dom


def test_refine_for_map_2d():
    cx = standard_cube(2)
    # fold the square onto its bottom edge, then refine against a split edge
    eta = PLMap(cx, {rpoint(0, 0): rpoint(0, 0), rpoint(1, 0): rpoint(1, 0),
                     rpoint(0, 1): rpoint(0, 0), rpoint(1, 1): rpoint(1, 0)})
    target = from_maximal([seg2d((0, 0), ("1/2", 0)), seg2d(("1/2", 0), (1, 0))])
    out = refine_for_map(eta, target).domain
    assert is_subdivision(out, cx)
    for s in out.maximal_simplexes():
        imgs = [eta.eval(v) for v in s.vertices]
        assert any(all(t.contains(i) for i in imgs)
                   for t in target.maximal_simplexes())


def test_restrict_output_is_valid_complex():
    from zrk.complexes import GeoComplex
    cx = standard_cube(2)
    part = from_maximal([seg2d((0, 0), ("1/2", "1/2"))])
    out = restrict(cx, part)
    GeoComplex(out.maximal_simplexes(), validate=True)


def test_refine_for_map_output_is_valid_complex():
    from zrk.complexes import GeoComplex
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint(1),
                      rpoint(1): rpoint(0)})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    out = refine_for_map(eta, target).domain
    GeoComplex(out.maximal_simplexes(), validate=True)


def test_refine_for_map_image_along_shared_edges():
    # The image of [0,1] runs along the diagonal of the square, whose two
    # halves are each an edge shared by two target triangles.
    dom = standard_cube(1)
    eta = PLMap(dom, {rpoint(0): rpoint(0, 0), rpoint(1): rpoint(1, 1)})
    target = stellar(standard_cube(2), rpoint("1/2", "1/2"))
    out = refine_for_map(eta, target).domain
    assert sorted(out.maximal_simplexes()) == [seg(0, "1/2"), seg("1/2", 1)]


def test_supports_hand_cases():
    square = standard_cube(2).maximal_simplexes()
    lower = tri((0, 0), (1, 0), (1, 1))
    assert lower in square
    diagonal = seg2d((0, 0), (1, 1))
    non_pure = from_maximal([tri((0, 0), (1, 0), (0, 1)),
                             seg2d((1, 0), (2, 0))]).maximal_simplexes()
    cases = [
        (square, diagonal, True),
        (square, seg2d((0, 1), (1, 0)), True),
        ([lower], seg2d((0, 1), (1, 0)), False),
        (square, seg2d(("1/2", "1/2"), ("3/2", "1/2")), False),
        (square, GeoSimplex((rpoint("1/3", "1/4"),)), True),
        (square, GeoSimplex((rpoint(2, 0),)), False),
        (non_pure, seg2d(("1/2", 0), ("3/2", 0)), True),
        (non_pure, seg2d(("1/2", "1/4"), ("3/2", 0)), False),
        (non_pure, tri((0, 0), (2, 0), (0, 1)), False),
    ]
    for cover, s, expected in cases:
        assert supports(GeoComplex(cover, validate=False), s.vertices) is expected, s
        assert scan_supports(cover, s) is expected, s
        assert split_supports(cover, s) is expected, s
    # Point lists: dependent ones take the Caratheodory split, and points
    # of another ambient space have no host.
    point_cases = [
        (square, [(0, 0), (1, 0), (1, 1), (0, 1), ("1/2", "1/2")], True),
        (square, [(0, 1), ("1/2", "1/2"), (1, 0)], True),
        ([lower], [(0, 1), ("1/2", "1/2"), (1, 0)], False),
        (square, [(0, 0), (1, 1), (2, 2)], False),
        (non_pure, [("1/2", 0), (1, 0), ("3/2", 0), ("5/4", 0)], True),
        (non_pure, [("1/2", "1/4"), (1, 0), ("3/2", 0), (0, 0)], False),
        (square, [(0, 0, 0), (1, 0, 0)], False),
        (square, [("1/2",)], False),
    ]
    for cover, coords, expected in point_cases:
        points = [rpoint(*c) for c in coords]
        assert supports(GeoComplex(cover, validate=False), points) is expected, coords
        assert caratheodory_supports(cover, points) is expected, coords
        assert caratheodory_supports(cover, points, split_supports) is expected, coords


def _point_list(rng, n, face, cover):
    """A random list of points for ``supports``: a face's vertices and a
    point on the segment of two of them, n + 2 points each in a random
    simplex of ``cover`` (both dependent), up to n + 2 points of
    [-1, 2]^n, or points of R^(n+1)."""
    def between(a, b):
        t = random_rational(rng, 4)
        return RPoint(tuple(x + t * (y - x) for x, y in zip(a, b)))

    kind = rng.randrange(4)
    if kind == 0:
        return [*face.vertices, between(rng.choice(face.vertices), rng.choice(face.vertices))]
    if kind == 1:
        return [between(rng.choice(t.vertices), t.barycenter())
                for t in (rng.choice(cover) for _ in range(n + 2))]
    if kind == 2:
        return [rpoint(*[random_rational(rng, 4, -1, 2) for _ in range(n)])
                for _ in range(rng.randint(1, n + 2))]
    return [rpoint(*[random_rational(rng, 4) for _ in range(n + 1)])
            for _ in range(rng.randint(1, 3))]


def test_supports_matches_splitting_oracle():
    # supports(K, points) on sub-covers of stellar cubes agrees with the
    # per-cover scan and with the splitter, for faces and random simplexes,
    # and for point lists (``_point_list``) against the Caratheodory split
    # of the scan, and of the splitter too up to the plane; dependent lists
    # decided by neither a missing nor a shared host come out both ways.
    rng, point_rng = random.Random(20141), random.Random(20221)
    pairs = 0
    split = collections.Counter()
    for n in (1, 2, 3):
        for _ in range(6):
            cx = standard_cube(n)
            for _ in range(rng.randint(0, 2)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 4)
                                          for _ in range(n)]))
            maxi = cx.maximal_simplexes()
            faces = sorted(cx.simplexes)
            for _ in range(10):
                cover = rng.sample(maxi, rng.randint(1, len(maxi)))
                if rng.random() < 0.5:
                    s = random_simplex(rng, n, 4)
                else:
                    s = rng.choice(faces)
                sub = GeoComplex(cover, validate=False)
                want = split_supports(cover, s)
                assert supports(sub, s.vertices) == scan_supports(cover, s) == want, (cover, s)
                pairs += 1
                for _ in range(3):
                    points = _point_list(point_rng, n, rng.choice(faces), cover)
                    want = caratheodory_supports(cover, points)
                    assert supports(sub, points) == want, (cover, points)
                    found = [sub.hosts(p) for p in points]
                    if (all(found) and not frozenset.intersection(*found)
                            and len(set(points)) > linalg.matrix_rank([p._homog for p in points])):
                        if n < 3:
                            assert caratheodory_supports(cover, points, split_supports) == want
                        split[n, want] += 1
    assert pairs == 180
    assert all(split[n, want] > 1 for n in (2, 3) for want in (True, False)), split


def _annulus(k: int) -> list[GeoSimplex]:
    """The k x k grid of squares on [0,1]^2 less its middle (k - 2) x (k - 2)
    block, each square cut in two along one diagonal or the other."""
    out = []
    for i, j in itertools.product(range(k), repeat=2):
        if 0 < i < k - 1 and 0 < j < k - 1:
            continue
        a, b, c, d = [(Fraction(i + x, k), Fraction(j + y, k))
                      for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))]
        out += ([tri(a, b, d), tri(a, c, d)] if (i + j) % 2 else [tri(a, b, c), tri(b, c, d)])
    return out


def _half_square() -> list[GeoSimplex]:
    """The two triangles of the fold's P, [0,1] x [0,1/2]."""
    h = "1/2"
    return [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]


def _convexity_cases(rng: random.Random) -> list[tuple[GeoComplex, bool]]:
    """Seeded complexes with the answer ``GeoComplex._is_convex`` owes
    them.  Yes: stellar cubes, the fold's half square and its stellar
    subdivisions, desingularized random simplexes and single simplexes of
    full dimension.  No: the same of lower dimension, whose supports are
    convex but not full; L-shapes of three half cubes, two annuli and a
    stellar subdivision of one, and a triangle with a dangling edge."""
    h = Fraction(1, 2)
    cases = []
    for n in (1, 2, 3):
        points = [rpoint(*[random_rational(rng, 4) for _ in range(n)])
                  for _ in range(rng.randint(1, 3))]
        cases.append((stellar_chain(standard_cube(n), points), True))
        for _ in range(2):
            s = random_simplex(rng, n, 4)
            cases.append((GeoComplex([s]), s.dim == n))
    half = from_maximal(_half_square())
    cases.append((half, True))
    for count in (1, 2):
        points = [_in_simplex(rng, rng.choice(half.maximal_simplexes()).vertices)
                  for _ in range(count)]
        cases.append((stellar_chain(half, points), True))
    for s in random_simplex_pool()[::6]:
        cases.append((desingularize(GeoComplex([s])), s.dim == s.ambient_dim))
    for n in (2, 3):
        cases.append((from_maximal(_subcube(n, (0,) * n) + _subcube(n, (h,) + (0,) * (n - 1))
                                   + _subcube(n, (0, h) + (0,) * (n - 2))), False))
    ring = from_maximal(_annulus(3))
    cases += [(ring, False), (from_maximal(_annulus(4)), False),
              (stellar(ring, rpoint("1/6", "1/2")), False),
              (from_maximal([tri((0, 0), (1, 0), (0, 1)), seg2d((1, 0), (2, 0))]), False)]
    return cases


def _in_simplex(rng: random.Random, vertices) -> RPoint:
    """A point with positive random weights on the given points."""
    w = [rng.randint(1, 4) for _ in vertices]
    return RPoint(tuple(sum(Fraction(a, sum(w)) * v[i] for a, v in zip(w, vertices))
                        for i in range(vertices[0].dim)))


def _probe_point(rng: random.Random, cx: GeoComplex) -> RPoint:
    """A point inside a maximal simplex of cx, on a facet of one that no
    other maximal simplex has (the boundary of |cx| for a complex of full
    dimension), a vertex of cx pushed away from the centre of them all,
    or a point of [-1, 2]^n."""
    n, maxi = cx.ambient_dim, cx.maximal_simplexes()
    kind = rng.random()
    if kind < 0.4:
        return _in_simplex(rng, rng.choice(maxi).vertices)
    if kind < 0.7:
        facets = collections.Counter(f for s in maxi for f in
                                     itertools.combinations(s.vertices, len(s.vertices) - 1))
        return _in_simplex(rng, rng.choice(sorted(f for f, k in facets.items() if k == 1 and f)
                                           or [(v,) for v in cx.vertices()]))
    if kind < 0.85:
        v, verts = rng.choice(cx.vertices()), cx.vertices()
        centre = [sum(u[i] for u in verts) / len(verts) for i in range(n)]
        return RPoint(tuple(c + (c - m) / 8 for c, m in zip(v, centre)))
    return rpoint(*[random_rational(rng, 4, -1, 2) for _ in range(n)])


def test_supports_matches_the_clipping_path_on_convex_and_other_supports(monkeypatch):
    # supports(K, points) says yes as soon as the points have hosts and |K|
    # is convex (GeoComplex._is_convex), which reads a kept cube answer but
    # never runs the cube test to ask.  The clipping path it skips there
    # (oracles.clip_supports) and the Fraction scan of the Caratheodory
    # split agree with it on seeded point lists inside, on the boundary
    # of, outside and in another space than convex complexes and others
    # (``_convexity_cases``).  Lists that the host tiers leave undecided
    # reach the exit on convex supports and come out both ways on the rest.
    rng = random.Random(2052)
    seen = collections.Counter()
    cubes, cube_test = [], complexes._triangulates_cube
    for cx, convex in _convexity_cases(rng):
        monkeypatch.setattr(complexes, "_triangulates_cube",
                            lambda c: cubes.append(c) or cube_test(c))
        assert cx._is_convex() is convex and not cubes, cx
        monkeypatch.undo()
        n = cx.ambient_dim
        for _ in range(12):
            if rng.random() < 0.1:
                points = [rpoint(*[random_rational(rng, 4) for _ in range(n + 1)])
                          for _ in range(rng.randint(1, 3))]
            else:
                points = [_probe_point(rng, cx) for _ in range(rng.randint(2, n + 2))]
            got = supports(cx, points)
            assert got is clip_supports(cx, points), (cx, points)
            assert got is caratheodory_supports(cx.maximal_simplexes(), points), (cx, points)
            found = [cx.hosts(p) for p in points]
            if all(found) and not frozenset.intersection(*found):
                seen[convex, got] += 1
    assert not seen[True, False], seen
    assert seen[True, True] >= 20 and min(seen[False, True], seen[False, False]) >= 5, seen


def test_refine_for_map_is_unchanged_without_the_convex_exit(monkeypatch):
    # refine_for_map measures no tiling for a cut simplex whose vertex
    # images all have hosts in a convex target.  With GeoComplex._is_convex
    # answering no, every cut simplex is measured, and each seeded map
    # refines to the same map or fails with the same SupportMismatch text:
    # maps of stellar segments and squares whose vertex images lie inside,
    # on the boundary of or outside convex and non-convex targets.  Convex
    # targets both refine cut maps and refuse maps with an image vertex
    # outside them; non-convex ones also refuse maps whose image vertices
    # all lie in them.
    rng = random.Random(2054)
    seen = collections.Counter()

    def outcome(eta, target):
        try:
            out = refine_for_map(eta, target)
        except SupportMismatch as e:
            return str(e)
        return out.domain.maximal_simplexes(), out.images

    for target, convex in _convexity_cases(rng):
        for _ in range(4):
            m = rng.choice((1, 2))
            points = [rpoint(*[random_rational(rng, 4) for _ in range(m)])
                      for _ in range(rng.randint(0, 2))]
            domain = stellar_chain(standard_cube(m), points)
            eta = PLMap(domain, {v: _probe_point(rng, target) for v in domain.vertices()})
            got = outcome(eta, target)
            monkeypatch.setattr(GeoComplex, "_is_convex", lambda cx: False)
            assert outcome(eta, target) == got, (target, eta.images)
            monkeypatch.undo()
            leaves = not all(map(target.hosts, eta.images.values()))
            seen[convex, "refused" if isinstance(got, str) else
                 "cut" if got[0] != domain.maximal_simplexes() else "kept", leaves] += 1
    assert min(seen[True, "cut", False], seen[True, "refused", True],
               seen[False, "cut", False], seen[False, "refused", False]) >= 3, seen


def test_convex_supports_and_targets_clip_and_tile_nothing(monkeypatch):
    # Work bound: on the fold of the square onto its lower half, with P
    # parsed as its two triangles and as a stellar subdivision of them, and
    # on rfold(2, 15), pipeline_dh and part2_reduce ask supports of convex
    # complexes of full dimension, by the oracle, and refine_for_map of
    # convex targets.  There supports clips no cell and refine_for_map
    # measures no tiling, though some of those supports calls pass the host
    # tiers and some of those refine_for_map calls cut.  The parsed P runs
    # the hull test once: in its validation when it has three maximal
    # simplexes or more, and for the first supports call past the host
    # tiers otherwise.
    h = Fraction(1, 2)
    square = from_maximal(_half_square() + [tri((0, h), (1, h), (1, 1)),
                                            tri((0, h), (0, 1), (1, 1))])
    fold = PLMap(square, {v: RPoint((v[0], min(v[1], 1 - v[1]))) for v in square.vertices()})
    lower = from_maximal(_half_square())
    cases = [(fold, lower), (fold, stellar(lower, rpoint("1/2", "1/4"))), rfold(2, 15)]
    clip, tiles, hull = linalg.clip_simplex, subdivide._tiles, complexes._triangulates_hull
    measured, refine = subdivide.supports, subdivide.refine_for_map
    running, calls, hulls = [], [], []

    def counted(real, kind):
        def spy(*args):
            if running:
                running[-1][kind] += 1
            return real(*args)
        return spy

    def tracked_supports(cx, points):
        running.append(collections.Counter())
        try:
            return measured(cx, points)
        finally:
            calls.append(("supports", cx, points, running.pop()))

    def tracked_refine(plmap, target):
        running.append(collections.Counter())
        out = plmap
        try:
            out = refine(plmap, target)
            return out
        finally:
            calls.append(("refine", target, out is not plmap, running.pop()))

    monkeypatch.setattr(linalg, "clip_simplex", counted(clip, "clips"))
    monkeypatch.setattr(subdivide, "_tiles", counted(tiles, "tiles"))
    monkeypatch.setattr(complexes, "_triangulates_hull", lambda cx: hulls.append(cx) or hull(cx))
    monkeypatch.setattr(subdivide, "supports", tracked_supports)
    monkeypatch.setattr(subdivide, "refine_for_map", tracked_refine)
    for eta, part in cases:
        hulls.clear()
        part = parse_scx(print_scx(ScxDocument("complex", part))).payload
        assert sum(cx is part for cx in hulls) == (len(part.maximal_simplexes()) > 2)
        result = pipeline_dh(eta, part)
        part2_reduce(result.map, result.triangulation, part)
        assert sum(cx is part for cx in hulls) == 1
    monkeypatch.undo()
    convex = {}
    seen = collections.Counter()
    for kind, cx, arg, work in calls:
        if id(cx) not in convex:
            convex[id(cx)] = (all(s.dim == cx.ambient_dim for s in cx.maximal_simplexes())
                              and oracles.hull_inside(cx))
        if not convex[id(cx)]:
            continue
        if kind == "supports":
            assert not work["clips"], (cx, arg)
            found = [cx.hosts(p) for p in arg]
            seen[kind] += all(found) and not frozenset.intersection(*found)
        else:
            assert not work["tiles"], cx
            seen[kind] += arg
    assert seen["supports"] >= 3 and seen["refine"] >= 3, seen


def test_pulled_cells_sort_vertices_as_points():
    # _pull_cell sorts the cell's vertices by integer keys; the pieces must
    # be those pulled in sorted() order of the vertices as RPoints.
    rng = random.Random(20152)
    full = mixed = 0
    for n in (1, 2, 3):
        cover = standard_cube(n)
        for _ in range(2):
            cover = stellar(cover, rpoint(*[random_rational(rng, 5) for _ in range(n)]))
        for _ in range(30):
            s = random_simplex(rng, n, 4)
            for t in cover.maximal_simplexes():
                eqs, bary, _ = t._point_rows
                got = subdivide._pull_cell(s, eqs, bary)
                if not got:
                    continue
                cell = linalg.clip_simplex(s._vertex_rows, bary)
                points = sorted(RPoint(tuple(Fraction(c, x[-1]) for c in x[:-1]))
                                for x, _ in cell)
                ineqs = s._point_rows[1] + bary
                pulled = linalg.pull_triangulation([p._homog for p in points], ineqs)
                assert [g.vertices for g in got] == \
                    [tuple(points[i] for i in tri) for tri in pulled], (s, t)
                full += 1
                mixed += len({x[-1] for x, _ in cell}) > 1
    assert full >= 150 and mixed >= 100, (full, mixed)


def test_only_cells_that_are_not_simplexes_are_pulled_and_pulling_eliminates_nothing(
        monkeypatch):
    # Work bound on the pipeline, part 2 and their check for the fold of
    # the square onto [0,1] x [0,1/2] and three stellar subdivisions of its
    # domain: a cell with dim s + 1 vertices is returned as itself, so
    # pull_triangulation sees only cells with more vertices than that, and
    # it reads face ranks off the tight masks, so no Bareiss elimination
    # runs inside it.
    h = "1/2"
    lower = [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]
    upper = [tri((0, h), (1, h), (1, 1)), tri((0, h), (0, 1), (1, 1))]
    domain = from_maximal(lower + upper)
    fold = PLMap(domain, {v: rpoint(v[0], min(v[1], 1 - v[1])) for v in domain.vertices()})
    part = from_maximal(lower)
    cut, pulling, pulled, eliminated = [], [], [], []
    pull_cell, pull, bareiss = subdivide._pull_cell, linalg.pull_triangulation, linalg._bareiss

    def tracked_cell(s, eqs, ineqs):
        cut.append(len(s.vertices))
        try:
            return pull_cell(s, eqs, ineqs)
        finally:
            cut.pop()

    def tracked_pull(points, ineqs):
        pulled.append((len(points), cut[-1]))
        pulling.append(True)
        try:
            return pull(points, ineqs)
        finally:
            pulling.pop()

    def tracked_bareiss(*args, **kwargs):
        eliminated.append(bool(pulling))
        return bareiss(*args, **kwargs)

    monkeypatch.setattr(subdivide, "_pull_cell", tracked_cell)
    monkeypatch.setattr(linalg, "pull_triangulation", tracked_pull)
    monkeypatch.setattr(linalg, "_bareiss", tracked_bareiss)
    for points in [(), (("1/3", "3/4"),), (("3/4", "1/4"), ("1/3", "2/3")),
                   (("2/3", "1/3"), ("1/4", "3/4"), ("1/2", "1/4"))]:
        eta = fold
        for p in points:
            eta = eta.rebase(stellar(eta.domain, rpoint(*p)))
        result = pipeline_dh(eta, part)
        red = part2_reduce(result.map, result.triangulation, part)
        assert result.status == "ok" and verify_section_retraction(
            part, red.retraction, red.section), points
    monkeypatch.undo()
    assert pulled and all(n > dim_plus_one for n, dim_plus_one in pulled), pulled
    assert len(eliminated) > 100 and not any(eliminated), eliminated.count(True)


def test_inside_subcomplex_matches_testing_every_simplex():
    rng = random.Random(20146)

    def stellar_cube(n):
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 3)):
            cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
        return cx

    for n in (1, 2, 3):
        for _ in range(3):
            cx = stellar_cube(n)
            other = stellar_cube(n).maximal_simplexes()
            # A simplex with a vertex v of cx on its boundary (the midpoint
            # of an edge, or an end in R^1), too small to hold an edge of cx:
            # points with denominators <= 4 differ by 1/12 in some
            # coordinate.  And a part in another space.
            v = cx.vertices()[len(cx.vertices()) // 2]
            axes = [[Fraction(i == j, 100) for j in range(n)] for i in range(n)]

            def shift(d, sign=1):
                return rpoint(*[c + sign * x for c, x in zip(v.coords, d)])

            ends = [shift(d) for d in axes] + [shift(axes[0], -1) if n > 1 else v]
            small = GeoSimplex(tuple(sorted(ends)))
            parts = [from_maximal(rng.sample(other, min(2, len(other)))),
                     from_maximal([random_simplex(rng, n, 3)]), standard_cube(n),
                     from_maximal([small]), standard_cube(n % 3 + 1)]
            for part in parts:
                inside = inside_subcomplex(cx, part)
                assert ((inside.simplexes if inside else set())
                        == scan_inside_subcomplex(cx, part))
            assert inside_subcomplex(cx, parts[3]).maximal_simplexes() == (GeoSimplex((v,)),)
            assert inside_subcomplex(cx, parts[4]) is None


def _subcube(n, origin):
    """The standard triangulation of origin + [0, 1/2]^n."""
    return [GeoSimplex(tuple(RPoint(tuple(o + c / 2 for o, c in zip(origin, v.coords)))
                             for v in s.vertices))
            for s in standard_cube(n).maximal_simplexes()]


def test_inside_subcomplex_on_rank_tuples_matches_point_tuples(monkeypatch):
    # The kernel reads each vertex's hosts once and tests rank tuples; the
    # point-tuple kernel it replaced (oracles.point_inside_subcomplex) asks
    # supports of every face it builds, and the scanning oracle tests every
    # face on its own.  All three agree on seeded stellar cube2 and cube3
    # complexes against a non-convex P (an L of three half-size cubes), and
    # a P with a dangling edge or an isolated vertex, which may be a vertex
    # of the complex.  A maximal simplex of the complex found inside is its
    # own object.
    rng = random.Random(2046)
    asked = []
    measured = subdivide.supports
    for n in (2, 3):
        half = Fraction(1, 2)
        mid, top = RPoint((half,) * n), RPoint((Fraction(1),) * n)
        base = _subcube(n, (0,) * n)
        ell = _subcube(n, (half,) + (0,) * (n - 1)) + _subcube(n, (0, half) + (0,) * (n - 2))
        for _ in range(3):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
            far = RPoint(tuple(Fraction(rng.randint(5, 8), 8) for _ in range(n)))
            parts = [from_maximal(base + ell),
                     from_maximal(base + [GeoSimplex((mid, far))]),
                     from_maximal(base + [GeoSimplex((far,))]),
                     from_maximal(base + [GeoSimplex((top,))]),
                     from_maximal(base + ell + [GeoSimplex((mid, far))])]
            own = {s: s for s in cx.maximal_simplexes()}
            for part in parts:
                faces = []
                monkeypatch.setattr(subdivide, "supports",
                                    lambda p, points: faces.append(set(points))
                                    or measured(p, points))
                found = subdivide._inside_subcomplex(cx, part)
                monkeypatch.undo()
                assert found == oracles.point_inside_subcomplex(cx, part), (cx, part)
                assert ((found.simplexes if found else set())
                        == scan_inside_subcomplex(cx, part)), (cx, part)
                assert all(own.get(s, s) is s for s in found.maximal_simplexes())
                # Work bound: the faces of a simplex found are not asked again.
                assert not any(f < set(m.vertices) for f in faces
                               for m in found.maximal_simplexes()), (cx, part)
                asked += faces
    # Some faces are left to the volume test after the host tiers.
    assert len(asked) > 20, len(asked)


def test_inside_subcomplex_matches_scanning_oracle_in_restrict_and_pipeline(
        monkeypatch):
    # Every inside subcomplex that restrict, pipeline_dh and part2_reduce
    # find on seeded inputs equals the faces the oracle finds inside.  The
    # count pins the work: pipeline_dh asks none, as step F returns the
    # inside subcomplex it kept, and step H and its closing check read it.
    rng = random.Random(20151)
    found = []

    def checked(cx, part):
        inside = inside_subcomplex(cx, part)
        assert ((inside.simplexes if inside else set())
                == scan_inside_subcomplex(cx, part)), (cx, part)
        found.append(inside)
        return inside

    monkeypatch.setattr(subdivide, "inside_subcomplex", checked)
    for i in range(12):
        n = 2 + i % 2
        corners = [rpoint(*([1] * k + [0] * (n - k))) for k in range(n + 1)]
        part = from_maximal([GeoSimplex(tuple(corners[:rng.randint(1, n)]))])
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 3)):
            p = [random_rational(rng, 4) for _ in range(n)]
            if rng.random() < 0.5:
                p.sort(reverse=True)
            cx = stellar(cx, rpoint(*p))
        restrict(cx, part)
    # The fold of the square onto its half diagonal, and seeded stellar
    # subdivisions of its domain.
    half = rpoint("1/2", "1/2")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {v: half if any(v.coords) else v for v in square.vertices()})
    part = from_maximal([GeoSimplex((rpoint(0, 0), half))])
    for i in range(4):
        eta = fold
        for _ in range(i):
            p = rpoint(*[random_rational(rng, 4) for _ in range(2)])
            eta = eta.rebase(stellar(eta.domain, p))
        result = pipeline_dh(eta, part)
        part2_reduce(result.map, result.triangulation, part)
    assert len(found) == 24 and {inside.dim for inside in found} == {0, 1, 2}


def test_inside_subcomplex_runs_supports_only_on_undecided_faces(monkeypatch):
    # Work bound: on the fold pipeline, every face that inside_subcomplex
    # passes to the volume test has all its vertices in |P| and no simplex
    # of P holding them all.  A face with a vertex outside |P|, or inside
    # one simplex of P, is decided by the vertex hosts alone.
    rng = random.Random(20177)
    calls = []
    parts = []
    inside, measured = subdivide.inside_subcomplex, subdivide._tiles

    def tracked(cx, part):
        parts.append(part)
        try:
            return inside(cx, part)
        finally:
            parts.pop()

    def counted(wholes, pieces):
        if parts:
            (s,) = wholes
            calls.append((parts[-1], s))
        return measured(wholes, pieces)

    monkeypatch.setattr(subdivide, "inside_subcomplex", tracked)
    monkeypatch.setattr(subdivide, "_tiles", counted)
    half, quarter = rpoint("1/2", "1/2"), rpoint("1/4", "1/4")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {v: half if any(v.coords) else v for v in square.vertices()})
    for part in (from_maximal([GeoSimplex((rpoint(0, 0), half))]),
                 from_maximal([GeoSimplex((rpoint(0, 0), quarter)),
                               GeoSimplex((quarter, half))])):
        for i in range(3):
            eta = fold
            for _ in range(i):
                p = rpoint(*[random_rational(rng, 4) for _ in range(2)])
                eta = eta.rebase(stellar(eta.domain, p))
            result = pipeline_dh(eta, part)
            part2_reduce(result.map, result.triangulation, part)
    for part, s in calls:
        hosts = [{t for t in part.maximal_simplexes() if t.contains(v)}
                 for v in s.vertices]
        assert all(hosts) and not set.intersection(*hosts), (part, s)
    # Only edges with their ends on either side of the two-segment part's
    # split point reach it, 24 of them here.
    assert 0 < len(calls) <= 30, len(calls)


def test_vertices_of_the_part_are_looked_up_without_barycentric_work(monkeypatch):
    # Work bound: on the fold pipeline, inside_subcomplex finds the hosts
    # of a vertex of P in its star (GeoComplex.hosts), with no
    # GeoSimplex._weights call; only the other vertices are located.  The
    # hosts are read once per vertex of the complex, not once per face, and
    # pipeline_dh no longer searches step F's output again, so the fold
    # runs with up to thirteen seeded rebases to look up more than 20
    # vertices of P.
    rng = random.Random(20191)
    parts, looking, located = [], [], []
    vertex_lookups = 0
    inside, hosts, weights = subdivide.inside_subcomplex, GeoComplex.hosts, GeoSimplex._weights

    def tracked(cx, part):
        parts.append(part)
        try:
            return inside(cx, part)
        finally:
            parts.pop()

    def looked_up(cx, p):
        nonlocal vertex_lookups
        if parts:
            vertex_lookups += p in parts[-1].vertices()
        looking.append(True)
        try:
            return hosts(cx, p)
        finally:
            looking.pop()

    def counted(self, x):
        if parts and looking:
            located.append((parts[-1], x))
        return weights(self, x)

    monkeypatch.setattr(subdivide, "inside_subcomplex", tracked)
    monkeypatch.setattr(GeoComplex, "hosts", looked_up)
    monkeypatch.setattr(GeoSimplex, "_weights", counted)
    half = rpoint("1/2", "1/2")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {v: half if any(v.coords) else v for v in square.vertices()})
    part = from_maximal([GeoSimplex((rpoint(0, 0), half))])
    for i in range(14):
        eta = fold
        for _ in range(i):
            p = rpoint(*[random_rational(rng, 4) for _ in range(2)])
            eta = eta.rebase(stellar(eta.domain, p))
        pipeline_dh(eta, part)
    monkeypatch.undo()
    assert vertex_lookups > 20 and located, (vertex_lookups, len(located))
    for part, x in located:
        assert x not in {v._homog for v in part.vertices()}, (part, x)


def test_points_are_located_once_per_complex(monkeypatch):
    # Work bound: through pipeline_dh, part2_reduce and
    # verify_section_retraction on the fold of the square onto its lower
    # half, GeoComplex.hosts locates each point that is not a vertex at
    # most once per complex object, though it is asked again.
    asked, located, alive = collections.Counter(), collections.Counter(), []
    hosts, locate, looking = GeoComplex.hosts, GeoComplex._locate, []

    def asking(cx, p):
        alive.append(cx)  # keeps every id distinct
        if p not in cx.vertices():
            asked[id(cx), p] += 1
        looking.append(True)
        try:
            return hosts(cx, p)
        finally:
            looking.pop()

    def counted(cx, p):
        if looking:
            located[id(cx), p] += 1
        return locate(cx, p)

    monkeypatch.setattr(GeoComplex, "hosts", asking)
    monkeypatch.setattr(GeoComplex, "_locate", counted)
    h = "1/2"
    lower = [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]
    upper = [tri((0, h), (1, h), (1, 1)), tri((0, h), (0, 1), (1, 1))]
    domain, part = from_maximal(lower + upper), from_maximal(lower)
    fold = PLMap(domain, {v: rpoint(v[0], min(v[1], 1 - v[1])) for v in domain.vertices()})
    result = pipeline_dh(fold, part)
    red = part2_reduce(result.map, result.triangulation, part)
    assert verify_section_retraction(part, red.retraction, red.section)
    assert located and max(located.values()) == 1, located
    assert sum(located.values()) < sum(asked.values()), (located, asked)


def _boxes_meet(ps, qs) -> bool:
    """Do the coordinate boxes of two point lists meet?  Read off the
    ``Fraction`` coordinates."""
    return all(min(p[i] for p in ps) <= max(q[i] for q in qs)
               and min(q[i] for q in qs) <= max(p[i] for p in ps)
               for i in range(ps[0].dim))


def test_cells_never_clip_disjoint_boxes(monkeypatch):
    # _cells skips a target simplex whose integer box misses the box of the
    # vertex images (the cell is empty), for the identity and for maps that
    # squash s onto a line or into half the square; the cells are those of
    # clipping against every target simplex.
    rng = random.Random(20192)
    cover = standard_cube(2)
    for _ in range(4):
        cover = stellar(cover, rpoint(*[random_rational(rng, 4) for _ in range(2)]))
    maxi = cover.maximal_simplexes()
    # A clip follows the box test that let its target through, so each
    # clip is filed under the last target whose box passed.
    boxes = {id(t._box): t for t in maxi}
    passed, clipped, pull, overlap = [], [], subdivide._pull_cell, subdivide._bbox_overlap

    def tracked_overlap(a, b):
        meets = overlap(a, b)
        if meets and id(b) in boxes:
            passed.append(boxes[id(b)])
        return meets

    def tracked(s, eqs, ineqs):
        clipped.append((s, passed[-1]))
        return pull(s, eqs, ineqs)

    simplexes = [random_simplex(rng, 2, 6) for _ in range(40)]
    # Small triangles, a quarter wide, that cross the cover's edges.
    for _ in range(40):
        corner = [random_rational(rng, 4, 0, 1) * 3 / 4 for _ in range(2)]
        pts = [rpoint(*[c + random_rational(rng, 8, 0, 1) / 4 for c in corner])
               for _ in range(3)]
        if linalg.matrix_rank([p._homog for p in pts]) == 3:
            simplexes.append(GeoSimplex(tuple(sorted(pts))))
    simplexes += [tri((0, 0), ("1/4", 0), (0, "1/4")), tri((1, 1), ("3/4", 1), (1, "3/4"))]
    maps = [lambda v: v, lambda v: rpoint(v[0], v[1] / 2), lambda v: rpoint(v[0], 0),
            lambda v: rpoint(v[0], v[0]), lambda v: rpoint(1 - v[1], (1 - v[1]) / 3)]
    samples = [(s, tuple(map(f, s.vertices))) for s in simplexes for f in maps]
    monkeypatch.setattr(subdivide, "_pull_cell", tracked)
    monkeypatch.setattr(subdivide, "_bbox_overlap", tracked_overlap)
    got, clipping = [], []
    for s, images in samples:
        del clipped[:]
        got.append(subdivide._cells(s, images, cover))
        clipping.append(list(clipped))
    monkeypatch.undo()
    for (s, images), pairs in zip(samples, clipping):
        assert all(c is s and _boxes_meet(images, t.vertices) for c, t in pairs), (s, images)
    # Images sharing a host return {s} unclipped; every other sample skips
    # one target simplex or more on the average, maps as well.
    looped = [(images == s.vertices, len(maxi) - len(pairs))
              for (s, images), pairs in zip(samples, clipping)
              if not frozenset.intersection(*map(cover.hosts, images))]
    for own in (True, False):
        skips = [k for o, k in looped if o is own]
        assert len(skips) >= 20 and sum(skips) >= len(skips), (own, skips)
    for (s, images), cells in zip(samples, got):
        every = set()
        for t in maxi:
            eqs, bary, _ = t._point_rows
            if images != s.vertices:
                eqs, bary = pullback_rows(s, images, eqs), pullback_rows(s, images, bary)
            every.update(pull(s, eqs, bary))
        assert cells == every, (s, images)


def _random_cube_point(rng, n: int, max_den: int = 4) -> RPoint:
    return rpoint(*[random_rational(rng, max_den) for _ in range(n)])


def test_one_overlay_matches_the_loops_it_replaced():
    # common_refinement and refine_for_map cut simplexes with _cells; the
    # loops they ran before (the a == b shortcut and box test of one, and a
    # pullback against every target simplex in the other) are kept as
    # oracles, and both answer the same, errors included.
    rng = random.Random(3807)

    def doc(cx):
        return print_scx(ScxDocument("complex", cx))

    for i in range(60):
        n = 2 + i % 2
        a = stellar_chain(standard_cube(n), [_random_cube_point(rng, n) for _ in range(4)])
        b = a if i % 10 == 0 else stellar_chain(
            standard_cube(n), [_random_cube_point(rng, n) for _ in range(4)])
        assert doc(common_refinement(a, b)) == doc(oracles.pieces_common_refinement(a, b)), i

    # Vertex images anywhere in the cube; on the main diagonal, made of
    # edges shared by several target simplexes; or in one shared face for
    # some vertices and anywhere for the rest, so a simplex may collapse
    # onto that face; and the identity.  Targets missing a maximal simplex
    # refuse some images with the same text.
    kinds, collapsed = collections.Counter(), 0
    for i in range(80):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        dom = stellar_chain(standard_cube(n), [_random_cube_point(rng, n) for _ in range(2)])
        diagonal = [rpoint(*[x] * m) for x in (Fraction(1, 3), Fraction(1, 2))]
        target = stellar_chain(standard_cube(m), diagonal[:i % 3]
                               + [_random_cube_point(rng, m) for _ in range(2)])
        kind = ("anywhere", "diagonal", "face", "identity")[i % 4]
        if kind == "identity":
            m, target = n, stellar_chain(standard_cube(n), [_random_cube_point(rng, n)])
        if i % 5 == 4 and len(target.maximal_simplexes()) > 1:
            target = GeoComplex(target.maximal_simplexes()[1:], validate=False)
            kind += ", part of the cube"
        shared = [f for f in target.simplexes if f.dim < m
                  and len(frozenset.intersection(*map(target.hosts, f.vertices))) > 1]
        face = rng.choice(shared) if shared else None
        images, in_face = {}, set()
        for v in dom.vertices():
            if kind.startswith("identity"):
                images[v] = v
            elif kind.startswith("diagonal"):
                images[v] = rpoint(*[random_rational(rng, 6)] * m)
            elif kind.startswith("face") and face is not None and rng.random() < 0.8:
                w = [rng.randint(0, 3) for _ in face.vertices]
                w[0] += not any(w)
                in_face.add(v)
                images[v] = rpoint(*[sum(c * x[j] for c, x in zip(w, face.vertices)) / sum(w)
                                     for j in range(m)])
            else:
                images[v] = _random_cube_point(rng, m, 6)
        eta = PLMap(dom, images)
        collapsed += sum(in_face.issuperset(s.vertices) and s.dim > face.dim
                         for s in dom.maximal_simplexes())
        outcomes = []
        for refine in (lambda: refine_for_map(eta, target).domain,
                       lambda: oracles.scan_refine_for_map(eta, target)):
            try:
                outcomes.append(doc(refine()))
            except SupportMismatch as e:
                outcomes.append(f"refused: {e}")
        assert outcomes[0] == outcomes[1], (i, kind)
        kinds[kind, outcomes[0].startswith("refused"), outcomes[0] == doc(dom)] += 1
    assert collapsed >= 20, collapsed
    assert sum(k for (_, refused, _), k in kinds.items() if refused) >= 4, kinds
    assert sum(k for (_, refused, same), k in kinds.items()
               if not refused and not same) >= 30, kinds


def test_cell_kernel_runs_on_integers_only(monkeypatch):
    # Once the input simplexes have their cached rows, supports,
    # common_refinement and refine_for_map clip, pull and measure cells on
    # integer vectors and rows (test_source checks that linalg builds no
    # Fraction at all).  Coverage of a cube triangulation is read off the
    # vertices, so support_equal also measures two subdivisions of a
    # triangle, which is not a cube.
    rng = random.Random(20149)

    def stellar_square():
        cx = standard_cube(2)
        for _ in range(3):
            cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(2)]))
        return cx

    a, b = stellar_square(), stellar_square()
    eta = PLMap(a, {v: rpoint((v[0] + v[1]) / 2, v[1]) for v in a.vertices()})
    s = random_simplex(rng, 2, 4)
    c, d = [stellar_chain(from_maximal([tri((0, 0), (1, 0), (0, 1))]),
                          [rpoint(*p) for p in ((x, y), (y, x), (x, x))])
            for x, y in (("1/4", "1/2"), ("1/3", "1/6"))]
    for t in (s, *a.maximal_simplexes(), *b.maximal_simplexes(),
              *c.maximal_simplexes(), *d.maximal_simplexes()):
        t._point_rows

    calls = {"clip": 0, "volume": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    # Cells are measured by GeoSimplex._volume: the subdivision tests of
    # the overlay and the refinement measure every cell.  The convex
    # supports above measure none, and the stellar cones carry their
    # determinants, so counting eliminations (linalg.det) would count
    # only the hull test's orientations.
    monkeypatch.setattr(linalg, "clip_simplex", counting("clip", linalg.clip_simplex))
    monkeypatch.setattr(GeoSimplex, "_volume", counting("volume", GeoSimplex._volume))
    covered = supports(b, s.vertices)
    overlay = common_refinement(a, b)
    refined = refine_for_map(eta, b).domain
    same = support_equal(c, d)
    subdivides = [is_subdivision(overlay, a), is_subdivision(overlay, b),
                  is_subdivision(refined, a)]
    assert calls["clip"] > 20 and calls["volume"] > 20, calls
    monkeypatch.undo()
    assert covered and same and not c._is_cube()
    assert all(subdivides)
    assert len(refined.maximal_simplexes()) > len(a.maximal_simplexes())


def _answers(cx, part):
    """Every answer that cx keeps about part, with restrict's result or
    error, the cube test, and the inside subcomplex as its faces."""
    inside = inside_subcomplex(cx, part)
    try:
        restricted = restrict(cx, part)
    except SupportMismatch as err:
        restricted = (type(err), str(err))
    return (inside.simplexes if inside else set(), covers(cx, part),
            support_equal(cx, part), subdivide._adapted(inside, part),
            restricted, cx._is_cube())


def test_kept_answers_equal_fresh_ones():
    # A complex keeps its inside subcomplex, coverage and cube test once
    # asked.  Asked again, and asked of a freshly built equal complex, which
    # keeps nothing yet, every answer is the same, and the inside subcomplex,
    # coverage and support equality are what scan_supports finds.
    rng = random.Random(20212)
    seen = collections.Counter()
    for i in range(12):
        n = 2 + i % 2
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 3)):
            cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
        if i % 3 == 2:  # not a cube: one maximal simplex left out
            maxi = cx.maximal_simplexes()
            cx = from_maximal(rng.sample(maxi, len(maxi) - 1))
        corners = [rpoint(*([1] * k + [0] * (n - k))) for k in range(n + 1)]
        outside = rpoint(*([Fraction(3, 2)] + [Fraction(0)] * (n - 1)))
        parts = [from_maximal([GeoSimplex(tuple(corners[:rng.randint(2, n + 1)]))]),
                 from_maximal([random_simplex(rng, n, 4)]),
                 from_maximal([GeoSimplex((corners[0], outside))]), standard_cube(n)]
        for part in parts:
            warm = _answers(cx, part)
            fresh = GeoComplex(cx.maximal_simplexes(), validate=False)
            assert _answers(cx, part) == _answers(fresh, part) == warm, (cx, part)
            assert warm[0] == scan_inside_subcomplex(fresh, part)
            assert warm[1] == all(scan_supports(fresh.maximal_simplexes(), q)
                                  for q in part.maximal_simplexes())
            assert warm[2] == (warm[1] and all(scan_supports(part.maximal_simplexes(), s)
                                               for s in fresh.maximal_simplexes()))
            seen[warm[1], warm[5], isinstance(warm[4], GeoComplex)] += 1
    assert seen[True, True, True] and seen[True, False, True], seen
    assert seen[False, True, False] and seen[False, False, False], seen


def _cube_parts(rng: random.Random, n: int) -> list[tuple[str, GeoComplex]]:
    """Seeded polyhedra on the quarter grid, each named by where it lies
    against [0,1]^n: inside the open cube, on a facet, straddling the
    boundary, wholly outside, or in R^(n+1)."""
    def simplex(coords, top=n, m=n):
        while True:
            try:
                return GeoSimplex(tuple(rpoint(*[Fraction(coords(j), 4) for j in range(m)])
                                        for _ in range(rng.randint(1, top + 1))))
            except ValueError:  # dependent points
                continue

    axis, side = rng.randrange(n), rng.choice((0, 4))
    on_facet = simplex(lambda j: side if j == axis else rng.randint(0, 4), top=n - 1)
    inside = simplex(lambda j: rng.randint(1, 3))
    while True:
        wide = simplex(lambda j: rng.randint(-2, 6))
        if 0 < sum(all(0 <= c <= 1 for c in v) for v in wide.vertices) < len(wide.vertices):
            break
    far = [simplex(lambda j: rng.randint(5, 8) if j == 0 else rng.randint(-2, 6))
           for _ in range(2)]
    shifted = [GeoSimplex(tuple(rpoint(v[0] + Fraction(1, 2), *v[1:]) for v in s.vertices))
               for s in standard_cube(n).maximal_simplexes()]
    return [("inside", from_maximal([inside])), ("inside", standard_cube(n)),
            ("facet", from_maximal([on_facet])),
            ("straddling", from_maximal([wide])), ("straddling", from_maximal(shifted)),
            ("straddling", from_maximal([inside, far[0]])),
            ("outside", from_maximal([far[1]])),
            ("other dimension", from_maximal([simplex(lambda j: rng.randint(0, 4), m=n + 1)]))]


def test_covers_matches_the_cube_bounds_rule_on_cube_triangulations():
    # covers decides every polyhedron by supports, whose convex exit reads
    # a kept cube answer; it had a second rule for known cube
    # triangulations, which read the part's vertex coordinates.  On
    # standard, stellar and refined cubes, and on a stellar cube rebuilt
    # unvalidated and never asked the cube question, both rules agree on
    # parts inside, on a facet, across the boundary, outside and in
    # another ambient dimension, and covers never runs the cube test.
    rng = random.Random(2053)
    cubes = [standard_cube(n) for n in (1, 2, 3, 4)]
    for n in (2, 2, 3, 3, 4):
        cubes.append(stellar_chain(standard_cube(n), [
            rpoint(*[random_rational(rng, 4) for _ in range(n)]) for _ in range(rng.randint(1, 3))]))
    cubes += [common_refinement(cubes[4], cubes[5]), common_refinement(cubes[6], cubes[7])]
    unasked = GeoComplex(cubes[7].maximal_simplexes(), validate=False)
    cubes.append(unasked)
    seen = collections.Counter()
    for cx in cubes:
        assert volume_triangulates_cube(cx), cx
        for _ in range(3):
            for kind, part in _cube_parts(rng, cx.ambient_dim):
                got = covers(cx, part)
                assert got is oracles.cube_bounds_covers(cx, part), (cx, kind, part)
                seen[kind, got] += 1
    assert ("cube",) not in unasked._answers and unasked._answers[("convex",)] is True
    assert {key for key, count in seen.items() if count >= 3} == {
        ("inside", True), ("facet", True), ("straddling", False), ("outside", False),
        ("other dimension", False)}, seen


def test_restrict_raises_the_same_error_again():
    # Coverage is kept; the error restrict raises on it is not, and comes
    # again with the same text.
    cx = stellar(standard_cube(2), rpoint("1/3", "1/4"))
    for part, text in ((from_maximal([seg2d((0, 0), ("3/2", "1/2"))]),
                        "containment violation: |P| is not inside the support"),
                       (from_maximal([seg(0, "1/2")]),
                        "containment violation: ambient dimensions differ")):
        for _ in range(2):
            with pytest.raises(SupportMismatch) as err:
                restrict(cx, part)
            assert str(err.value) == text


def test_an_answer_that_raises_is_not_kept(monkeypatch):
    cx, part = standard_cube(2), from_maximal([seg2d((0, 0), (1, 1))])
    kernel, calls = subdivide._inside_subcomplex, []

    def flaky(cx, part):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first ask fails")
        return kernel(cx, part)

    monkeypatch.setattr(subdivide, "_inside_subcomplex", flaky)
    with pytest.raises(RuntimeError):
        inside_subcomplex(cx, part)
    inside = inside_subcomplex(cx, part)
    assert inside_subcomplex(cx, part) is inside and len(calls) == 2
    assert inside.maximal_simplexes() == (seg2d((0, 0), (1, 1)),)


def test_support_kernels_run_once_per_complex_and_part(monkeypatch):
    # Work bound: through pipeline_dh, part2_reduce and
    # verify_section_retraction on the fold of the square onto its lower
    # half, the inside-subcomplex and coverage kernels run at most once per
    # complex object and polyhedron, and the inside subcomplex is asked
    # again.  A kernel runs when the complex's memo computes an answer.
    # Coverage may be asked only once per complex here: _adapted decides an
    # inside subcomplex of the fold's full-dimensional P by volume and no
    # longer asks covers of it.
    asked, ran, alive = collections.Counter(), collections.Counter(), []
    kernels = {"inside": "inside_subcomplex", "covers": "covers"}
    answer = GeoComplex._answer

    def computing(cx, key, compute):
        def counted():
            alive.append(cx)  # keeps every id distinct
            ran[kernels[key[0]], id(cx), key[1]] += 1
            return compute()

        return answer(cx, key, counted if key[0] in kernels else compute)

    monkeypatch.setattr(GeoComplex, "_answer", computing)
    for name in kernels.values():
        def asking(cx, part, wrapper=getattr(subdivide, name), name=name):
            asked[name] += 1
            return wrapper(cx, part)

        monkeypatch.setattr(subdivide, name, asking)
    h = "1/2"
    lower = [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]
    upper = [tri((0, h), (1, h), (1, 1)), tri((0, h), (0, 1), (1, 1))]
    domain, part = from_maximal(lower + upper), from_maximal(lower)
    fold = PLMap(domain, {v: rpoint(v[0], min(v[1], 1 - v[1])) for v in domain.vertices()})
    result = pipeline_dh(fold, part)
    red = part2_reduce(result.map, result.triangulation, part)
    assert verify_section_retraction(part, red.retraction, red.section)
    assert max(ran.values()) == 1, ran
    runs = {name: sum(k for (kind, *_), k in ran.items() if kind == name)
            for name in kernels.values()}
    assert 0 < runs["inside_subcomplex"] < asked["inside_subcomplex"], (runs, asked)
    assert 0 < runs["covers"] <= asked["covers"], (runs, asked)


def test_the_fold_runs_the_hull_test_once_on_p_at_most(monkeypatch):
    # Work bound: pipeline_dh, part2_reduce and verify_section_retraction
    # on the fold of the square onto its lower half run the hull test at
    # most once, and only on P.  Each inside subcomplex adapted to P takes
    # P's convex answer; asking covers of it ran the hull test on each,
    # six of seven in a bench pipeline pass.
    hulls, real = [], complexes._triangulates_hull
    monkeypatch.setattr(complexes, "_triangulates_hull", lambda cx: hulls.append(cx) or real(cx))
    h = Fraction(1, 2)
    part = from_maximal(_half_square())
    domain = from_maximal(_half_square() + [tri((0, h), (1, h), (1, 1)),
                                            tri((0, h), (0, 1), (1, 1))])
    fold = PLMap(domain, {v: RPoint((v[0], min(v[1], 1 - v[1]))) for v in domain.vertices()})
    result = pipeline_dh(fold, part)
    red = part2_reduce(result.map, result.triangulation, part)
    assert verify_section_retraction(part, red.retraction, red.section)
    assert len(hulls) <= 1 and all(cx is part for cx in hulls), hulls


def _grid_part(n: int, skip: set) -> GeoComplex:
    """[0,1]^n cut into its 2^n half-size cubes, each triangulated as the
    standard cube, without those whose least corner is in ``skip``: with
    the top one skipped, a non-convex L of full dimension."""
    out = []
    for corner in itertools.product((0, Fraction(1, 2)), repeat=n):
        if corner not in skip:
            out += [GeoSimplex(tuple(rpoint(*[c / 2 + o for c, o in zip(v, corner)])
                                     for v in s.vertices))
                    for s in standard_cube(n).maximal_simplexes()]
    return from_maximal(out)


def test_adapted_decides_as_covers_does():
    # _adapted decides a full-dimensional P by one tiling test, whether the
    # n-simplexes of the inside subcomplex I add up to P's volume, where it
    # asked covers, whose supports ran the hull test on each new I.  covers
    # stays the oracle, asked of a fresh copy of I, which keeps no answer.
    # The parts: single simplexes (restrict's cases), cubes, grid cubes and
    # grid Ls on stellar cubes, and half cubes with a dangling 3-simplex;
    # each family is asked before restrict, where I may not be adapted, and
    # after, where it is.  An adapted I holds P's convex answer, which is
    # the one the hull test gives a fresh copy, and both answers occur.
    rng = random.Random(2063)
    cases = [("simplex", cx, part) for cx, part in _restrict_cases()
             if part.maximal_simplexes()[0].dim == cx.ambient_dim]
    for n in (2, 3):
        for _ in range(2):
            points = [rpoint(*[random_rational(rng, 4) for _ in range(n)])
                      for _ in range(rng.randint(1, 3))]
            cx = stellar_chain(standard_cube(n), points)
            cases += [("cube", cx, part) for part in (
                standard_cube(n), _grid_part(n, set()), _grid_part(n, {(Fraction(1, 2),) * n}))]
    cases += [("half cube", cx, part)
              for cx, part in itertools.islice(_half_cube_cases(3, 2039, 3), 4)]
    def before_and_after(cx, part):
        yield cx  # asked before restrict asks it
        try:
            yield restrict(cx, part)
        except SupportMismatch:  # a scaled simplex leaving the cube
            pass

    seen = collections.Counter()
    for family, cx, part in cases:
        for k in before_and_after(cx, part):
            inside = inside_subcomplex(k, part)
            fresh = inside and GeoComplex(inside.maximal_simplexes(), validate=False)
            got = subdivide._adapted(inside, part)
            assert got is (fresh is not None and covers(fresh, part)), (family, k, part)
            if got:
                convex = inside._answers[("convex",)]
                copy = GeoComplex(fresh.maximal_simplexes(), validate=False)
                assert convex is copy._is_convex(), (family, k, part)
                seen["convex", convex] += 1
            seen[family, got] += 1
    assert min(seen[family, got] for family in ("simplex", "cube", "half cube")
               for got in (True, False)) >= 3, seen
    assert seen["convex", True] >= 3 and seen["convex", False] >= 3, seen


# -- complexes built on the vertex table they extend --------------------------

# The functions that build a complex on a vertex table they hold
# (``GeoComplex._on_table``); a build is filed under the innermost of them.
_TABLE_CALLERS = ("standard_cube", "realize", "_inside_subcomplex", "stellar", "_blow_up",
                  "pipeline_dh", "common_refinement", "restrict", "refine_for_map")


def _builds_on_tables(monkeypatch) -> list:
    """Spy on ``GeoComplex._on_table``: each build as (caller, complex,
    support, the answers it started with)."""
    built = []
    real = GeoComplex._on_table.__func__

    def spy(cls, table, ranked, support=None):
        cx = real(cls, table, ranked, support)
        frame = sys._getframe(1)
        while frame.f_code.co_name not in _TABLE_CALLERS:
            frame = frame.f_back
        built.append((frame.f_code.co_name, cx, support, dict(cx.__dict__.get("_answers", {}))))
        return cx

    monkeypatch.setattr(GeoComplex, "_on_table", classmethod(spy))
    return built


def _weighted_complexes(rng: random.Random, count: int) -> list[WeightedComplex]:
    """Seeded weighted complexes on up to 8 labels, with given faces that
    may lie in others."""
    out = []
    for _ in range(count):
        labels = "abcdefgh"[:rng.randint(1, 8)]
        indices = range(len(labels))
        faces = [rng.sample(indices, rng.randint(1, min(4, len(labels))))
                 for _ in range(rng.randint(1, 6))]
        faces += [(i,) for i in indices if rng.random() < 0.5 or not any(i in f for f in faces)]
        out.append(WeightedComplex(AbsComplex(labels, faces), [rng.randint(1, 7) for _ in labels]))
    return out


def _table_inputs(rng: random.Random) -> None:
    """Run every caller of ``GeoComplex._on_table`` on seeded inputs:
    cubes, stellar cubes and simplexes, desingularized random simplexes,
    pipeline_dh and part 2 on rfold(2, 15), realizations, the inside
    subcomplexes of restrict's inputs and of cubes, and restrict's fallback
    on the half cube cases.  A cube's inside subcomplex is taken in the
    whole cube, and in a part of the square where it is two vertices: as
    many simplexes as the square has triangles, but not the square.  Some
    complexes are asked their support questions first, and some are not."""
    for n in range(1, 6):
        inside_subcomplex(standard_cube(n), standard_cube(n))
    h = "1/2"
    inside_subcomplex(standard_cube(2), from_maximal([seg((0, 1), (h, h)),
                                                      tri((h, h), (1, h), (1, 1))]))
    for cx in _star_move_inputs(rng):
        part = from_maximal([random_simplex(rng, cx.ambient_dim, 4)])
        if rng.random() < 0.5:
            cx._is_cube()
            cx._is_convex()
            covers(cx, part)
        stellar(cx, cx.maximal_simplexes()[0].barycenter())
    for s in random_simplex_pool()[::5]:
        cx = GeoComplex([s])
        if not is_regular(s):
            desingularize(cx)
    eta, part = rfold(2, 15)
    result = pipeline_dh(eta, part)
    part2_reduce(result.map, result.triangulation, part)
    for w in _weighted_complexes(rng, 30):
        realize(w)
    for cx, part in _restrict_cases()[:24]:
        inside_subcomplex(cx, part)
    for cx, part in itertools.islice(_half_cube_cases(4, 2039, 1), 4):
        restrict(cx, part)


def test_complexes_on_a_table_match_the_public_constructor(monkeypatch):
    # Each complex built on a table its caller holds has the vertex table,
    # rank tuples and maximal simplexes that the public constructor finds,
    # by sorting points, on the same maximal simplexes; every caller builds
    # at least once.
    built = _builds_on_tables(monkeypatch)
    _table_inputs(random.Random(2051))
    callers = collections.Counter(caller for caller, *_ in built)
    assert set(callers) == set(_TABLE_CALLERS), callers
    for caller, cx, _, _ in built:
        public = GeoComplex(cx.maximal_simplexes(), validate=False)
        assert cx.ambient_dim == public.ambient_dim, caller
        assert cx._vertices == public._vertices and cx._rank == public._rank, caller
        assert cx._ranks == public._ranks and cx._maximal == public._maximal, caller


def test_inherited_support_answers_match_fresh_ones(monkeypatch):
    # A subdivision starts with its parent's kept answers about the support:
    # whether it is the cube, whether it is convex of full dimension, and
    # whether it covers a polyhedron.  Each equals the cube oracle, the
    # convexity test or the coverage kernel on a copy built by the public
    # constructor, which keeps nothing, and a yes to convexity equals the
    # oracle "conv(vertices) inside |cx|" off the cube, and the volume
    # oracle's "|cx| is the cube" on it, where the first would scan the
    # corners of cube4 for minutes; parents answering no and parents
    # never asked both occur.  The no answers include subdivided single
    # simplexes of lower dimension, whose support is convex: the answer
    # depends on the support alone, so no subdivision could say yes to it.
    # A complex built with no support to inherit from, an inside subcomplex
    # among them, starts with no answer; only the standard cube knows its
    # own, and no inside subcomplex ever holds a cube answer.
    built = _builds_on_tables(monkeypatch)
    _table_inputs(random.Random(2053))
    seen = collections.Counter()
    for caller, cx, support, answers in built:
        fresh = GeoComplex(cx.maximal_simplexes(), validate=False)
        if support is None:
            assert not answers or caller == "standard_cube", caller
        elif not answers:
            seen["never asked"] += 1
        if caller == "_inside_subcomplex":
            assert ("cube",) not in cx._answers, caller
            seen["inside"] += 1
        for key, answer in answers.items():
            if key == ("cube",):
                assert answer is volume_triangulates_cube(cx) is _triangulates_cube(fresh), caller
            elif key == ("convex",):
                assert answer is fresh._is_convex(), caller
                if answer:
                    cube = volume_triangulates_cube(cx)
                    assert cube or oracles.hull_inside(cx), caller
                    seen["hull scanned"] += not cube
            else:
                assert key[0] == "covers" and answer is subdivide.covers(fresh, key[1]), caller
            seen[key[0], answer] += 1
    assert min(seen[key] for key in [("cube", True), ("cube", False), ("convex", True),
                                     ("convex", False), ("covers", True),
                                     ("covers", False), "never asked",
                                     "hull scanned", "inside"]) >= 3, seen
    for n in range(1, 6):
        cube = standard_cube(n)
        assert cube._answers.get(("cube",)) is True
        assert volume_triangulates_cube(cube) and _triangulates_cube(
            GeoComplex(cube.maximal_simplexes(), validate=False))


def _rpoint_comparisons(monkeypatch) -> list:
    """Spy on ``RPoint.__lt__``, from which every other order is derived."""
    calls = []
    real = RPoint.__lt__
    monkeypatch.setattr(RPoint, "__lt__", lambda p, q: calls.append(1) or real(p, q))
    return calls


def test_pipeline_and_part2_compare_few_points(monkeypatch):
    # Work bound: on rfold(2, 15), pipeline_dh and part2_reduce compare
    # points 8,467 times, mostly placing the new points of step G's
    # refinement and step H's blow-ups by bisection of their parents'
    # tables; building every complex by the public constructor, which
    # sorts its whole vertex table, made 63,824 comparisons.  realize
    # compares none.
    eta, part = rfold(2, 15)
    calls = _rpoint_comparisons(monkeypatch)
    result = pipeline_dh(eta, part)
    reduced = part2_reduce(result.map, result.triangulation, part)
    assert len(calls) <= 9_000, len(calls)
    calls.clear()
    assert realize(reduced.weighted) == reduced.realization
    assert not calls


def test_pipeline_tests_the_cube_on_its_input_domain_only(monkeypatch):
    # The standard cube knows it triangulates the cube and each step's
    # output inherits that answer, and coverage asks ``supports``, whose
    # convex exit reads a kept cube answer but never runs the cube test.
    # So pipeline_dh runs the cube test once, on its input domain, and
    # part2_reduce never; they ran it on the standard cube, on the common
    # refinement and on each inside subcomplex as well.
    eta, part = rfold(2, 15)
    eta = PLMap(GeoComplex(eta.domain.maximal_simplexes(), validate=False), eta.images)
    tested = []
    real = complexes._triangulates_cube
    monkeypatch.setattr(complexes, "_triangulates_cube", lambda cx: tested.append(cx) or real(cx))
    result = pipeline_dh(eta, part)
    part2_reduce(result.map, result.triangulation, part)
    assert len(tested) == 1 and tested[0] is eta.domain
