import random
from fractions import Fraction

import pytest

from zrk import (GeoSimplex, PLMap, common_refinement, from_maximal,
                 is_subdivision, linalg, refine_for_map, restrict, rpoint,
                 standard_cube, stellar, stellar_chain)
from zrk.subdivide import (PointNotInSupport, SupportMismatch,
                           inside_subcomplex, supports, support_equal)

from conftest import random_rational, random_simplex, seg, tri
from oracles import split_supports


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
    assert all(supports(inside.maximal_simplexes(), q)
               for q in part.maximal_simplexes())


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
    assert all(supports(inside.maximal_simplexes(), q)
               for q in part.maximal_simplexes())
    assert is_subdivision(out, cx)


def test_refine_for_map_identity():
    cx = standard_cube(1)
    eta = PLMap(cx, {v: v for v in cx.vertices()})
    assert refine_for_map(cx, eta, cx) == cx


def test_refine_for_map_steep_tent():
    # tent of slope 2: preimages of the target vertex 1/2 are 1/4 and 3/4
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint(1),
                      rpoint(1): rpoint(0)})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    out = refine_for_map(dom, eta, target)
    assert sorted(out.vertices()) == [rpoint(0), rpoint("1/4"), rpoint("1/2"),
                                      rpoint("3/4"), rpoint(1)]
    for s in out.maximal_simplexes():
        imgs = [eta.eval(v) for v in s.vertices]
        assert any(all(t.contains(i) for i in imgs)
                   for t in target.maximal_simplexes())


def test_refine_for_map_constant():
    dom = standard_cube(1)
    eta = PLMap(dom, {v: rpoint("1/2") for v in dom.vertices()})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    assert refine_for_map(dom, eta, target) == dom


def test_refine_for_map_shallow_tent_already_good():
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint("1/2"),
                      rpoint(1): rpoint(0)})
    target = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    assert refine_for_map(dom, eta, target) == dom


def test_refine_for_map_2d():
    cx = standard_cube(2)
    # fold the square onto its bottom edge, then refine against a split edge
    eta = PLMap(cx, {rpoint(0, 0): rpoint(0, 0), rpoint(1, 0): rpoint(1, 0),
                     rpoint(0, 1): rpoint(0, 0), rpoint(1, 1): rpoint(1, 0)})
    target = from_maximal([seg2d((0, 0), ("1/2", 0)), seg2d(("1/2", 0), (1, 0))])
    out = refine_for_map(cx, eta, target)
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
    out = refine_for_map(dom, eta, target)
    GeoComplex(out.maximal_simplexes(), validate=True)


def test_refine_for_map_image_along_shared_edges():
    # The image of [0,1] runs along the diagonal of the square, whose two
    # halves are each an edge shared by two target triangles.
    dom = standard_cube(1)
    eta = PLMap(dom, {rpoint(0): rpoint(0, 0), rpoint(1): rpoint(1, 1)})
    target = stellar(standard_cube(2), rpoint("1/2", "1/2"))
    out = refine_for_map(dom, eta, target)
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
        assert supports(cover, s) is expected, s
        assert split_supports(cover, s) is expected, s


def test_supports_matches_splitting_oracle():
    rng = random.Random(20141)
    pairs = 0
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
                assert supports(cover, s) == split_supports(cover, s), (cover, s)
                pairs += 1
    assert pairs == 180


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
            parts = [from_maximal(rng.sample(other, min(2, len(other)))),
                     from_maximal([random_simplex(rng, n, 3)]), standard_cube(n)]
            for part in parts:
                expected = {s for s in cx.simplexes
                            if supports(part.maximal_simplexes(), s)}
                inside = inside_subcomplex(cx, part)
                assert (inside.simplexes if inside else set()) == expected


def test_cell_kernel_runs_on_integers_only(monkeypatch):
    # Once the input simplexes have their cached rows, supports,
    # common_refinement and refine_for_map clip, pull and measure cells on
    # integer vectors and rows (test_source checks that linalg builds no
    # Fraction outside frac, lp_maximize and simplex_volume).
    rng = random.Random(20149)

    def stellar_square():
        cx = standard_cube(2)
        for _ in range(3):
            cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(2)]))
        return cx

    a, b = stellar_square(), stellar_square()
    eta = PLMap(a, {v: rpoint((v[0] + v[1]) / 2, v[1]) for v in a.vertices()})
    s = random_simplex(rng, 2, 4)
    for t in (s, *a.maximal_simplexes(), *b.maximal_simplexes()):
        t._point_rows

    calls = {"clip": 0, "det": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(linalg, "clip_simplex", counting("clip", linalg.clip_simplex))
    monkeypatch.setattr(linalg, "det", counting("det", linalg.det))
    covered = supports(b.maximal_simplexes(), s)
    overlay = common_refinement(a, b)
    refined = refine_for_map(a, eta, b)
    assert calls["clip"] > 20 and calls["det"] > 20, calls
    monkeypatch.undo()
    assert covered and is_subdivision(overlay, a) and is_subdivision(overlay, b)
    assert is_subdivision(refined, a)
    assert len(refined.maximal_simplexes()) > len(a.maximal_simplexes())
