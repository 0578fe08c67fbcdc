import itertools
import random
from fractions import Fraction

import pytest

from zrk import (AbsComplex, GeoComplex, GeoSimplex, WeightedComplex,
                 from_maximal, realize, rpoint, simplicially_isomorphic,
                 skeleton, standard_cube, stellar)
from zrk.complexes import NotASimplicialComplex, _meet_in_common_face
from zrk.regular import is_regular
from zrk.scx import ScxError, parse_scx

from conftest import random_rational, seg, tri
from oracles import enumerate_meet_in_common_face, scan_maximal_simplexes


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


def test_common_face_lp_matches_enumeration_oracle():
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
    improper = shared_improper = 0
    for a, b in pairs:
        expected = enumerate_meet_in_common_face(a, b)
        assert _meet_in_common_face(a, b) is expected, (a, b)
        assert _meet_in_common_face(b, a) is expected, (a, b)
        if not expected:
            improper += 1
            shared_improper += bool(set(a.vertices) & set(b.vertices))
    assert improper >= 20 and shared_improper >= 10


def test_maximal_simplexes_match_scanning_oracle():
    rng = random.Random(20145)
    cxs = [from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (2, 0), (2, 1)),
                         seg((0, 1), (-1, 2)), GeoSimplex((rpoint(3, 3),))])]
    for n in (1, 2, 3, 4):
        for _ in range(2):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 4)
                                          for _ in range(n)]))
            cxs.append(cx)
    for cx in cxs:
        assert cx.maximal_simplexes() == scan_maximal_simplexes(cx)
    assert {s.dim for s in cxs[0].maximal_simplexes()} == {0, 1, 2}


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
    sk = skeleton(standard_cube(2))
    assert len(sk.vertices) == 4
    assert sum(1 for f in sk.faces if len(f) == 3) == 2
    # face-closure
    for f in sk.faces:
        for k in range(1, len(f)):
            for sub in itertools.combinations(f, k):
                assert frozenset(sub) in sk.faces


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
    for f in sk_a.faces:
        assert frozenset(iso[v] for v in f) in sk_b.faces


def test_simplicially_isomorphic_absent():
    disc = standard_cube(2)
    path = from_maximal([seg(0, "1/3"), seg("1/3", "2/3"), seg("2/3", 1)])
    assert simplicially_isomorphic(disc, path) is None


def test_realize_two_vertices():
    base = AbsComplex(["a", "b"], [frozenset({"a", "b"})])
    w = WeightedComplex(base, {"a": 1, "b": 2})
    cx = realize(w)
    assert set(cx.vertices()) == {rpoint(1, 0), rpoint(0, "1/2")}
    assert cx.dim == 1


def test_realize_unit_weights_standard_embedding():
    base = AbsComplex(["a", "b", "c"], [frozenset({"a", "b", "c"})])
    w = WeightedComplex(base, {"a": 1, "b": 1, "c": 1})
    cx = realize(w)
    assert set(cx.vertices()) == {rpoint(1, 0, 0), rpoint(0, 1, 0), rpoint(0, 0, 1)}


def test_realize_path():
    base = AbsComplex(["a", "b", "c"],
                      [frozenset({"a", "b"}), frozenset({"b", "c"})])
    w = WeightedComplex(base, {"a": 1, "b": 2, "c": 1})
    cx = realize(w)
    maxi = sorted(cx.maximal_simplexes())
    assert len(maxi) == 2
    assert GeoSimplex((rpoint(1, 0, 0), rpoint(0, "1/2", 0))) in maxi
    assert GeoSimplex((rpoint(0, "1/2", 0), rpoint(0, 0, 1))) in maxi


def test_realize_always_regular():
    # cross-module property: realizations are regular triangulations
    base = AbsComplex(["a", "b", "c", "d"],
                      [frozenset({"a", "b", "c"}), frozenset({"c", "d"})])
    w = WeightedComplex(base, {"a": 2, "b": 3, "c": 1, "d": 6})
    cx = realize(w)
    GeoComplex(cx.maximal_simplexes(), validate=True)
    assert all(is_regular(s) for s in cx.simplexes)


def test_abscomplex_invariants():
    with pytest.raises(ValueError):
        AbsComplex(["a", "b"], [frozenset({"a"})])  # b uncovered
    base = AbsComplex(["a", "b"], [frozenset({"a", "b"})])
    assert frozenset({"a"}) in base.faces  # subset closure


def test_weighted_validation():
    base = AbsComplex(["a"], [frozenset({"a"})])
    with pytest.raises(ValueError):
        WeightedComplex(base, {"a": 0})
    with pytest.raises(ValueError):
        WeightedComplex(base, {"b": 1})


def test_geosimplex_canonical_order_and_independence():
    s = GeoSimplex((rpoint(1, 1), rpoint(0, 0)))
    assert s.vertices[0] == rpoint(0, 0)
    with pytest.raises(ValueError, match="affinely independent"):
        GeoSimplex((rpoint(0, 0), rpoint(1, 1), rpoint("1/2", "1/2")))
