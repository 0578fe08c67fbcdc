import itertools
import random
from fractions import Fraction

import pytest

from zrk import GeoSimplex, rpoint
from zrk.complexes import simplex_hrep
from zrk.linalg import (AffineForm, aff_dim, affinely_independent, clip_simplex,
                        lp_maximize, simplex_forms)
from zrk.subdivide import _pullback_forms

from conftest import random_rational
from oracles import affine_hull_forms, enumerate_cell_vertices, vertex_forms


def test_lp_maximize_hand_cases():
    # max x + y on the simplex x + y + s = 1
    assert lp_maximize([[1, 1, 1]], [1], [1, 1, 0]) == 1
    # a negative right-hand side has no nonnegative solution here
    assert lp_maximize([[1, 1]], [-1], [1, 0]) is None
    # a repeated row and a zero row are redundant
    assert lp_maximize([[1, 1], [1, 1], [0, 0]], [2, 2, 0], [1, 0]) == 2
    assert lp_maximize([[1, 1], [1, 1]], [2, 3], [1, 0]) is None
    with pytest.raises(ValueError, match="unbounded"):
        lp_maximize([[1, -1]], [0], [1, 0])
    # Beale's example, on which the largest-coefficient rule cycles
    beale = [[1, 0, 0, Fraction(1, 4), -8, -1, 9],
             [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
             [0, 0, 1, 0, 0, 1, 0]]
    objective = [0, 0, 0, Fraction(3, 4), -20, Fraction(1, 2), -6]
    assert lp_maximize(beale, [0, 0, 1], objective) == Fraction(5, 4)


def test_lp_maximize_matches_vertex_enumeration():
    # Random bounded programs (the last row caps the sum of x); the optimum
    # is the best vertex of {rows.x = rhs, x >= 0}, or None when it is empty.
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        rows.append([1] * n)
        rhs.append(rng.randint(1, 3))
        objective = [rng.randint(-3, 3) for _ in range(n)]
        eqs = [AffineForm(tuple(map(Fraction, r)), Fraction(-b))
               for r, b in zip(rows, rhs)]
        ineqs = [AffineForm(tuple(Fraction(int(i == j)) for j in range(n)),
                            Fraction(0)) for i in range(n)]
        verts = enumerate_cell_vertices(eqs, ineqs, n)
        expected = (max(sum(c * x for c, x in zip(objective, v)) for v in verts)
                    if verts else None)
        assert lp_maximize(rows, rhs, objective) == expected, (rows, rhs, objective)


def _corners(*pts):
    return [tuple(Fraction(c) for c in p) for p in pts]


def _halfspace(coeffs, const):
    return AffineForm(tuple(map(Fraction, coeffs)), Fraction(const))


def test_clip_simplex_hand_cases():
    triangle = _corners((0, 0), (1, 0), (0, 1))
    half = Fraction(1, 2)
    # x >= 1/2 cuts off the corner at (1, 0)
    assert clip_simplex(triangle, [], [_halfspace((1, 0), -half)]) == \
        _corners((half, 0), (half, half), (1, 0))
    # x <= 1/2 leaves a quadrilateral; y >= 3/4 then separates (0, 1) from
    # (1/2, 0), which span no edge of it
    assert clip_simplex(triangle, [], [_halfspace((-1, 0), half),
                                       _halfspace((0, 1), Fraction(-3, 4))]) == \
        _corners((0, Fraction(3, 4)), (0, 1), (Fraction(1, 4), Fraction(3, 4)))
    # flattened onto the line x = 1/2, by an equality or by two halfspaces
    assert clip_simplex(triangle, [_halfspace((1, 0), -half)], []) == []
    assert clip_simplex(triangle, [], [_halfspace((1, 0), -half),
                                       _halfspace((-1, 0), half)]) == []
    # flattened onto the edge y = 0, and empty
    assert clip_simplex(triangle, [], [_halfspace((0, -1), 0)]) == []
    assert clip_simplex(triangle, [], [_halfspace((1, 0), -2)]) == []
    # s inside t gives the vertices of s
    big = GeoSimplex((rpoint(-1, -1), rpoint(3, 0), rpoint(0, 3)))
    assert clip_simplex(triangle, *simplex_hrep(big)) == sorted(triangle)
    # a segment in R^3 on a plane z = 0: the equality holds on it, the
    # halfspace z >= 0 vanishes on it and y <= 1/2 halves it
    segment = _corners((0, 0, 0), (1, 1, 0))
    assert clip_simplex(segment, [_halfspace((0, 0, 1), 0)],
                        [_halfspace((0, 0, 1), 0), _halfspace((0, -1, 0), half)]) \
        == _corners((0, 0, 0), (half, half, 0))
    # a point is kept or dropped whole
    point = _corners((half, half))
    assert clip_simplex(point, [], [_halfspace((1, 1), -1)]) == point
    assert clip_simplex(point, [], [_halfspace((1, 1), -2)]) == []


def _lattice_simplex(rng, pool, k, keep=()):
    """A k-simplex from the pool, starting with some vertices of ``keep``."""
    while True:
        shared = rng.sample(keep, rng.randint(0, min(k, len(keep))))
        rest = [p for p in pool if p not in shared]
        try:
            return GeoSimplex(tuple(shared + rng.sample(rest, k + 1 - len(shared))))
        except ValueError:
            continue


def test_clip_simplex_matches_enumeration_oracle():
    rng = random.Random(1996)
    kinds = {"shared": 0, "low": 0, "vanishing": 0, "full": 0}

    def check(s, eqs, ineqs):
        eqs_s, ineqs_s = simplex_hrep(s)
        verts = enumerate_cell_vertices(list(eqs_s) + list(eqs),
                                        list(ineqs_s) + list(ineqs), s.ambient_dim)
        expected = verts if verts and aff_dim(verts) == s.dim else []
        got = clip_simplex([v.coords for v in s.vertices], eqs, ineqs)
        assert got == expected, (s, eqs, ineqs)
        kinds["full"] += bool(expected)

    for n in (1, 2, 3, 4):
        # The origin, the unit vectors and points with coordinates in
        # {0, 1/2, 1}: vertices are shared often and many cells are
        # degenerate.
        corners = [rpoint(*[int(i == j) for j in range(n)]) for i in range(-1, n)]
        grid = [rpoint(*p) for p in itertools.product((0, "1/2", 1), repeat=n)]
        for _ in range(40):
            pool = list(dict.fromkeys(corners + rng.sample(grid, 3)))
            s = _lattice_simplex(rng, pool, rng.randint(0, n))
            t = _lattice_simplex(rng, pool, rng.randint(0, n), keep=list(s.vertices))
            kinds["shared"] += bool(set(s.vertices) & set(t.vertices))
            kinds["low"] += s.dim < n
            check(s, *simplex_hrep(t))
            # Random halfspaces cut cells that are not simplexes, so later
            # cuts meet pairs of vertices that span no edge.
            check(s, [], [_halfspace([rng.randint(-2, 2) for _ in range(n)],
                                     random_rational(rng, 2, -1, 1))
                          for _ in range(rng.randint(3, 5))])
            # The forms of a full simplex t pulled back along an affine map
            # that sends s into a face of t: the forms of the facets holding
            # that face vanish on s.
            if s.dim == 0 or t.dim < n:
                continue
            face = rng.sample(t.vertices, rng.randint(1, n))
            images = [rng.choice(face) for _ in s.vertices]
            bary = simplex_hrep(s)[1]
            pulled = _pullback_forms(bary, images, simplex_hrep(t)[1])
            kinds["vanishing"] += any(not any(g.coeffs) and g.const == 0
                                      for g in pulled)
            check(s, _pullback_forms(bary, images, simplex_hrep(t)[0]), pulled)
    assert all(count >= 20 for count in kinds.values()), kinds


def test_simplex_forms_match_per_form_solves():
    # Simplexes of every dimension k in R^1..R^4, with coordinates in
    # [-2, 2] over denominators <= 5; the one echelon must give exactly the
    # forms of the hull echelon and the k + 1 separate solves.
    rng = random.Random(20148)
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            drawn = 0
            while drawn < 6:
                pts = [tuple(random_rational(rng, 5, -2, 2) for _ in range(n))
                       for _ in range(k + 1)]
                if not affinely_independent(pts):
                    continue
                drawn += 1
                assert simplex_forms(pts) == (affine_hull_forms(pts),
                                              vertex_forms(pts)), pts
    with pytest.raises(ValueError, match="affinely dependent"):
        simplex_forms(_corners((0, 0), (1, 1), (2, 2)))
