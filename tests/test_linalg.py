import itertools
import math
import random
from fractions import Fraction

import pytest

from zrk import GeoSimplex, RPoint, rpoint
from zrk.linalg import (_bareiss, aff_dim, affinely_independent, clip_simplex, det,
                        homogeneous, lp_maximize, matrix_rank, pivot_columns,
                        pull_triangulation, simplex_volume)
from zrk.subdivide import _pullback_rows

from conftest import random_rational
from oracles import (AffineForm, affine_hull_forms, echelon, enumerate_cell_vertices,
                     fraction_clip_simplex, fraction_det, fraction_pull_triangulation,
                     integer_rows, pullback_forms, simplex_forms, simplex_hrep,
                     vertex_forms)


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


def _row(form):
    return integer_rows([form])[0][0]


def _point(x):
    return tuple(Fraction(e, x[-1]) for e in x[:-1])


def _clip(points, eqs, ineqs):
    """``clip_simplex`` on Fraction points and forms, as sorted points."""
    found = clip_simplex([homogeneous(p) for p in points], [_row(e) for e in eqs],
                         [_row(g) for g in ineqs])
    return sorted(map(_point, found))


def test_clip_simplex_hand_cases():
    triangle = _corners((0, 0), (1, 0), (0, 1))
    half = Fraction(1, 2)
    # x >= 1/2 cuts off the corner at (1, 0)
    assert _clip(triangle, [], [_halfspace((1, 0), -half)]) == \
        _corners((half, 0), (half, half), (1, 0))
    # x <= 1/2 leaves a quadrilateral; y >= 3/4 then separates (0, 1) from
    # (1/2, 0), which span no edge of it
    assert _clip(triangle, [], [_halfspace((-1, 0), half),
                                       _halfspace((0, 1), Fraction(-3, 4))]) == \
        _corners((0, Fraction(3, 4)), (0, 1), (Fraction(1, 4), Fraction(3, 4)))
    # flattened onto the line x = 1/2, by an equality or by two halfspaces
    assert _clip(triangle, [_halfspace((1, 0), -half)], []) == []
    assert _clip(triangle, [], [_halfspace((1, 0), -half),
                                       _halfspace((-1, 0), half)]) == []
    # flattened onto the edge y = 0, and empty
    assert _clip(triangle, [], [_halfspace((0, -1), 0)]) == []
    assert _clip(triangle, [], [_halfspace((1, 0), -2)]) == []
    # s inside t gives the vertices of s
    big = GeoSimplex((rpoint(-1, -1), rpoint(3, 0), rpoint(0, 3)))
    assert _clip(triangle, *simplex_hrep(big)) == sorted(triangle)
    # a segment in R^3 on a plane z = 0: the equality holds on it, the
    # halfspace z >= 0 vanishes on it and y <= 1/2 halves it
    segment = _corners((0, 0, 0), (1, 1, 0))
    assert _clip(segment, [_halfspace((0, 0, 1), 0)],
                        [_halfspace((0, 0, 1), 0), _halfspace((0, -1, 0), half)]) \
        == _corners((0, 0, 0), (half, half, 0))
    # a point is kept or dropped whole
    point = _corners((half, half))
    assert _clip(point, [], [_halfspace((1, 1), -1)]) == point
    assert _clip(point, [], [_halfspace((1, 1), -2)]) == []


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
        points = [v.coords for v in s.vertices]
        got = _clip(points, eqs, ineqs)
        assert got == expected, (s, eqs, ineqs)
        # The Fraction kernel gives the same vertices, and the same pulled
        # simplexes of the cell.
        assert fraction_clip_simplex(points, eqs, ineqs) == got, (s, eqs, ineqs)
        if got:
            forms = list(ineqs_s) + list(ineqs)
            pulled = pull_triangulation([homogeneous(p) for p in got],
                                        list(s._point_rows[1]) + [_row(g) for g in ineqs])
            assert [tuple(got[i] for i in tri) for tri in pulled] == \
                fraction_pull_triangulation(got, forms), (s, eqs, ineqs)
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
            pulled = pullback_forms(bary, images, simplex_hrep(t)[1])
            kinds["vanishing"] += any(not any(g.coeffs) and g.const == 0
                                      for g in pulled)
            check(s, pullback_forms(bary, images, simplex_hrep(t)[0]), pulled)
            # The integer pullback is a positive multiple of each form.
            for rows, forms in zip(t._point_rows, simplex_hrep(t)):
                got = _pullback_rows(s, images, rows)
                assert list(map(_primitive, got)) == \
                    [_primitive(_row(g)) for g in pullback_forms(bary, images, forms)]
    assert all(count >= 20 for count in kinds.values()), kinds


def _primitive(row):
    g = math.gcd(*row)
    return tuple(x // g for x in row) if g else row


def _fraction_rank(rows):
    return len(echelon([[Fraction(x) for x in r] for r in rows])[1])


def test_bareiss_matches_fraction_elimination():
    # Square and rectangular integer matrices; many have zero pivots (a
    # zero leading entry, a zero column) or are singular (a row that is a
    # combination of others, a zero row).
    rng = random.Random(1968)
    singular = zero_pivot = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
             for _ in range(n)]
        shape = rng.randrange(4)
        if shape == 1 and n > 1:
            a, b = rng.sample(range(n), 2)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            m[b] = [c * x + d * y for x, y in zip(m[a], m[(a + 1) % n])]
        elif shape == 2:
            col = rng.randrange(n)
            for r in m:
                r[col] = 0
        elif shape == 3:
            m[rng.randrange(n)][0] = 0
            m[0][0] = 0
        expected = fraction_det(m)
        assert det(m) == expected, m
        singular += expected == 0
        zero_pivot += m[0][0] == 0
        rect = m + [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(0, 2))]
        rows = [r[:rng.randint(1, n)] for r in rect]
        width = min(map(len, rows))
        rows = [r[:width] for r in rows]
        rref, pivots = echelon([[Fraction(x) for x in r] for r in rows])
        assert pivot_columns(rows) == pivots, rows
        assert matrix_rank(rows) == _fraction_rank(rows)
        # Fraction-free Gauss-Jordan: t times the reduced echelon form, for
        # its last pivot t, then zero rows.
        red, red_pivots, _ = _bareiss(rows, reduced=True)
        assert red_pivots == pivots, rows
        t = red[len(pivots) - 1][pivots[-1]] if pivots else 1
        assert red == [[t * x for x in r] for r in rref] + \
            [[0] * width] * (len(rows) - len(pivots)), rows
    assert singular >= 80 and zero_pivot >= 80, (singular, zero_pivot)
    assert det([]) == 1 and det([[0]]) == 0 and det([[0, 1], [1, 0]]) == -1
    assert matrix_rank([]) == 0 and matrix_rank([[0, 0], [0, 0]]) == 0


def test_homogeneous_vectors_and_volumes():
    rng = random.Random(2014)
    for n in (1, 2, 3):
        for _ in range(30):
            pts = [tuple(random_rational(rng, 6, -1, 1) for _ in range(n))
                   for _ in range(n + 1)]
            xs = [homogeneous(p) for p in pts]
            for p, x in zip(pts, xs):
                assert _point(x) == p and x[-1] > 0 and math.gcd(*x) == 1
                assert RPoint(p)._homog == x
            dirs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
            assert simplex_volume(pts) == abs(fraction_det(dirs)) / math.factorial(n)
            assert aff_dim(pts) == _fraction_rank(dirs)


def test_simplex_forms_match_per_form_solves():
    # Simplexes of every dimension k in R^1..R^5, with coordinates in
    # [-2, 2] over denominators <= 5.  The one Fraction echelon must give
    # exactly the forms of the hull echelon and the k + 1 separate solves,
    # and the integer rows of _point_rows, read off one fraction-free
    # Gauss-Jordan, must be exactly those forms scaled to integers.  With
    # k = n + 1, and for the few dependent draws below, both paths raise.
    rng = random.Random(20148)
    dependent = 0
    for n in (1, 2, 3, 4, 5):
        for k in range(n + 2):
            drawn = 0
            while drawn < 6:
                pts = [tuple(random_rational(rng, 5, -2, 2) for _ in range(n))
                       for _ in range(k + 1)]
                if len(set(pts)) < len(pts):
                    continue
                drawn += 1
                if not affinely_independent(pts):
                    dependent += 1
                    with pytest.raises(ValueError, match="affinely dependent"):
                        simplex_forms(pts)
                    with pytest.raises(ValueError, match="affinely dependent"):
                        GeoSimplex._raw(tuple(map(RPoint, pts)))._point_rows
                    continue
                pts = [v.coords for v in GeoSimplex(tuple(map(RPoint, pts))).vertices]
                eqs, bary = simplex_forms(pts)
                assert (eqs, bary) == (affine_hull_forms(pts), vertex_forms(pts)), pts
                rows, scale = integer_rows(eqs + bary)
                assert GeoSimplex(tuple(map(RPoint, pts)))._point_rows == (
                    tuple(rows[:len(eqs)]), tuple(rows[len(eqs):]), scale), pts
    assert dependent >= 30, dependent
    line = _corners((0, 0), (1, 1), (2, 2))
    with pytest.raises(ValueError, match="affinely dependent"):
        simplex_forms(line)
    with pytest.raises(ValueError, match="affinely dependent"):
        GeoSimplex._raw(tuple(map(RPoint, line)))._point_rows
