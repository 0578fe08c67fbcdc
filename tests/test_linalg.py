import collections
import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import and_, mul

import pytest

from zrk import GeoSimplex, RPoint, rpoint
from zrk.linalg import (_bareiss, _combination, clip_simplex, det, homogeneous, matrix_rank,
                        normal, pivot_columns, pull_triangulation)
from zrk.subdivide import _pull_cell, _pullback_rows

from conftest import random_rational, random_simplex
from oracles import (AffineForm, aff_dim, affine_hull_forms, affinely_independent,
                     echelon, enumerate_cell_vertices, full_row_bareiss,
                     fraction_clip_simplex, fraction_det, fraction_pull_triangulation,
                     integer_rows, lp_maximize, negate, pullback_forms, pulling_pull_cell,
                     rank_pull_triangulation, slice_bareiss,
                     relative_volume_total, simplex_forms, simplex_hrep, simplex_volume,
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


def _clip(points, ineqs):
    """``clip_simplex`` on Fraction points and forms, as sorted (point, tight
    mask) pairs."""
    found = clip_simplex([homogeneous(p) for p in points], [_row(g) for g in ineqs])
    return sorted((_point(x), mask) for x, mask in found)


def _equal(form):
    """An equality as the two inequalities ``clip_simplex`` takes for it."""
    return [form, negate(form)]


def test_clip_simplex_hand_cases():
    # Bits 0-2 are the barycentric forms of (0, 0), (1, 0), (0, 1), so each
    # corner starts with the two bits of the forms vanishing there; bit 3 on
    # are the forms passed in.
    triangle = _corners((0, 0), (1, 0), (0, 1))
    half = Fraction(1, 2)
    # x >= 1/2 cuts off the corner at (1, 0)
    assert _clip(triangle, [_halfspace((1, 0), -half)]) == \
        list(zip(_corners((half, 0), (half, half), (1, 0)),
                 (0b1100, 0b1001, 0b0101)))
    # x <= 1/2 leaves a quadrilateral; y >= 3/4 then separates (0, 1) from
    # (1/2, 0), which span no edge of it
    assert _clip(triangle, [_halfspace((-1, 0), half),
                            _halfspace((0, 1), Fraction(-3, 4))]) == \
        list(zip(_corners((0, Fraction(3, 4)), (0, 1), (Fraction(1, 4), Fraction(3, 4))),
                 (0b10010, 0b00011, 0b10001)))
    # cut down to the edge x = 1/2, by an equality or by two halfspaces
    edge = list(zip(_corners((half, 0), (half, half)), (0b11100, 0b11001)))
    assert _clip(triangle, _equal(_halfspace((1, 0), -half))) == edge
    assert _clip(triangle, [_halfspace((1, 0), -half),
                            _halfspace((-1, 0), half)]) == edge
    # cut down to the edge y = 0, whose form gets a bit on both ends
    assert _clip(triangle, [_halfspace((0, -1), 0)]) == \
        list(zip(_corners((0, 0), (1, 0)), (0b1110, 0b1101)))
    # cut down to the corner (0, 0), and to the point (1/2, 1/2) inside an edge
    assert _clip(triangle, [_halfspace((-1, -1), 0)]) == [((0, 0), 0b1110)]
    assert _clip(triangle, [_halfspace((1, 1), -1), _halfspace((1, -1), 0),
                            _halfspace((-1, 1), 0)]) == \
        [((half, half), 0b111001)]
    # empty
    assert _clip(triangle, [_halfspace((1, 0), -2)]) == []
    assert _clip(triangle, [_halfspace((1, 0), -half),
                            _halfspace((-1, 0), Fraction(1, 4))]) == []
    # s inside t gives the vertices of s, tight on their own forms only
    big = GeoSimplex((rpoint(-1, -1), rpoint(3, 0), rpoint(0, 3)))
    eqs, bary = simplex_hrep(big)
    assert _clip(triangle, [f for e in eqs for f in _equal(e)] + list(bary)) == \
        list(zip(sorted(triangle), (0b110, 0b011, 0b101)))
    # a segment in R^3 on a plane z = 0: the equality and the halfspace
    # z >= 0 vanish on it and get no bit, and y <= 1/2 halves it
    segment = _corners((0, 0, 0), (1, 1, 0))
    assert _clip(segment, _equal(_halfspace((0, 0, 1), 0))
                 + [_halfspace((0, 0, 1), 0), _halfspace((0, -1, 0), half)]) \
        == list(zip(_corners((0, 0, 0), (half, half, 0)), (0b10, 0b100000)))
    # a point is kept or dropped whole, and a form is 0 on all of it or on
    # none of it, so it never gets a bit
    point = _corners((half, half))
    assert _clip(point, [_halfspace((1, 1), -1)]) == [(point[0], 0)]
    assert _clip(point, [_halfspace((1, 1), -half)]) == [(point[0], 0)]
    assert _clip(point, [_halfspace((1, 1), -2)]) == []


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
    kinds = {"shared": 0, "low": 0, "vanishing": 0, "full": 0, "lower": 0}

    def check(s, eqs, ineqs):
        eqs_s, ineqs_s = simplex_hrep(s)
        verts = enumerate_cell_vertices(list(eqs_s) + list(eqs),
                                        list(ineqs_s) + list(ineqs), s.ambient_dim)
        points = [v.coords for v in s.vertices]
        cuts = [f for e in eqs for f in _equal(e)] + list(ineqs)
        got = _clip(points, cuts)
        # The cell at any dimension, with exact masks: a form's bit is set
        # where it is 0, except that a form 0 on the whole cell may have
        # been skipped and then has no bit anywhere.
        assert [p for p, _ in got] == verts, (s, eqs, ineqs)
        for k, f in enumerate(list(ineqs_s) + cuts):
            zero = [f(p) == 0 for p, _ in got]
            bits = [mask >> k & 1 == 1 for _, mask in got]
            assert bits == zero or (all(zero) and not any(bits)), (s, eqs, ineqs, k)
        # It has the dimension of s iff no bit is shared by every vertex, and
        # the Fraction kernel and _pull_cell keep just those cells.
        expected = verts if verts and aff_dim(verts) == s.dim else []
        assert (verts if got and not reduce(and_, (m for _, m in got)) else []) \
            == expected, (s, eqs, ineqs)
        assert fraction_clip_simplex(points, eqs, ineqs) == expected, (s, eqs, ineqs)
        pieces = _pull_cell(s, [_row(e) for e in eqs], [_row(g) for g in ineqs])
        assert sorted({v.coords for t in pieces for v in t.vertices}) == expected
        if expected:
            forms = list(ineqs_s) + list(ineqs)
            pulled = pull_triangulation([homogeneous(p) for p in expected],
                                        list(s._point_rows[1]) + [_row(g) for g in ineqs])
            assert [tuple(expected[i] for i in tri) for tri in pulled] == \
                fraction_pull_triangulation(expected, forms), (s, eqs, ineqs)
        kinds["full"] += bool(expected)
        kinds["lower"] += bool(verts) and not expected

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


def _cut_through(rng, x):
    """A random integer row whose hyperplane passes through the point with
    homogeneous vector x: (d a, -a . p) for p = x / d, the form a . (y - p)
    scaled by d > 0."""
    a = [rng.randint(-3, 3) for _ in x[:-1]]
    if not any(a):
        a[rng.randrange(len(a))] = 1
    return tuple(x[-1] * c for c in a) + (-sum(map(mul, a, x[:-1])),)


def _inner_point(rng, vectors):
    """A homogeneous vector of a random positive mix of these vectors' points."""
    return _combination([rng.randint(1, 3) for _ in vectors], vectors)


def test_pulling_by_mask_ranks_matches_the_eliminating_oracle():
    # pull_triangulation reads face ranks off the tight masks and _pull_cell
    # returns a cell with dim s + 1 vertices as itself; their oracles rank
    # by elimination and pull every cell.  The cells come from clipping
    # random simplexes of dimension 1-4, in R^dim and in higher ambient
    # dimension, by 1-3 rows through inner points, and from squares, cubes
    # and 4-cubes, clipped out of the simplex conv(0, n e_i) by x_i <= 1
    # and cut by 0-2 more rows.  Each pulling must match its oracle's
    # index tuples in order.
    rng = random.Random(43)
    kinds = collections.Counter()

    def check(s, rows) -> bool:
        """Compare on s cut by rows; True when the cell was pulled."""
        got = _pull_cell(s, [], rows)
        assert [t.vertices for t in got] == \
            [t.vertices for t in pulling_pull_cell(s, [], rows)], (s, rows)
        cell = clip_simplex(s._vertex_rows, rows)
        if not cell or reduce(and_, (m for _, m in cell)):
            kinds["lower"] += 1
            return False
        points = sorted(RPoint._from_homog(x) for x, _ in cell)
        vectors = [p._homog for p in points]
        ineqs = s._point_rows[1] + tuple(rows)
        pulled = pull_triangulation(vectors, ineqs)
        assert pulled == rank_pull_triangulation(vectors, ineqs), (s, rows)
        assert [tuple(points[i] for i in tri) for tri in pulled] == \
            [t.vertices for t in got], (s, rows)
        if len(cell) == len(s.vertices):
            kinds["simplex"] += 1
            return False
        kinds["pulled"] += 1
        # Facets by elimination: tight sets of rank one less than the cell.
        facets = {tight for g in ineqs
                  for tight in [frozenset(x for x in vectors if sum(map(mul, g, x)) == 0)]
                  if tight and matrix_rank(list(tight)) == len(s.vertices) - 1}
        sizes = sorted(map(len, facets))
        kinds["facet of 4+"] += sizes[-1] >= 4
        kinds["prism"] += s.dim == 3 and sizes == [3, 3, 4, 4, 4]
        kinds["cube"] += len(cell) == 2 ** s.dim and sizes == [2 ** (s.dim - 1)] * (2 * s.dim)
        return True

    for _ in range(300):
        k = rng.randint(1, 4)
        ambient = k + rng.choice((0, 0, 1, 2))
        s = random_simplex(rng, ambient, 4)
        while s.dim != k:
            s = random_simplex(rng, ambient, 4)
        kinds["high ambient"] += ambient > k
        check(s, [_cut_through(rng, _inner_point(rng, s._vertex_rows))
                  for _ in range(rng.randint(1, 3))])
    for n in (2, 3, 4):
        big = GeoSimplex((rpoint(*[0] * n),) + tuple(
            rpoint(*[n * (i == j) for j in range(n)]) for i in range(n)))
        walls = [tuple(-(i == j) for j in range(n)) + (1,) for i in range(n)]
        centre = [rpoint(*[Fraction(1, 2)] * n)._homog]
        for _ in range(12):
            # Rows through a point between the centre and a random corner.
            rows = [_cut_through(rng, _inner_point(rng, centre * n + [
                rpoint(*[rng.randint(0, 1) for _ in range(n)])._homog]))
                for _ in range(rng.randint(0, 2))]
            kinds["cut square or cube"] += bool(check(big, walls + rows)) and bool(rows)
    assert kinds["pulled"] >= 150 and kinds["simplex"] >= 50 and kinds["lower"] >= 10, kinds
    assert kinds["high ambient"] >= 100, kinds
    assert kinds["cube"] >= 6 and kinds["cut square or cube"] >= 20, kinds
    assert kinds["facet of 4+"] >= 100 and kinds["prism"] >= 20, kinds


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


def test_bareiss_on_zero_one_matrices_matches_fraction_elimination():
    # 0/1 matrices, such as a Kuhn simplex's vertex rows, are mostly rows
    # with a zero in the pivot column, which skip the cross terms and, when
    # the pivot equals the previous one, are not touched at all.  In both
    # modes the pivots are the Fraction echelon's and the rows span the
    # same space; the plain mode leaves a staircase with the determinant as
    # its last pivot, and the reduced mode t times the reduced echelon form.
    rng = random.Random(196801)
    for _ in range(300):
        height, width = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[int(rng.random() < 0.4) for _ in range(width)] for _ in range(height)]
        rref, pivots = echelon([[Fraction(x) for x in r] for r in rows])
        out, got, sign = _bareiss(rows)
        assert got == pivots, rows
        assert echelon([[Fraction(x) for x in r] for r in out])[0] == rref, rows
        for r, c in enumerate(pivots):
            assert out[r][c] and not any(out[r][:c]), rows
        assert not any(map(any, out[len(pivots):])), rows
        if height == width:
            full = len(pivots) == width
            assert det(rows) == fraction_det(rows) == (sign * out[-1][-1] if full else 0)
        red, red_pivots, _ = _bareiss(rows, reduced=True)
        t = red[len(pivots) - 1][pivots[-1]] if pivots else 1
        assert red_pivots == pivots and red == [[t * x for x in r] for r in rref] + \
            [[0] * width] * (height - len(pivots)), rows
    # The homogeneous rows of a Kuhn simplex of the 4-cube are unimodular.
    assert abs(det([[1] * k + [0] * (4 - k) + [1] for k in range(5)])) == 1


def test_bareiss_matches_the_full_row_elimination():
    # Each row is updated as one whole-row list and a missing pivot is found
    # by a plain scan; the rows, pivots and sign are those of the slicing
    # elimination it replaced and of the one that scanned for every pivot,
    # in both modes.  Seeded integer matrices: square, wide and tall,
    # singular, with zero columns and zero leading entries; then the shapes
    # the callers hand it: the k x 2k rows (X_j | d_j e_j) of simplex_rows,
    # the n x (n + 1) vectors of normal, and square matrices with a zero
    # diagonal entry, which forces a swap.
    rng = random.Random(1405)
    kinds = collections.Counter()
    for _ in range(600):
        height, width = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 1, -1, rng.randint(-30, 30))) for _ in range(width)]
             for _ in range(height)]
        shape = rng.randrange(4)
        if shape == 1 and height > 1:
            a, b = rng.sample(range(height), 2)
            m[b] = [rng.randint(-3, 3) * x for x in m[a]]
        elif shape == 2:
            col = rng.randrange(width)
            for r in m:
                r[col] = 0
        elif shape == 3:
            m[0][0] = 0
        for reduced in (False, True):
            got = _bareiss(m, reduced)
            assert got == slice_bareiss(m, reduced) == full_row_bareiss(m, reduced), (m, reduced)
        pivots = _bareiss(m)[1]
        kinds["singular"] += len(pivots) < min(height, width)
        kinds["wide"] += width > height
        kinds["tall"] += height > width
        kinds["zero column"] += any(not any(col) for col in zip(*m))
        kinds["swap"] += _bareiss(m)[2] == -1
    assert min(kinds.values()) >= 60, kinds
    assert _bareiss([]) == slice_bareiss([]) == full_row_bareiss([]) == ([], [], 1)

    callers = collections.Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        vectors = [homogeneous([random_rational(rng, 6) for _ in range(n)])
                   for _ in range(rng.randint(1, n + 1))]
        k = len(vectors)
        augmented = [x + tuple(x[-1] if i == j else 0 for i in range(k))
                     for j, x in enumerate(vectors)]
        square = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        square[rng.randrange(n)][rng.randrange(n)] = 0
        i = rng.randrange(n)
        square[i][i] = 0
        cases = [("augmented", augmented, True), ("square", square, False),
                 ("square", square, True)]
        if k == n:
            cases.append(("normal", vectors, True))
        for kind, rows, reduced in cases:
            got = _bareiss(rows, reduced)
            assert got == slice_bareiss(rows, reduced) == full_row_bareiss(rows, reduced), \
                (rows, reduced)
            callers[kind] += 1
            callers["swap"] += got[2] == -1
    assert min(callers.values()) >= 60, callers


def test_normal_is_the_cofactor_row_up_to_scale():
    # Seeded n independent vectors in Z^(n+1), some with a zero column, which
    # is then the free one: the normal vanishes on each vector, and at any y
    # it is det(vectors, y) times one nonzero factor.
    rng = random.Random(1108)
    seen = collections.Counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        zero = rng.randrange(n + 1) if rng.random() < 0.3 else None
        vectors = [tuple(0 if j == zero else rng.randint(-4, 4) for j in range(n + 1))
                   for _ in range(n)]
        if matrix_rank(vectors) < n:
            continue
        row = normal(vectors)
        assert all(sum(map(mul, row, x)) == 0 for x in vectors), vectors
        ys = [tuple(rng.randint(-5, 5) for _ in range(n + 1)) for _ in range(4)]
        values = [(sum(map(mul, row, y)), det(vectors + [y])) for y in ys]
        scale = next(Fraction(v, d) for v, d in values if d)
        assert scale and all(v == scale * d for v, d in values), vectors
        seen[zero is None] += 1
    assert seen[True] >= 100 and seen[False] >= 30, seen

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
            if aff_dim(pts) == n:
                s = GeoSimplex(tuple(map(RPoint, pts)))
                assert (relative_volume_total([s])
                        == math.factorial(n) * simplex_volume(pts))


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
