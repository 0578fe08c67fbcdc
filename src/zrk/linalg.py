"""Exact linear algebra and the polytope kernel over the rationals.

There are no tolerances anywhere, and every kernel works on integers: a
rational point p is its primitive homogeneous vector X = d(p, 1), for the
least common denominator d of p (``homogeneous``), and an affine form f is
an integer row R, a positive multiple of f's coefficients and constant, so
that R . X has the sign of f(p).  The one polytope kernel clips a simplex by
halfspaces (``clip_simplex``): it gives the vertices of the cell, of any
dimension, each with the mask of the constraints tight at it, and so decides
both the cells that ``subdivide`` triangulates and the common-face condition
of ``complexes``.  The pulling triangulation of a cell
(``pull_triangulation``) decides everything by such signs too, and reads
the rank of each face off the rows' tight masks with no elimination.
Determinant and rank, together from one elimination (``rank_det``), and a
simplex's integer forms (``simplex_rows``, one Gauss-Jordan elimination)
use Bareiss's fraction-free elimination (Bareiss 1968), whose intermediate
entries are minors of the input and so stay integers.  The polytope
routines are written for the desk-scale cells that arise when two simplexes
meet, not for high-dimensional polytopes.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

IntVec = tuple  # tuple[int, ...]


def homogeneous(coords: Sequence) -> IntVec:
    """The primitive integer vector d(p, 1) of the rational point p with these
    coordinates, d the least common denominator of p.  Equal points have
    equal vectors."""
    d = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (d // c.denominator) for c in coords) + (d,)


def _primitive(z: Sequence[int]) -> IntVec:
    """z over the gcd of its entries; z must not be 0."""
    g = math.gcd(*z)
    return tuple(c // g for c in z)


def _combination(weights: Sequence[int], vectors: Sequence[IntVec]) -> IntVec:
    """sum_j w_j (L / d_j) X_j for the vectors X_j = d_j(p_j, 1) and the lcm
    L of the d_j, which is L (sum_j w_j p_j, sum_j w_j): for weights >= 0,
    not all 0, a homogeneous vector of the weighted mean of the p_j."""
    lcm = math.lcm(*(x[-1] for x in vectors))
    scale = [w * (lcm // x[-1]) for w, x in zip(weights, vectors)]
    return tuple(sum(map(mul, scale, col)) for col in zip(*vectors))


def _bareiss(rows: Sequence[Sequence[int]], reduced: bool = False
             ) -> tuple[list[list[int]], list[int], int]:
    """The fraction-free row echelon form of integer rows (Bareiss 1968).

    Returns (the rows, the pivot columns, the sign of the row swaps).  Each
    step replaces every entry x of a row below the pivot a by
    (a x - b y) / p, for the row's entry b in the pivot column, the pivot
    row's entry y in x's column and the previous pivot p; Sylvester's
    identity makes every entry a minor of the input, so the division is
    exact.  A row with b = 0 becomes a x / p, so it is left as it is when
    a = p.  A column without a nonzero entry is skipped, so the pivot
    columns are the lexicographically first maximal set of independent
    columns, and the last pivot of a nonsingular square matrix is its
    determinant up to the sign.  The pivot is the diagonal entry when that
    is nonzero, else the first nonzero entry below it, found by a plain
    scan.  Each row is updated as one whole-row list, with no slices: left
    of the pivot column the pivot row and every row below it are 0, and
    stay 0, and in the pivot column a row below gets a b - b a = 0.  With
    ``reduced`` the same loop updates the rows above the pivot alike
    (fraction-free Gauss-Jordan): by Cramer's rule their entries are minors
    up to sign too, and each earlier pivot p becomes a, so at the end every
    pivot equals the last one, t, and the pivot rows are t times the
    reduced row echelon form.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    sign, prev, r, nrows = 1, 1, 0, len(m)
    for c in range(len(m[0]) if m else 0):
        if r == nrows:
            break
        top = m[r]
        a = top[c]
        if not a:
            for i in range(r + 1, nrows):
                if m[i][c]:
                    break
            else:
                continue
            top = m[i]
            m[i], m[r] = m[r], top
            a = top[c]
            sign = -sign
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            b = row[c]
            if b:
                m[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
            elif a != prev:
                m[i] = [a * x // prev for x in row]
        prev = a
        pivots.append(c)
        r += 1
    return m, pivots, sign


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    return rank_det(rows)[1]


def rank_det(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The rank of an integer matrix and its determinant, from one Bareiss
    elimination: the last pivot times the sign of the row swaps when the
    matrix is square and nonsingular, else 0 (1 for the empty matrix)."""
    m, pivots, sign = _bareiss(rows)
    if not m:
        return 0, 1
    full = len(pivots) == len(m) == len(m[0])
    return len(pivots), sign * m[-1][-1] if full else 0


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The lexicographically first maximal set of linearly independent
    columns of an integer matrix, by Bareiss elimination."""
    return _bareiss(rows)[1]


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(pivot_columns(rows))


def simplex_rows(vectors: Sequence[IntVec]) -> tuple[tuple[IntVec, ...],
                                                     tuple[IntVec, ...], int]:
    """A simplex's affine-hull equalities E and barycentric forms B as
    integer rows with one denominator D > 0, from the homogeneous vectors
    X_j = d_j(p_j, 1) of its vertices: D times each form x -> a.x + c is
    the row (D a, D c), for the least such D.

    The barycentric forms solve X_j . (a, c) = d_j e_j, so one fraction-free
    Gauss-Jordan elimination of the rows (X_j | d_j e_j) gives t times the
    reduced echelon form of (p_j, 1 | e_j), for its last pivot t.  Each
    form is read off it with free coefficients pinned to zero: for each
    free column f of the X block, the equality with t at f and minus f's
    entries at the pivots (``_null_rows``), and for each e_i column, the barycentric form
    with that column at the pivots.  Dividing by the gcd of t and every
    entry, with the sign of t, leaves D > 0.  The points must be affinely
    independent.
    """
    width, k = len(vectors[0]), len(vectors)
    red, pivots, _ = _bareiss(
        [x + tuple(x[-1] if i == j else 0 for i in range(k))
         for j, x in enumerate(vectors)], reduced=True)
    if pivots[-1] >= width:  # a pivot in the e block: dependent points
        raise ValueError("points are affinely dependent")
    t = red[0][pivots[0]]
    eqs = _null_rows(red, pivots, width)
    bary = []
    for i in range(width, width + k):
        row = [0] * width
        for r, p in zip(red, pivots):
            row[p] = r[i]
        bary.append(row)
    g = math.gcd(t, *(x for row in eqs + bary for x in row))
    g = g if t > 0 else -g
    return (tuple(tuple(x // g for x in row) for row in eqs),
            tuple(tuple(x // g for x in row) for row in bary), t // g)


def _null_rows(red: list[list[int]], pivots: list[int], width: int) -> list[list[int]]:
    """Rows spanning the integer vectors orthogonal to the first ``width``
    columns of the rows that ``_bareiss(..., reduced=True)`` eliminated to
    ``red``: for each free column f, t at f and minus f's entries at the
    pivots, where t is the common pivot."""
    t = red[0][pivots[0]]
    rows = []
    for f in range(width):
        if f not in pivots:
            row = [0] * width
            row[f] = t
            for r, p in zip(red, pivots):
                row[p] = -r[f]
            rows.append(row)
    return rows


def normal(vectors: Sequence[IntVec]) -> IntVec:
    """A nonzero integer row N with N . x = 0 for n linearly independent
    vectors x in Z^(n+1): the hyperplane they span, read off one
    fraction-free Gauss-Jordan elimination of the vectors alone."""
    red, pivots, _ = _bareiss(vectors, reduced=True)
    (row,) = _null_rows(red, pivots, len(vectors[0]))
    return tuple(row)


def clip_simplex(points: Sequence[IntVec],
                 ineqs: Sequence[IntVec]) -> list[tuple[IntVec, int]]:
    """The vertices of the cell conv(points) cap {ineqs >= 0}, of any
    dimension, each with the bitmask of the constraints tight at it; [] when
    the cell is empty.

    Points are homogeneous vectors (``homogeneous``) of affinely independent
    points and constraints are integer rows, so each sign is that of an
    integer dot product; the vertices come back as homogeneous vectors, in
    no fixed order.  Bit i < len(points) stands for the barycentric form of
    point i and bit len(points) + k for ineqs[k]; an equality enters as a
    row and its negation.  Double description, one halfspace at a time
    (Fukuda and Prodon 1996): vertex i starts tight on every barycentric
    form but form i.  An inequality that is 0 on every vertex vanishes on
    the whole cell: it is skipped and gets no bit.  Clipping by g keeps the
    vertices with g >= 0, adding g's bit where g = 0, and adds a point on
    each edge X -> Y from g > 0 to g < 0.  That point is g(X) Y - g(Y) X
    over the gcd of its entries: the primitive vector of the point where g
    vanishes, with a last entry > 0.  It lies strictly inside the edge, so
    the constraints tight at it are those tight at both ends and g.  Two
    vertices span an edge iff no third one is tight on every constraint
    tight at both, since the least face holding both is where those
    constraints are tight; this holds at every dimension, so a mask bit is
    set exactly when its constraint is 0 at the vertex.
    """
    everything = (1 << len(points)) - 1
    cell = [(x, everything ^ (1 << i)) for i, x in enumerate(points)]
    for k, g in enumerate(ineqs, start=len(points)):
        vals = [sum(map(mul, g, x)) for x, _ in cell]
        if not any(vals):
            continue
        if all(v < 0 for v in vals):
            return []
        out = [(x, tight | (1 << k) if v == 0 else tight)
               for (x, tight), v in zip(cell, vals) if v >= 0]
        for i, (x, tx) in enumerate(cell):
            for j, (y, ty) in enumerate(cell):
                if not vals[i] > 0 > vals[j]:
                    continue
                common = tx & ty
                if any(tw & common == common
                       for w, (_, tw) in enumerate(cell) if w != i and w != j):
                    continue
                z = [vals[i] * b - vals[j] * a for a, b in zip(x, y)]
                out.append((_primitive(z), common | (1 << k)))
        cell = out
    return cell


def pull_triangulation(points: Sequence[IntVec],
                       ineqs: Sequence[IntVec]) -> list[tuple[int, ...]]:
    """Pulling triangulation of conv(points), as increasing tuples of
    indices into ``points``.

    ``points`` are the distinct homogeneous vectors of the polytope's
    vertices, in pulling order; ``ineqs`` are integer rows forming an
    H-representation of the polytope within its affine hull (every facet is
    the tight set of some row).  Each face is triangulated by coning its
    first vertex over the pulling triangulations of the facets avoiding it,
    which makes the result depend only on the face itself and the order;
    shared faces of adjacent cells therefore receive identical
    triangulations when the order is the same, e.g. lexicographic.  A face
    is the bitmask of its vertices, and its intersection with a row's tight
    bitmask is the row's tight set on it, the vertex set of a face of it.

    Ranks (dimension + 1) are read off these sets, with no elimination: a
    vertex has rank 1, and any other face F has 1 + the rank of its
    largest proper nonempty set F & mask.  Proof: a facet F' of F is a
    face of the polytope, so it is the intersection of the polytope's
    facets holding it, and one of them, G, misses a vertex of F; then
    F' lies in F cap G, a proper face of F, which is F' as F' is a facet.
    G is the tight set of some row, so every facet of F is some F & mask.
    Every F & mask is a face of F, and every proper face lies in a facet,
    so the inclusion-maximal proper nonempty sets F & mask are exactly the
    facets of F, and one with the most vertices is maximal.  A facet has
    rank one less than F, and only facets pass the test
    rank(tight) = rank(F) - 1.
    """
    tight_masks = [sum(1 << i for i, x in enumerate(points) if not sum(map(mul, g, x)))
                   for g in ineqs]
    ranks: dict[int, int] = {}
    cache: dict[int, list[int]] = {}

    def rank(face: int) -> int:
        got = ranks.get(face)
        if got is None:
            largest = max((face & m for m in tight_masks if face & m != face),
                          key=int.bit_count, default=0)
            got = ranks[face] = 1 + rank(largest) if largest else 1
        return got

    def pull(face: int) -> list[int]:
        got = cache.get(face)
        if got is not None:
            return got
        r = rank(face)
        if r == face.bit_count():  # affinely independent: a simplex
            return [face]
        first = face & -face
        out = []
        seen: set[int] = set()
        for mask in tight_masks:
            tight = face & mask
            if not tight or tight == face or tight in seen or rank(tight) != r - 1:
                continue
            seen.add(tight)
            if tight & first:
                continue
            out.extend(sub | first for sub in pull(tight))
        cache[face] = out
        return out

    return [tuple(i for i in range(len(points)) if face >> i & 1)
            for face in pull((1 << len(points)) - 1)]
