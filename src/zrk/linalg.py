"""Exact linear algebra and small-polytope kernels over the rationals.

There are no tolerances anywhere.  The kernels work on integers: a rational
point p is its primitive homogeneous vector X = d(p, 1), for the least
common denominator d of p (``homogeneous``), and an affine form f is an
integer row R, a positive multiple of f's coefficients and constant, so
that R . X has the sign of f(p).  Clipping a simplex by halfspaces
(``clip_simplex``) and its pulling triangulation (``pull_triangulation``)
decide everything by such signs.  Determinant, rank and a simplex's
integer forms (``simplex_rows``, one Gauss-Jordan elimination) use
Bareiss's fraction-free elimination (Bareiss 1968), whose intermediate
entries are minors of the input and so stay integers.  Only the LP kernel
``lp_maximize`` returns ``fractions.Fraction``s.  The
polytope routines are written for the desk-scale cells that arise when two
triangulations are overlaid, not for high-dimensional polytopes.  The LP
kernel is a dense two-phase simplex method with Bland's rule for small
equality-form programs, such as the common-face test of two simplexes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

Vec = tuple  # tuple[Fraction, ...]
IntVec = tuple  # tuple[int, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def homogeneous(coords: Sequence) -> IntVec:
    """The primitive integer vector d(p, 1) of the rational point p with these
    coordinates, d the least common denominator of p.  Equal points have
    equal vectors."""
    d = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (d // c.denominator) for c in coords) + (d,)


def _bareiss(rows: Sequence[Sequence[int]], reduced: bool = False
             ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of integer rows (Bareiss 1968).

    Returns (the rows, the pivot columns, the sign of the row swaps).  Each
    step replaces every entry x of a row below the pivot a by
    (a x - b y) / p, for the row's entry b in the pivot column, the pivot
    row's entry y in x's column and the previous pivot p; Sylvester's
    identity makes every entry a minor of the input, so the division is
    exact.  A column without a nonzero entry is
    skipped, so the pivot columns are the lexicographically first maximal
    set of independent columns, and the last pivot of a nonsingular square
    matrix is its determinant up to the sign.  With ``reduced`` the rows
    above the pivot are treated alike (fraction-free Gauss-Jordan): by
    Cramer's rule their entries are minors up to sign too, and each earlier
    pivot p becomes a, so at the end every pivot equals the last one, t,
    and the pivot rows are t times the reduced row echelon form.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        a = top[c]
        for i in range(0 if reduced else r + 1, len(m)):
            if i != r:
                b = m[i][c]
                m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], top)]
        prev = a
        pivots.append(c)
        r += 1
    return m, pivots, sign


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    m, pivots, sign = _bareiss(rows)
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The lexicographically first maximal set of linearly independent
    columns of an integer matrix, by Bareiss elimination."""
    return _bareiss(rows)[1]


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(pivot_columns(rows))


def aff_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull; -1 for the empty set.  It is the rank of
    the homogeneous vectors, less one."""
    return matrix_rank([homogeneous(p) for p in points]) - 1


def affinely_independent(points: Sequence[Vec]) -> bool:
    return aff_dim(points) == len(points) - 1


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
    entries at the pivots, and for each e_i column, the barycentric form
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
    eqs = []
    for f in range(width):
        if f not in pivots:
            row = [0] * width
            row[f] = t
            for r, p in zip(red, pivots):
                row[p] = -r[f]
            eqs.append(row)
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


def clip_simplex(points: Sequence[IntVec], eqs: Sequence[IntVec],
                 ineqs: Sequence[IntVec]) -> list[IntVec]:
    """Vertices of conv(points) cap {eqs = 0, ineqs >= 0} when that cell has
    the dimension of the simplex conv(points); [] otherwise.

    Points are homogeneous vectors (``homogeneous``) of affinely independent
    points and constraints are integer rows, so each sign is that of an
    integer dot product; the vertices come back as homogeneous vectors, in
    no fixed order.  Double description, one halfspace at a time (Fukuda
    and Prodon 1996): each vertex carries the bitmask of constraints tight
    at it, and vertex i starts tight on every barycentric form but form i.
    The cell stays full-dimensional, so every equality must vanish on the
    points, and an inequality that is 0 on every vertex vanishes on the
    hull: skip it.  Clipping by g keeps the vertices with g >= 0 and adds a
    point on each edge X -> Y from g > 0 to g < 0, two vertices spanning an
    edge iff no third one is tight on every constraint tight at both.  That
    point is g(X) Y - g(Y) X over the gcd of its entries: the primitive
    vector of the point where g vanishes, with a last entry > 0.
    """
    if any(sum(map(mul, e, x)) for e in eqs for x in points):
        return []
    everything = (1 << len(points)) - 1
    cell = [(x, everything ^ (1 << i)) for i, x in enumerate(points)]
    for k, g in enumerate(ineqs, start=len(points)):
        vals = [sum(map(mul, g, x)) for x, _ in cell]
        if not any(vals):
            continue
        if all(v <= 0 for v in vals):
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
                h = math.gcd(*z)
                out.append((tuple(c // h for c in z), common | (1 << k)))
        cell = out
    return [x for x, _ in cell]


def lp_maximize(rows: Sequence[Sequence], rhs: Sequence,
                objective: Sequence) -> Optional[Fraction]:
    """Optimum of max objective.x subject to rows.x = rhs, x >= 0.

    ``rows`` is a nonempty list of constraint rows.  Returns None when the
    system is infeasible and raises ValueError when the objective is
    unbounded.  Dense two-phase simplex method with Bland's rule (least
    index enters, ties in the ratio test leave by least index), which
    terminates on degenerate problems.  Phase 1 gives each row an implicit
    artificial variable and maximises minus their sum; an optimum below
    zero is the Farkas alternative, so the system has no solution.  An
    artificial variable that leaves the basis is dropped, and one still
    basic at level zero after phase 1 is pivoted out or, when its row has
    no other nonzero entry, removed with that redundant row.
    """
    nvars = len(objective)
    tab = []
    for row, b in zip(rows, rhs):
        r = [frac(x) for x in row] + [frac(b)]
        tab.append([-x for x in r] if r[-1] < 0 else r)
    basis = [nvars + i for i in range(len(tab))]  # artificial ids >= nvars

    def pivot(obj, i, j):
        ri = tab[i]
        if ri[j] != 1:
            inv = 1 / ri[j]
            ri = tab[i] = [x * inv for x in ri]
        # Constraint rows are sparse, so zero entries of ri are skipped.
        for k, rk in enumerate(tab):
            f = rk[j]
            if k != i and f:
                tab[k] = [x - f * y if y else x for x, y in zip(rk, ri)]
        f = obj[j]
        if f:
            obj[:] = [x - f * y if y else x for x, y in zip(obj, ri)]
        basis[i] = j

    def optimise(obj, stop_at_zero: bool):
        # obj holds the reduced costs and, last, minus the objective value.
        while not (stop_at_zero and obj[-1] == 0):
            j = next((j for j in range(nvars) if obj[j] > 0), None)
            if j is None:
                return
            rows_in = [i for i in range(len(tab)) if tab[i][j] > 0]
            if not rows_in:
                raise ValueError("the linear program is unbounded")
            i = min(rows_in, key=lambda i: (tab[i][-1] / tab[i][j], basis[i]))
            pivot(obj, i, j)

    phase1 = [sum(col, Fraction(0)) for col in zip(*tab)]
    optimise(phase1, stop_at_zero=True)
    if phase1[-1] > 0:
        return None
    for i in reversed(range(len(tab))):
        if basis[i] >= nvars:
            j = next((j for j in range(nvars) if tab[i][j] != 0), None)
            if j is None:
                del tab[i], basis[i]
            else:
                pivot(phase1, i, j)
    obj = [frac(c) for c in objective] + [Fraction(0)]
    for i, b in enumerate(basis):
        f = obj[b]
        if f:
            obj = [x - f * y for x, y in zip(obj, tab[i])]
    optimise(obj, stop_at_zero=False)
    return -obj[-1]


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
    is the bitmask of its vertices, its intersection with a row's tight
    bitmask is the row's tight set on it, and dimensions are integer ranks.
    """
    tight_masks = [sum(1 << i for i, x in enumerate(points) if not sum(map(mul, g, x)))
                   for g in ineqs]
    ranks: dict[int, int] = {}
    cache: dict[int, list[int]] = {}

    def rank(face: int) -> int:
        got = ranks.get(face)
        if got is None:
            got = ranks[face] = matrix_rank(
                [x for i, x in enumerate(points) if face >> i & 1])
        return got

    def pull(face: int) -> list[int]:
        got = cache.get(face)
        if got is not None:
            return got
        r = rank(face)
        if r == face.bit_count():  # affinely independent: a simplex
            cache[face] = [face]
            return [face]
        first = face & -face
        out = []
        seen: set[int] = set()
        for mask in tight_masks:
            tight = face & mask
            if not tight or tight == face or tight in seen:
                continue
            if rank(tight) != r - 1:
                continue
            seen.add(tight)
            if tight & first:
                continue
            out.extend(sub | first for sub in pull(tight))
        cache[face] = out
        return out

    return [tuple(i for i in range(len(points)) if face >> i & 1)
            for face in pull((1 << len(points)) - 1)]
