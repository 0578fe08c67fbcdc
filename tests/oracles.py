"""Slow reference implementations that the fast kernels are tested against.

``split_supports`` is the recursive polytope splitter that decided
``subdivide.supports`` before coverage was decided by volume; ``minor_gcd``
computes invariant-factor products from k x k minors by brute force;
``dfs_collapse_sequence`` and ``scan_replay`` are the recursive collapse
search and the pairwise replay that rescan every pair of simplexes for free
faces, from before ``collapse`` kept a face table;
``enumerate_meet_in_common_face`` decides the common-face condition by
enumerating every vertex of a cap b, from before it was one LP;
``enumerate_cell_vertices`` finds the vertices of a cell by solving every
square subsystem of its constraints, from before cells were clipped one
halfspace at a time; ``scan_maximal_simplexes`` finds maximal simplexes by
looking for a coface through every vertex.  ``barycentric_coords`` solves a
fresh ``Fraction`` system for every point, and ``affine_hull_forms`` and
``vertex_forms`` solve one system per form, from before each simplex cached
its forms from one echelon.  ``simplex_forms`` is that ``Fraction`` echelon
(``echelon``), giving ``AffineForm``s that ``integer_rows`` scales to
integer rows and ``simplex_hrep`` caches per simplex, from before
``GeoSimplex._point_rows`` read its rows off one fraction-free Gauss-Jordan
elimination.  ``scan_carrier`` tests every face of a
complex, and ``product_lattice_points`` tests every vertex of the cube
against every maximal simplex.  ``rebuild_desingularize`` rebuilds the whole
complex with ``subdivide.stellar`` at every blow-up, from before
``regular.desingularize`` replaced only the star of the blown-up simplex.
``fraction_clip_simplex``, ``fraction_pull_triangulation``, ``fraction_det``
and ``pullback_forms`` are the cell kernel on ``Fraction`` points and
``AffineForm``s, from before it worked on homogeneous integer vectors and
integer rows; ``fraction_aff_dim`` is the ``Fraction`` echelon rank they
used.  ``solve_affine`` and ``solve_square`` are the ``Fraction`` solvers
the box point used.  ``smith_extends_to_basis`` decides basis extension
from the full Smith form, from before ``exactnum.extends_to_basis`` was a
saturation test by column operations; ``fraction_box_point`` (with
``fraction_integer_inverse``) finds the box point with ``Fraction`` solves,
from before ``regular._box_point`` worked on integers;
``fraction_exit_parameter`` is ``regular._exit_parameter`` on the
``Fraction`` forms, from before it read integer rows; and
``all_faces_strongly_regular`` tests regularity on every face, from before
``regular.is_strongly_regular`` read it off the maximal simplexes.
"""

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from zrk import linalg, subdivide
from zrk.collapse import CollapseSequence, CollapseStep
from zrk.complexes import GeoSimplex, RPoint, _bbox_overlap
from zrk.exactnum import IntMat, invariant_factors, smith_with_transforms
from zrk.regular import BudgetExhausted, _box_point, _check, homog, is_regular
from zrk.linalg import frac


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class AffineForm(NamedTuple):
    """The affine functional x -> coeffs . x + const."""

    coeffs: tuple
    const: Fraction

    def __call__(self, p) -> Fraction:
        return dot(self.coeffs, p) + self.const


def echelon(rows):
    """Reduced row echelon form over Fractions; returns (rref rows, pivot
    column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def simplex_forms(points):
    """(affine-hull equalities, barycentric forms) of a simplex as
    ``AffineForm``s, from one ``Fraction`` echelon of the rows
    (p_j, 1 | e_j) with free coefficients pinned to zero; the reference for
    ``GeoSimplex._point_rows``.  The points must be affinely independent."""
    n = len(points[0])
    k = len(points)
    rows = [list(p) + [Fraction(1)] + [Fraction(int(i == j)) for i in range(k)]
            for j, p in enumerate(points)]
    red, pivots = echelon(rows)
    if pivots[-1] > n:  # a pivot in the e block: the (p_j, 1) are dependent
        raise ValueError("points are affinely dependent")
    eqs = []
    for f in range(n + 1):
        if f in pivots:
            continue
        sol = [Fraction(0)] * (n + 1)
        sol[f] = Fraction(1)
        for row, p in zip(red, pivots):
            sol[p] = -row[f]
        eqs.append(AffineForm(tuple(sol[:n]), sol[n]))
    facets = []
    for i in range(n + 1, n + 1 + k):
        sol = [Fraction(0)] * (n + 1)
        for row, p in zip(red, pivots):
            sol[p] = row[i]
        facets.append(AffineForm(tuple(sol[:n]), sol[n]))
    return eqs, facets


@lru_cache(maxsize=None)
def simplex_hrep(s: GeoSimplex):
    """Cached ``simplex_forms`` of a simplex's vertices."""
    return simplex_forms([v.coords for v in s.vertices])


def integer_rows(forms):
    """The forms as integer rows D(a, c), for the least common denominator
    D > 0 of all their coefficients and constants; returns (rows, D)."""
    scale = math.lcm(*(x.denominator for f in forms for x in f.coeffs + (f.const,)))
    return [tuple(x.numerator * (scale // x.denominator) for x in f.coeffs + (f.const,))
            for f in forms], scale


def negate(f):
    return AffineForm(tuple(-c for c in f.coeffs), -f.const)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def solve_affine(rows, rhs):
    """Solve A x = b exactly over Fractions.

    Returns (particular solution, nullspace basis) or None when inconsistent.
    Free variables are pinned to zero, so the result is deterministic.
    """
    aug = [[frac(x) for x in row] + [frac(b)] for row, b in zip(rows, rhs)]
    nvars = len(aug[0]) - 1 if aug else 0
    red, pivots = echelon(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    if nvars in pivots:  # pivot in the rhs column: inconsistent
        return None
    particular = [Fraction(0)] * nvars
    for row, p in zip(red, pivots):
        particular[p] = row[-1]
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nvars
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(particular), basis


def solve_square(rows, rhs):
    """Unique solution of a square system, or None if singular/inconsistent."""
    out = solve_affine(rows, rhs)
    if out is None or out[1]:
        return None
    return out[0]


def fraction_aff_dim(points) -> int:
    """Dimension of the affine hull by a ``Fraction`` echelon; -1 when empty."""
    if not points:
        return -1
    return len(echelon([list(vsub(p, points[0])) for p in points[1:]])[1])


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions; the reference for
    ``linalg.det``."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result


def fraction_clip_simplex(points, eqs, ineqs):
    """Sorted vertices of conv(points) cap {eqs = 0, ineqs >= 0} when that
    cell has the dimension of the simplex conv(points), [] otherwise, by
    the same double description as ``linalg.clip_simplex`` on ``Fraction``
    points and ``AffineForm``s; its reference."""
    if any(e(p) != 0 for e in eqs for p in points):
        return []
    everything = (1 << len(points)) - 1
    cell = [(p, everything ^ (1 << i)) for i, p in enumerate(points)]
    for k, g in enumerate(ineqs, start=len(points)):
        vals = [g(p) for p, _ in cell]
        if not any(vals):
            continue
        if all(x <= 0 for x in vals):
            return []
        out = [(p, tight | (1 << k) if x == 0 else tight)
               for (p, tight), x in zip(cell, vals) if x >= 0]
        for i, (p, tp) in enumerate(cell):
            for j, (q, tq) in enumerate(cell):
                if not vals[i] > 0 > vals[j]:
                    continue
                common = tp & tq
                if any(tw & common == common
                       for w, (_, tw) in enumerate(cell) if w != i and w != j):
                    continue
                lam = vals[i] / (vals[i] - vals[j])
                out.append((vadd(p, vscale(lam, vsub(q, p))), common | (1 << k)))
        cell = out
    return sorted(p for p, _ in cell)


def fraction_pull_triangulation(vertices, ineqs):
    """Pulling triangulation of conv(vertices) on ``Fraction`` points and
    ``AffineForm``s, coning the lexicographically least vertex of each face;
    the reference for ``linalg.pull_triangulation``."""
    cache = {}

    def pull(vset):
        got = cache.get(vset)
        if got is not None:
            return got
        d = fraction_aff_dim(vset)
        if d == len(vset) - 1:
            cache[vset] = [vset]
            return [vset]
        v0 = vset[0]  # vset is sorted, so this is the lexicographic minimum
        out = []
        seen = set()
        for f in ineqs:
            tight = tuple(w for w in vset if f(w) == 0)
            if not tight or len(tight) == len(vset) or tight in seen:
                continue
            if fraction_aff_dim(tight) != d - 1:
                continue
            seen.add(tight)
            if v0 in tight:
                continue
            for sub in pull(tight):
                out.append(tuple(sorted(sub + (v0,))))
        cache[vset] = out
        return out

    return pull(tuple(sorted(set(vertices))))


def pullback_forms(bary, images, forms):
    """Forms g with g(x) = f(eta(x)) on a simplex where eta is affine,
    expressed in the simplex's barycentric forms ``bary``; the reference for
    ``subdivide._pullback_rows``."""
    out = []
    for f in forms:
        vals = [f(img.coords) for img in images]
        coeffs = tuple(sum(val * b.coeffs[i] for val, b in zip(vals, bary))
                       for i in range(len(bary[0].coeffs)))
        const = sum(val * b.const for val, b in zip(vals, bary))
        out.append(AffineForm(coeffs, const))
    return out


def barycentric_coords(points, x):
    """Coordinates of x w.r.t. affinely independent points; None if x is
    outside their affine hull.  The reference for ``GeoSimplex.barycentric``."""
    n = len(points[0])
    if len(x) != n:
        raise ValueError(f"a point in R^{len(x)} is not in R^{n}")
    rows = [[p[i] for p in points] for i in range(n)]
    rows.append([Fraction(1)] * len(points))
    rhs = list(x) + [Fraction(1)]
    out = solve_affine(rows, rhs)
    if out is None:
        return None
    sol, basis = out
    assert not basis, "points are affinely dependent"
    return sol


def affine_hull_forms(points):
    """Canonical basis of affine forms vanishing on the given points, from one
    echelon of the rows (p, 1); the reference for the equalities of
    ``simplex_forms``."""
    n = len(points[0])
    # Unknowns (a_1..a_n, c) with a.p + c = 0 for every p.
    rows = [list(p) + [Fraction(1)] for p in points]
    red, pivots = echelon(rows)
    forms = []
    for f in [c for c in range(n + 1) if c not in pivots]:
        sol = [Fraction(0)] * (n + 1)
        sol[f] = Fraction(1)
        for row, p in zip(red, pivots):
            sol[p] = -row[f]
        forms.append(AffineForm(tuple(sol[:n]), sol[n]))
    return forms


def vertex_forms(points):
    """Affine forms l_i with l_i(p_j) = delta_ij, one solve per point with
    free coefficients pinned to zero; the reference for the facet forms of
    ``simplex_forms``."""
    n = len(points[0])
    rows = [list(p) + [Fraction(1)] for p in points]
    out = []
    for i in range(len(points)):
        rhs = [Fraction(int(j == i)) for j in range(len(points))]
        sol = solve_affine(rows, rhs)
        assert sol is not None
        out.append(AffineForm(tuple(sol[0][:n]), sol[0][n]))
    return out


def scan_carrier(cx, p: RPoint):
    """The simplex of cx holding p in its relative interior, by testing every
    simplex with ``barycentric_coords``; the reference for
    ``GeoComplex.carrier``."""
    for s in cx.simplexes:
        lo, hi = s._box
        if any(c < a or c > b for c, a, b in zip(p.coords, lo, hi)):
            continue
        lam = barycentric_coords([v.coords for v in s.vertices], p.coords)
        if lam is not None and all(c > 0 for c in lam):
            return s
    return None


def product_lattice_points(part):
    """The vertices of [0,1]^n in |part|, in ``itertools.product`` order, each
    tested against every maximal simplex with ``barycentric_coords``; the
    reference for ``zmaps._lattice_points_in``."""
    def inside(s, corner):
        lam = barycentric_coords([v.coords for v in s.vertices], corner)
        return lam is not None and all(c >= 0 for c in lam)

    return [RPoint(corner)
            for corner in product((Fraction(0), Fraction(1)), repeat=part.ambient_dim)
            if any(inside(s, corner) for s in part.maximal_simplexes())]


def enumerate_cell_vertices(eqs, ineqs, ambient_dim: int):
    """Vertices of {x : eqs = 0, ineqs >= 0}, assumed bounded; the reference
    for ``linalg.clip_simplex``.

    Brute-force: parametrise the equality subspace, then intersect the
    inequality hyperplanes dim-at-a-time.
    """
    if eqs:
        out = solve_affine([list(f.coeffs) for f in eqs], [-f.const for f in eqs])
        if out is None:
            return []
        x0, basis = out
    else:
        x0 = tuple([Fraction(0)] * ambient_dim)
        basis = [tuple(Fraction(int(j == i)) for j in range(ambient_dim))
                 for i in range(ambient_dim)]
    # Inequalities in parameter space: g_j(t) = ineq_j(x0 + B t).
    gs = [(tuple(dot(f.coeffs, b) for b in basis), f(x0)) for f in ineqs]
    if not basis:
        return [x0] if all(c >= 0 for _, c in gs) else []
    found = set()
    for combo in combinations(range(len(gs)), len(basis)):
        t = solve_square([gs[j][0] for j in combo], [-gs[j][1] for j in combo])
        if t is None or not all(dot(a, t) + c >= 0 for a, c in gs):
            continue
        x = x0
        for tk, b in zip(t, basis):
            x = vadd(x, vscale(tk, b))
        found.add(x)
    return sorted(found)


def scan_maximal_simplexes(cx):
    """Maximal simplexes of a complex, by testing every (simplex, vertex)
    pair for a coface; the reference for ``GeoComplex.maximal_simplexes``."""
    key_set = {s.vertices for s in cx.simplexes}
    maxi = []
    for s in cx.simplexes:
        vs = set(s.vertices)
        if not any(tuple(sorted(vs | {v})) in key_set
                   for v in cx.vertices() if v not in vs):
            maxi.append(s)
    return tuple(sorted(maxi))


def _split_off_simplex(piece, t: GeoSimplex):
    """Split a cell along the H-representation of t.

    piece is (vertices, ineq forms).  Returns (inside, outside) where inside
    sub-cells are contained in t and outside sub-cells have relative
    interiors disjoint from t.  Pieces of lower dimension than the input are
    dropped: they are faces of retained pieces.
    """
    dim_piece = linalg.aff_dim(piece[0])
    eqs, ineqs = simplex_hrep(t)
    queue = [piece]
    for form in list(eqs) + list(ineqs):
        nxt = []
        for verts, forms in queue:
            vals = [form(v) for v in verts]
            if all(x >= 0 for x in vals) or all(x <= 0 for x in vals):
                nxt.append((verts, forms))
                continue
            for side in (form, negate(form)):
                sub_forms = list(forms) + [side]
                sub = enumerate_cell_vertices([], sub_forms, t.ambient_dim)
                if sub and linalg.aff_dim(sub) == dim_piece:
                    nxt.append((tuple(sub), tuple(sub_forms)))
        queue = nxt
    inside, outside = [], []
    for verts, forms in queue:
        if all(t.contains(RPoint(v)) for v in verts):
            inside.append((verts, forms))
        else:
            outside.append((verts, forms))
    return inside, outside


def split_supports(cover, s: GeoSimplex) -> bool:
    """Exact point-set containment of simplex s in the union of ``cover``.

    Splits s along the covering simplexes' facets until every full-dimension
    piece is inside one of them or provably outside all of them.
    """
    cover = [t for t in cover if t.ambient_dim == s.ambient_dim]
    eqs, ineqs = simplex_hrep(s)
    start = (tuple(v.coords for v in s.vertices),
             tuple(list(ineqs) + [f for e in eqs for f in (e, negate(e))]))

    def covered(piece, remaining) -> bool:
        if any(all(t.contains(RPoint(v)) for v in piece[0]) for t in remaining):
            return True
        for idx, t in enumerate(remaining):
            inter = enumerate_cell_vertices(
                list(simplex_hrep(t)[0]), list(simplex_hrep(t)[1]) + list(piece[1]),
                s.ambient_dim)
            if inter and linalg.aff_dim(inter) == linalg.aff_dim(piece[0]):
                inside, outside = _split_off_simplex(piece, t)
                rest = remaining[:idx] + remaining[idx + 1:]
                return all(covered(q, rest) for q in outside)
        return False

    return covered(start, list(cover))


def minor_gcd(m, k: int) -> int:
    """gcd of all k x k minors (brute force; the oracle for invariant factors)."""
    entries = m.entries if isinstance(m, IntMat) else IntMat.from_rows(m).entries
    nr, nc = len(entries), len(entries[0])
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(nr), k):
        for cols in combinations(range(nc), k):
            g = math.gcd(g, _int_det([[entries[i][j] for j in cols] for i in rows]))
            if g == 1:
                return 1
    return g


def _int_det(m: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion (small matrices only)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    rest = m[1:]
    for j in range(n):
        if m[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1:] for row in rest]
        total += (-1) ** j * m[0][j] * _int_det(sub)
    return total


def _facet_index(sims: frozenset) -> list:
    """Free pairs of an abstract state, by a scan over all pairs."""
    out = []
    for f in sims:
        parents = [t for t in sims if len(t) == len(f) + 1 and f < t]
        if len(parents) == 1:
            out.append((parents[0], f))
    return out


def dfs_collapse_sequence(cx, budget: int = 100_000):
    """Recursive depth-first collapse search; the reference for
    ``collapse.find_collapse_sequence`` (same order, memo and budget)."""
    verts = cx.vertices()
    index = {v: i for i, v in enumerate(verts)}
    start = frozenset(frozenset(index[v] for v in s.vertices)
                      for s in cx.simplexes)
    if len(start) == 1 and len(next(iter(start))) == 1:
        (only,) = start
        return CollapseSequence((), GeoSimplex((verts[min(only)],)))

    def sort_key(pair):
        t, f = pair
        return (tuple(sorted(verts[i] for i in t)),
                tuple(sorted(verts[i] for i in f)))

    visited: set[frozenset] = set()
    nodes = 0
    path: list[tuple[frozenset, frozenset]] = []

    def dfs(state: frozenset) -> bool:
        nonlocal nodes
        if len(state) == 1 and len(next(iter(state))) == 1:
            return True
        if state in visited:
            return False
        nodes += 1
        if nodes > budget:
            return False
        visited.add(state)
        for t, f in sorted(_facet_index(state), key=sort_key):
            path.append((t, f))
            if dfs(state - {t, f}):
                return True
            path.pop()
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(start) * 2 + 100))
    try:
        found = dfs(start)
    finally:
        sys.setrecursionlimit(old_limit)
    if not found:
        return None
    steps = []
    state = start
    for t, f in path:
        steps.append(CollapseStep(
            GeoSimplex(tuple(verts[i] for i in t)),
            GeoSimplex(tuple(verts[i] for i in f))))
        state = state - {t, f}
    (only,) = state
    return CollapseSequence(tuple(steps), GeoSimplex((verts[min(only)],)))


def scan_replay(cx, seq) -> bool:
    """Replay by rescanning all simplexes for the cofaces of each free facet;
    the reference for ``collapse.replay``."""
    sims = set(cx.simplexes)
    for step in seq.steps:
        t, f = step.maximal, step.free_facet
        if t not in sims or f not in sims:
            return False
        parents = [u for u in sims
                   if len(u.vertices) == len(f.vertices) + 1
                   and set(f.vertices) < set(u.vertices)]
        if parents != [t]:
            return False
        sims -= {t, f}
    return sims == {GeoSimplex(seq.terminal.vertices)}


def enumerate_meet_in_common_face(a: GeoSimplex, b: GeoSimplex) -> bool:
    """a cap b = conv(shared vertices), by enumerating the vertices of a cap b
    and testing each against the shared face; the reference for
    ``complexes._meet_in_common_face``."""
    if not _bbox_overlap(a, b):
        return True
    shared = tuple(sorted(set(a.vertices) & set(b.vertices)))
    eqs_a, ineqs_a = simplex_hrep(a)
    eqs_b, ineqs_b = simplex_hrep(b)
    cut = enumerate_cell_vertices(list(eqs_a) + list(eqs_b),
                                  list(ineqs_a) + list(ineqs_b), a.ambient_dim)
    if not cut:
        return True
    if not shared:
        return False
    face = GeoSimplex(shared)
    return all(face.contains(RPoint(p)) for p in cut)


def rebuild_desingularize(cx, budget: int = 10_000):
    """Blow up the least non-regular maximal simplex at its box point with
    ``subdivide.stellar`` on the whole complex, rebuilding the complex and
    its maximal simplexes every step; the reference for
    ``regular.desingularize``."""
    steps = 0
    while True:
        bad = sorted((s for s in cx.maximal_simplexes() if not is_regular(s)),
                     key=lambda s: (s.dim, s.vertices))
        if not bad:
            return cx
        cx = subdivide.stellar(cx, _box_point(bad[0])[0])
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")


def smith_extends_to_basis(rows) -> bool:
    """Basis extension read off the invariant factors of the full Smith
    form; the reference for ``exactnum.extends_to_basis``."""
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("empty input")
    if len(rows) > len(rows[0]):
        raise ValueError("not affinely independent input")
    factors = invariant_factors(rows)
    if 0 in factors:
        raise ValueError("not affinely independent input")
    return all(d == 1 for d in factors)


def fraction_integer_inverse(m):
    """Inverse of a unimodular integer matrix by one ``Fraction`` solve per
    column."""
    n = len(m)
    cols = []
    for j in range(n):
        rhs = [Fraction(int(i == j)) for i in range(n)]
        sol = solve_square([[Fraction(x) for x in row] for row in m], rhs)
        _check(sol is not None, "matrix is singular")
        cols.append(sol)
    out = [[cols[j][i] for j in range(n)] for i in range(n)]
    _check(all(x.denominator == 1 for row in out for x in row),
           "matrix is not unimodular: its inverse is not integral")
    return [[int(x) for x in row] for row in out]


def fraction_box_point(s) -> RPoint:
    """The box point of a non-regular simplex from ``Fraction`` solves for
    V^-1 and the torsion coefficients, enumerated in ``Fraction``s; the
    reference for ``regular._box_point``."""
    rows = [homog(v).entries for v in s.vertices]
    m = len(rows)
    _, d_mat, v = smith_with_transforms(rows)
    diag = [d_mat[i][i] for i in range(min(len(d_mat), len(d_mat[0])))]
    torsion = [(i, di) for i, di in enumerate(diag) if di > 1]
    _check(bool(torsion), "regular simplex has no box point")
    v_inv = fraction_integer_inverse(v)
    w_cols = [[Fraction(rows[j][k]) for j in range(m)] for k in range(len(rows[0]))]
    gen_coeffs = []
    for i, _ in torsion:
        sol = solve_affine(w_cols, [Fraction(e) for e in v_inv[i]])
        _check(sol is not None and not sol[1],
               "torsion generator is not a unique combination of the vertex vectors")
        gen_coeffs.append(sol[0])
    total = math.prod(di for _, di in torsion)
    ranges = [range(di) for _, di in torsion]
    if total > 4096:
        i_big = max(range(len(torsion)), key=lambda i: torsion[i][1])
        ranges = [range(torsion[i][1]) if i == i_big else range(1)
                  for i in range(len(torsion))]
    best = None
    for ts in product(*ranges):
        if not any(ts):
            continue
        coeffs = []
        for j in range(m):
            q = sum(t * g[j] for t, g in zip(ts, gen_coeffs))
            coeffs.append(q - (q.numerator // q.denominator))
        if all(c == 0 for c in coeffs):
            continue
        key = (max(coeffs), coeffs)
        if best is None or key < best[0]:
            best = (key, coeffs)
    _check(best is not None, "every box coefficient vector vanishes")
    x = [Fraction(0)] * len(rows[0])
    for c, w in zip(best[1], rows):
        for k, e in enumerate(w):
            x[k] += c * e
    _check(all(e.denominator == 1 for e in x), "box point is not integral")
    xi = [int(e) for e in x]
    g = math.gcd(*xi)
    _check(g > 0, "box point of a non-regular simplex cannot vanish")
    xi = [e // g for e in xi]
    _check(xi[-1] > 0, "box point has a nonpositive denominator")
    return RPoint(tuple(Fraction(e, xi[-1]) for e in xi[:-1]))


def fraction_exit_parameter(s, v, w):
    """Largest eps in (0, 1] with v + eps(w - v) inside s, or None, from the
    ``Fraction`` forms of ``simplex_hrep``; the reference for
    ``regular._exit_parameter``."""
    eqs, ineqs = simplex_hrep(s)
    direction = vsub(w.coords, v.coords)
    if any(dot(e.coeffs, direction) != 0 for e in eqs):
        return None
    eps = Fraction(1)
    for f in ineqs:
        rate = dot(f.coeffs, direction)
        if rate < 0:
            eps = min(eps, f(v.coords) / -rate)
    return eps if eps > 0 else None


def all_faces_strongly_regular(cx) -> bool:
    """Every simplex regular, by the Smith form, and every maximal simplex
    with coprime vertex denominators; the reference for
    ``regular.is_strongly_regular``."""
    def regular(s):
        return smith_extends_to_basis([homog(v).entries for v in s.vertices])

    if not all(regular(s) for s in cx.simplexes):
        return False
    return all(math.gcd(*(homog(v).den for v in s.vertices)) == 1
               for s in cx.maximal_simplexes())
