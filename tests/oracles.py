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
integer forms from one echelon; ``scan_carrier`` tests every face of a
complex, and ``product_lattice_points`` tests every vertex of the cube
against every maximal simplex.
"""

import math
import sys
from fractions import Fraction
from itertools import combinations, product

from zrk import linalg
from zrk.collapse import CollapseSequence, CollapseStep
from zrk.complexes import GeoSimplex, RPoint, _bbox, _bbox_overlap, simplex_hrep
from zrk.exactnum import IntMat
from zrk.linalg import (AffineForm, _echelon, dot, solve_affine, solve_square,
                        vadd, vscale)


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
    ``linalg.simplex_forms``."""
    n = len(points[0])
    # Unknowns (a_1..a_n, c) with a.p + c = 0 for every p.
    rows = [list(p) + [Fraction(1)] for p in points]
    red, pivots = _echelon(rows)
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
    ``linalg.simplex_forms``."""
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
        lo, hi = _bbox(s)
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
            for side in (form, form.negate()):
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
             tuple(list(ineqs) + [f for e in eqs for f in (e, e.negate())]))

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
