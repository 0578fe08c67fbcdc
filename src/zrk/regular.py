"""Denominator arithmetic and regularity of rational triangulations.

A rational point v has the homogeneous integer vector den(v)*(v, 1),
cached on the point; a simplex is regular when those vectors extend to a
basis of Z^{n+1} (``exactnum.extends_to_basis``), and strongly regular when
additionally the vertex denominators are globally coprime.  Faces of a
regular simplex are regular, since a subset of rows that extends to a basis
extends to one, so a complex is tested on its maximal simplexes alone.
Desingularization blows up the least non-regular maximal simplex at a
lattice point of its fundamental box (on a 1-simplex, the Farey mediant)
until every simplex is regular; that point is found in integer arithmetic
alone (``_box_point``).  ``desingularize`` keeps only the set of maximal
simplexes, replaces the star of the blown-up carrier at each step and
builds the complex once at the end; ``desingularize_relative`` watches the
subcomplex inside a polyhedron, so it rebuilds the complex with
``subdivide.stellar`` at each step.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .complexes import GeoComplex, GeoSimplex, RPoint, _homogeneous
from .exactnum import extends_to_basis, smith_with_transforms, xgcd
from . import linalg, subdivide


class BudgetExhausted(RuntimeError):
    pass


class InvariantBroken(RuntimeError):
    """An internal invariant of the number theory failed: a bug, never a
    property of the input.  Raised instead of ``assert`` so that it also
    fires under ``python -O``."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantBroken(message)


@dataclass(frozen=True)
class HomogVec:
    """den(v) * (v, 1): the integer vector housing a rational point."""

    entries: tuple[int, ...]

    @property
    def den(self) -> int:
        return self.entries[-1]

    def point(self) -> RPoint:
        d = self.entries[-1]
        return RPoint(tuple(Fraction(e, d) for e in self.entries[:-1]))


def den(v: RPoint) -> int:
    """Lowest common denominator of the coordinates; 1 on lattice points.
    It is the last entry of the cached homogeneous vector."""
    return v._homog[-1]


def homog(v: RPoint) -> HomogVec:
    return HomogVec(_homogeneous(v, v.dim))


@lru_cache(maxsize=None)
def is_regular(s: GeoSimplex) -> bool:
    """Homogeneous vertex vectors extend to a basis of Z^{n+1}."""
    return extends_to_basis(s._vertex_rows)


def is_strongly_regular_simplex(s: GeoSimplex) -> bool:
    """Regular with globally coprime vertex denominators."""
    if not is_regular(s):
        return False
    g = 0
    for v in s.vertices:
        g = math.gcd(g, den(v))
    return g == 1


def is_strongly_regular(cx: GeoComplex) -> bool:
    """All simplexes regular, all maximal simplexes strongly regular.

    Only the maximal simplexes are tested: every simplex is a face of one,
    and faces of a regular simplex are regular.
    """
    return all(is_strongly_regular_simplex(s) for s in cx.maximal_simplexes())


def _box_point(s: GeoSimplex) -> RPoint:
    """A lattice point of the fundamental box of a non-regular simplex.

    Writing the homogeneous vertex vectors as w_i, the returned point has
    homogeneous vector sum(c_i * w_i) with rational 0 <= c_i < 1, integral
    and nonzero.  Blowing up there multiplies the multiplicity (gcd of
    maximal minors) of every piece by some c_i < 1, which is what makes
    desingularization terminate; among the finitely many candidates the
    one with the smallest maximal coefficient splits fastest.  On a
    non-regular 1-simplex this is the classical Farey mediant.

    All in integers.  With U W V = D the Smith form of the vertex matrix
    W, the rows of V^-1 = det(V) adj(V) at the invariant factors d > 1
    generate the lattice points of the span modulo the vertex lattice.
    Each generator g is a rational combination c W of the vertex vectors;
    on the pivot columns P of W, c = g_P adj(W_P) / det(W_P), so every
    coefficient is a numerator over the one denominator D = |det W_P|.
    Candidates t_1 g_1 + ... are reduced modulo the vertex lattice by
    taking each numerator mod D, and since all share D, comparing
    (max, tuple) of numerators orders them as the coefficients do.
    """
    rows = s._vertex_rows
    m, width = len(rows), len(rows[0])
    _, d_mat, v = smith_with_transforms(rows)
    diag = [d_mat[i][i] for i in range(min(len(d_mat), len(d_mat[0])))]
    torsion = [(i, di) for i, di in enumerate(diag) if di > 1]
    _check(bool(torsion), "regular simplex has no box point")
    adj_v, det_v = linalg.adjugate(v)
    _check(det_v in (1, -1), "matrix is not unimodular: its inverse is not integral")
    pivots = linalg.pivot_columns(rows)
    adj_w, det_w = linalg.adjugate([[r[p] for p in pivots] for r in rows])
    sign, den_d = (1, det_w) if det_w > 0 else (-1, -det_w)
    # Numerators over den_d of each torsion generator's coefficients.
    gen_nums = []
    for i, _ in torsion:
        g = [det_v * x for x in adj_v[i]]
        nums = [sign * sum(g[p] * adj_w[q][j] for q, p in enumerate(pivots))
                for j in range(m)]
        _check(den_d != 0 and all(
            sum(c * w[k] for c, w in zip(nums, rows)) == den_d * g[k]
            for k in range(width)),
            "torsion generator is not a unique combination of the vertex vectors")
        gen_nums.append(nums)

    cap = 4096
    total = 1
    for _, di in torsion:
        total *= di
    ranges = [range(di) for _, di in torsion]
    if total > cap:
        # Fall back to multiples of the single worst generator.
        i_big = max(range(len(torsion)), key=lambda i: torsion[i][1])
        ranges = [range(torsion[i][1]) if i == i_big else range(1)
                  for i in range(len(torsion))]

    best = None
    for ts in itertools.product(*ranges):
        if not any(ts):
            continue
        coeffs = tuple(sum(t * g[j] for t, g in zip(ts, gen_nums)) % den_d
                       for j in range(m))
        if not any(coeffs):
            continue
        key = (max(coeffs), coeffs)
        if best is None or key < best:
            best = key
    _check(best is not None, "every box coefficient vector vanishes")
    x = [sum(c * w[k] for c, w in zip(best[1], rows)) for k in range(width)]
    _check(all(e % den_d == 0 for e in x), "box point is not integral")
    g = math.gcd(*x)
    _check(g > 0, "box point of a non-regular simplex cannot vanish")
    x = [e // g for e in x]
    _check(x[-1] > 0, "box point has a nonpositive denominator")
    return HomogVec(tuple(x)).point()


def desingularize(cx: GeoComplex, budget: int = 10_000) -> GeoComplex:
    """Stellar subdivision in which every simplex is regular.

    Faces of regular simplexes are regular, so only maximal simplexes are
    watched.  Each step blows up the least non-regular maximal simplex s,
    in (dim, vertices) order, at its box point p (``_box_point``).  The
    budget counts stellar steps; exceeding it raises, it never returns a
    wrong answer.

    The steps work on the set M of maximal simplexes alone; the complex is
    built once at the end.  Why that is the same as ``subdivide.stellar``
    on the whole complex: p = sum c_i w_i over s's homogeneous vertex
    vectors with every c_i >= 0, so p lies in s, and its carrier C is the
    face of s on the vertices with c_i > 0, read off ``s._weights``.  The
    simplexes of stellar(K, p) are the simplexes of K not containing C and
    the cones F u {p} over faces F, not containing C, of simplexes
    containing C.  Each lies in a maximal one of two kinds: an m in M
    without C, untouched and still maximal (it does not contain p and no
    simplex of K strictly contains it), or a cone (m minus u) u {p} for an
    m in M containing C and a vertex u of C, since a face F of m missing
    some u of C lies in m minus u.  No such cone lies in another: a face F'
    of some m' in M containing C with F' strictly containing m minus u
    misses u, so F' u {u} lies in m' and strictly contains m, which is
    maximal.  So M is updated by replacing each m containing C with its
    cones, and the closure of M is stellar(K, p).
    """
    n = cx.ambient_dim
    maximal = set(cx.maximal_simplexes())
    heap = [(s.dim, s) for s in maximal if not is_regular(s)]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, s = heapq.heappop(heap)
        if s not in maximal:
            continue
        p = _box_point(s)
        weights = s._weights(_homogeneous(p, n))
        carrier = {v for v, a in zip(s.vertices, weights) if a > 0}
        star = [m for m in maximal if carrier.issubset(m.vertices)]
        maximal.difference_update(star)
        for m in star:
            for u in carrier:
                cone = GeoSimplex._raw(tuple(sorted(
                    [v for v in m.vertices if v != u] + [p])))
                maximal.add(cone)
                if not is_regular(cone):
                    heapq.heappush(heap, (cone.dim, cone))
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")
    return GeoComplex(maximal, validate=False) if steps else cx


def desingularize_relative(cx: GeoComplex, part: GeoComplex,
                           budget: int = 10_000) -> GeoComplex:
    """Stellar subdivision making the subcomplex inside |part| regular.

    Requires the simplexes of cx inside |part| to triangulate |part|
    already; blow-ups happen at mediants inside |part|, so that property is
    maintained while the rest of the complex is refined only incidentally.
    The budget counts stellar steps, as in ``desingularize``.
    """
    if not subdivide._adapted(subdivide.inside_subcomplex(cx, part), part):
        raise ValueError("precondition violation: the inside subcomplex "
                         "does not triangulate |P|")
    steps = 0
    while True:
        inside = subdivide.inside_subcomplex(cx, part)
        bad = [s for s in inside.maximal_simplexes() if not is_regular(s)]
        if not bad:
            return cx
        cx = subdivide.stellar(
            cx, _box_point(min(bad, key=lambda s: (s.dim, s.vertices))))
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")


def coprime_point(s: GeoSimplex, k: int) -> RPoint:
    """A rational point of a strongly regular simplex whose denominator is
    coprime to k.

    Vertices are scanned first; afterwards the lattice points of the
    simplicial cone (integer combinations of the homogeneous vertex
    vectors, which exhaust the rational points of a regular simplex) are
    scanned by increasing denominator.  Deterministic by construction.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not is_strongly_regular_simplex(s):
        raise ValueError("precondition violation: simplex is not strongly regular")
    for v in s.vertices:
        if math.gcd(k, den(v)) == 1:
            return v
    dens = [den(v) for v in s.vertices]
    # gcd(dens) = 1, so the numerical semigroup of the combinations hits a
    # residue coprime to k; cap generously and check.
    cap = (k + 2) * (sum(dens) + 1)
    best = None
    for total in range(2, cap + 1):
        if math.gcd(k, total) != 1:
            continue
        combo = _composition_with_total(dens, total)
        if combo is not None:
            vecs = [homog(v).entries for v in s.vertices]
            acc = [0] * len(vecs[0])
            for a, w in zip(combo, vecs):
                for i, e in enumerate(w):
                    acc[i] += a * e
            best = RPoint(tuple(Fraction(e, acc[-1]) for e in acc[:-1]))
            break
    _check(best is not None, "coprime point search exhausted its cap")
    return best


def _composition_with_total(dens: Sequence[int], total: int) -> Optional[tuple]:
    """Nonnegative integers a_i with sum a_i * dens_i = total (first in
    lexicographic order), or None."""
    out = [0] * len(dens)

    def rec(i: int, rest: int) -> bool:
        if i == len(dens):
            return rest == 0
        for a in range(rest // dens[i], -1, -1):
            out[i] = a
            if rec(i + 1, rest - a * dens[i]):
                return True
        out[i] = 0
        return False

    return tuple(out) if rec(0, total) else None


def has_strongly_regular_triangulation(p: GeoComplex, budget: int = 10_000) -> bool:
    """Decide condition (iii): desingularize, then test strong regularity.

    Strong regularity is a property of the polyhedron, not of the chosen
    triangulation, so the verdict is triangulation-independent.
    """
    return is_strongly_regular(desingularize(p, budget=budget))


def anchor(p: GeoComplex, v: RPoint,
           budget: int = 10_000) -> Optional[tuple[RPoint, Fraction]]:
    """A witness (w, eps) with w integral and conv(v, v + eps(w - v)) inside
    |P|, or None when the candidate family is exhausted.

    Lattice points anchor themselves.  When |P| has a strongly regular
    triangulation the witness is built from a coprime-denominator companion
    point, which always succeeds; otherwise integer points in a box of
    radius den(v) * n are tried and absence is reported on exhaustion.
    """
    if not p.contains_point(v):
        raise ValueError(f"point not in support: {v}")
    d = den(v)
    if d == 1:
        return v, Fraction(1)

    def segment_ok(w: RPoint, eps: Fraction) -> bool:
        end = RPoint(tuple(a + eps * (b - a) for a, b in zip(v.coords, w.coords)))
        try:
            seg = GeoSimplex((v, end)) if v != end else None
        except ValueError:
            seg = None
        if seg is None:
            return p.contains_point(end)
        return subdivide.supports(p.maximal_simplexes(), seg)

    sigma = desingularize(p, budget=budget)
    if is_strongly_regular(sigma):
        s = next(t for t in sigma.maximal_simplexes() if t.contains(v))
        u = coprime_point(s, d)
        du = den(u)
        # Bezout pair with b*du > 0 so that v + (w - v)/(b*du) lands on u.
        g, a0, b0 = xgcd(d, du)
        _check(g == 1, "companion denominator is not coprime to den(v)")
        b = b0
        while b <= 0:
            b += d
        a = (1 - b * du) // d
        w = RPoint(tuple(a * d * vc + b * du * uc
                         for vc, uc in zip(v.coords, u.coords)))
        eps = Fraction(1, b * du)
        _check(all(c.denominator == 1 for c in w.coords),
               "anchor witness is not integral")
        _check(segment_ok(w, eps), "anchor segment leaves |P|")
        return w, eps
    # Bounded lattice scan; absence after exhaustion leans on the
    # equivalence with strong regularity, cross-checked by the caller.
    n = p.ambient_dim
    radius = d * n
    incident = [s for s in p.maximal_simplexes() if s.contains(v)]
    for w_coords in itertools.product(range(-radius, radius + 1), repeat=n):
        w = RPoint(tuple(Fraction(c) for c in w_coords))
        if w == v:
            continue
        # Exit parameter: the largest eps keeping the segment in an incident
        # simplex; try each incident simplex.
        for s in incident:
            eps = _exit_parameter(s, v, w)
            if eps is not None and eps > 0 and segment_ok(w, eps):
                return w, eps
    return None


def _exit_parameter(s: GeoSimplex, v: RPoint, w: RPoint) -> Optional[Fraction]:
    """Largest eps in (0, 1] with v + eps(w - v) still inside s."""
    from .complexes import simplex_hrep

    eqs, ineqs = simplex_hrep(s)
    direction = tuple(b - a for a, b in zip(v.coords, w.coords))
    for e in eqs:
        if sum(c * t for c, t in zip(e.coeffs, direction)) != 0:
            return None  # leaves the affine hull immediately
    eps = Fraction(1)
    for f in ineqs:
        rate = sum(c * t for c, t in zip(f.coeffs, direction))
        level = f(v.coords)
        if rate < 0:
            eps = min(eps, level / -rate)
    return eps if eps > 0 else None
