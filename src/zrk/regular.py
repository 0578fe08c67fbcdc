"""Denominator arithmetic and regularity of rational triangulations.

A rational point v has the homogeneous integer vector den(v)*(v, 1),
cached on the point; a simplex is regular when those vectors extend to a
basis of Z^{n+1} (``exactnum.extends_to_basis``, whose kernel ``is_regular``
runs on the simplex's own int rows; for a full-dimensional simplex, its
determinant is +-1), and strongly regular when
additionally the vertex denominators are globally coprime.  Faces of a
regular simplex are regular, since a subset of rows that extends to a basis
extends to one, so a complex is tested on its maximal simplexes alone.
Whether a polyhedron has a strongly regular triangulation at all, condition
(iii), is read off its own maximal simplexes, whose affine hulls must meet
the integer lattice (``is_strongly_regular_polyhedron``).
Desingularization blows up the least non-regular maximal simplex at a
lattice point of its fundamental box (on a 1-simplex, the Farey mediant)
until every simplex is regular; that point is found in integer arithmetic
alone, from the row transform of one Smith form (``_box_point``), together
with its carrier.  ``desingularize`` and ``desingularize_relative`` share
one loop over the maximal simplexes held by ``subdivide._Stars``: each step
replaces the star of the blown-up carrier in the complex and, in the
relative case, in the subcomplex inside the polyhedron, found once.  The
complex is built once at the end, and the relative case returns the
subcomplex it kept with it, so its caller does not search for it again; a
regular input builds no star at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache
from operator import itemgetter, mul
from typing import Optional, Sequence

from .complexes import GeoComplex, GeoSimplex, RPoint
from .exactnum import _saturated, _smith
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


def den(v: RPoint) -> int:
    """Lowest common denominator of the coordinates; 1 on lattice points.
    It is the last entry of the cached homogeneous vector."""
    return v._homog[-1]


@lru_cache(maxsize=None)
def is_regular(s: GeoSimplex) -> bool:
    """Homogeneous vertex vectors extend to a basis of Z^{n+1}.

    A full-dimensional simplex, n + 1 vertices in R^n, has n + 1 vectors,
    which extend to a basis iff they are one, that is iff |det| = 1: this
    is read off ``GeoSimplex._det``, which the checking constructor keeps
    (and a simplex built ``_raw`` computes once).  A vertex's one vector is
    primitive, so a 0-simplex is regular.  Any other simplex runs the
    saturation test of ``exactnum.extends_to_basis`` on its own int rows.
    """
    rows = s._vertex_rows
    if len(rows) == len(rows[0]):
        return s._det in (1, -1)
    return len(rows) == 1 or _saturated(list(map(list, rows)))


def is_strongly_regular_simplex(s: GeoSimplex) -> bool:
    """Regular with globally coprime vertex denominators."""
    return is_regular(s) and math.gcd(*map(den, s.vertices)) == 1


def is_strongly_regular(cx: GeoComplex) -> bool:
    """All simplexes regular, all maximal simplexes strongly regular.

    Only the maximal simplexes are tested: every simplex is a face of one,
    and faces of a regular simplex are regular.
    """
    return all(is_strongly_regular_simplex(s) for s in cx.maximal_simplexes())


def is_strongly_regular_polyhedron(cx: GeoComplex) -> bool:
    """Whether |cx| has a strongly regular triangulation (condition (iii)),
    read off cx's own maximal simplexes, with no desingularization.

    Lemma.  Let sigma be a regular triangulation of |cx|.  Then sigma is
    strongly regular iff aff(M) meets Z^n for every maximal simplex M of
    cx.  ``desingularize`` gives such a sigma, so this decides (iii).

    (1) One regular simplex T.  Its vectors w_i = d_i(v_i, 1) extend to a
    basis of Z^{n+1}, so they are a basis of L, the lattice of the integer
    points of span(w_i).  With h the last coordinate, gcd(d_i)
    generates h(L), and h(L) = Z iff L holds a vector (x, 1), that is iff
    aff(T) meets Z^n.  So T is strongly regular iff aff(T) meets Z^n.

    (2) Matching the hulls.  Two triangulations K, K' of one space have the
    same affine hulls of maximal simplexes.  A simplex of K sharing a
    relative-interior point of a maximal M would meet M in a face of M
    holding that point, so would contain M; so relint M lies in no other
    maximal simplex, and near a point x of it the space is M.  Finitely
    many closed simplexes of K' cover M near x, so one of them, t, holds
    an open piece of M; near a point of that piece the space is M, so
    dim t = dim M, aff t = aff M, and t is maximal.  By symmetry every
    maximal simplex of K' has the hull of a maximal simplex of K; with (1)
    for sigma's maximal simplexes, this proves the lemma.

    Computing it.  A full-dimensional M has L = Z^{n+1}: True with no
    arithmetic.  If gcd(d_i) = 1, an integer combination of the w_i is
    (x, 1): True.  Otherwise, with U W V = D the Smith form of the vertex
    rows W, the first rows of V^-1 are a basis of L, and U (d_i) =
    D (V^-1 e_last), so h(L) is generated by the gcd of the exact quotients
    (U (d_i))_i / D_ii.
    """
    return all(_hull_meets_lattice(s) for s in cx.maximal_simplexes())


def _hull_meets_lattice(s: GeoSimplex) -> bool:
    """aff(s) holds an integer point (``is_strongly_regular_polyhedron``)."""
    rows = s._vertex_rows
    dens = [w[-1] for w in rows]
    if len(rows) == len(rows[0]) or math.gcd(*dens) == 1:
        return True
    u, d, _ = _smith(list(map(list, rows)))
    return math.gcd(*(sum(map(mul, ui, dens)) // d[i][i]
                      for i, ui in enumerate(u))) == 1


def _box_point(s: GeoSimplex) -> tuple[RPoint, frozenset]:
    """A lattice point of the fundamental box of a non-regular simplex, and
    its carrier: the set of vertices of s where its coefficients are
    positive.

    Writing the homogeneous vertex vectors as w_i, the returned point has
    homogeneous vector sum(c_i * w_i) with rational 0 <= c_i < 1, integral
    and nonzero.  Blowing up there multiplies the multiplicity (gcd of
    maximal minors) of every piece by some c_i < 1, which is what makes
    desingularization terminate; among the finitely many candidates the
    one with the smallest maximal coefficient splits fastest.  On a
    non-regular 1-simplex this is the classical Farey mediant.

    All in integers.  With U W V = D the Smith form of the vertex matrix
    W, the rows of V^-1 at the invariant factors d_i > 1 generate the
    lattice points of the span modulo the vertex lattice, and U W = D V^-1
    makes generator i the combination (U_i / d_i) W: its coefficients are
    row i of U over d_i.  Candidates t_1 g_1 + ... are reduced modulo the
    vertex lattice by taking each coefficient's numerator over
    L = lcm(d_i) mod L, and since all share L, comparing (max, tuple) of
    numerators orders them as the coefficients do.
    """
    rows = s._vertex_rows
    m = len(rows)
    u, d_mat, _ = _smith(list(map(list, rows)))
    torsion = [(u[i], d_mat[i][i]) for i in range(m) if d_mat[i][i] > 1]
    _check(bool(torsion), "regular simplex has no box point")
    big = math.lcm(*(di for _, di in torsion))
    # Numerators over big of each torsion generator's coefficients.
    gen_nums = [[x * (big // di) for x in ui] for ui, di in torsion]

    cap = 4096
    total = math.prod(di for _, di in torsion)
    ranges = [range(di) for _, di in torsion]
    if total > cap:
        # Fall back to multiples of the single worst generator.
        i_big = max(range(len(torsion)), key=lambda i: torsion[i][1])
        ranges = [range(torsion[i][1]) if i == i_big else range(1)
                  for i in range(len(torsion))]

    vectors = (tuple(sum(t * g[j] for t, g in zip(ts, gen_nums)) % big
                     for j in range(m)) for ts in itertools.product(*ranges))
    best = min(((max(c), c) for c in vectors if any(c)), default=None)
    _check(best is not None, "every box coefficient vector vanishes")
    x = [sum(map(mul, best[1], col)) for col in zip(*rows)]
    _check(all(e % big == 0 for e in x), "box point is not integral")
    g = math.gcd(*x)
    _check(g > 0, "box point of a non-regular simplex cannot vanish")
    x = [e // g for e in x]
    _check(x[-1] > 0, "box point has a nonpositive denominator")
    carrier = frozenset(v for v, c in zip(s.vertices, best[1]) if c)
    return RPoint._from_homog(tuple(x)), carrier


def desingularize(cx: GeoComplex, budget: int = 10_000) -> GeoComplex:
    """Stellar subdivision in which every simplex is regular.

    Faces of regular simplexes are regular, so only maximal simplexes are
    watched.  Each step blows up the least non-regular maximal simplex s,
    in (dim, vertices) order, at its box point p = sum c_i w_i over s's
    homogeneous vertex vectors, c_i >= 0 (``_box_point``).  So p lies in
    s, its carrier is the face on the vertices with c_i > 0, and the step
    is ``subdivide._Stars.replace`` on the maximal simplexes alone.  The
    budget counts stellar steps; exceeding it raises, it never returns a
    wrong answer.
    """
    return _blow_up(cx, None, budget)[0]


def desingularize_relative(cx: GeoComplex, part: GeoComplex,
                           budget: int = 10_000) -> tuple[GeoComplex, GeoComplex]:
    """A stellar subdivision K' of cx making the subcomplex inside |part|
    regular, and that subcomplex I(K').

    Requires the simplexes of cx inside |part| to triangulate |part|
    already; blow-ups happen at box points inside |part|, so that property
    is maintained while the rest of the complex is refined only
    incidentally.  The budget counts stellar steps, as in ``desingularize``.

    The inside subcomplex I(K) of K is found once.  With |I(K)| = |part|
    and the carrier C of p in I(K), I(stellar(K, p)) = stellar(I(K), p),
    so ``subdivide._Stars.replace`` updates its maximal simplexes as it
    does those of K, and I(K') is the complex of those kept, or I(K)
    itself when nothing is blown up: the caller needs no search for it.
    Proof: each simplex of stellar(I(K), p) is one of
    stellar(K, p) lying in |I(K)|.  Conversely let t in stellar(K, p) lie
    in |part|.  If t is in K, it misses C and is in I(K), so it is in
    stellar(I(K), p).  Otherwise t = F u {p} for a face F of a simplex of
    K containing C, so G = F u C is in K, and a point x of relint t, a
    positive combination of F and p, hence of F and C, lies in relint G.
    x is in |I(K)|, so in some r in I(K), and r meets G in a face holding
    x, which is G; so G is in I(K), and t is in stellar(I(K), p).  That
    also keeps |I(K)| = |part|.
    """
    inside = subdivide.inside_subcomplex(cx, part)
    if not subdivide._adapted(inside, part):
        raise ValueError("precondition violation: the inside subcomplex "
                         "does not triangulate |P|")
    return _blow_up(cx, inside, budget)


def _blow_up(cx: GeoComplex, inside: Optional[GeoComplex],
             budget: int) -> tuple[GeoComplex, Optional[GeoComplex]]:
    """Blow up the least non-regular maximal simplex of ``inside``, a
    subcomplex of cx (None: of cx itself), until all are regular; return
    the subdivided complex and subcomplex (None when none is given).  The
    maximal simplexes of cx and of the subcomplex are held in
    ``subdivide._Stars``, one for both when there is no subcomplex, and
    every blow-up replaces its star in each; they are built only once a
    watched simplex is non-regular, so a regular input returns cx and
    ``inside`` with none built.  A heap entry no longer held was replaced
    by an earlier blow-up and is skipped."""
    watched = cx if inside is None else inside
    # A sorted list is a heap.  The maximal simplexes are in simplex order,
    # so a stable sort by dimension orders the pairs with no point compared.
    heap = sorted(((s.dim, s) for s in watched.maximal_simplexes() if not is_regular(s)),
                  key=itemgetter(0))
    if not heap:
        return cx, inside
    stars = subdivide._Stars(cx)
    inner = stars if inside is None else subdivide._Stars(inside)
    steps = 0
    while heap:
        _, s = heapq.heappop(heap)
        if s not in inner:
            continue
        p, carrier = _box_point(s)
        if inner is not stars:
            stars.replace(p, carrier)
        for cone in inner.replace(p, carrier):
            if not is_regular(cone):
                heapq.heappush(heap, (cone.dim, cone))
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")
    return stars.complex(), None if inside is None else inner.complex()


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
    for total in range(2, cap + 1):
        coprime = math.gcd(k, total) == 1
        combo = _composition_with_total(dens, total) if coprime else None
        if combo is not None:
            acc = [sum(map(mul, combo, col)) for col in zip(*s._vertex_rows)]
            return RPoint._from_homog(linalg._primitive(acc))
    raise InvariantBroken("coprime point search exhausted its cap")


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
