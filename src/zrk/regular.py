"""Denominator arithmetic and regularity of rational triangulations.

A rational point v has the homogeneous integer vector den(v)*(v, 1); a
simplex is regular when those vectors extend to a basis of Z^{n+1}, and
strongly regular when additionally the vertex denominators are globally
coprime.  Desingularization proceeds by stellar blow-ups at Farey mediant
points of non-saturated vertex subsets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .complexes import GeoComplex, GeoSimplex, RPoint, _homogeneous
from .exactnum import extends_to_basis, lcd
from . import subdivide


class BudgetExhausted(RuntimeError):
    pass


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
    """Lowest common denominator of the coordinates; 1 on lattice points."""
    return lcd(list(v.coords))


def homog(v: RPoint) -> HomogVec:
    return HomogVec(_homogeneous(v, v.dim))


@lru_cache(maxsize=None)
def is_regular(s: GeoSimplex) -> bool:
    """Homogeneous vertex vectors extend to a basis of Z^{n+1}."""
    return extends_to_basis([homog(v).entries for v in s.vertices])


def is_strongly_regular_simplex(s: GeoSimplex) -> bool:
    """Regular with globally coprime vertex denominators."""
    if not is_regular(s):
        return False
    g = 0
    for v in s.vertices:
        g = math.gcd(g, den(v))
    return g == 1


def is_strongly_regular(cx: GeoComplex) -> bool:
    """All simplexes regular, all maximal simplexes strongly regular."""
    if not all(is_regular(s) for s in cx.simplexes):
        return False
    return all(is_strongly_regular_simplex(s) for s in cx.maximal_simplexes())


def _integer_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, exactly."""
    from . import linalg

    n = len(m)
    cols = []
    for j in range(n):
        rhs = [Fraction(int(i == j)) for i in range(n)]
        sol = linalg.solve_square([[Fraction(x) for x in row] for row in m], rhs)
        assert sol is not None
        cols.append(sol)
    out = [[cols[j][i] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def _box_point(s: GeoSimplex) -> RPoint:
    """A lattice point of the fundamental box of a non-regular simplex.

    Writing the homogeneous vertex vectors as w_i, the returned point has
    homogeneous vector sum(c_i * w_i) with rational 0 <= c_i < 1, integral
    and nonzero.  Blowing up there multiplies the multiplicity (gcd of
    maximal minors) of every piece by some c_i < 1, which is what makes
    desingularization terminate; among the finitely many candidates the
    one with the smallest maximal coefficient splits fastest.  On a
    non-regular 1-simplex this is the classical Farey mediant.
    """
    from . import linalg
    from .exactnum import smith_with_transforms

    rows = [homog(v).entries for v in s.vertices]
    m = len(rows)
    _, d_mat, v = smith_with_transforms(rows)
    diag = [d_mat[i][i] for i in range(min(len(d_mat), len(d_mat[0])))]
    torsion = [(i, di) for i, di in enumerate(diag) if di > 1]
    assert torsion, "regular simplex has no box point"
    v_inv = _integer_inverse(v)
    # Coefficients of each torsion saturation-basis vector over the w_i.
    w_cols = [[Fraction(rows[j][k]) for j in range(m)] for k in range(len(rows[0]))]
    gen_coeffs = []
    for i, _ in torsion:
        sol = linalg.solve_affine(w_cols, [Fraction(e) for e in v_inv[i]])
        assert sol is not None and not sol[1]
        gen_coeffs.append(sol[0])

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
        coeffs = []
        for j in range(m):
            q = sum(t * g[j] for t, g in zip(ts, gen_coeffs))
            coeffs.append(q - (q.numerator // q.denominator))
        if all(c == 0 for c in coeffs):
            continue
        key = (max(coeffs), coeffs)
        if best is None or key < best[0]:
            best = (key, coeffs)
    assert best is not None
    coeffs = best[1]
    x = [Fraction(0)] * len(rows[0])
    for c, w in zip(coeffs, rows):
        for k, e in enumerate(w):
            x[k] += c * e
    assert all(e.denominator == 1 for e in x)
    xi = [int(e) for e in x]
    g = 0
    for e in xi:
        g = math.gcd(g, e)
    assert g > 0, "box point of a non-regular simplex cannot vanish"
    xi = [e // g for e in xi]
    assert xi[-1] > 0
    return RPoint(tuple(Fraction(e, xi[-1]) for e in xi[:-1]))


def _blow_up_until_regular(cx: GeoComplex, watched, budget: int) -> GeoComplex:
    """Blow up the least non-regular simplex of ``watched(cx)`` at a box
    point until none is left; more than ``budget`` steps raise."""
    steps = 0
    while True:
        bad = sorted((s for s in watched(cx) if not is_regular(s)),
                     key=lambda s: (s.dim, s.vertices))
        if not bad:
            return cx
        cx = subdivide.stellar(cx, _box_point(bad[0]))
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")


def desingularize(cx: GeoComplex, budget: int = 10_000) -> GeoComplex:
    """Stellar subdivision in which every simplex is regular.

    Faces of regular simplexes are regular, so only maximal simplexes are
    watched.  The budget counts stellar steps; exceeding it raises, it
    never returns a wrong answer.
    """
    return _blow_up_until_regular(cx, GeoComplex.maximal_simplexes, budget)


def desingularize_relative(cx: GeoComplex, part: GeoComplex,
                           budget: int = 10_000) -> GeoComplex:
    """Stellar subdivision making the subcomplex inside |part| regular.

    Requires the simplexes of cx inside |part| to triangulate |part|
    already; blow-ups happen at mediants inside |part|, so that property is
    maintained while the rest of the complex is refined only incidentally.
    """
    if not subdivide._adapted(subdivide.inside_subcomplex(cx, part), part):
        raise ValueError("precondition violation: the inside subcomplex "
                         "does not triangulate |P|")
    return _blow_up_until_regular(
        cx, lambda c: subdivide.inside_subcomplex(c, part).maximal_simplexes(),
        budget)


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
    # residue coprime to k; cap generously and assert.
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
    assert best is not None, "coprime point search exhausted its cap"
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
        g, a0, b0 = _xgcd(d, du)
        assert g == 1
        b = b0
        while b <= 0:
            b += d
        a = (1 - b * du) // d
        w = RPoint(tuple(a * d * vc + b * du * uc
                         for vc, uc in zip(v.coords, u.coords)))
        eps = Fraction(1, b * du)
        assert all(c.denominator == 1 for c in w.coords)
        assert segment_ok(w, eps)
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
