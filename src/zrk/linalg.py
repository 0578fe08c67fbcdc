"""Exact linear algebra and small-polytope kernels over the rationals.

Everything here works on tuples of ``fractions.Fraction``; there are no
tolerances anywhere.  The polytope routines (clipping a simplex by
halfspaces, pulling triangulation) are written for the desk-scale cells
that arise when two triangulations are overlaid, not for high-dimensional
polytopes.  The LP kernel ``lp_maximize`` is a dense two-phase simplex
method with Bland's rule for small equality-form programs, such as the
common-face test of two simplexes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

Vec = tuple  # tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
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


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon([[frac(x) for x in r] for r in rows])[1])


def solve_affine(rows: Sequence[Sequence], rhs: Sequence) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve A x = b exactly.

    Returns (particular solution, nullspace basis) or None when inconsistent.
    Free variables are pinned to zero, so the result is deterministic.
    """
    aug = [[frac(x) for x in row] + [frac(b)] for row, b in zip(rows, rhs)]
    nvars = len(aug[0]) - 1 if aug else 0
    red, pivots = _echelon(aug)
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


def solve_square(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vec]:
    """Unique solution of a square system, or None if singular/inconsistent."""
    out = solve_affine(rows, rhs)
    if out is None or out[1]:
        return None
    return out[0]


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    m = [[frac(x) for x in r] for r in rows]
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


def aff_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    if not points:
        return -1
    p0 = points[0]
    return matrix_rank([vsub(p, p0) for p in points[1:]])


def affinely_independent(points: Sequence[Vec]) -> bool:
    return aff_dim(points) == len(points) - 1


class AffineForm(NamedTuple):
    """The affine functional x -> coeffs . x + const."""

    coeffs: Vec
    const: Fraction

    def __call__(self, p: Vec) -> Fraction:
        return dot(self.coeffs, p) + self.const

    def negate(self) -> "AffineForm":
        return AffineForm(tuple(-c for c in self.coeffs), -self.const)


def simplex_forms(points: Sequence[Vec]) -> tuple[list[AffineForm], list[AffineForm]]:
    """H-representation of a simplex: (affine-hull equalities, facet forms).

    The facet forms are the barycentric functionals l_i with
    l_i(p_j) = delta_ij, extended to the ambient space; within the affine
    hull, the simplex is exactly where they are all nonnegative.  One
    echelon of the rows (p_j, 1 | e_j) gives both.  Unknowns (a, c) stand
    for the form x -> a.x + c.  The free columns of the (p_j, 1) block span
    the forms vanishing on every point, and the e_i column holds the
    solution of (p_j, 1).(a, c) = delta_ij with free coefficients pinned to
    zero, so the result is deterministic.  The points must be affinely
    independent.
    """
    n = len(points[0])
    k = len(points)
    rows = [list(p) + [Fraction(1)] + [Fraction(int(i == j)) for i in range(k)]
            for j, p in enumerate(points)]
    red, pivots = _echelon(rows)
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


def clip_simplex(points: Sequence[Vec], eqs: Sequence[AffineForm],
                 ineqs: Sequence[AffineForm]) -> list[Vec]:
    """Sorted vertices of conv(points) cap {eqs = 0, ineqs >= 0} when that
    cell has the dimension of the simplex conv(points); [] otherwise.

    Double description, one halfspace at a time (Fukuda and Prodon 1996):
    each vertex carries the bitmask of constraints tight at it, and vertex
    i starts tight on every barycentric form but form i.  The cell stays
    full-dimensional, so every equality must vanish on the points, and an
    inequality that is 0 on every vertex vanishes on the hull: skip it.
    Clipping by g keeps the vertices with g >= 0 and adds a point on each
    edge from g > 0 to g < 0; two vertices span an edge iff no third one
    is tight on every constraint tight at both.
    """
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


def pull_triangulation(vertices: Sequence[Vec],
                       ineqs: Sequence[AffineForm]) -> list[tuple[Vec, ...]]:
    """Pulling triangulation of conv(vertices).

    ``ineqs`` must be an H-representation of the polytope within its affine
    hull (every facet is the tight set of some listed form).  Each face is
    triangulated by coning its lexicographically least vertex over the
    pulling triangulations of the facets avoiding it, which makes the result
    depend only on the face itself; shared faces of adjacent cells therefore
    receive identical triangulations.
    """
    cache: dict[tuple[Vec, ...], list[tuple[Vec, ...]]] = {}

    def pull(vset: tuple[Vec, ...]) -> list[tuple[Vec, ...]]:
        got = cache.get(vset)
        if got is not None:
            return got
        if affinely_independent(vset):
            cache[vset] = [vset]
            return [vset]
        v0 = vset[0]  # vset is sorted, so this is the lexicographic minimum
        d = aff_dim(vset)
        out = []
        seen: set[tuple[Vec, ...]] = set()
        for f in ineqs:
            tight = tuple(w for w in vset if f(w) == 0)
            if not tight or len(tight) == len(vset) or tight in seen:
                continue
            if aff_dim(tight) != d - 1:
                continue
            seen.add(tight)
            if v0 in tight:
                continue
            for sub in pull(tight):
                out.append(tuple(sorted(sub + (v0,))))
        cache[vset] = out
        return out

    return pull(tuple(sorted(set(vertices))))


def simplex_volume(points: Sequence[Vec]) -> Fraction:
    """Full-dimensional volume of a simplex in its ambient space.

    Zero when the simplex is not full-dimensional.
    """
    n = len(points[0])
    if len(points) != n + 1:
        return Fraction(0)
    m = [vsub(p, points[0]) for p in points[1:]]
    d = det(m)
    if d < 0:
        d = -d
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return d / fact
