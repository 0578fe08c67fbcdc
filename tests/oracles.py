"""Slow reference implementations that the fast kernels are tested against.

``split_supports`` is the recursive polytope splitter that decided
``subdivide.supports`` before coverage was decided by volume; ``minor_gcd``
computes invariant-factor products from k x k minors by brute force;
``dfs_collapse_sequence`` and ``scan_replay`` are the recursive collapse
search and the pairwise replay that rescan every pair of simplexes for free
faces, from before ``collapse`` kept a face table;
``enumerate_meet_in_common_face`` decides the common-face condition by
enumerating every vertex of a cap b, from before it was one LP, and
``lp_meet_in_common_face`` decides it by that LP (``lp_maximize``, a dense
two-phase ``Fraction`` simplex method, with the coercion helper ``frac``),
from before ``complexes`` read it off the tight masks of one integer clip;
``enumerate_cell_vertices`` finds the vertices of a cell by solving every
square subsystem of its constraints, from before cells were clipped one
halfspace at a time; ``scan_maximal_simplexes`` finds maximal simplexes by
looking for a coface through every vertex, and ``closure_complex`` closes
the input under faces and scans it so, from before a ``GeoComplex`` stored
only its maximal simplexes.  ``scan_inside_subcomplex`` tests every face
with ``supports``, from before ``subdivide.inside_subcomplex`` kept only
the simplexes it found.  ``barycentric_coords`` solves a
fresh ``Fraction`` system for every point, and ``affine_hull_forms`` and
``vertex_forms`` solve one system per form, from before each simplex cached
its forms from one echelon.  ``simplex_forms`` is that ``Fraction`` echelon
(``echelon``), giving ``AffineForm``s that ``integer_rows`` scales to
integer rows and ``simplex_hrep`` caches per simplex, from before
``GeoSimplex._point_rows`` read its rows off one fraction-free Gauss-Jordan
elimination.  ``scan_carrier`` tests every face of a
complex, and ``product_lattice_points`` tests every vertex of the cube
against every maximal simplex.  ``face_stellar`` cones every face of the
star, from before ``subdivide.stellar`` replaced the star on the maximal
simplexes alone.  ``rebuild_desingularize`` rebuilds the whole complex with
``face_stellar`` at every blow-up, from before ``regular.desingularize``
replaced only the star of the blown-up simplex, and
``rebuild_desingularize_relative`` also recomputes the subcomplex inside
the polyhedron every step, from before one loop kept its maximal
simplexes.  ``scan_replace_star`` finds the star of a blow-up by scanning
every maximal simplex of a bare set, from before ``subdivide._Stars`` kept
the star of each vertex.  ``simplex_volume`` is the volume of one full-dimensional
simplex, which the volume cube test summed before it used
``relative_volume_total``, the projected volume sum of simplexes sharing
one affine hull that ``subdivide`` compared on both sides of every tiling
question before ``subdivide._tiles`` measured pieces in their simplex's
own projection.
``rank_pull_triangulation`` ranks every face it pulls by a Bareiss
elimination, from before ``linalg.pull_triangulation`` read ranks off the
tight masks, and ``pulling_pull_cell`` pulls every full-dimensional cell
with it, from before ``subdivide._pull_cell`` returned a cell with
dim s + 1 vertices as itself.
``fraction_clip_simplex``, ``fraction_pull_triangulation``, ``fraction_det``
and ``pullback_forms`` are the cell kernel on ``Fraction`` points and
``AffineForm``s, from before it worked on homogeneous integer vectors and
integer rows; ``fraction_aff_dim`` is the ``Fraction`` echelon rank they
used.  ``solve_affine`` and ``solve_square`` are the ``Fraction`` solvers
the box point used.  ``smith_with_transforms`` is the full Smith
decomposition U A V = D with both transforms, from before
``exactnum._smith`` kept only U and D; ``smith_extends_to_basis`` decides basis extension
from the full Smith form, from before ``exactnum.extends_to_basis`` was a
saturation test by column operations; ``fraction_box_point`` (with
``fraction_integer_inverse``) finds the box point with ``Fraction`` solves,
from before ``regular._box_point`` worked on integers;
``fraction_exit_parameter`` is ``regular._exit_parameter`` on the
``Fraction`` forms, from before it read integer rows; and
``all_faces_strongly_regular`` tests regularity on every face, from before
``regular.is_strongly_regular`` read it off the maximal simplexes.
``has_strongly_regular_triangulation`` decides condition (iii) on a
desingularization of P, and ``desingularizing_certify`` is
``zmaps.certify_main`` deciding it so, from before ``certify_main`` and
``zmaps.pipeline_dh`` read it off P's own maximal simplexes
(``regular.is_strongly_regular_polyhedron``); ``homog`` gives a point's homogeneous integer
vector as a ``HomogVec``, which ``regular`` exported with no caller in
``src``.
``json_print_scx`` prints a document with ``json.dumps(indent=2)``, which
runs the pure-Python encoder, from before ``scx`` had its own emitter, over
a JSON body of its own built from the payload's simplexes and points, from
before ``scx`` printed simplexes and collapse steps by joins.
``walk_print_scx`` builds a body dict for the document (``_payload_body``)
and walks it (``_emit``), switching on the type of each value and sorting
each dict's keys, from before ``scx`` rendered each document kind's members
in their fixed order.
``simplicially_isomorphic`` matches two skeletons by backtracking over
vertex bijections; it was in ``complexes`` with no caller in ``src``.
``is_zmap_by_fit`` decides the Z-map property by fitting an integer affine
map on every maximal simplex through the Smith form; it was the second
route in ``zmaps``, next to the divisibility criterion ``is_zmap``.
``scan_image_leaving`` runs the Caratheodory volume test on the image of
every maximal simplex, from before ``zmaps._image_leaving`` located each
image point once, and ``locate_eval`` interpolates every point, vertices
too, through a point location, from before ``PLMap.eval`` returned a
vertex's image directly.  ``scan_hosts`` tests a point against every
maximal simplex of a complex, from before ``GeoComplex.hosts`` read the
simplexes holding it off the stars of its carrier's vertices.
``clip_is_subdivision`` tests every fine simplex against every coarse one
and then both supports by clipping, from before
``subdivide.is_subdivision`` accounted volumes, and ``relint_contains``
reads strict positivity off ``GeoSimplex.barycentric``, from before the
simplex had a method for it.  ``volume_triangulates_cube`` sums the
volumes of a complex in the cube, from before ``zmaps`` asked
``GeoComplex._is_cube``, and ``rows_triangulates_cube`` is the linear
cube test on barycentric rows and a barycentre count, from before
``complexes._triangulates_cube`` read orientations and volumes off each
simplex's determinant.  ``elementary_collapse`` removes one free pair, checked against a face
table; it was in ``collapse`` with no caller in ``src``.
``validating_parse_sequence``
parses a collapse sequence building and checking every simplex, from before
``scx`` read a step's simplexes off earlier steps, and
``read_off_parse_sequence`` reads them off so (``_read_off``, against
``_facet_ids``) but checks every pair and recomputes the id tuples of each
step's simplexes, from before ``scx`` resolved each step entry once and
built a read-off pair unchecked.  ``full_row_bareiss`` is the elimination
that updated every row in full and scanned for every pivot, from before
``linalg._bareiss`` updated a row below the pivot from the pivot column
on, and ``slice_bareiss`` is that slicing elimination, with a generator
scan for a missing pivot, from before ``_bareiss`` updated each row as one
whole-row list and scanned with a plain loop.  ``saturation_is_regular``
runs the saturation test on every simplex, from before
``regular.is_regular`` read a full-dimensional one off its determinant.
``scan_supports`` tests
a simplex against every simplex of a cover list (``simplex_inside``, the
box-and-vertex test that also decided ``subdivide.is_subdivision``'s
containment before it read the hosts its vertices share) and then by
volume, on the cells that ``fraction_cell`` clips and pulls on
``Fraction`` forms, so it shares no cell code with ``supports``; and
``caratheodory_supports`` splits a point list into the simplexes of its
affinely independent subsets (``aff_dim`` and ``affinely_independent``,
the ranks ``linalg`` computed for it), from before ``subdivide.supports``
read the points' hosts off a complex.  ``clip_supports`` is ``supports``
with every support split and tiled, from before it let a convex support
(``GeoComplex._is_convex``) decide from the points' hosts alone, and
``hull_inside`` decides whether a complex holds the hull of its vertices
by that scan on the vertices that ``hull_vertices`` finds by one LP each.
``cube_bounds_covers`` reads whether a triangulation of the cube covers a
polyhedron off the coordinate bounds of the polyhedron's vertices, from
before ``subdivide.covers`` left the cube to the convex exit of
``supports``.
``pieces_common_refinement`` and
``scan_refine_for_map`` are the two overlay loops that
``subdivide.common_refinement`` and ``subdivide.refine_for_map`` ran
before both cut simplexes with ``subdivide._cells``: the first with its
``a == b`` shortcut and box test, the second with no box test and a
pullback for every target simplex.  ``rowwise_restrict`` slices the
whole complex by one row at a time (``slice_complex``), building a complex
per cutting row, from before ``subdivide.restrict`` sliced the tuple of
maximal simplexes in one pass; it keeps the end checks restrict dropped
when it learned to slice on by its left-out rows, and refuses where restrict
once did when asked to (``fallback=False``).  ``restricted_fixes_pointwise``
restricts the map's domain to |P| and tests the inside vertices, from
before ``zmaps.fixes_pointwise`` refined P against the domain; where
restrict falls back, ``clip_fixes_pointwise``, which tests every vertex of
every cell of P against the domain, is a second reference.
``FractionRPoint`` is the dataclass point that kept ``Fraction``
coordinates and hashed them, ``fraction_barycenter`` and ``fraction_eval``
sum ``Fraction`` coordinates, and ``_json_point`` formats each one with
``format_rat``, from before a computed point was built, interpolated and
printed from its integer vector alone.  ``closure_realize`` realizes every
face of the closure of a weighted complex, from before ``complexes.realize``
read only the faces it was given.  ``simplex_faces`` builds every nonempty
face of one simplex, as ``GeoSimplex.faces`` did, from before a complex
made each of its faces from a rank tuple of ``complexes._closure``
(``GeoComplex._simplex``).  ``id_walk_sequence`` prints a collapse
sequence's steps off the ids of their vertex objects, and
``point_lookup_replay`` looks each distinct vertex object of a sequence's
steps up by point, from before a ``CollapseSequence`` held its steps as
rank tuples into one vertex table.
"""

import json
import math
import sys
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from functools import lru_cache, reduce
from itertools import combinations, product
from json.encoder import encode_basestring_ascii
from operator import and_, ge, gt, le, lt, mul
from typing import Callable, NamedTuple, Optional, Sequence

from zrk import linalg, scx, subdivide, zmaps
from zrk.collapse import CollapseSequence, CollapseStep, _FaceTable, find_collapse_sequence
from zrk.complexes import (GeoComplex, GeoSimplex, RPoint, _bbox_overlap, _cached,
                           _closure, _homogeneous, _placement, skeleton)
from zrk.exactnum import IntMat, _saturated, format_rat, invariant_factors, xgcd
from zrk.regular import (BudgetExhausted, _box_point, _check, coprime_point, den,
                         desingularize, is_regular, is_strongly_regular)


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


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


def homog(v: RPoint) -> HomogVec:
    return HomogVec(_homogeneous(v, v.dim))


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


def aff_dim(points) -> int:
    """Dimension of the affine hull of points given by their rational
    coordinates; -1 for the empty set.  It is the rank of the homogeneous
    vectors, less one."""
    return linalg.matrix_rank([linalg.homogeneous(p) for p in points]) - 1


def affinely_independent(points) -> bool:
    return aff_dim(points) == len(points) - 1


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


def rank_pull_triangulation(points, ineqs) -> list[tuple[int, ...]]:
    """``linalg.pull_triangulation`` ranking every face it visits by a
    Bareiss elimination of the face's vertex vectors, from before it read
    ranks off the rows' tight masks; its reference."""
    tight_masks = [sum(1 << i for i, x in enumerate(points) if not sum(map(mul, g, x)))
                   for g in ineqs]
    ranks: dict[int, int] = {}
    cache: dict[int, list[int]] = {}

    def rank(face: int) -> int:
        got = ranks.get(face)
        if got is None:
            got = ranks[face] = linalg.matrix_rank(
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


def pulling_pull_cell(s: GeoSimplex, eqs_t, ineqs_t) -> list[GeoSimplex]:
    """``subdivide._pull_cell`` pulling every full-dimensional cell with
    ``rank_pull_triangulation``, a cell that is a simplex too, from before
    such a cell was returned as itself; its reference."""
    if any(sum(map(mul, e, x)) for e in eqs_t for x in s._vertex_rows):
        return []
    cell = linalg.clip_simplex(s._vertex_rows, ineqs_t)
    if not cell or reduce(and_, (m for _, m in cell)):
        return []
    common = math.lcm(*(x[-1] for x, _ in cell))
    vectors = sorted((x for x, _ in cell),
                     key=lambda x: tuple(c * (common // x[-1]) for c in x[:-1]))
    own = dict(zip(s._vertex_rows, s.vertices))
    points = [own.get(x) or RPoint._from_homog(x) for x in vectors]
    ineqs = s._point_rows[1] + tuple(ineqs_t)
    return [GeoSimplex._raw(tuple(points[i] for i in tri))
            for tri in rank_pull_triangulation(vectors, ineqs)]


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
        columns = list(zip(*(v.coords for v in s.vertices)))
        if any(c < min(col) or c > max(col) for c, col in zip(p.coords, columns)):
            continue
        lam = barycentric_coords([v.coords for v in s.vertices], p.coords)
        if lam is not None and all(c > 0 for c in lam):
            return s
    return None


def scan_hosts(cx, p: RPoint) -> frozenset:
    """The indices of the maximal simplexes of cx holding p, each tested
    with ``GeoSimplex.contains``; a simplex of another ambient dimension
    holds none.  The reference for ``GeoComplex.hosts``."""
    return frozenset(i for i, t in enumerate(cx.maximal_simplexes())
                     if t.ambient_dim == p.dim and t.contains(p))


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


def simplex_faces(s: GeoSimplex) -> list[GeoSimplex]:
    """Every nonempty face of s, s itself included, each built ``_raw``."""
    return [GeoSimplex._raw(sub) for k in range(1, len(s.vertices) + 1)
            for sub in combinations(s.vertices, k)]


def closure_complex(simplexes):
    """The face closure of the given simplexes, as the constructor of
    ``GeoComplex`` built it eagerly, with its vertices, dimension and maximal
    simplexes (``scan_maximal_simplexes``); the reference for ``GeoComplex``.
    """
    faces = frozenset(f for s in simplexes for f in simplex_faces(s))
    vertices = tuple(sorted({v for s in faces for v in s.vertices}))
    out = SimpleNamespace(simplexes=faces, vertices=lambda: vertices,
                          dim=max(s.dim for s in faces))
    out.maximal = scan_maximal_simplexes(out)
    return out


def simplex_inside(s: GeoSimplex, t: GeoSimplex) -> bool:
    """s subseteq t, decided on vertices (both convex), after the necessary
    condition that s's integer box lies in t's."""
    (slo, shi, ds), (tlo, thi, dt) = s._box, t._box
    if not all(tl * ds <= sl * dt and sh * dt <= th * ds
               for sl, sh, tl, th in zip(slo, shi, tlo, thi)):
        return False
    return all(t.contains(v) for v in s.vertices)


def fraction_cell(s: GeoSimplex, t: GeoSimplex) -> list[GeoSimplex]:
    """The pulling triangulation of the cell s cap t when it has the
    dimension of s, [] otherwise, by the ``Fraction`` cell kernel
    (``fraction_clip_simplex``, ``fraction_pull_triangulation``) on the
    forms of ``simplex_hrep``; no integer row is read."""
    eqs, ineqs = simplex_hrep(t)
    verts = fraction_clip_simplex([v.coords for v in s.vertices], eqs, ineqs)
    if not verts:
        return []
    forms = list(simplex_hrep(s)[1]) + list(ineqs)
    return [GeoSimplex._raw(tuple(map(RPoint, tri)))
            for tri in fraction_pull_triangulation(verts, forms)]


def scan_supports(cover, s: GeoSimplex) -> bool:
    """Exact point-set containment of simplex s in the union of ``cover``,
    a subset of the maximal simplexes of one complex: s is tested against
    each cover simplex (``simplex_inside``), then by volume against its
    cells in all of them (``fraction_cell``).  The reference for
    ``subdivide.supports``, which took a cover list and a simplex."""
    cover = [t for t in cover if t.ambient_dim == s.ambient_dim]
    if any(simplex_inside(s, t) for t in cover):
        return True
    return (relative_volume_total({c for t in cover for c in fraction_cell(s, t)})
            == relative_volume_total([s]))


def pieces_common_refinement(a: GeoComplex, b: GeoComplex) -> GeoComplex:
    """``subdivide.common_refinement`` by its own overlay loop: a returned
    as it is when a == b, and otherwise each maximal s of a pulled against
    every maximal t of b whose integer box meets s's.  The reference for
    common refinement by ``subdivide._cells``."""
    if a.ambient_dim != b.ambient_dim:
        raise subdivide.SupportMismatch("support mismatch: different ambient dimensions")
    if not subdivide.support_equal(a, b):
        raise subdivide.SupportMismatch("support mismatch")
    if a == b:
        return a
    simplexes: set[GeoSimplex] = set()
    for s in a.maximal_simplexes():
        for t in b.maximal_simplexes():
            if _bbox_overlap(s._box, t._box):
                eqs, bary, _ = t._point_rows
                simplexes.update(subdivide._pull_cell(s, eqs, bary))
    return GeoComplex(simplexes, validate=False)


def scan_refine_for_map(plmap, target: GeoComplex) -> GeoComplex:
    """The domain of ``subdivide.refine_for_map`` by its own overlay loop: a
    simplex whose vertex images share a host is kept, and any other is
    pulled against every maximal simplex of target, with no box test, on
    the target's rows pulled back along the map even for the identity.  The
    reference for map refinement by ``subdivide._cells``; the reference for
    its images is ``PLMap.rebase``."""
    if plmap.codomain_dim != target.ambient_dim:
        raise ValueError(f"a point in R^{plmap.codomain_dim} is not in R^{target.ambient_dim}")
    cx = plmap.domain
    simplexes = []
    cut = False
    images = {v: plmap.eval(v) for v in cx.vertices()}
    for s in cx.maximal_simplexes():
        vert_imgs = [images[v] for v in s.vertices]
        if frozenset.intersection(*map(target.hosts, vert_imgs)):
            simplexes.append(s)
            continue
        cut = True
        pieces: set[GeoSimplex] = set()
        for t in target.maximal_simplexes():
            eqs_t, ineqs_t, _ = t._point_rows
            pieces.update(subdivide._pull_cell(
                s, subdivide._pullback_rows(s, vert_imgs, eqs_t),
                subdivide._pullback_rows(s, vert_imgs, ineqs_t)))
        if not subdivide._tiles((s,), pieces):
            raise subdivide.SupportMismatch(
                f"compatibility failure: the image of {s} is not contained "
                "in the target support")
        simplexes.extend(pieces)
    return GeoComplex(simplexes, validate=False) if cut else cx


def caratheodory_supports(cover, points, simplex_supports=scan_supports) -> bool:
    """conv(points) in the union of ``cover``: every simplex spanned by an
    affinely independent subset of the points with one more point than the
    dimension of their hull, each tested with ``simplex_supports``; the
    split on coordinates that ``zmaps`` ran before ``subdivide.supports``
    took points."""
    unique = sorted(set(points))
    d = aff_dim([p.coords for p in unique])
    return all(simplex_supports(cover, GeoSimplex._raw(sub))
               for sub in combinations(unique, d + 1)
               if affinely_independent([p.coords for p in sub]))


def clip_supports(cx: GeoComplex, points) -> bool:
    """``subdivide.supports`` with no convex exit: a point without host is
    out and points sharing a host are in, and any other points, whatever
    the support, take the Caratheodory split into simplexes, each tiled by
    its cells in the maximal simplexes of cx (``subdivide._cells``,
    ``subdivide._tiles``).  The path every such question took before
    ``supports`` read ``GeoComplex._is_convex``."""
    found = [cx.hosts(p) for p in points]
    if not all(found):
        return False
    if frozenset.intersection(*found):
        return True
    unique = sorted(set(points))
    r = linalg.matrix_rank([p._homog for p in unique])
    subs = (GeoSimplex._raw(sub) for sub in combinations(unique, r)
            if linalg.matrix_rank([p._homog for p in sub]) == r)
    return all(subdivide._tiles((s,), subdivide._cells(s, s.vertices, cx)) for s in subs)


def hull_vertices(points) -> list:
    """The points that are no convex combination of the others: for each,
    one feasibility LP (``lp_maximize``) in the weights of the others."""
    points = sorted(set(points))
    out = []
    for i, v in enumerate(points):
        rest = points[:i] + points[i + 1:]
        rows = [[w[k] for w in rest] for k in range(v.dim)] + [[1] * len(rest)]
        if not rest or lp_maximize(rows, list(v) + [1], [0] * len(rest)) is None:
            out.append(v)
    return out


def hull_inside(cx: GeoComplex) -> bool:
    """conv(all vertices of cx) inside |cx|: the Caratheodory scan
    (``caratheodory_supports``) of the hull's vertices (``hull_vertices``),
    with no host read and no cell of ``subdivide`` clipped.  When cx is
    made of n-simplexes in R^n, the hull is that of the vertices on the
    boundary of |cx|, those of the facets in one maximal simplex: any other
    vertex is an interior point of |cx|, on a segment between two points
    of its boundary."""
    maxi, n = cx.maximal_simplexes(), cx.ambient_dim
    points = cx.vertices()
    if all(len(s.vertices) == n + 1 for s in maxi):
        facets = Counter(f for s in maxi for f in combinations(s.vertices, n))
        points = {v for f, k in facets.items() if k == 1 for v in f}
    return caratheodory_supports(maxi, hull_vertices(points))


def cube_bounds_covers(cx: GeoComplex, part: GeoComplex) -> bool:
    """|part| inside |cx| for a cx that triangulates [0,1]^n: the cube is
    convex, so |part| lies in it iff every vertex of part has coordinates
    in [0, 1].  A part in another ambient dimension is not inside."""
    return cx.ambient_dim == part.ambient_dim and all(
        0 <= c <= 1 for v in part.vertices() for c in v.coords)


def scan_inside_subcomplex(cx, part) -> set:
    """Every face of cx that lies in |part|, each tested with
    ``scan_supports``; the reference for ``subdivide.inside_subcomplex``."""
    cover = part.maximal_simplexes()
    return {s for s in cx.simplexes if scan_supports(cover, s)}


def point_inside_subcomplex(cx, part):
    """``subdivide._inside_subcomplex`` on point tuples, as it was before it
    read rank tuples: every face of cx (``GeoComplex.simplexes``), tested
    from the top dimension down with ``supports``, which reads the hosts of
    each vertex occurrence, and the faces of one found marked as
    simplexes."""
    found, inside = [], set()
    for s in sorted(cx.simplexes, key=lambda s: -s.dim):
        if s not in inside and subdivide.supports(part, s.vertices):
            found.append(s)
            inside.update(simplex_faces(s))
    return GeoComplex(found, validate=False) if found else None


def slice_complex(cx: GeoComplex, row) -> GeoComplex:
    """Subdivide so that every simplex lies in {row >= 0} or {row <= 0}."""
    out = []
    changed = False
    for s in cx.maximal_simplexes():
        vals = [sum(map(mul, row, x)) for x in s._vertex_rows]
        if all(x >= 0 for x in vals) or all(x <= 0 for x in vals):
            out.append(s)
            continue
        changed = True
        for side in (row, tuple(-c for c in row)):
            out.extend(subdivide._pull_cell(s, [], [side]))
    if not changed:
        return cx
    return GeoComplex(out, validate=False)


class RestrictionRefused(RuntimeError):
    """Raised by ``rowwise_restrict`` when an end check fails: the
    simplexes inside |P| do not triangulate it, or the kept rows adapted cx
    and yet cut a preserved simplex."""


def rowwise_restrict(cx: GeoComplex, part: GeoComplex, fallback: bool = True) -> GeoComplex:
    """``subdivide.restrict`` slicing the whole complex by one row at a
    time (``slice_complex``), a new complex per cutting row; the reference
    for its one-pass slicing.  Rows and input errors are restrict's.  When
    the kept rows do not adapt cx, the left-out rows slice on, unshifted,
    or with ``fallback`` False the restriction is refused, as restrict did
    before it fell back.  Both end checks stay: the result must be adapted,
    and when the kept rows adapted it, every preserved simplex must be in
    it; a failure raises ``RestrictionRefused``."""
    if cx.ambient_dim != part.ambient_dim:
        raise subdivide.SupportMismatch("containment violation: ambient dimensions differ")
    if not subdivide.covers(cx, part):
        raise subdivide.SupportMismatch(
            "containment violation: |P| is not inside the support")
    inside = subdivide.inside_subcomplex(cx, part)
    if subdivide._adapted(inside, part):
        return cx
    protected = inside.maximal_simplexes() if inside is not None else ()

    def crosses_protected(row) -> bool:
        for s in protected:
            vals = [sum(map(mul, row, x)) for x in s._vertex_rows]
            if any(x > 0 for x in vals) and any(x < 0 for x in vals):
                return True
        return False

    rows, left_out = [], []
    for q in part.maximal_simplexes():
        eqs, ineqs, _ = q._point_rows
        for e in eqs:
            (left_out if crosses_protected(e) else rows).append(e)
        for f in ineqs:
            row = next((r for r in subdivide._shifts(f, eqs) if not crosses_protected(r)),
                       None)
            if row is None:
                left_out.append(f)
            else:
                rows.append(row)

    def adapted(out) -> bool:
        return subdivide._adapted(subdivide.inside_subcomplex(out, part), part)

    out = cx
    for row in rows:
        out = slice_complex(out, row)
    if adapted(out):
        missing = [s for s in protected if s not in out]
        if missing:
            raise RestrictionRefused(
                f"restriction failed to preserve interior simplexes: {missing[:3]}")
        return out
    if not fallback:
        raise RestrictionRefused("restriction failed to adapt to |P|")
    for row in left_out:
        out = slice_complex(out, row)
    if not adapted(out):
        raise RestrictionRefused("restriction failed to adapt to |P|")
    return out


def restricted_fixes_pointwise(eta, part) -> bool:
    """``zmaps.fixes_pointwise`` from before it refined part: restrict eta's
    domain to |part| (``subdivide.restrict``) and test fixity on the
    vertices of the inside subcomplex."""
    try:
        refined = subdivide.restrict(eta.domain, part)
    except subdivide.SupportMismatch:
        raise zmaps.DomainError("containment failure: |P| is not inside the domain") from None
    inside = subdivide.inside_subcomplex(refined, part)
    return all(eta.eval(v) == v for v in inside.vertices())


def clip_fixes_pointwise(eta, part) -> bool:
    """Does eta fix every vertex of every cell s cap q, for maximal
    simplexes s of part and q of eta's domain (``linalg.clip_simplex``)?
    eta is affine on each cell, and when |part| lies in |domain| the cells
    cover it, so this decides fixity on |part|; nothing is triangulated."""
    for s in part.maximal_simplexes():
        for q in eta.domain.maximal_simplexes():
            eqs, bary, _ = q._point_rows
            rows = [*eqs, *(tuple(-c for c in e) for e in eqs), *bary]
            for x, _ in linalg.clip_simplex(s._vertex_rows, rows):
                p = RPoint(tuple(Fraction(c, x[-1]) for c in x[:-1]))
                if eta.eval(p) != p:
                    return False
    return True


def scan_image_leaving(eta, cx):
    """The first maximal simplex of eta's domain whose image hull is not
    inside |cx|, each tested with ``caratheodory_supports``; the reference
    for ``zmaps._image_leaving``."""
    cover = cx.maximal_simplexes()
    return next((s for s in eta.domain.maximal_simplexes()
                 if not caratheodory_supports(cover, eta.image_simplex_points(s))),
                None)


def locate_eval(eta, p: RPoint) -> RPoint:
    """Barycentric interpolation of eta's vertex images in the maximal
    simplex ``GeoComplex._locate`` finds for p, vertices included; the
    reference for ``PLMap.eval``."""
    found = eta.domain._locate(p)
    if found is None:
        raise zmaps.DomainError(f"point not in support: {p}")
    s, w = found
    q = sum(w)  # the weights add up to their common denominator
    coords = [Fraction(0)] * eta.codomain_dim
    for weight, v in zip(w, s.vertices):
        for i, c in enumerate(eta.images[v].coords):
            coords[i] += weight * c
    return RPoint(tuple(c / q for c in coords))


def _split_off_simplex(piece, t: GeoSimplex):
    """Split a cell along the H-representation of t.

    piece is (vertices, ineq forms).  Returns (inside, outside) where inside
    sub-cells are contained in t and outside sub-cells have relative
    interiors disjoint from t.  Pieces of lower dimension than the input are
    dropped: they are faces of retained pieces.
    """
    dim_piece = aff_dim(piece[0])
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
                if sub and aff_dim(sub) == dim_piece:
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
            if inter and aff_dim(inter) == aff_dim(piece[0]):
                inside, outside = _split_off_simplex(piece, t)
                rest = remaining[:idx] + remaining[idx + 1:]
                return all(covered(q, rest) for q in outside)
        return False

    return covered(start, list(cover))


def clip_is_subdivision(fine, coarse) -> bool:
    """True iff supports agree and every simplex of ``fine`` lies in some
    simplex of ``coarse``: a containment scan, then every maximal simplex
    of each complex measured against the other with ``scan_supports``, with
    no answer kept on either complex."""
    if fine.ambient_dim != coarse.ambient_dim:
        return False
    fm, cm = fine.maximal_simplexes(), coarse.maximal_simplexes()
    if not all(any(simplex_inside(s, t) for t in cm) for s in fm):
        return False
    return (all(scan_supports(cm, s) for s in fm)
            and all(scan_supports(fm, t) for t in cm))


def relint_contains(s: GeoSimplex, p: RPoint) -> bool:
    """p in the relative interior of s: every barycentric coordinate
    positive."""
    lam = s.barycentric(p)
    return lam is not None and all(c > 0 for c in lam)


def validating_parse_sequence(text: str) -> CollapseSequence:
    """A canonical sequence document parsed with every simplex built and
    checked by ``GeoSimplex``."""
    body = json.loads(text)

    def point(entry):
        return RPoint(tuple(Fraction(c) for c in entry))

    steps = tuple(CollapseStep(GeoSimplex(tuple(map(point, t))),
                               GeoSimplex(tuple(map(point, f))))
                  for t, f in body["steps"])
    return CollapseSequence(steps, GeoSimplex((point(body["terminal"]),)))


def _read_off(entry, points: dict, known) -> Optional[GeoSimplex]:
    """The simplex ``entry`` lists, read with no sort and no rank check,
    when it lists points already parsed in this document and the tuple of
    their ids is in ``known``; otherwise None."""
    if not isinstance(entry, list) or not entry:
        return None
    try:
        found = [points.get(tuple(e)) if type(e) is list else None for e in entry]
    except TypeError:  # an array in a point: the parser reports it
        return None
    return GeoSimplex._raw(tuple(found)) if tuple(map(id, found)) in known else None


def _facet_ids(s: GeoSimplex) -> list[tuple[int, ...]]:
    ids = tuple(map(id, s.vertices))
    return [ids[:j] + ids[j + 1:] for j in range(len(ids))]


def read_off_parse_sequence(body: dict, points: dict, where: str = "",
                            ccx: Optional[GeoComplex] = None) -> CollapseSequence:
    """``scx._parse_sequence`` with the same arguments, reading a simplex
    off earlier steps by ``_read_off`` and checking every pair with
    ``CollapseStep``."""
    if not isinstance(body, dict):
        raise scx.ScxError("a collapse sequence must be a JSON object", where.rstrip("."))
    steps_in = body.get("steps")
    terminal_in = body.get("terminal")
    if not isinstance(steps_in, list):
        raise scx.ScxError("'steps' must be an array", where + "steps")
    terminal = scx._parse_point(terminal_in, where + "terminal", points)
    steps = []
    faces: set[tuple[int, ...]] = set()
    if ccx is not None and ccx.ambient_dim == terminal.dim:
        faces.update(tuple(map(id, m.vertices)) for m in ccx.maximal_simplexes())
    for i, pair in enumerate(steps_in):
        at = f"{where}steps[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise scx.ScxError("each step is [maximal, free_facet]", at)
        t = (_read_off(pair[0], points, faces)
             or scx._parse_simplex(pair[0], terminal.dim, at + "[0]", points))
        facets = _facet_ids(t)
        f = (_read_off(pair[1], points, facets)
             or scx._parse_simplex(pair[1], terminal.dim, at + "[1]", points))
        try:
            steps.append(CollapseStep(t, f))
        except ValueError as exc:
            raise scx.ScxError(str(exc), at) from None
        faces.update(facets)
        faces.update(_facet_ids(f))
        faces.difference_update((tuple(map(id, t.vertices)), tuple(map(id, f.vertices))))
    return CollapseSequence(tuple(steps), GeoSimplex((terminal,)))


def full_row_bareiss(rows, reduced: bool = False):
    """``linalg._bareiss`` updating every row in full, with a scan for
    every pivot."""
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
            b = m[i][c]
            if b and i != r:
                m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], top)]
            elif not b and a != prev:
                m[i] = [a * x // prev for x in m[i]]
        prev = a
        pivots.append(c)
        r += 1
    return m, pivots, sign


def slice_bareiss(rows: Sequence[Sequence[int]], reduced: bool = False
                  ) -> tuple[list[list[int]], list[int], int]:
    """``linalg._bareiss`` updating a row below the pivot through slices:
    the fraction-free row echelon form of integer rows (Bareiss 1968).

    Returns (the rows, the pivot columns, the sign of the row swaps).  Each
    step replaces every entry x of a row below the pivot a by
    (a x - b y) / p, for the row's entry b in the pivot column, the pivot
    row's entry y in x's column and the previous pivot p; Sylvester's
    identity makes every entry a minor of the input, so the division is
    exact.  A row with b = 0 becomes a x / p, so it is left as it is when
    a = p.  A column without a nonzero entry is skipped, so the pivot
    columns are the lexicographically first maximal set of independent
    columns, and the last pivot of a nonsingular square matrix is its
    determinant up to the sign.  The pivot row and every row below it are
    0 left of the pivot column, and stay 0, and a row below gets 0 in the
    pivot column, so it is updated right of that column only; the pivot is
    the diagonal entry when that is nonzero, with no scan.  With
    ``reduced`` the rows above the pivot are treated alike, whole
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
        if not m[r][c]:
            pivot = next((i for i in range(r + 1, nrows) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        a = top[c]
        for i in range(r if reduced else 0):
            b = m[i][c]
            if b:
                m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], top)]
            elif a != prev:
                m[i] = [a * x // prev for x in m[i]]
        c1 = c + 1
        tail = top[c1:]
        for i in range(r + 1, nrows):
            row = m[i]
            b = row[c]
            if b:
                row[c1:] = [(a * x - b * y) // prev for x, y in zip(row[c1:], tail)]
                row[c] = 0
            elif a != prev:
                row[c1:] = [a * x // prev for x in row[c1:]]
        prev = a
        pivots.append(c)
        r += 1
    return m, pivots, sign


def saturation_is_regular(s: GeoSimplex) -> bool:
    """``regular.is_regular`` by the saturation test on every simplex, from
    before a full-dimensional one was read off its determinant."""
    return len(s.vertices) == 1 or _saturated(list(map(list, s._vertex_rows)))


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


class NotAnElementaryCollapse(ValueError):
    pass


def elementary_collapse(cx: GeoComplex, t: GeoSimplex, f: GeoSimplex) -> GeoComplex:
    """Remove exactly {T, F}; errors unless (T, F) is a free pair."""
    table = _FaceTable(cx, _closure(cx._ranks))
    i, j = (table.id.get(tuple(map(table.index.get, s.vertices))) for s in (t, f))
    if j is None or table.count[j] != 1 or table.xor[j] != i:
        raise NotAnElementaryCollapse("not an elementary collapse")
    return GeoComplex(cx.simplexes - {t, f}, validate=False)


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


def point_lookup_replay(cx, seq) -> bool:
    """``collapse.replay`` walking ``seq.steps``: each distinct vertex
    object of the steps is looked up by point once, and then by its id."""
    table = _FaceTable(cx, _closure(cx._ranks))
    ids, facets, count, xor, live = table.id, table.facets, table.count, table.xor, table.live
    ranks: dict[int, Optional[int]] = {}  # id of a vertex object -> its rank

    def face(vs: tuple) -> Optional[int]:
        try:
            return ids.get(tuple(map(ranks.__getitem__, map(id, vs))))
        except KeyError:
            for v in vs:
                if id(v) not in ranks:
                    ranks[id(v)] = table.index.get(v)
            return face(vs)

    for step in seq.steps:
        t, f = face(step.maximal.vertices), face(step.free_facet.vertices)
        if f is None or count[f] != 1 or xor[f] != t:
            return False
        for s in (t, f):
            live[s] = 0
            for g in facets[s]:
                count[g] -= 1
                xor[g] ^= s
    return table.n - 2 * len(seq.steps) == 1 and table.geo(live.index(1)) == seq.terminal


def id_walk_sequence(seq, depth: int, memo: dict) -> list:
    """``scx._sequence`` walking ``seq.steps``: a step is two joins of the
    blocks of its vertex objects, looked up by id."""
    i2, i3, i4 = ("\n" + "  " * (depth + k) for k in (2, 3, 4))
    terminal = scx._blocks(seq.terminal.vertices, depth + 1, memo)
    block = memo.setdefault(depth + 4, {}).__getitem__
    sep, lead = "," + i4, "," + i2 + "[" + i3 + "[" + i4
    middle, closing = i3 + "]," + i3 + "[" + i4, i3 + "]" + i2 + "]"
    pieces = []
    for st in seq.steps:
        t, f = st.maximal.vertices, st.free_facet.vertices
        try:
            jt, jf = sep.join(map(block, map(id, t))), sep.join(map(block, map(id, f)))
        except KeyError:  # a vertex object met for the first time
            scx._blocks(t + f, depth + 4, memo)
            jt, jf = sep.join(map(block, map(id, t))), sep.join(map(block, map(id, f)))
        pieces += (lead, jt, middle, jf, closing)
    return [("steps", scx._close(pieces, depth + 1)), ("terminal", terminal)]


def lp_maximize(rows, rhs, objective):
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


def lp_meet_in_common_face(a: GeoSimplex, b: GeoSimplex) -> bool:
    """a cap b = conv(shared vertices), by one exact LP; the reference for
    ``complexes._meet_in_common_face``.

    A point of a cap b is sum(mu_v v) over the vertices of a and
    sum(nu_w w) over those of b, with mu, nu >= 0 summing to 1 each.  The
    vertices of a are affinely independent, so mu is the point's
    barycentric coordinate vector in a, and the point lies in conv(shared)
    exactly when mu vanishes off the shared vertices.  The LP maximises
    that off-shared mass over a cap b: the pair meets in a common face iff
    the LP is infeasible (a cap b is empty) or its optimum is 0.
    """
    if not _bbox_overlap(a._box, b._box):
        return True
    shared = set(a.vertices) & set(b.vertices)
    # Variables (mu, nu); the column of a vertex v of a is (v, 1, 0) and
    # that of a vertex w of b is (-w, 0, 1).
    cols = ([v.coords + (1, 0) for v in a.vertices]
            + [tuple(-c for c in w.coords) + (0, 1) for w in b.vertices])
    rhs = (0,) * a.ambient_dim + (1, 1)
    off_shared = [0 if v in shared else 1 for v in a.vertices] + [0] * len(b.vertices)
    best = lp_maximize(list(zip(*cols)), rhs, off_shared)
    return best is None or best == 0


def enumerate_meet_in_common_face(a: GeoSimplex, b: GeoSimplex) -> bool:
    """a cap b = conv(shared vertices), by enumerating the vertices of a cap b
    and testing each against the shared face; the reference for
    ``complexes._meet_in_common_face``."""
    if not _bbox_overlap(a._box, b._box):
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


def face_stellar(cx, p: RPoint):
    """Elementary stellar subdivision at p that walks every simplex of the
    complex and cones every face of the star avoiding the carrier; the
    reference for ``subdivide.stellar``."""
    car = cx.carrier(p)
    if car is None:
        raise subdivide.PointNotInSupport(f"point not in support: {p}")
    if car.dim == 0:
        return cx
    cv = set(car.vertices)
    out = {GeoSimplex((p,))}
    for s in cx.simplexes:
        if not cv <= set(s.vertices):
            out.add(s)
            continue
        for k in range(1, len(s.vertices) + 1):
            for sub in combinations(s.vertices, k):
                if not cv <= set(sub):
                    out.add(GeoSimplex._raw(tuple(sorted(sub + (p,)))))
    return GeoComplex(out, validate=False)


def scan_replace_star(maximal: set[GeoSimplex], p: RPoint,
                      carrier: frozenset) -> list[GeoSimplex]:
    """Turn the maximal simplexes M of a complex K into those of the
    elementary stellar subdivision stellar(K, p), in place; return the
    cones added.  ``carrier`` is the vertex set of the simplex C of K holding
    p in its relative interior, with at least two vertices.  The star is
    found by scanning every m in M; the reference for
    ``subdivide._Stars.replace``."""
    star = [m for m in maximal if carrier.issubset(m.vertices)]
    maximal.difference_update(star)
    cones = [GeoSimplex._raw(tuple(sorted([v for v in m.vertices if v != u] + [p])))
             for m in star for u in carrier]
    maximal.update(cones)
    return cones


def rebuild_desingularize(cx, budget: int = 10_000):
    """Blow up the least non-regular maximal simplex at its box point with
    ``face_stellar`` on the whole complex, rebuilding the complex and its
    maximal simplexes every step; the reference for
    ``regular.desingularize``."""
    steps = 0
    while True:
        bad = sorted((s for s in cx.maximal_simplexes() if not is_regular(s)),
                     key=lambda s: (s.dim, s.vertices))
        if not bad:
            return cx
        cx = face_stellar(cx, _box_point(bad[0])[0])
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")


def rebuild_desingularize_relative(cx, part, budget: int = 10_000):
    """Recompute the subcomplex inside |part| and blow up its least
    non-regular maximal simplex with ``face_stellar`` on the whole complex,
    every step; the reference for ``regular.desingularize_relative``."""
    if not subdivide._adapted(subdivide.inside_subcomplex(cx, part), part):
        raise ValueError("precondition violation: the inside subcomplex "
                         "does not triangulate |P|")
    steps = 0
    while True:
        inside = subdivide.inside_subcomplex(cx, part)
        bad = [s for s in inside.maximal_simplexes() if not is_regular(s)]
        if not bad:
            return cx
        cx = face_stellar(
            cx, _box_point(min(bad, key=lambda s: (s.dim, s.vertices)))[0])
        steps += 1
        if steps > budget:
            raise BudgetExhausted("desingularization budget exhausted")


def volume_triangulates_cube(cx) -> bool:
    """|cx| = [0,1]^n, decided through exact volumes: the n-simplexes of a
    complex in the cube fill it when their volumes add up to 1, that is
    their n!-fold volumes (``relative_volume_total``) to n!.
    The reference for ``GeoComplex._is_cube`` on simplicial complexes."""
    n = cx.ambient_dim
    for v in cx.vertices():
        if any(c < 0 or c > 1 for c in v.coords):
            return False
    return (cx.dim == n and relative_volume_total(
        cx.maximal_simplexes()) == math.factorial(n))


def rows_triangulates_cube(cx) -> bool:
    """``complexes._triangulates_cube`` as it was before it read each
    simplex's determinant: (a)-(d) as there, then (e) a's barycentric row
    for its vertex off a shared facet is negative at b's vertex off it, and
    (f) the barycentre of the first maximal simplex lies in exactly one.
    The reference for the orientation and volume test."""
    n, maxi, verts = cx.ambient_dim, cx.maximal_simplexes(), cx.vertices()
    if any(len(s.vertices) != n + 1 for s in maxi):
        return False
    low, high = [], []  # per vertex: the axes where it is 0, and where it is 1
    for v in verts:
        *x, d = v._homog
        if min(x) < 0 or max(x) > d:
            return False
        low.append(sum(1 << j for j, c in enumerate(x) if c == 0))
        high.append(sum(1 << j for j, c in enumerate(x) if c == d))
    full = (1 << n) - 1
    if sum(lo | hi == full for lo, hi in zip(low, high)) != 1 << n:
        return False
    facets: dict[tuple[int, ...], list] = {}
    for s, r in zip(maxi, cx._ranks):
        for i in range(n + 1):
            facets.setdefault(r[:i] + r[i + 1:], []).append((s, i))
    for key, holders in facets.items():
        if len(holders) == 1:
            if not (reduce(and_, (low[k] for k in key))
                    or reduce(and_, (high[k] for k in key))):
                return False
        elif len(holders) == 2:
            (a, i), (b, j) = holders
            if sum(map(mul, a._point_rows[1][i], b._vertex_rows[j])) >= 0:
                return False
        else:
            return False
    x = maxi[0].barycenter()._homog
    return sum(min(s._weights(x)) >= 0 for s in maxi) == 1


def relative_volume_total(simplexes) -> Fraction:
    """Sum of top-dimension volumes measured in projected coordinates.

    All inputs must share one affine hull (pieces of a single simplex);
    projecting to a coordinate subspace that is injective on the hull
    (``subdivide._volume_axes``) keeps volumes rational and makes exact
    coverage comparisons valid.  The common factor d! is left out.
    """
    if not simplexes:
        return Fraction(0)
    d = max(s.dim for s in simplexes)
    axes = subdivide._volume_axes(next(s for s in simplexes if s.dim == d))
    return sum((Fraction(*s._volume(axes)) for s in simplexes if s.dim == d),
               Fraction(0))


def simplex_volume(points) -> Fraction:
    """Full-dimensional volume of a simplex in its ambient space, zero when
    the simplex is not full-dimensional; the reference for the volume sum
    ``relative_volume_total`` that ``volume_triangulates_cube`` measures
    the cube with.  With homogeneous vectors X_j = d_j(p_j, 1), n! times the volume
    is |det(X_j)| / prod d_j."""
    n = len(points[0])
    if len(points) != n + 1:
        return Fraction(0)
    xs = [linalg.homogeneous(p) for p in points]
    return Fraction(abs(linalg.det(xs)),
                    math.prod(x[-1] for x in xs) * math.factorial(n))


def smith_with_transforms(entries):
    """Full Smith decomposition U * A * V = D with U, V unimodular, once
    ``IntMat`` has checked the entries.  Returns (U, D, V); the diagonal of
    D holds the invariant factors.  Two matrices are updated beside A: U
    by every row operation and V by every column operation."""
    a = [list(r) for r in IntMat.from_rows(entries).entries]
    nr, nc = len(a), len(a[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(j, i, q):  # col_j -= q * col_i
        for row in a:
            row[j] -= q * row[i]
        for row in v:
            row[j] -= q * row[i]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def diagonalize(start: int) -> None:
        top = start
        while top < nr and top < nc:
            best = None
            for i in range(top, nr):
                for j in range(top, nc):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(top, best[0])
            swap_cols(top, best[1])
            dirty = False
            for i in range(top + 1, nr):
                q = a[i][top] // a[top][top]
                if q:
                    row_op(i, top, q)
                if a[i][top] != 0:
                    dirty = True
            for j in range(top + 1, nc):
                q = a[top][j] // a[top][top]
                if q:
                    col_op(j, top, q)
                if a[top][j] != 0:
                    dirty = True
            if dirty:
                continue
            if a[top][top] < 0:
                a[top] = [-x for x in a[top]]
                u[top] = [-x for x in u[top]]
            top += 1

    diagonalize(0)
    # Divisibility fix-up: whenever d_i does not divide d_j, fold column j
    # into column i and re-diagonalize from i; the pivot there becomes
    # gcd(d_i, d_j), so the chain strictly improves and the loop terminates.
    size = min(nr, nc)
    while True:
        violation = next(((i, j) for i in range(size) for j in range(i + 1, size)
                          if (a[j][j] % a[i][i] if a[i][i] else a[j][j])), None)
        if violation is None:
            return u, a, v
        i, j = violation
        for row in a:
            row[i] += row[j]
        for row in v:
            row[i] += row[j]
        diagonalize(i)


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


def has_strongly_regular_triangulation(p: GeoComplex, budget: int = 10_000) -> bool:
    """Decide condition (iii): desingularize, then test strong regularity.

    Strong regularity is a property of the polyhedron, not of the chosen
    triangulation, so the verdict is triangulation-independent.
    """
    return is_strongly_regular(desingularize(p, budget=budget))


def desingularizing_certify(part: GeoComplex, budget: int = 100_000,
                            desing_budget: int = 10_000) -> zmaps.RetractVerdict:
    """``zmaps.certify_main`` deciding (iii) on a desingularization of P,
    which it runs on every input."""
    for *x, d in (v._homog for v in part.vertices()):
        if min(x) < 0 or max(x) > d:
            raise zmaps.DomainError("|P| must lie inside the unit cube")
    lattice = zmaps._lattice_points_in(part)
    try:
        sigma = desingularize(part, budget=desing_budget)
    except BudgetExhausted:
        sigma = None
    failed = []
    if not lattice:
        failed.append("(ii)")
    if sigma is not None and not is_strongly_regular(sigma):
        failed.append("(iii)")
    if failed:
        return zmaps.RetractVerdict("refuted", refutation_reason=",".join(failed))
    if sigma is None:
        return zmaps.RetractVerdict("unknown")
    for candidate in (part,) if sigma is part else (part, sigma):
        seq = find_collapse_sequence(candidate, budget=budget)
        if seq is not None:
            return zmaps.RetractVerdict("certified", witnesses=zmaps.RetractWitnesses(
                collapse_complex=candidate, collapse_sequence=seq,
                lattice_vertex=lattice[0], strongly_regular=sigma))
    return zmaps.RetractVerdict("unknown")


def _json_point(p: RPoint) -> list:
    return [format_rat(c) for c in p.coords]


def _json_simplex(s: GeoSimplex) -> list:
    return [_json_point(v) for v in s.vertices]


def _json_complex(cx: GeoComplex) -> dict:
    return {"dim": cx.ambient_dim,
            "maximal_simplexes": [_json_simplex(s) for s in cx.maximal_simplexes()]}


def _json_payload(kind: str, payload) -> dict:
    """The JSON value of a payload, built from its simplexes and points
    alone: the body ``scx`` printed before it printed simplexes by joins."""
    if kind == "complex":
        return _json_complex(payload)
    if kind == "plmap":
        body = _json_complex(payload.domain)
        body["codomain_dim"] = payload.codomain_dim
        body["vertex_images"] = [[_json_point(v), _json_point(payload.images[v])]
                                 for v in payload.domain.vertices()]
        return body
    if kind == "weighted":
        return {"vertices": [str(v) for v in payload.base.vertices],
                "faces": sorted(sorted(f) for f in payload.base.faces),
                "weights": list(payload.weights)}
    if kind == "sequence":
        return {"steps": [[_json_simplex(st.maximal), _json_simplex(st.free_facet)]
                          for st in payload.steps],
                "terminal": _json_point(payload.terminal.vertices[0])}
    body = {"status": payload.status}
    if payload.refutation_reason:
        body["refutation_reason"] = payload.refutation_reason
    wit = payload.witnesses
    if wit:
        wbody = {}
        if wit.lattice_vertex is not None:
            wbody["lattice_vertex"] = _json_point(wit.lattice_vertex)
        if wit.collapse_complex is not None:
            wbody["collapse_complex"] = _json_complex(wit.collapse_complex)
        if wit.collapse_sequence is not None:
            wbody["collapse_sequence"] = _json_payload("sequence", wit.collapse_sequence)
        if wit.strongly_regular is not None:
            wbody["strongly_regular"] = _json_complex(wit.strongly_regular)
        body["witnesses"] = wbody
    return body


def json_print_scx(doc) -> str:
    """The canonical text of a document, printed by the ``json`` module."""
    body = {"version": doc.version, "kind": doc.kind}
    body.update(_json_payload(doc.kind, doc.payload))
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _point_out(p: RPoint, memo: dict) -> tuple[str, ...]:
    """The coordinate texts of p, formatted once per document: ``memo``
    maps each point printed so far to its tuple."""
    text = memo.get(p)
    if text is None:
        text = memo[p] = p._texts()
    return text


# The lists of a body that ``_emit`` prints by joins: a complex's maximal
# simplexes, as the texts of its vertex table and its rank tuples
# (``GeoComplex._ranks``), and a sequence's steps, with the point memo.
_Simplexes = namedtuple("_Simplexes", "texts ranks")
_Steps = namedtuple("_Steps", "steps memo")


def _complex_body(cx: GeoComplex, memo: dict) -> dict:
    texts = [_point_out(v, memo) for v in cx.vertices()]
    return {"dim": cx.ambient_dim, "maximal_simplexes": _Simplexes(texts, cx._ranks)}


def _payload_body(kind: str, payload, memo: dict) -> dict:
    if kind == "complex":
        return _complex_body(payload, memo)
    if kind == "plmap":
        body = _complex_body(payload.domain, memo)
        body["codomain_dim"] = payload.codomain_dim
        body["vertex_images"] = [
            [_point_out(v, memo), _point_out(payload.images[v], memo)]
            for v in payload.domain.vertices()]
        return body
    if kind == "weighted":
        w: WeightedComplex = payload
        return {
            "vertices": [str(v) for v in w.base.vertices],
            "faces": sorted(sorted(f) for f in w.base.faces),
            "weights": list(w.weights),
        }
    if kind == "sequence":
        seq: CollapseSequence = payload
        return {
            "steps": _Steps(seq.steps, memo),
            "terminal": _point_out(seq.terminal.vertices[0], memo),
        }
    if kind == "verdict":
        verdict: RetractVerdict = payload
        body: dict = {"status": verdict.status}
        if verdict.refutation_reason:
            body["refutation_reason"] = verdict.refutation_reason
        if verdict.witnesses:
            wit = verdict.witnesses
            wbody = {}
            if wit.lattice_vertex is not None:
                wbody["lattice_vertex"] = _point_out(wit.lattice_vertex, memo)
            if wit.collapse_complex is not None:
                wbody["collapse_complex"] = _complex_body(wit.collapse_complex, memo)
            if wit.collapse_sequence is not None:
                wbody["collapse_sequence"] = _payload_body(
                    "sequence", wit.collapse_sequence, memo)
            if wit.strongly_regular is not None:
                wbody["strongly_regular"] = _complex_body(wit.strongly_regular, memo)
            body["witnesses"] = wbody
        return body
    raise scx.ScxError(f"unknown kind {kind!r}")


def _emit(body: dict) -> str:
    """The text ``json.dumps`` prints for ``body`` with sorted keys and an
    indent of 2, for a body of dicts with string keys, lists, tuples of
    strings, strings and ints, and the lists ``_Simplexes`` and ``_Steps``.

    A tuple is a point: its block is rendered once for each depth at which
    it appears and reused at every later occurrence, which is what lets
    one dict lookup stand for a vertex repeated in many simplexes.  In a
    ``_Simplexes`` or ``_Steps`` each vertex's block is looked up once, by
    rank or by the id of its point object, and a simplex is one join of its
    vertices' blocks, a step one concatenation of two such joins.
    """
    out: list[str] = []
    put = out.append
    blocks: dict = {}  # (point, depth) -> its rendered block

    def block(x: tuple, depth: int) -> str:
        text = blocks.get((x, depth))
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            text = blocks[x, depth] = (
                "[" + inner + ("," + inner).join(map(encode_basestring_ascii, x))
                + "\n" + "  " * depth + "]")
        return text

    def joins(x, depth: int) -> None:
        """The list x at depth, a ``_Simplexes`` or a ``_Steps``.  Each item
        is one string led by its separator, and the first item's comma is
        the opening bracket, so the items go out with no join of the list."""
        i0, i1, i2, i3 = ("\n" + "  " * (depth + k) for k in range(4))
        if type(x) is _Simplexes:
            vb = [block(t, depth + 2) for t in x.texts]
            opening, sep = "," + i1 + "[" + i2, "," + i2
            items = [opening + sep.join(map(vb.__getitem__, r)) + i1 + "]" for r in x.ranks]
        else:
            by_id: dict[int, str] = {}  # id of a point object -> its block
            sep = "," + i3

            def joined(vs) -> str:
                try:
                    return sep.join(map(by_id.__getitem__, map(id, vs)))
                except KeyError:
                    for v in vs:
                        if id(v) not in by_id:
                            by_id[id(v)] = block(_point_out(v, x.memo), depth + 3)
                    return joined(vs)

            opening, middle = "," + i1 + "[" + i2 + "[" + i3, i2 + "]," + i2 + "[" + i3
            items = [opening + joined(st.maximal.vertices) + middle
                     + joined(st.free_facet.vertices) + i2 + "]" + i1 + "]"
                     for st in x.steps]
        out.extend(["[" + items[0][1:], *items[1:], i0 + "]"] if items else ["[]"])

    def value(x, depth: int) -> None:
        kind = type(x)
        if kind is str:
            put(encode_basestring_ascii(x))
        elif kind is tuple:
            put(block(x, depth))
        elif kind is list:
            if not x:
                put("[]")
                return
            inner = "\n" + "  " * (depth + 1)
            put("[" + inner)
            for i, item in enumerate(x):
                if i:
                    put("," + inner)
                value(item, depth + 1)
            put("\n" + "  " * depth + "]")
        elif kind is _Simplexes or kind is _Steps:
            joins(x, depth)
        elif kind is dict:
            if not x:
                put("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            put("{" + inner)
            for i, key in enumerate(sorted(x)):
                if i:
                    put("," + inner)
                put(encode_basestring_ascii(key) + ": ")
                value(x[key], depth + 1)
            put("\n" + "  " * depth + "}")
        elif kind is int:
            put(int.__repr__(x))
        else:
            raise TypeError(f"cannot print a {kind.__name__} in .scx")

    value(body, 0)
    text = "".join(out)
    # ``value`` calls itself, so the closures of this call form a cycle that
    # lives until the next collection; emptying ``out`` frees the pieces now.
    out.clear()
    return text


def walk_print_scx(doc) -> str:
    """The canonical text of a document, printed by walking its body."""
    body = {"version": doc.version, "kind": doc.kind}
    body.update(_payload_body(doc.kind, doc.payload, {}))
    return _emit(body) + "\n"


def is_zmap_by_fit(eta) -> bool:
    """Directly fit an integer-coefficient affine map on every maximal
    simplex; the reference for ``zmaps.is_zmap`` (the two agree on regular
    domains)."""
    return all(_integer_fit_exists(s, eta.image_simplex_points(s))
               for s in eta.domain.maximal_simplexes())


def _integer_fit_exists(s: GeoSimplex, images) -> bool:
    """Is there an integer matrix [A | b] with A v_i + b = images_i on s?

    Written homogeneously: T . den(v_i)(v_i, 1) = den(v_i) * images_i must
    be solvable for an integer T, which the Smith form of the vertex matrix
    decides column by column.
    """
    hv = s._vertex_rows
    rhs_cols = []
    for v, img in zip(s.vertices, images):
        d = den(v)
        col = [d * c for c in img.coords]
        if any(x.denominator != 1 for x in col):
            return False
        rhs_cols.append([int(x) for x in col])
    # Solve T V = Y over the integers: V columns are the homogeneous vertex
    # vectors ((n+1) x k), Y columns are rhs_cols (m x k).
    v_mat = [list(col) for col in zip(*hv)]  # (n+1) x k
    _, d_mat, w = smith_with_transforms(v_mat)
    # T V = Y  <=>  (T U^-1)(U V W) = Y W  with U V W = D.
    y = [list(col) for col in zip(*rhs_cols)]  # m x k
    yw = _int_matmul(y, w)
    k = len(v_mat[0])
    for j in range(k):
        dj = d_mat[j][j] if j < len(d_mat) and j < len(d_mat[j]) else 0
        for i in range(len(yw)):
            if dj == 0:
                if yw[i][j] != 0:
                    return False
            elif yw[i][j] % dj != 0:
                return False
    return True


def _int_matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)]


def simplicially_isomorphic(a: GeoComplex, b: GeoComplex):
    """A vertex bijection identifying the two skeletons, or None.

    Exhaustive backtracking with degree-vector pruning; complexes at desk
    scale keep this cheap.  It recurses once per vertex, so a path of 1,200
    edges passes Python's default recursion limit.
    """
    sa, sb = skeleton(a), skeleton(b)
    va, vb = list(sa.vertices), list(sb.vertices)
    # The skeletons' faces as sets of vertex labels.
    fa, fb = ({frozenset(map(sk.vertices.__getitem__, f)) for f in sk.faces}
              for sk in (sa, sb))
    if len(va) != len(vb) or len(fa) != len(fb):
        return None

    def profile(faces, v):
        sizes = sorted(len(f) for f in faces if v in f)
        return tuple(sizes)

    prof_a = {v: profile(fa, v) for v in va}
    prof_b = {w: profile(fb, w) for w in vb}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return None

    faces_by_v_a = {v: [f for f in fa if v in f] for v in va}
    assignment: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(va):
            return True
        v = va[i]
        for w in vb:
            if w in used or prof_a[v] != prof_b[w]:
                continue
            ok = True
            for f in faces_by_v_a[v]:
                if all(u in assignment or u == v for u in f):
                    img = frozenset(assignment.get(u, w) for u in f)
                    if img not in fb:
                        ok = False
                        break
            if not ok:
                continue
            assignment[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del assignment[v]
            used.discard(w)
        return False

    if not extend(0):
        return None
    # The face counts match, so face-preservation in one direction plus
    # bijectivity gives the reverse direction as well.
    return dict(assignment)


def anchor(p: GeoComplex, v: RPoint,
           budget: int = 10_000) -> Optional[tuple[RPoint, Fraction]]:
    """A witness (w, eps) with w integral and conv(v, v + eps(w - v)) inside
    |P|, or None when the candidate family is exhausted.

    Lattice points anchor themselves.  When |P| has a strongly regular
    triangulation the witness is built from a coprime-denominator companion
    point, which always succeeds; otherwise integer points in a box of
    radius den(v) * n are tried and absence is reported on exhaustion.
    ``budget`` bounds both the stellar steps of the desingularization and
    the lattice points tried; past either, ``BudgetExhausted`` is raised.
    """
    if not p.contains_point(v):
        raise ValueError(f"point not in support: {v}")
    d = den(v)
    if d == 1:
        return v, Fraction(1)

    def segment_ok(w: RPoint, eps: Fraction) -> bool:
        end = RPoint(tuple(a + eps * (b - a) for a, b in zip(v.coords, w.coords)))
        return subdivide.supports(p, (v, end))

    sigma = desingularize(p, budget=budget)
    if is_strongly_regular(sigma):
        s = sigma.maximal_simplexes()[min(sigma.hosts(v))]
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
    incident = [p.maximal_simplexes()[i] for i in sorted(p.hosts(v))]
    box = range(-radius, radius + 1)
    for k, w_coords in enumerate(product(box, repeat=n)):
        if k == budget:
            raise BudgetExhausted("anchor lattice scan budget exhausted")
        w = RPoint(tuple(Fraction(c) for c in w_coords))
        if w == v:
            continue
        # Exit parameter: the largest eps keeping the segment in an incident
        # simplex; try each incident simplex.
        for s in incident:
            eps = exit_parameter(s, v, w)
            if eps is not None and eps > 0 and segment_ok(w, eps):
                return w, eps
    return None


def exit_parameter(s: GeoSimplex, v: RPoint, w: RPoint) -> Optional[Fraction]:
    """Largest eps in (0, 1] with v + eps(w - v) still inside s; None when
    the segment leaves the affine hull of s, or s at once.

    A row R of ``s._point_rows`` gives R X = D d f(p) for the vector
    X = d(p, 1) of a point p and its form f, so with a = R X_v and
    b = R X_w, f changes along the segment iff a d_w != b d_v, falls iff
    a d_w > b d_v, and then vanishes at eps = a d_w / (a d_w - b d_v).
    """
    eqs, bary, _ = s._point_rows
    x, y = _homogeneous(v, s.ambient_dim), _homogeneous(w, s.ambient_dim)

    def level_and_fall(row):
        a = sum(map(mul, row, x))
        return a * y[-1], a * y[-1] - sum(map(mul, row, y)) * x[-1]

    if any(level_and_fall(e)[1] for e in eqs):
        return None  # leaves the affine hull immediately
    eps = Fraction(1)
    for row in bary:
        level, fall = level_and_fall(row)
        if fall > 0:
            eps = min(eps, Fraction(level, fall))
    return eps if eps > 0 else None


def retarget_to_carrier_vertices(eta, target: GeoComplex,
                                 keep: Callable[[RPoint], bool]) -> zmaps.PLMap:
    """Replace non-kept vertex images by the least vertex of their carrier.

    Requires each domain simplex to map into a single simplex of target;
    the retargeted map still does (carrier minimality), so its image stays
    inside |target|.  A simplex maps into one target simplex iff its
    vertex images share a host (``GeoComplex.hosts``)."""
    if eta.codomain_dim != target.ambient_dim:
        raise ValueError(f"a point in R^{eta.codomain_dim} is not in R^{target.ambient_dim}")
    for s in eta.domain.maximal_simplexes():
        if not frozenset.intersection(*map(target.hosts, eta.image_simplex_points(s))):
            raise zmaps.DomainError("carrier precondition failure: a simplex image "
                                    "is not inside one target simplex")
    images = {}
    for v in eta.domain.vertices():
        img = eta.images[v]
        if keep(v):
            images[v] = img
            continue
        host = target.carrier(img)
        if host is None:
            raise zmaps.DomainError(f"carrier precondition failure: the image {img} "
                                    f"is not inside |target|")
        images[v] = min(host.vertices)
    return zmaps.PLMap(eta.domain, images)


@dataclass(frozen=True, eq=False)
class FractionRPoint:
    """``complexes.RPoint`` as the dataclass it was: it keeps ``Fraction``
    coordinates and caches its vector and its generated hash."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise ValueError("ambient dimension must be >= 1")
        object.__setattr__(self, "coords", tuple(map(Fraction, self.coords)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @_cached
    def _homog(self) -> tuple:
        return linalg.homogeneous(self.coords)

    @_cached
    def _hash(self) -> int:
        return hash((self.coords,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._homog == other._homog

    def _compare(self, other, op):
        x, y = self._homog, other._homog
        d, e = x[-1], y[-1]
        if d == e:
            return op(x[:-1], y[:-1])
        for a, b in zip(x[:-1], y[:-1]):
            if a * e != b * d:
                return op(a * e, b * d)
        return op(len(x), len(y))

    def __lt__(self, other):
        return self._compare(other, lt)

    def __le__(self, other):
        return self._compare(other, le)

    def __gt__(self, other):
        return self._compare(other, gt)

    def __ge__(self, other):
        return self._compare(other, ge)

    def __repr__(self):
        return "(" + ", ".join(format_rat(c) for c in self.coords) + ")"


def fraction_barycenter(s: GeoSimplex) -> RPoint:
    """``GeoSimplex.barycenter`` summing ``Fraction`` coordinates."""
    k = Fraction(1, len(s.vertices))
    coords = [Fraction(0)] * s.ambient_dim
    for v in s.vertices:
        for i, c in enumerate(v.coords):
            coords[i] += k * c
    return RPoint(tuple(coords))


def fraction_eval(eta, p: RPoint) -> RPoint:
    """``PLMap.eval`` interpolating ``Fraction`` coordinates, from before it
    combined the images' integer vectors."""
    if p in eta.images:
        return eta.images[p]
    found = eta.domain._locate(p)
    if found is None:
        raise zmaps.DomainError(f"point not in support: {p}")
    s, w = found
    q = sum(w)  # the weights add up to their common denominator
    coords = [Fraction(0)] * eta.codomain_dim
    for weight, v in zip(w, s.vertices):
        for i, c in enumerate(eta.images[v].coords):
            coords[i] += weight * c
    return RPoint(tuple(c / q for c in coords))


def closure_realize(w) -> GeoComplex:
    """``complexes.realize`` over every face of the closure of the abstract
    complex, from before it read only the faces given."""
    placed = _placement(w)
    return GeoComplex([GeoSimplex._raw(tuple(sorted(placed[v] for v in f)))
                       for f in w.base.faces], validate=False)


def stellar_chain(cx: GeoComplex, points: Sequence[RPoint]) -> GeoComplex:
    """Iterated elementary stellar subdivision."""
    for p in points:
        cx = subdivide.stellar(cx, p)
    return cx
