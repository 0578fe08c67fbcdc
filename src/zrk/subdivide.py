"""Subdivision machinery.

Elementary stellar subdivisions, subdivision checks by volume accounting,
common refinement by cell overlay, restriction of a triangulation to a
subpolyhedron, and refinement of a piecewise-linear map's domain until the
map is simplexwise compatible with a target triangulation.  A stellar
subdivision works on the maximal simplexes alone, held with the star of
each vertex (``_Stars``): it replaces those containing the carrier of the
new point, the intersection of its vertices' stars, by their cones.  The
same structure makes every blow-up of ``regular``'s desingularization and
of step H of ``zmaps.pipeline_dh``, so no other module holds a set of
maximal simplexes or finds a star.  Each move is handed p's coefficients
over the carrier's vertex vectors, which every caller already knows:
``stellar`` from the weights of its one point location, desingularization
from the box point (``regular._box_point``) and step H from the
barycentre.  A cone's determinant is then its parent's times the replaced
vertex's coefficient, with the sign of p's move, so every cone of a parent
that holds its determinant gets its own with no elimination
(``_Stars.replace``).

One cell kernel serves all of them: a cell is s cap t for a simplex s and a
simplex or halfspace t.  Its vertices, each with the mask of the
constraints tight at it, come from clipping s by t's halfspaces one at a
time (``linalg.clip_simplex``, the polytope kernel that also decides the
common-face condition of ``complexes``).  A cell whose masks all share a
bit lies in a hyperplane of aff(s) and is dropped.  One with the
dimension of s and dim s + 1 vertices is a simplex, its own triangulation;
only a cell with more vertices is triangulated by pulling its
lexicographically least vertex.  Pulling depends only on the face being
triangulated, and triangulates a simplex as itself, so adjacent cells
agree along shared faces and the union is again a simplicial complex.

One overlay serves ``supports``, ``common_refinement`` and
``refine_for_map``: ``_cells`` cuts a simplex s into its preimage cells in
the maximal simplexes of a target complex, for the affine map on s given by
its vertex images, the identity in the first two.  Images sharing a host
leave s whole, a target simplex whose integer box misses the images' box
is skipped with no clip, and only a map other than the identity pulls the
target's rows back (``_pullback_rows``).  ``common_refinement`` measures
no tiling, as its support checks have settled that the cells tile;
``refine_for_map`` measures one for every simplex it cuts unless the
target is convex and holds the vertex images, and returns the
map on the refinement: it images each new vertex on the simplex s it was
cut from, knowing s's vertex images (``GeoSimplex._image``, which
``PLMap.eval`` calls after locating a point), so no vertex is located.

One predicate answers every question "does this set lie in |K|?":
``supports(K, points)``, conv(points) inside |K|.  It reads each point's
hosts off K (``GeoComplex.hosts``), the maximal simplexes holding it: a
vertex of K is held exactly by its star, and any other point by the
simplexes having every vertex of its carrier, found by one point location
that K keeps in its host map (``GeoComplex._hosts``).  A point without
host leaves |K|, points sharing a host lie in it, and so do any points
with hosts when |K| is convex (``GeoComplex._is_convex``, which K keeps
and its subdivisions inherit).  Only the rest take the volume test on the
same pieces: the
cells of a simplex s in the maximal simplexes of K overlap only in
measure zero, so they cover s exactly when they tile it.  One tiling test
serves every such question (``_tiles``): pieces of the wholes' dimension
lying in the union of the wholes and overlapping in measure zero, as the
wholes do, tile that union exactly when their volumes, measured in the
first whole's projection (``GeoSimplex._volume``), add up to the wholes'
(De Loera, Rambau and Santos, *Triangulations*, 2010).  ``supports``
asks it of cells, ``refine_for_map`` of preimage cells, and the
subdivision test, which clips nothing, of the maximal simplexes of the
fine complex filed under the one coarse maximal simplex their vertices
share as hosts (``is_subdivision``), each of one whole s, as ``(s,)``;
``_adapted`` asks it of the n-simplexes of an inside subcomplex, with the
maximal simplexes of a P of n-simplexes of R^n as the wholes.  The sum
itself is ``complexes._adds_up``, which has one other caller: the cube
test's volume clause, which sums the maximal simplexes' volumes against
n!.

Two questions come up again and again about the same complexes: which
simplexes of K lie in |P| (``inside_subcomplex``), and whether |P| lies in
|K| (``covers``, which restrict's precondition and ``support_equal`` ask,
and ``_adapted`` for a P of lower dimension).  K keeps both answers per P
(``GeoComplex._answer``), so each is worked out once.  The first works on
vertex indices: K's faces are tuples of vertex ranks, each vertex's hosts
in P are read once, the two host tiers of ``supports`` are applied to the
rank tuples, and a face is made a simplex only when found inside.  Whether
that subcomplex I triangulates |P| (``_adapted``) is, for a P of
n-simplexes, a sum of volumes, and an I that does has the support of P,
so it takes P's kept answer to whether |P| is convex and runs no hull test
of its own.

Every complex built here extends a vertex table its input holds, so none
sorts all its vertices.  A subdivision, whether by stellar moves, overlay,
slicing or refinement for a map, merges its new points into its input's
table, each placed by one bisection of that whole table
(``_subdivision``), and starts with its input's answers about the support,
which it shares
(``GeoComplex._on_table``); the inside subcomplex takes part of its
complex's table.

The kernel is integer arithmetic throughout.  Points enter as their cached
homogeneous vectors d(p, 1) and constraints as integer rows: the cached
rows of a simplex (``GeoSimplex._point_rows``), which also serve as the
slicing forms of ``restrict``, or a target simplex's rows pulled back along
a map (``_pullback_rows``).  ``restrict`` slices the tuple of maximal
simplexes by the rows it keeps in one pass, cutting a simplex the row
crosses (``_crosses``) into the pulled cells of its two sides, and builds
one complex; only when that complex is not adapted to |P| does the same
loop slice it on by the rows it left out, so every P inside |K| gets an
answer.  Only the signs of rows at vectors matter, and a
volume is a determinant of vectors over the product of their last entries.
The cell's vertices become points again only to be sorted, so the pulling
order, and with it every piece, is the lexicographic one.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import defaultdict
from functools import reduce
from operator import and_, itemgetter, mul
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from . import linalg
from .complexes import (GeoComplex, GeoSimplex, RPoint, _adds_up, _bbox_overlap, _closure,
                        _points_box)
from .exactnum import _check

Row = tuple  # tuple[int, ...], an affine form as an integer row


class PointNotInSupport(ValueError):
    pass


class SupportMismatch(ValueError):
    pass


# -- stellar subdivision -----------------------------------------------------


def _subdivision(cx: GeoComplex, simplexes: Collection[GeoSimplex]) -> GeoComplex:
    """The complex of ``simplexes``, the maximal simplexes of a subdivision
    of cx.  It has the support of cx, whose answers about the support it
    keeps (``GeoComplex._on_table``).

    Each vertex v of cx is one of its vertices: v lies in a simplex of the
    subdivision, which lies in a simplex of cx that has v as a vertex, so v
    is extreme in it.  So its vertex table is cx's with the new points
    merged in.  Each new point finds its place, the number of cx's
    vertices less than it, by one bisection of cx's table, and only the new
    points that share a place are sorted among themselves.  Each rank
    tuple is read off the table by hashing, and only the rank tuples are
    sorted.
    """
    verts, rank = cx.vertices(), cx._rank
    places = defaultdict(list)
    for p in {v for s in simplexes for v in s.vertices if v not in rank}:
        places[bisect_left(verts, p)].append(p)
    table, lo = [], 0
    for hi in sorted(places):
        table += verts[lo:hi]
        table += sorted(places[hi])
        lo = hi
    table += verts[lo:]
    rank = dict(zip(table, range(len(table))))
    ranked = sorted(((tuple(map(rank.__getitem__, s.vertices)), s) for s in simplexes),
                    key=itemgetter(0))
    return GeoComplex._on_table(table, ranked, cx)


class _Stars:
    """The maximal simplexes of a complex under stellar moves, held as the
    star of each vertex: the maximal simplexes having it.  It is the
    mutable form of the vertex stars that ``GeoComplex._hosts`` starts
    with, so a move finds its star by the carrier's vertices alone, with
    no scan; the maximal simplexes are the union of the stars.  One
    complex is built from them at the end, a subdivision of the complex
    the moves started from, with the points they added as its new vertices,
    each placed by one bisection of that complex's table
    (``_subdivision``)."""

    __slots__ = ("_star", "_start")

    def __init__(self, cx: GeoComplex):
        self._star: defaultdict[RPoint, set[GeoSimplex]] = defaultdict(set)
        self._start = cx
        self._add(cx.maximal_simplexes())

    def __contains__(self, s: GeoSimplex) -> bool:
        return s in self._star.get(s.vertices[0], ())

    def _add(self, simplexes: Iterable[GeoSimplex]) -> None:
        for s in simplexes:
            for v in s.vertices:
                self._star[v].add(s)

    def replace(self, p: RPoint, coefficients: Mapping[RPoint, tuple[int, int]]
                ) -> list[GeoSimplex]:
        """Turn the maximal simplexes M of a complex K into those of the
        elementary stellar subdivision stellar(K, p); return the cones
        added.  ``coefficients`` maps each vertex u of the simplex C of K
        having p in its relative interior, at least two of them, to p's
        coefficient lambda_u = a / b, an int pair with a, b > 0, in its
        vector P = sum lambda_u X_u over the vertex vectors of C.

        The simplexes of stellar(K, p) are the simplexes of K not containing
        C and the cones F u {p} over faces F, not containing C, of simplexes
        containing C.  Each lies in a maximal one of two kinds: an m in M
        without C, untouched and still maximal (it does not contain p and no
        simplex of K strictly contains it), or a cone (m minus u) u {p} for
        an m in M containing C and a vertex u of C, since a face F of m
        missing some u of C lies in m minus u.  No such cone lies in
        another: a face F' of some m' in M containing C with F' strictly
        containing m minus u misses u, so F' u {u} lies in m' and strictly
        contains m, which is maximal.  So M is updated by replacing each m
        containing C with its cones, and the closure of M is stellar(K, p).
        The m containing C are those having every vertex of C, the
        intersection of their stars, and each is dropped from the star of
        every vertex it has.  Each such vertex is in a cone of m, as C has
        two vertices or more, so no star is left empty.  p is a new vertex:
        it lies in the relative interior of C, which has two vertices or
        more.  Each cone's vertices are m's with p put in by bisection, at
        place k between the least and the greatest vertex of C in m:
        lexicographic order is kept by convex combinations, so p lies
        strictly between them.  The cone of u, at place i in m, is that
        tuple less u, at its place j there: i for i < k, i + 1 for i >= k.

        Each cone of an m that holds its determinant (``GeoSimplex._det``)
        is handed its own, with no elimination.  Put P in u's row of m's
        vertex vectors: the determinant is linear in that row, and the
        terms of P other than lambda_u X_u repeat a row, so it is
        lambda_u det(m).  Moving P from u's row to its place in the cone
        passes the |k - j| - 1 vertices between p and u in the tuple, one
        sign change each (k - 1 - i of them for i < k, i - k for i >= k).
        The result is a determinant of integer vectors, so the division by
        b is exact; a remainder is a broken invariant.  An m of lower
        dimension holds 0, and so do its cones.
        """
        star = set.intersection(*(self._star[v] for v in coefficients))
        for m in star:
            for v in m.vertices:
                self._star[v].discard(m)
        cones = []
        for m in star:
            vs, det = m.vertices, vars(m).get("_det")
            ends = [i for i, v in enumerate(vs) if v in coefficients]
            k = bisect_left(vs, p, ends[0] + 1, ends[-1])
            joined = vs[:k] + (p,) + vs[k:]
            for i in ends:
                j = i if i < k else i + 1  # u's place in joined
                if det is not None:
                    a, b = coefficients[vs[i]]
                    q, r = divmod((-1) ** (abs(k - j) - 1) * a * det, b)
                    _check(r == 0, "a cone's determinant is not an integer")
                cones.append(GeoSimplex._raw(joined[:j] + joined[j + 1:], None if det is None else q))
        self._add(cones)
        return cones

    def complex(self) -> GeoComplex:
        """The complex of the maximal simplexes held."""
        return _subdivision(self._start, set().union(*self._star.values()))


def stellar(cx: GeoComplex, p: RPoint) -> GeoComplex:
    """Elementary stellar subdivision at p.

    Every simplex containing p is replaced by the cones conv(F u {p}) over
    its faces F avoiding p; p must lie in the support.

    A simplex of the complex contains p exactly when it has p's carrier as
    a face, and a face avoids the point exactly when it does not contain
    the whole carrier, so after one point location everything is
    combinatorial, and done on the maximal simplexes (``_Stars``).  The
    location (``GeoComplex._locate``) gives a maximal simplex s holding p
    and p's weights w_j = D d_p beta_j there (``GeoSimplex._weights``), for
    its barycentric coordinates beta_j, the denominator D of s's rows and
    the denominator d_p of p.  The carrier is the face on the positive
    weights, and P = d_p (p, 1) = sum beta_j d_p (p_j, 1) = sum (w_j / (D
    d_j)) X_j for the vertex vectors X_j = d_j (p_j, 1): those are the
    coefficients from which the move gives each cone its determinant.
    """
    found = cx._locate(p)
    if found is None:
        raise PointNotInSupport(f"point not in support: {p}")
    s, w = found
    scale = s._point_rows[2]
    coefficients = {v: (a, scale * v._homog[-1]) for v, a in zip(s.vertices, w) if a > 0}
    if len(coefficients) == 1:
        return cx  # p is already a vertex
    stars = _Stars(cx)
    stars.replace(p, coefficients)
    return stars.complex()


# -- cells and support coverage ----------------------------------------------


def _pull_cell(s: GeoSimplex, eqs_t: Sequence[Row],
               ineqs_t: Sequence[Row]) -> list[GeoSimplex]:
    """Pulling triangulation of the cell s cap {eqs_t = 0, ineqs_t >= 0}
    when the cell has the dimension of s; nothing otherwise.

    An equality that does not vanish on s cuts the cell down, so the cell
    is clipped by ineqs_t alone, and it is lower-dimensional exactly when
    every vertex mask shares a bit.  Every constraint with a bit is
    nonzero somewhere on aff(s), a barycentric form of s or a row that
    ``linalg.clip_simplex`` did not skip, so a bit shared by every vertex
    puts the cell in a proper hyperplane of aff(s).  Conversely a
    lower-dimensional cell has an implicit equality among the constraints
    with bits, one that is 0 on the whole cell and hence on every vertex.
    A full-dimensional cell has no facet on an equality, so the barycentric
    rows of s and ineqs_t are an H-representation of it within its hull.
    The vertices are sorted as points, and vertices of s keep their own
    objects.  A full-dimensional cell with dim s + 1 vertices is itself:
    dim s + 1 points spanning a space of dimension dim s are affinely
    independent, so the cell is the simplex they span, and pulling a
    simplex gives the simplex alone (its rank is its vertex count).  It is
    returned as its sorted vertex tuple with no H-representation read, and
    only a cell with more vertices is pulled.  The pulled simplexes are
    independent and sorted already, so they skip validation.
    """
    if any(sum(map(mul, e, x)) for e in eqs_t for x in s._vertex_rows):
        return []
    cell = linalg.clip_simplex(s._vertex_rows, ineqs_t)
    if not cell or reduce(and_, (m for _, m in cell)):
        return []
    # Lexicographic order of the points: the primitive vectors, whose last
    # entries are the positive denominators, scaled to one denominator.
    common = math.lcm(*(x[-1] for x, _ in cell))
    vectors = sorted((x for x, _ in cell),
                     key=lambda x: tuple(c * (common // x[-1]) for c in x[:-1]))
    own = dict(zip(s._vertex_rows, s.vertices))
    points = [own.get(x) or RPoint._from_homog(x) for x in vectors]
    tris = (linalg.pull_triangulation(vectors, s._point_rows[1] + tuple(ineqs_t))
            if len(cell) > len(s.vertices) else [range(len(cell))])
    return [GeoSimplex._raw(tuple(points[i] for i in tri)) for tri in tris]


def _pullback_rows(s: GeoSimplex, images: Sequence[RPoint],
                   rows: Sequence[Row]) -> list[Row]:
    """Rows g with g . X of the sign of f(eta(x)) for each row f, where eta
    is the affine map on s with the given vertex images.

    eta(x) = sum_i l_i(x) y_i for the barycentric forms l_i of s, so
    f(eta(x)) = sum_i l_i(x) f(y_i).  s's barycentric rows are B_i = D l_i,
    and f . Y_i = D' e_i f(y_i) for Y_i = e_i (y_i, 1).  So for the least
    common multiple L of the e_i, g = sum_i (f . Y_i)(L / e_i) B_i is
    D D' L > 0 times the form sum_i f(y_i) l_i, everywhere, not only on
    aff(s).
    """
    ys = [y._homog for y in images]
    lcm = math.lcm(*(y[-1] for y in ys))
    bary = s._point_rows[1]
    out = []
    for f in rows:
        weights = [sum(map(mul, f, y)) * (lcm // y[-1]) for y in ys]
        out.append(tuple(sum(map(mul, weights, col)) for col in zip(*bary)))
    return out


def _cells(s: GeoSimplex, images: Sequence[RPoint],
           target: GeoComplex) -> set[GeoSimplex]:
    """The pulled preimage cells of s in the maximal simplexes t of target,
    for the affine map eta on s with the given vertex images: the pulling
    triangulations (``_pull_cell``) of the cells s cap eta^-1(t) of
    dimension dim s.

    Images sharing a host (``GeoComplex.hosts``) lie in one t, which then
    holds eta(s), and the cells are {s}: the cell in t is s, and a cell in
    another t' lies in the preimage of the face t cap t' of t, cut out of t
    by an affine form that is >= 0 on eta(s); if that form pulled back is 0
    on a subset of s of dimension dim s, it is 0 on s, and the cell is s
    again.  A t whose integer box misses the images' box holds
    no point of eta(s), which lies in that box, and is skipped.  For the
    identity, ``images`` being s's own vertex tuple, t's rows cut s as
    they are; otherwise they are pulled back along eta
    (``_pullback_rows``).  Each cell equals s cap eta^-1(F) for the least
    face F of t holding its image; distinct faces have disjoint relative
    interiors, and a cell mapping into a face shared by several maximal
    simplexes is pulled into the same simplexes each time, so the set keeps
    it once and the cells overlap only in measure zero.
    """
    if frozenset.intersection(*map(target.hosts, images)):
        return {s}
    own = images == s.vertices
    box = s._box if own else _points_box([y._homog for y in images])
    out: set[GeoSimplex] = set()
    for t in target.maximal_simplexes():
        if not _bbox_overlap(box, t._box):
            continue
        eqs, ineqs, _ = t._point_rows
        if not own:
            eqs, ineqs = _pullback_rows(s, images, eqs), _pullback_rows(s, images, ineqs)
        out.update(_pull_cell(s, eqs, ineqs))
    return out


def supports(cx: GeoComplex, points: Sequence[RPoint]) -> bool:
    """conv(points) inside |cx|, decided exactly; ``points`` is not empty.

    No if a point has no host in cx (``GeoComplex.hosts``), as a point of
    another ambient dimension has none; yes if the points share a host,
    which is convex, or if |cx| is convex (``GeoComplex._is_convex``),
    since a convex set holds the hull of any points it holds.  Otherwise,
    for the rank r of the points' vectors (one
    more than the dimension of their hull), conv(points) is by
    Caratheodory the union of the simplexes s spanned by r affinely
    independent points among them, and each s must be tiled by its cells
    in the maximal simplexes of cx under the identity (``_cells``,
    ``_tiles``).  The cells overlap only in measure zero, so they tile s
    exactly when s lies in |cx|.
    """
    found = [cx.hosts(p) for p in points]
    if not all(found):
        return False
    if frozenset.intersection(*found) or cx._is_convex():
        return True
    unique = sorted(set(points))
    r = linalg.matrix_rank([p._homog for p in unique])
    subs = (GeoSimplex._raw(sub) for sub in itertools.combinations(unique, r)
            if linalg.matrix_rank([p._homog for p in sub]) == r)
    return all(_tiles((s,), _cells(s, s.vertices, cx)) for s in subs)


def covers(cx: GeoComplex, part: GeoComplex) -> bool:
    """|part| inside |cx|, decided exactly once per complex and polyhedron
    (``GeoComplex._answer``): every maximal simplex of part lies in |cx|
    (``supports``).  When |cx| is convex, as the cube is, that reads the
    hosts of part's vertices alone."""
    return cx._answer(("covers", part), lambda: all(
        supports(cx, q.vertices) for q in part.maximal_simplexes()))


def support_equal(a: GeoComplex, b: GeoComplex) -> bool:
    """|a| = |b|, decided exactly."""
    return covers(b, a) and covers(a, b)


def is_subdivision(fine: GeoComplex, coarse: GeoComplex) -> bool:
    """True iff supports agree and every simplex of ``fine`` lies in some
    simplex of ``coarse``; decided by volume accounting (De Loera, Rambau
    and Santos, *Triangulations*, 2010, ch. 4), with no cell clipped.

    Each maximal s of fine is filed under the maximal simplexes of coarse
    that its vertices share as hosts (``GeoComplex.hosts``), which are the
    maximal simplexes holding s, as simplexes are convex.  They must be one
    t with the dimension of s, or the answer is no; this turns down no
    subdivision.  If s lies in a simplex of coarse, it lies in the carrier
    C of any point b of its relative interior: a supporting hyperplane that
    cuts out C holds b, so it holds s.  Only s holds b among the simplexes
    of fine, as s is maximal, so near b |fine| is s.  If C were larger than
    s, or a proper face of a larger simplex, |coarse| would hold points
    near b off aff(s).  So for a subdivision C is a maximal t with the
    dimension of s.  Then s spans aff(t), so relint s lies in relint t, and
    any other maximal simplex holding s meets t in a face holding a point
    of relint t, which is t itself: it contains t, which is maximal.  So t
    is the only shared host.  Then the answer is yes iff every maximal t
    gets a group whose volumes add up to vol(t):
    the group's simplexes lie in t, with its dimension and disjoint
    relative interiors, so their union, which is closed, is t iff the
    volumes add up (``_tiles``); and a simplex of fine meeting t in a set
    of t's dimension is in t's group, as its own t shares that set with t.
    """
    if fine.ambient_dim != coarse.ambient_dim:
        return False
    maxi = coarse.maximal_simplexes()
    groups: list[list[GeoSimplex]] = [[] for _ in maxi]
    for s in fine.maximal_simplexes():
        shared = frozenset.intersection(*map(coarse.hosts, s.vertices))
        if len(shared) != 1:
            return False
        (i,) = shared
        if maxi[i].dim != s.dim:
            return False
        groups[i].append(s)
    return all(_tiles((t,), group) for t, group in zip(maxi, groups))


# -- common refinement -------------------------------------------------------


def common_refinement(a: GeoComplex, b: GeoComplex) -> GeoComplex:
    """A triangulation subdividing both a and b (equal supports required).

    Each maximal s of a is cut into its cells in the maximal simplexes of b
    under the identity (``_cells``), and one complex is built from them all.
    A simplex of a already in a simplex of b is its own one cell, and when
    every one is, a itself is returned.  With |a| = |b| settled first, the
    cells of s tile it, so no tiling is measured (``refine_for_map``
    measures one for every cut simplex).
    """
    if a.ambient_dim != b.ambient_dim:
        raise SupportMismatch("support mismatch: different ambient dimensions")
    if not support_equal(a, b):
        raise SupportMismatch("support mismatch")
    cells = {c for s in a.maximal_simplexes() for c in _cells(s, s.vertices, b)}
    return a if cells == set(a.maximal_simplexes()) else _subdivision(a, cells)


# -- restriction to a subpolyhedron ------------------------------------------


def _crosses(row: Row, s: GeoSimplex) -> bool:
    """Does ``row`` take both signs on s?  Then {row = 0} cuts s in two."""
    vals = [sum(map(mul, row, x)) for x in s._vertex_rows]
    return any(x > 0 for x in vals) and any(x < 0 for x in vals)


def _adapted(inside: Optional[GeoComplex], part: GeoComplex) -> bool:
    """Does ``inside``, the result of inside_subcomplex, triangulate |part|?

    |inside| lies in |part|, so the question is whether it covers |part|.
    When every maximal simplex of part is an n-simplex of R^n, that is one
    tiling test (``_tiles``) of the n-simplexes of inside against part's
    maximal simplexes: both overlap only in measure zero, and the first lie
    in |part|.  If they tile |part|, inside covers it.  If inside covers
    |part|, its simplexes of lower dimension have measure zero, so its
    n-simplexes, which are closed, hold a dense part of |part|, the closure
    of its interior, and so all of it.  A part of lower dimension is asked
    ``covers``.

    An adapted inside has |inside| = |part|, so it takes part's answer to
    whether that support is convex of full dimension (``_is_convex``),
    which its subdivisions inherit (``GeoComplex._on_table``), and asks no
    hull test of its own.  A part of lower dimension hands it no answer."""
    if inside is None:
        return False
    n, wholes = part.ambient_dim, part.maximal_simplexes()
    if any(q.dim != n for q in wholes):
        return covers(inside, part)
    adapted = _tiles(wholes, [s for s in inside.maximal_simplexes() if s.dim == n])
    if adapted:
        inside._answer(("convex",), part._is_convex)
    return adapted


def inside_subcomplex(cx: GeoComplex, part: GeoComplex) -> Optional[GeoComplex]:
    """The subcomplex of simplexes lying inside |part| (None when empty),
    found (``_inside_subcomplex``) once per complex and polyhedron
    (``GeoComplex._answer``), so every ask returns the same object."""
    return cx._answer(("inside", part), lambda: _inside_subcomplex(cx, part))


def _inside_subcomplex(cx: GeoComplex, part: GeoComplex) -> Optional[GeoComplex]:
    """The subcomplex of simplexes lying inside |part| (None when empty).

    The faces of cx are its rank tuples (``complexes._closure`` of
    ``GeoComplex._ranks``), tested from the top dimension down; the faces
    of one found inside are inside too, so they are marked by their rank
    tuples and not tested again, and those found are the maximal simplexes
    of the result.  Each vertex's hosts in part (``GeoComplex.hosts``) are
    read once, and a face is tested as ``supports`` tests it, tier by
    tier: a face with a vertex that has no host is out, one whose vertices
    share a host is in, and only the rest take ``supports`` itself.  A
    face is made a simplex only when found (``GeoComplex._simplex``), which
    gives a maximal simplex of cx as its own object, with its cached rows.

    The result is built on the part of cx's table its faces use, renumbered
    in order, so rank tuples keep their order and no point is compared
    (``GeoComplex._on_table``).
    """
    verts = cx.vertices()
    hosts = [part.hosts(v) for v in verts]
    found, inside = [], set()  # the rank tuples found, and their faces'
    for r in sorted(_closure(cx._ranks), key=len, reverse=True):
        if r not in inside and all(hosts[k] for k in r) and (
                frozenset.intersection(*(hosts[k] for k in r))
                or supports(part, [verts[k] for k in r])):
            found.append(r)
            inside |= _closure((r,))
    if not found:
        return None
    found.sort()
    used = sorted(set().union(*found))
    renumber = dict(zip(used, range(len(used))))
    return GeoComplex._on_table([verts[k] for k in used], [
        (tuple(map(renumber.__getitem__, r)), cx._simplex(r)) for r in found])


# Candidate rows per facet row: f, then its first 13^2 shifts, so a simplex
# of P of codimension two or less tries every shift with coefficients in
# -6..6.
_SHIFTS = 1 + 13 ** 2


def _shifts(f: Row, eqs: Sequence[Row]) -> Iterator[Row]:
    """f, then f plus each nonzero integer combination of eqs with
    coefficients in -6..6, the coefficient tuples in lexicographic order:
    ``_SHIFTS`` rows at most."""
    yield f
    combos = itertools.product(range(-6, 7), repeat=len(eqs))
    for coeffs in itertools.islice(filter(any, combos), _SHIFTS - 1):
        yield tuple(x + sum(map(mul, coeffs, col)) for x, col in zip(f, zip(*eqs)))


def restrict(cx: GeoComplex, part: GeoComplex) -> GeoComplex:
    """Subdivide cx so that the simplexes inside |part| triangulate |part|.

    The subdivision slices along the affine hulls and facet functionals of
    part's maximal simplexes.  Simplexes of cx that already lie inside
    |part| are kept unless a left-out row is needed, and then only the
    left-out rows cut them.  A facet functional is only determined on the
    affine hull of its simplex, so one whose hyperplane would cut through a
    preserved simplex is shifted by the hull equalities (``_shifts``).  A
    hull equality that cuts one (``_crosses``), or a facet row that cuts
    one however ``_shifts`` moves it, is left out, and set aside as it is,
    unshifted.  The kept rows slice the tuple of maximal simplexes
    in one pass: a simplex a row crosses becomes the pulled cells of its
    two sides (``_pull_cell``), the others stay, and one complex is built,
    or cx itself is kept when no row cuts anything.  If its simplexes
    inside |part| do not triangulate it, the left-out rows slice that tuple
    in a second pass, and its complex is returned.  Slicing a complex along
    a hyperplane leaves a complex, so no piece repeats or lies in another,
    and each pass keeps exactly the maximal simplexes of slicing row by
    row.

    The second pass adapts.  After it, every hull equality e of every
    maximal q of part has sliced the complex, and so has every facet row f,
    shifted or not.  Take x in q, and the simplex c of the result holding x
    in its relative interior.  c lies on one side of e and e(x) = 0, so e
    vanishes on c: c lies in aff(q).  There a shifted row equals f, so
    f(x) >= 0 puts c on the side f >= 0 in the same way, whether f sliced
    shifted or not.  So c lies in q and inside |part|, and the simplexes
    inside |part| cover it; they lie in it, so they triangulate it.

    The kept rows preserve.  A preserved simplex p is a face of a maximal
    simplex s, and a kept row r crosses no preserved simplex.  Where r
    crosses s, p lies in {r >= 0} or {r <= 0}, and p is the face of that
    cell s cap {r >= 0} (or <= 0) cut out by the barycentric forms of s
    that vanish on p.  Pulling triangulates each face of a cell by its own
    vertices, and a simplex has no triangulation by its vertices but
    itself, so p is a simplex of the pulled cell and the next row finds it
    again.
    """
    if cx.ambient_dim != part.ambient_dim:
        raise SupportMismatch("containment violation: ambient dimensions differ")
    if not covers(cx, part):
        raise SupportMismatch("containment violation: |P| is not inside the support")
    inside = inside_subcomplex(cx, part)
    if _adapted(inside, part):
        return cx
    # A row crossing a face crosses every simplex holding it: test maximal ones.
    protected = inside.maximal_simplexes() if inside is not None else ()
    # q's rows are its forms times one positive scale, so sums of them are
    # the same sums of forms, scaled: every sign below is the forms' sign.
    kept: list[Row] = []
    left_out: list[Row] = []
    for q in part.maximal_simplexes():
        eqs, ineqs, _ = q._point_rows
        for row, tries in [(e, (e,)) for e in eqs] + [(f, _shifts(f, eqs)) for f in ineqs]:
            pick = next((r for r in tries if not any(_crosses(r, s) for s in protected)), None)
            if pick is None:
                left_out.append(row)
            else:
                kept.append(pick)

    # cx is not adapted (asked above, and the answer kept), so the kept
    # rows always slice, and the left-out rows only when they must.
    maximal, out = cx.maximal_simplexes(), cx
    for rows in (kept, left_out):
        if _adapted(inside_subcomplex(out, part), part):
            break
        for row in rows:
            neg = tuple(-c for c in row)
            maximal = tuple(p for s in maximal
                            for p in (_pull_cell(s, [], [row]) + _pull_cell(s, [], [neg])
                                      if _crosses(row, s) else (s,)))
        # A cut simplex leaves two pieces or more, so an equal tuple cut nothing.
        out = cx if maximal == cx.maximal_simplexes() else _subdivision(cx, maximal)
    return out


# -- refinement compatible with a map ----------------------------------------


def refine_for_map(plmap, target: GeoComplex):
    """The map ``plmap``, a ``zmaps.PLMap`` whose image must lie in
    |target|, on a subdivision of its domain in which every simplex maps
    into one simplex of target.

    Each maximal s of the domain is cut into its preimage cells in the
    maximal simplexes of target (``_cells``).  A simplex mapping into one
    target simplex is its own one cell and survives.  The cells of a cut
    simplex must tile it (``_tiles``), or its image leaves |target|.  No
    tiling is measured when every vertex image has a host and |target| is
    convex (``GeoComplex._is_convex``): the image of s, the hull of the
    vertex images, then lies in |target|, so the sets s cap eta^-1(t)
    cover s, and as those of lower dimension have measure zero, the
    cells, which are closed, cover it too.  Old
    vertices keep their images, and a new vertex, a point of the s it was
    cut from, gets the image of the affine map on s at its weights in s
    (``GeoSimplex._image``), the one ``PLMap.eval`` interpolates, so the
    map is unchanged.  When no simplex is cut, ``plmap`` itself is
    returned.
    """
    if plmap.codomain_dim != target.ambient_dim:
        raise ValueError(f"a point in R^{plmap.codomain_dim} is not in R^{target.ambient_dim}")
    simplexes, images, cut = [], dict(plmap.images), False
    for s in plmap.domain.maximal_simplexes():
        ys = tuple(images[v] for v in s.vertices)
        cells = _cells(s, ys, target)
        if cells != {s}:
            # The cells of a cut simplex must tile it exactly; a gap means
            # the image of s leaves the support of the target.
            if not (all(map(target.hosts, ys)) and target._is_convex() or _tiles((s,), cells)):
                raise SupportMismatch(f"compatibility failure: the image of {s} is not "
                                      "contained in the target support")
            for p in {p for c in cells for p in c.vertices if p not in images}:
                images[p] = s._image(s._weights(p._homog), ys)
            cut = True
        simplexes.extend(cells)
    return type(plmap)(_subdivision(plmap.domain, simplexes), images) if cut else plmap


def _volume_axes(base: GeoSimplex) -> Optional[list[int]]:
    """Coordinates in which the simplexes of aff(base) keep their volumes
    up to one factor: the first independent columns of the vertex vectors,
    after their last entry, which is where the edge directions are
    independent, then the last entry itself.  None for a full-dimensional
    base, whose simplexes need no projection."""
    if len(base.vertices) == base.ambient_dim + 1:
        return None
    pivots = linalg.pivot_columns([x[-1:] + x[:-1] for x in base._vertex_rows])
    return [c - 1 for c in pivots[1:]] + [-1]


def _tiles(wholes: Sequence[GeoSimplex], pieces: Iterable[GeoSimplex]) -> bool:
    """Do ``pieces`` tile the union W of ``wholes``?  The wholes must be
    simplexes of one dimension d spanning one affine hull and overlapping
    only in measure zero, and the pieces simplexes in W of dimension d
    overlapping only in measure zero.  The union of the pieces, which is
    closed, is then W exactly when their volumes add up to the wholes'
    (De Loera, Rambau and Santos, *Triangulations*, 2010): a part of W
    that no piece holds is open in W, and it has positive volume, as W is
    the closure of its interior in that hull.  Every piece spans that hull,
    so the first whole's projection (``_volume_axes``) measures them all
    (``GeoSimplex._volume``); the common factor d! is left out of both
    sides, and the volumes are compared in integers (``_adds_up``), as in
    the cube test.  Most callers ask about one simplex s, as ``(s,)``."""
    axes = _volume_axes(wholes[0])
    return _adds_up([p._volume(axes) for p in pieces], [w._volume(axes) for w in wholes])
