"""Simplicial complexes over exact rational coordinates.

A geometric complex is its maximal simplexes: the constructor drops every
input simplex that lies in another and builds no faces.  It checks the
common-face condition on what is left (``GeoComplex._validate``) by at most
four tests, in order; only the last rejects.  (1) One maximal simplex needs
none.  (2) A complex of n-simplexes in [0,1]^n is tried as a triangulation
of the cube by facet matching, orientations and volumes
(``_triangulates_cube``).  (3) From three maximal simplexes up, a complex
whose vertices are affinely independent is a set of faces of one simplex
(``_independent_vertices``), and a complex of n-simplexes in R^n is tried
as a triangulation of the hull of its vertices by the same facet pass,
supporting hyperplanes and one point located in one vertex star
(``_triangulates_hull``).  Both run in time linear in the size of the
complex; two maximal simplexes keep their one pair test, which costs less.
(4) Otherwise the condition is checked pair by pair: on complexes of lower
dimension than their ambient space, non-convex full-dimensional ones,
non-convex sets of Kuhn simplexes (whose chain test is still to come), and
any that fail the tests above.  Each pair takes disjoint integer bounding
boxes (``_bbox_overlap``), a separating form read off the cached integer
rows of either simplex (``_separated``), and only when neither settles it
the cell a cap b from ``linalg``'s polytope kernel, whose vertex masks show
whether it lies in the face spanned by the shared vertices.

A complex numbers its vertices once: its sorted vertices are its vertex
table, ``_rank`` maps each vertex to its index there, and ``_ranks`` holds
each maximal simplex as the tuple of its vertices' ranks, in the order of
``maximal_simplexes()``.  Ranks follow vertex order, so rank tuples sort as
the simplexes do.  The public constructor sorts the distinct vertices of
any input, ranks each vertex by hashing, and drops non-maximal input by
rank stars.  A complex built from one the caller holds, the standard
cube, a realization, an inside subcomplex or a subdivision, is built on
the table it extends (``GeoComplex._on_table``), and only a subdivision's
new points are compared, to place them in it.  The
cube test, the vertex stars, ``collapse``'s face table, ``subdivide``'s
inside subcomplex and the ``.scx`` printer read the ranks: none of them
builds an index of its own or hashes a point per vertex occurrence.  The
face table and the inside subcomplex take every face as a rank tuple from
one enumeration, the closure of the rank tuples (``_closure``), which also
closes the faces the ``.scx`` printer writes for a weighted complex.  So do
the set of all faces (``simplexes``) and the CLI's regularity check,
through one accessor (``GeoComplex._simplex``) that makes a rank tuple's
simplex and gives a maximal simplex back as the complex's own object, with
its cached determinant and rows.

Whatever a complex or a simplex works out about itself is an attribute
computed on first read and kept (``_cached``): a simplex's rows, box and
determinant, and a complex's faces, host map and memo of answers about
the whole complex.  The host map (``GeoComplex._hosts``) starts as each
vertex's star and keeps the hosts of every other point located in the
complex.  The memo (``GeoComplex._answer``) holds whether the complex
triangulates the cube and whether its support is convex, both of which
validation records, and ``subdivide``'s inside subcomplex and coverage of
a polyhedron.  Whether |cx| is the cube, whether it is a convex set of
full dimension (``GeoComplex._is_convex``, from one simplex, a kept cube
answer or the hull test) and whether it covers a polyhedron depend on |cx|
alone, so a subdivision starts with its parent's answers to all three.
An inside subcomplex that triangulates a polyhedron of full dimension has
its support, so ``subdivide._adapted`` hands it the polyhedron's convex
answer, through ``_answer`` like every other ask.  Only this module writes
the memo directly, and the standard cube starts with its cube answer.

The cube test's volume clause and ``subdivide``'s tiling test are one
integer sum (``_adds_up``) over volumes measured by one method
(``GeoSimplex._volume``), which reads a full-dimensional simplex's volume
off the determinant it keeps.

Abstract and weighted abstract complexes carry the combinatorial skeletons
on the same numbering: an abstract complex holds each face as a sorted
tuple of indices into its distinct vertex labels, and a weighted one its
weights as a tuple in vertex order, as the ``.scx`` weighted document
does.  So the skeleton of a complex is its vertex table and rank tuples
(``skeleton``), the realization on scaled basis vectors reads each face's
points off its indices (``realize``), and no label set is turned into
indices or back on the way from a complex to its printed realization.

Point location and independence are exact integer arithmetic.  Each point
holds its primitive homogeneous vector X = d(p, 1), for the least common
denominator d of p (``linalg.homogeneous``), and a tuple of points is
affinely independent iff the rank of their vectors is their number; the
checking constructor keeps the determinant that its rank elimination yields
(``GeoSimplex._det``), the orientation and volume that the cube test reads.
``standard_cube`` hands each Kuhn simplex its determinant from a formula
and a stellar move hands each cone its own from its parent's
(``subdivide._Stars.replace``), so neither eliminates; only a simplex
built ``_raw`` with none eliminates, once, on first read.
Each simplex caches, on first use, its affine-hull equalities and
barycentric forms as integer rows E and B with one common denominator D > 0,
read off one fraction-free Gauss-Jordan elimination of its vertex vectors
(``linalg.simplex_rows``): p lies on the affine hull iff E X = 0, and its
barycentric coordinates are B X / (D d), so a containment test compares
integer signs.  The same vectors and rows are what ``linalg``'s polytope
kernel clips and pulls.  ``GeoComplex.carrier`` reads the carrier of p off
the first maximal simplex holding p, and ``GeoComplex.hosts`` reads every
maximal simplex holding p off the stars of the carrier's vertices, with no
test per simplex; a vertex's hosts are its star, and a point that is not a
vertex is located once per complex.  A point is its vector: every point
computed here and in ``subdivide``, ``regular`` and ``zmaps`` is built
from it (``RPoint._from_homog``), and its ``Fraction`` coordinates are made
only when read.  Points compare by cross-multiplying their vectors, hash
as their vectors, print from them, and boxes are integer corners over one
denominator, so no ``Fraction`` is built: not in parsing, sorting, hashing
or printing points, validating a complex, replaying a collapse, locating a
point or running the constructive pipeline.  They are made where
coordinates are read, by ``RPoint`` from given coordinates and by
``GeoSimplex.barycentric``.  No output depends on the order in which a set
of points iterates, so that order may follow the vectors' hash
(``tests/test_golden.py`` reprints outputs under salted point hashes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce, total_ordering
from operator import and_, itemgetter, lt, mul
from types import SimpleNamespace
from typing import Hashable, Iterable, Optional, Sequence

from . import linalg
from .exactnum import _exact, parse_rat


class NotASimplicialComplex(ValueError):
    pass


class _cached:
    """An attribute computed on first read and kept in the instance dict,
    which then answers every later read: the one way a simplex, a complex
    or an abstract complex keeps what it derives, so no slot is set to
    None and tested.  ``functools.cached_property`` does the same but,
    before Python 3.12, takes a lock shared by every instance on each
    first read."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        # The dict is fetched (on 3.11, made) before the value is computed,
        # as functools does: made after it, the benchmark's check set-up
        # peaked about 0.1 MB higher on Python 3.11.
        cache = obj.__dict__
        value = cache[self.name] = self.fn(obj)
        return value


_set = object.__setattr__


def _quotient_text(e: int, d: int) -> str:
    """``format_rat`` of e/d, d > 0."""
    g = math.gcd(e, d)
    return str(e // g) if g == d else f"{e // g}/{d // g}"


@total_ordering
class RPoint:
    """A rational point with a fixed ambient dimension, kept as its
    primitive homogeneous vector ``_homog`` = d(p, 1), d > 0 the least
    common denominator of p.  A point built from coordinates keeps them;
    one built from its vector (``_from_homog``), as every computed point
    is, makes its ``Fraction`` coordinates only when ``coords`` is read.

    Points compare as their coordinate tuples do (lexicographically, a
    proper prefix first), but on the vectors: two points are equal iff
    their vectors are, and coordinates a/d and b/e compare as a e and b d.
    A point hashes as its vector, hash(``_homog``), computed once: equal
    points have equal vectors, so the hash agrees with ==.  So once a point
    is built, no ``Fraction`` is built, compared or hashed unless
    ``coords`` is read.  No output depends on the order in which a set of
    points iterates, so that order may follow this hash."""

    __slots__ = ("_coords", "_homog", "_hash")

    def __new__(cls, coords: Sequence):
        coords = tuple(c if type(c) is Fraction else Fraction(_exact(c, f"coordinate {i}"))
                       for i, c in enumerate(coords))
        if not coords:
            raise ValueError("ambient dimension must be >= 1")
        p = cls._from_homog(linalg.homogeneous(coords))
        _set(p, "_coords", coords)
        return p

    @classmethod
    def _from_homog(cls, x: tuple[int, ...]) -> "RPoint":
        """The point with the primitive vector x, whose last entry is > 0."""
        p = object.__new__(cls)
        _set(p, "_coords", None)
        _set(p, "_homog", x)
        _set(p, "_hash", None)
        return p

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}: points are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return RPoint._from_homog, (self._homog,)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        coords = self._coords
        if coords is None:
            *x, d = self._homog
            coords = tuple(Fraction(e, d) for e in x)
            _set(self, "_coords", coords)
        return coords

    @property
    def dim(self) -> int:
        return len(self._homog) - 1

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._homog)
            _set(self, "_hash", h)
        return h

    def _texts(self) -> tuple[str, ...]:
        """The canonical text of each coordinate (``format_rat``), read off
        the vector."""
        *x, d = self._homog
        return tuple(map(str, x)) if d == 1 else tuple(_quotient_text(e, d) for e in x)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._homog == other._homog

    def __lt__(self, other):
        # total_ordering derives the other three from this one.  What
        # sorting and the ordered-vertex check ask first: on equal
        # denominators and lengths, the vectors compare as the tuples do.
        if other.__class__ is not self.__class__:
            return NotImplemented
        x, y = self._homog, other._homog
        d, e = x[-1], y[-1]
        if d == e and len(x) == len(y):
            return x < y
        for a, b in zip(x[:-1], y[:-1]):
            if a * e != b * d:
                return a * e < b * d
        return len(x) < len(y)

    def __repr__(self):
        return "(" + ", ".join(self._texts()) + ")"


def rpoint(*coords) -> RPoint:
    """Build an RPoint from ints, Fractions or 'p/q' strings."""
    if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
        coords = tuple(coords[0])
    return RPoint(tuple(parse_rat(c) if isinstance(c, str) else c for c in coords))


@dataclass(frozen=True, order=True)
class GeoSimplex:
    """Simplex with affinely independent rational vertices in canonical
    (lexicographic) order, so equality is structural."""

    vertices: tuple[RPoint, ...]

    def __post_init__(self):
        vs = self.vertices
        # Strictly increasing vertices are sorted and distinct already, which
        # k - 1 comparisons show with no hashing.
        if type(vs) is not tuple or not all(map(lt, vs, vs[1:])):
            vs = tuple(sorted(set(vs)))
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        rows = [v._homog for v in vs]
        if len(set(map(len, rows))) != 1:
            raise ValueError("vertices must share an ambient dimension")
        rank, det = linalg.rank_det(rows)
        if rank != len(vs):
            raise ValueError("vertices are not affinely independent")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_det", det)  # the rank check's, for free

    @classmethod
    def _raw(cls, vertices: tuple[RPoint, ...], det: Optional[int] = None) -> "GeoSimplex":
        """Skip validation for vertex tuples known to be sorted, distinct and
        affinely independent (faces of existing simplexes).  A caller that
        knows the determinant of the vertex vectors (``_det``) hands it in."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertices", vertices)
        if det is not None:
            object.__setattr__(obj, "_det", det)
        return obj

    @_cached
    def _hash(self) -> int:
        return hash((self.vertices,))

    def __hash__(self) -> int:
        # The hash of the vertex tuple, so of the vertices' vectors,
        # computed once per instance as RPoint's is.
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return self.vertices[0].dim

    @_cached
    def _point_rows(self) -> tuple[tuple[tuple[int, ...], ...],
                                   tuple[tuple[int, ...], ...], int]:
        """The equalities E, barycentric forms B and denominator D of
        ``linalg.simplex_rows``.

        Cached on the instance (the dataclass is frozen but has a
        ``__dict__``), so the rows go away with the simplex.
        """
        return linalg.simplex_rows(self._vertex_rows)

    @_cached
    def _det(self) -> int:
        """det(X_j) of the homogeneous vertex vectors X_j = d_j(p_j, 1) in
        vertex order; nonzero, and the sign of the orientation, for an
        n-simplex in R^n (0 for a lower-dimensional one).  It comes from
        one of four places.  The checking constructor keeps its rank
        elimination's.  ``standard_cube`` hands each Kuhn simplex
        (-1)^n sgn(axis order), and a stellar move (``subdivide._Stars``)
        hands each cone its parent's determinant times the replaced
        vertex's coefficient, with the sign of the new vertex's move; both
        are proved where they are made.  Any other simplex built ``_raw``
        computes it on first use, by one plain elimination."""
        return linalg.det(self._vertex_rows)

    def _volume(self, axes: Optional[Sequence[int]]) -> tuple[int, int]:
        """The simplex's d! volume projected to ``axes`` (``subdivide``'s
        ``_volume_axes``) as the pair (|det(X[axes])|, the product of the
        X[-1]), its numerator and a denominator, for its homogeneous vertex
        vectors X.  With no axes that determinant is ``_det``, which the
        checking constructor keeps, and no vertex rows are read."""
        d = (self._det if axes is None
             else linalg.det([[x[a] for a in axes] for x in self._vertex_rows]))
        return abs(d), math.prod(v._homog[-1] for v in self.vertices)

    @_cached
    def _box(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The bounding box of the vertices (``_points_box``).  Cached on
        the instance like ``_point_rows``."""
        return _points_box(self._vertex_rows)

    @_cached
    def _vertex_rows(self) -> tuple[tuple[int, ...], ...]:
        """The homogeneous integer vector of each vertex, in vertex order.
        Equal points have equal vectors, so shared vertices are found by
        hashing int tuples, not ``Fraction``s."""
        return tuple(v._homog for v in self.vertices)

    def _weights(self, x: tuple[int, ...]) -> Optional[list[int]]:
        """B X for the homogeneous integer vector X of a point (see
        ``_homogeneous``): its barycentric coordinates times D * X[-1] > 0.
        None when the point is off the affine hull."""
        eqs, bary, _ = self._point_rows
        if any(sum(map(mul, e, x)) for e in eqs):
            return None
        return [sum(map(mul, b, x)) for b in bary]

    def _image(self, w: Sequence[int], images: Sequence[RPoint]) -> RPoint:
        """The image of a point of the simplex, given by its integer
        barycentric weights w (``_weights``, all >= 0), under the affine map
        sending the vertices to ``images``.  The images' vectors are
        combined with w over one lcm (``linalg._combination``); the weights
        add up to their common denominator, so the sum is a vector of the
        image, made primitive, and the image is the same point whichever
        simplex holding the point is asked."""
        x = linalg._combination(w, [y._homog for y in images])
        return RPoint._from_homog(linalg._primitive(x))

    def barycentric(self, p: RPoint) -> Optional[tuple[Fraction, ...]]:
        """Barycentric coordinates of p, or None if p is off the affine hull."""
        x = _homogeneous(p, self.ambient_dim)
        w = self._weights(x)
        if w is None:
            return None
        q = self._point_rows[2] * x[-1]
        return tuple(Fraction(a, q) for a in w)

    def contains(self, p: RPoint) -> bool:
        w = self._weights(_homogeneous(p, self.ambient_dim))
        return w is not None and all(a >= 0 for a in w)

    def barycenter(self) -> RPoint:
        rows = self._vertex_rows
        return RPoint._from_homog(linalg._primitive(linalg._combination([1] * len(rows), rows)))

    def __repr__(self):
        return "conv(" + ", ".join(repr(v) for v in self.vertices) + ")"


def _adds_up(volumes: Sequence[tuple[int, int]], wholes: Sequence[tuple[int, int]]) -> bool:
    """Do the volumes, pairs (a, b) standing for a / b with b > 0, add up to
    the sum of ``wholes``, pairs of the same kind?  Compared in integers
    over the lcm L of all the denominators: sum a (L / b) on both sides.
    The tiling test (``subdivide._tiles``) and the cube test's volume
    clause (``_triangulates_cube``), whose one whole is n!, ask it."""
    lcm = math.lcm(*(b for _, b in volumes), *(b for _, b in wholes))
    return sum(a * (lcm // b) for a, b in volumes) == sum(a * (lcm // b) for a, b in wholes)


def _homogeneous(p: RPoint, n: int) -> tuple[int, ...]:
    """p's cached vector d(p, 1); p must lie in R^n."""
    if p.dim != n:
        raise ValueError(f"a point in R^{p.dim} is not in R^{n}")
    return p._homog


# The rows are GeoSimplex._point_rows now.  bench/tracer.py still reads
# ``simplex_hrep.cache_info()`` in every traced run and bench/make_golden.py
# empties it, so this cached stand-in stays until those scripts stop.
@lru_cache(maxsize=None)
def simplex_hrep(s: GeoSimplex):
    """The integer rows (E, B) of ``GeoSimplex._point_rows``."""
    return s._point_rows[:2]


# The box is GeoSimplex._box now.  bench/make_golden.py still empties
# ``_bbox`` with the module-level caches, so a no-op stands in for it until
# that script stops calling it.
_bbox = SimpleNamespace(cache_clear=lambda: None)


def _closure(simplexes: Iterable[tuple]) -> set[tuple]:
    """Every nonempty face of the given vertex tuples, each as the tuple
    that ``itertools.combinations`` takes out of it, so the faces of a
    sorted tuple are sorted: the closure of rank tuples is rank tuples."""
    return {f for s in simplexes for k in range(1, len(s) + 1)
            for f in itertools.combinations(s, k)}


def _points_box(rows: Sequence[tuple]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The bounding box of points given as homogeneous integer vectors, as
    integer corners (lo, hi) over one denominator D, the lcm of the point
    denominators: the box is [lo/D, hi/D]."""
    d = math.lcm(*(x[-1] for x in rows))
    columns = list(zip(*(tuple(c * (d // x[-1]) for c in x[:-1]) for x in rows)))
    return tuple(map(min, columns)), tuple(map(max, columns)), d


def _bbox_overlap(abox: tuple, bbox: tuple) -> bool:
    """Do two boxes (``_points_box``) meet?"""
    (alo, ahi, da), (blo, bhi, db) = abox, bbox
    return all(al * db <= bh * da and bl * da <= ah * db
               for al, ah, bl, bh in zip(alo, ahi, blo, bhi))


def _separated(a: GeoSimplex, b: GeoSimplex, shared: set) -> bool:
    """A cheap sufficient test that a cap b = conv(S), for the set S of
    shared vertices (as ``_vertex_rows`` vectors).

    Let R be the vertices of b outside S.  When R is empty, b is a face of
    a.  Otherwise look for an affine form f among a's rows with f >= 0 on a,
    f = 0 on S and f < 0 on R: a barycentric form of a whose vertex is not
    shared, or an affine-hull equality of a, up to sign, that is nonzero
    with one sign on R.  Each row evaluated at X = d(w, 1) with d > 0 has
    the sign of f(w).  Then f <= 0 on b, with f = 0 exactly on the face
    conv(S) of b, so a cap b lies in {f >= 0} cap b = conv(S), which is a
    face of both.  The proof uses only that f is affine, so how a's forms
    extend off aff(a) does not matter.  False means "not shown", not
    "improper".
    """
    rest = [x for x in b._vertex_rows if x not in shared]
    if not rest:
        return True
    eqs, bary, _ = a._point_rows
    for row, v in zip(bary, a._vertex_rows):
        if v not in shared and all(sum(map(mul, row, x)) < 0 for x in rest):
            return True
    for row in eqs:
        values = [sum(map(mul, row, x)) for x in rest]
        if all(t > 0 for t in values) or all(t < 0 for t in values):
            return True
    return False


def _meet_in_common_face(a: GeoSimplex, b: GeoSimplex) -> bool:
    """The defining condition: a cap b = conv(S), for the set S of shared
    vertices.

    Disjoint bounding boxes or a separating form of either simplex
    (``_separated``), in that order, settle the pair.  Otherwise clip a by
    b's constraints, its hull equalities as rows and their negations and its
    barycentric forms (``linalg.clip_simplex``), which gives the vertices of
    the cell a cap b with their tight masks.  Bit i of a mask is set iff a's
    barycentric form i is 0 at that vertex: it is set on the vertices of a,
    and a new vertex lies strictly inside an edge of the cell, where a form
    vanishes iff it vanishes at both ends.  A point of a lies in conv(S)
    iff its barycentric forms vanish off S, and the convex set a cap b
    lies in conv(S) iff its vertices do; conv(S) lies in a cap b anyway.
    So the pair is proper iff every mask holds the bits of a's unshared
    vertices, which an empty cell satisfies.
    """
    if not _bbox_overlap(a._box, b._box):
        return True
    shared = set(a._vertex_rows).intersection(b._vertex_rows)
    if _separated(a, b, shared) or _separated(b, a, shared):
        return True
    eqs, bary, _ = b._point_rows
    cell = linalg.clip_simplex(
        a._vertex_rows, eqs + tuple(tuple(-c for c in e) for e in eqs) + bary)
    unshared = sum(1 << i for i, x in enumerate(a._vertex_rows) if x not in shared)
    return all(m & unshared == unshared for _, m in cell)


def _boundary_facets(cx: GeoComplex) -> Optional[list[tuple[GeoSimplex, int, tuple]]]:
    """The facet pass that the cube and hull tests share: each facet of a
    maximal simplex is keyed by its vertex rank tuple.  None when a maximal
    simplex is not an n-simplex of R^n, when a facet lies in three or more
    maximal simplexes, or in two, a and b, which drop a's
    vertex i and b's vertex j, with (-1)^(i+j) det a det b >= 0, so that
    they lie on one side of it.  Otherwise the facets that lie in one
    maximal simplex, as (simplex, index of the dropped vertex, key).

    The vectors X_j = d_j(p_j, 1) of a facet F are listed in one order in
    both a and b, so moving the dropped vertex last gives det a =
    (-1)^(n-i) det(F, X) and det b = (-1)^(n-j) det(F, Y) for the dropped
    vectors X and Y; det(F, .) is a linear form vanishing on F's vectors,
    whose sign at a vector with positive last entry tells the side of F the
    point lies on.  It reads each simplex's determinant ``_det``.
    """
    n, maxi = cx.ambient_dim, cx.maximal_simplexes()
    if any(len(s.vertices) != n + 1 for s in maxi):
        return None
    facets: dict[tuple[int, ...], list] = {}
    for s, r in zip(maxi, cx._ranks):
        for i in range(n + 1):
            facets.setdefault(r[:i] + r[i + 1:], []).append((s, i))
    boundary = []
    for key, holders in facets.items():
        if len(holders) == 1:
            boundary.append((*holders[0], key))
        elif len(holders) == 2:
            (a, i), (b, j) = holders
            if (-1) ** (i + j) * a._det * b._det >= 0:
                return None
        else:
            return None
    return boundary


def _triangulates_cube(cx: GeoComplex) -> bool:
    """A test in time linear in the size of cx, and sufficient for the
    common-face condition: True shows that cx triangulates [0,1]^n, for n
    its ambient dimension; False means "not shown".  It reads each maximal
    simplex's determinant ``_det`` and no barycentric row.  It holds when

    (a) every maximal simplex has dimension n;
    (b) every vertex lies in [0,1]^n;
    (c) each facet, keyed by its vertex tuple, lies in at most two maximal
        simplexes;
    (d) a facet in one maximal simplex lies in a facet of the cube: all its
        vertices have some coordinate 0, or all have it 1;
    (e) two maximal simplexes sharing a facet lie on opposite sides of it,
        read off their orientations (``_boundary_facets``, which checks (a),
        (c) and (e));
    (f) the volumes add up to the cube's: with the product q_s of the
        vertex denominators of each maximal simplex s (``GeoSimplex._volume``),
        sum |det s| / q_s = n!, compared in integers (``_adds_up``).

    The vectors X_j = d_j(p_j, 1) of a simplex have det = q_s det(p_j, 1),
    so |det s| / q_s is n! times the volume of s.

    Call a point of the open cube generic when it lies on no facet; the
    number k of simplexes holding a generic point is locally constant.  Two
    generic points are joined by a path avoiding the (n-2)-faces and the
    meets of distinct facet hyperplanes, which have codimension 2, so where
    it crosses a facet, at z, z is in the relative interior of every facet
    holding it, and those lie in one hyperplane.  By (d) none of them lies
    in only one simplex, as z is inside the cube, so by (c) each lies in
    two, which by (e) lie on opposite sides: the crossing trades one
    simplex for the other and k does not change.  So k is the same at every
    generic point, and at least 1, as the interior of any maximal simplex
    holds generic points.  The simplexes lie in the cube by (b), and the
    points that are not generic have volume 0, so the volumes add up to k
    times the cube's volume 1, and (f) makes k = 1.  The simplexes cover
    the generic points, so |cx| is the cube.

    Now let x lie in a and b, in the relative interiors of their faces C_a
    and C_b.  In a ball around x meeting only simplexes that hold x, count
    the simplexes having C_a as a face.  Take a facet crossed in the ball,
    shared by a' and b', where a' has C_a as a face and b' has not.  Then
    C_a holds the vertex of a' off the facet, but x lies in a' cap b',
    which is the facet, so x's carrier in a', which is C_a, lies in the
    facet: a contradiction.  So that count is constant in the ball too, and
    positive inside a: the simplexes having C_a cover the generic points
    near x, and so do those having C_b.  A generic point near x lies in one
    simplex only, which then has both as faces and holds x in the relative
    interior of each, so C_a = C_b.  So x lies in the convex hull of the
    vertices that a and b share, and a cap b is that common face.

    A cube wound twice by two triangulations fails (f); a facet met across
    by smaller facets (a T-junction) lies in one simplex and fails (d).
    Every corner of the cube is a vertex of any triangulation of it, so a
    complex missing one is turned down before the facets are keyed.

    Conversely every triangulation of the cube passes: its maximal
    simplexes are n-simplexes, two of them on one side of a common facet
    would overlap, a facet in one lies on the boundary and so in a facet of
    the cube, and the volumes of the simplexes add up to the cube's.  So on
    a simplicial complex the test decides whether |cx| = [0,1]^n.
    """
    n, maxi, verts = cx.ambient_dim, cx.maximal_simplexes(), cx.vertices()
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
    boundary = _boundary_facets(cx)
    if boundary is None or not all(reduce(and_, (low[k] for k in key))
                                   or reduce(and_, (high[k] for k in key))
                                   for _, _, key in boundary):
        return False
    return _adds_up([s._volume(None) for s in maxi], [(math.factorial(n), 1)])


def _triangulates_hull(cx: GeoComplex) -> bool:
    """True shows that cx triangulates the convex hull C of its vertices;
    False means "not shown".  It reads determinants and one normal per
    hyperplane of the boundary, in time linear in the size of cx times
    their number.  It holds when

    (a) every maximal simplex has dimension n, the ambient dimension;
    (c), (e) of ``_triangulates_cube`` hold (``_boundary_facets``, which
        checks (a) too);
    (h) a facet in one maximal simplex s supports C: its normal, signed
        positive on s, is >= 0 at every vertex;
    (k) for the least vertex v, the first maximal simplex s, which has v,
        and the barycentre b of s, every other maximal simplex t having v
        gives b a negative barycentric coordinate at some vertex u != v;
        by Cramer's rule its sign is that of det t times the determinant
        of t's vectors with b's in place of u's.

    By (h) a facet in one simplex lies in a hyperplane missing the interior
    of C, so as for the cube the number k of simplexes holding a point of
    the interior of C on no facet (a generic point) is the same at every
    generic point.  A convex combination of points greater than v is
    greater, so v is a vertex of C and of every simplex holding it.  For
    0 < e <= 1, q = v + e(b - v) lies in the interior of s, and in a t
    having v its coordinates off v are e times b's, so by (k) no other t
    having v holds q; the simplexes without v miss a ball around q for e
    small, so generic points near q lie in s alone and k = 1.  The union
    of the simplexes is closed and holds every generic point once, so it
    is C, and the second half of the cube proof, with C for the cube,
    shows that any two meet in a common face.  A facet on a hyperplane
    already found spans it, and that hyperplane is >= 0 at every vertex,
    so it is positive at the vertex of s off the facet: (h) holds for the
    facet with no normal of its own.

    Conversely a triangulation of a convex polytope by n-simplexes passes:
    a facet in one simplex lies in the supporting hyperplane of C at a
    point of its relative interior, q lies in s alone, and a t failing (k)
    would hold q for every e.  So on a complex of n-simplexes the test
    decides whether the support is convex.  Stacked triangulations fail
    (k), a T-junction fails (h) and a fold (e).
    """
    n, maxi = cx.ambient_dim, cx.maximal_simplexes()
    boundary = _boundary_facets(cx)
    if boundary is None:
        return False
    vectors = [v._homog for v in cx.vertices()]
    planes = []
    for s, i, _ in boundary:
        x = s._vertex_rows
        facet = x[:i] + x[i + 1:]
        if any(all(sum(map(mul, row, y)) == 0 for y in facet) for row in planes):
            continue
        row = linalg.normal(facet)
        if sum(map(mul, row, x[i])) < 0:
            row = tuple(-c for c in row)
        if any(sum(map(mul, row, y)) < 0 for y in vectors):
            return False
        planes.append(row)
    # (n + 1) L (b, 1), for the lcm L of the first simplex's denominators.
    b = linalg._combination([1] * (n + 1), maxi[0]._vertex_rows)
    for t, r in zip(maxi[1:], cx._ranks[1:]):
        if r[0]:
            return True
        x = t._vertex_rows
        if all(linalg.det(x[:u] + (b,) + x[u + 1:]) * t._det >= 0 for u in range(1, n + 1)):
            return False
    return True


def _independent_vertices(cx: GeoComplex) -> bool:
    """The vertices of cx are affinely independent: one rank computation.
    Then every simplex of cx is a face of the simplex S they span, and two
    faces of S meet in the face spanned by their common vertices, as a
    point of S has one set of barycentric coordinates.  Every ``realize``
    output has this shape."""
    verts = cx.vertices()
    return (len(verts) <= cx.ambient_dim + 1
            and linalg.rank_det([v._homog for v in verts])[0] == len(verts))


def _maximal_ranked(ranked: list, count: int) -> list:
    """The (rank tuple, simplex) pairs of ``ranked``, distinct rank tuples
    over ``count`` vertices, whose rank tuple lies in no other: s is kept
    iff its vertex stars meet in s alone."""
    if len({len(r) for r, _ in ranked}) == 1:
        return ranked
    stars: list[set] = [set() for _ in range(count)]
    for r, _ in ranked:
        for k in r:
            stars[k].add(r)
    return [(r, s) for r, s in ranked if len(set.intersection(*(stars[k] for k in r))) == 1]


# The questions whose answers depend on |cx| alone, which a complex with the
# same support inherits (``GeoComplex._on_table``).
_ON_SUPPORT = frozenset({"cube", "convex", "covers"})


class GeoComplex:
    """Finite simplicial complex, stored as its sorted maximal simplexes
    and their vertex rank tuples over the sorted vertex table."""

    # ``closed`` is ignored; it stays while bench/tracer.py passes it on.
    def __init__(self, simplexes: Iterable[GeoSimplex], validate: bool = True,
                 closed: bool = False):
        simplexes = list(simplexes)
        if not simplexes:
            raise NotASimplicialComplex("a complex needs at least one simplex")
        if len({s.ambient_dim for s in simplexes}) != 1:
            raise NotASimplicialComplex("mixed ambient dimensions")
        # The vertex table is read off the whole input: a simplex dropped
        # below lies in a kept one, so it adds no vertex.  Vertices are
        # ranked by hashing, as ``_fill`` and ``subdivide`` rank theirs: a
        # point hashes as its vector, once per object, and the table is
        # sorted, so no rank depends on the order a set iterates in.
        table = sorted({v for s in simplexes for v in s.vertices})
        rank = dict(zip(table, range(len(table)))).__getitem__
        # Simplex order is the lexicographic order of vertex tuples, so
        # tuples of vertex ranks sort them without comparing points.  Equal
        # simplexes have one rank tuple, which keeps the first of them.
        unique: dict[tuple[int, ...], GeoSimplex] = {}
        for s in simplexes:
            unique.setdefault(tuple(map(rank, s.vertices)), s)
        self._fill(table, _maximal_ranked(sorted(unique.items()), len(table)))
        if validate:
            self._validate()

    @classmethod
    def _on_table(cls, table: Sequence[RPoint],
                  ranked: Iterable[tuple[tuple[int, ...], GeoSimplex]],
                  support: Optional[GeoComplex] = None) -> GeoComplex:
        """The complex on the vertex table ``table``, sorted distinct
        points each a vertex of some simplex, whose maximal simplexes are
        ``ranked``: (rank tuple, simplex) pairs sorted by rank tuple, none
        inside another.  No point is compared and nothing is validated, so
        the caller proves all of that.  ``support``, when given, is a
        complex with the same support, whose kept answers about the support
        alone the new complex starts with (``_answer``)."""
        cx = cls.__new__(cls)
        cx._fill(table, ranked)
        if support is not None:
            cx._answers.update((key, a) for key, a in support._answers.items()
                               if key[0] in _ON_SUPPORT)
        return cx

    def _fill(self, table: Sequence[RPoint],
              ranked: Iterable[tuple[tuple[int, ...], GeoSimplex]]) -> None:
        """Set the fields of both constructors from the table and the
        sorted (rank tuple, simplex) pairs of the maximal simplexes."""
        self.ambient_dim = table[0].dim
        self._vertices = tuple(table)
        self._rank = dict(zip(self._vertices, range(len(table))))
        self._ranks, self._maximal = zip(*ranked)

    def _validate(self):
        """Check the common-face condition by the tests of the module
        docstring, in its order; the cube and hull tests' answers are kept
        (``_is_cube``, ``_is_convex``).  Only the
        pair loop rejects, at the first failing pair in
        ``itertools.combinations`` order, as before the linear tests."""
        maxi = self.maximal_simplexes()
        if len(maxi) == 1 or self._is_cube():
            return
        if len(maxi) > 2 and (_independent_vertices(self) or self._is_convex()):
            return
        for a, b in itertools.combinations(maxi, 2):
            if not _meet_in_common_face(a, b):
                raise NotASimplicialComplex(
                    f"not a simplicial complex: {a} and {b} do not meet in a common face")

    @_cached
    def _answers(self) -> dict:
        """The memo of ``_answer``, made on first use."""
        return {}

    def _answer(self, key: tuple, compute):
        """The answer to a question about the whole complex, ``compute()``
        on the first ask and kept after in ``_answers``; answers about a
        point are kept in ``_hosts``.  A key is a tuple whose first item
        names the question.  The answer must depend only on ``key`` and on
        the maximal simplexes, which never change, so it cannot go stale; a
        question that raises is asked again next time.

        Three answers depend on |cx| alone: whether it is the cube
        (``_is_cube``, as the cube test decides |cx| = [0,1]^n on a
        simplicial complex), whether it is a convex set of the ambient
        dimension (``_is_convex``) and whether it covers a polyhedron
        (``subdivide.covers``).  A subdivision has the support of the
        complex it subdivides, so it starts with that complex's kept
        answers to all three (``_on_table``); the inside subcomplex
        depends on the simplexes and is found again.  An inside subcomplex
        adapted to a polyhedron of full dimension has the polyhedron's
        support, so it is handed that polyhedron's convex answer
        (``subdivide._adapted``)."""
        answers = self._answers
        if key not in answers:
            answers[key] = compute()
        return answers[key]

    def _is_cube(self) -> bool:
        """``_triangulates_cube`` of this complex, asked once."""
        return self._answer(("cube",), lambda: _triangulates_cube(self))

    def _is_convex(self) -> bool:
        """Is |cx| a convex set of the ambient dimension n?  Asked once.
        Yes when cx is one n-simplex, when its kept cube answer is yes (read
        here, never run), or when ``_triangulates_hull`` shows |cx| =
        conv(vertices).  The answer depends on |cx| alone, as ``_on_table``
        needs.  If |cx| is an n-dimensional convex set C, the n-simplexes
        of cx hold a dense part of C, as the others have measure zero, and
        so, being finitely many and closed, all of C; a lower maximal
        simplex would share a point of its relative interior with one of
        them, which would then have it as a face.  So every maximal simplex
        has dimension n, and on such a complex the hull test decides
        convexity.  A lower-dimensional support answers no, a single
        simplex's too, as its subdivisions would."""
        maxi = self._maximal
        return self._answer(("convex",), lambda: (
            len(maxi) == 1 and maxi[0].dim == self.ambient_dim
            or self._answers.get(("cube",)) is True or _triangulates_hull(self)))

    # -- structure ---------------------------------------------------------

    def maximal_simplexes(self) -> tuple[GeoSimplex, ...]:
        return self._maximal

    @_cached
    def simplexes(self) -> frozenset:
        """Every face, one per rank tuple of the closure (``_closure``)."""
        return frozenset(map(self._simplex, _closure(self._ranks)))

    @_cached
    def _by_ranks(self) -> dict[tuple[int, ...], GeoSimplex]:
        """Each maximal simplex under its rank tuple."""
        return dict(zip(self._ranks, self._maximal))

    def _simplex(self, r: tuple[int, ...]) -> GeoSimplex:
        """The face with the rank tuple r.  A maximal simplex is its own
        object, with its cached ``_det`` and rows; any other face is built
        on its vertices, which are sorted, distinct and independent."""
        return self._by_ranks.get(r) or GeoSimplex._raw(tuple(map(self._vertices.__getitem__, r)))

    def vertices(self) -> tuple[RPoint, ...]:
        return self._vertices

    @property
    def dim(self) -> int:
        return max(s.dim for s in self._maximal)

    @_cached
    def _hosts(self) -> dict[RPoint, frozenset[int]]:
        """The host map of ``hosts``: each point asked so far mapped to the
        indices into ``maximal_simplexes()`` of the maximal simplexes
        holding it.  It starts as each vertex mapped to its star, the
        maximal simplexes having it as a vertex."""
        stars: list[list[int]] = [[] for _ in self._vertices]
        for i, r in enumerate(self._ranks):
            for k in r:
                stars[k].append(i)
        return dict(zip(self._vertices, map(frozenset, stars)))

    def __contains__(self, s: GeoSimplex) -> bool:
        """s is a simplex of the complex iff its vertices are vertices of
        one maximal simplex, that is iff their stars meet.  The host map
        (``_hosts``) holds each vertex's star, and the hosts of points
        that are not vertices too, so the vertex table is asked first."""
        if not all(v in self._rank for v in s.vertices):
            return False
        return bool(frozenset.intersection(*map(self._hosts.__getitem__, s.vertices)))

    def __len__(self) -> int:
        return len(self.simplexes)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeoComplex) and self._maximal == other._maximal

    def __hash__(self) -> int:
        return hash(self._maximal)

    def __repr__(self):
        return (f"GeoComplex(dim {self.dim} in R^{self.ambient_dim}, "
                f"{len(self._maximal)} maximal simplexes)")

    # -- point queries -----------------------------------------------------

    def _locate(self, p: RPoint) -> Optional[tuple[GeoSimplex, list[int]]]:
        """A maximal simplex s containing p, with p's integer barycentric
        weights w in s (``GeoSimplex._weights``); None when p is outside
        the support.  Scans the maximal simplexes in order, with a
        bounding-box prefilter before the integer test."""
        x = _homogeneous(p, self.ambient_dim)
        d = x[-1]
        for s in self.maximal_simplexes():
            lo, hi, e = s._box
            if any(c * e < a * d or c * e > b * d for c, a, b in zip(x, lo, hi)):
                continue
            w = s._weights(x)
            if w is not None and all(a >= 0 for a in w):
                return s, w
        return None

    def carrier(self, p: RPoint) -> Optional[GeoSimplex]:
        """Minimal simplex containing p: the one holding p in its relative
        interior.  None when p is outside the support.

        Take a maximal simplex holding p (``_locate``): its face spanned by
        the vertices where p's barycentric coordinates are positive holds p
        in its relative interior.  That simplex is unique in a complex, so
        the maximal simplex found does not matter; a vertex of the complex
        is a vertex of every maximal simplex holding it.
        """
        found = self._locate(p)
        if found is None:
            return None
        s, w = found
        return GeoSimplex._raw(tuple(v for v, a in zip(s.vertices, w) if a > 0))

    def hosts(self, p: RPoint) -> frozenset[int]:
        """The indices into ``maximal_simplexes()`` of the maximal simplexes
        holding p; empty when p lies outside the support or in another
        ambient dimension.

        One read of the host map (``_hosts``), which starts as the
        vertices' stars.  A vertex v of the complex lies in a simplex t only
        as a vertex: t and the simplex {v} meet in a common face, which
        holds v, so it is {v}.  So the hosts of v are its star.  Any other p
        has one carrier C, the face on the positive barycentric coordinates
        of the maximal simplex that ``_locate`` finds, which holds p in its
        relative interior.  If a simplex t holds p, then t cap C is a face
        of C holding a point of its relative interior, so it is C, and C is
        a face of t; conversely a t with C as a face holds p.  So the hosts
        of p are the maximal simplexes having every vertex of C, the
        intersection of their stars.  The host map keeps them under p, so
        each point that is not a vertex is located once.
        """
        if p.dim != self.ambient_dim:
            return frozenset()
        hosts = self._hosts
        found = hosts.get(p)
        if found is None:
            located, found = self._locate(p), frozenset()
            if located is not None:
                s, w = located
                found = frozenset.intersection(*(hosts[v] for v, a in zip(s.vertices, w) if a > 0))
            hosts[p] = found
        return found

    def contains_point(self, p: RPoint) -> bool:
        """p in the support; unlike ``hosts``, a point of another ambient
        dimension is an error."""
        _homogeneous(p, self.ambient_dim)
        return bool(self.hosts(p))


def from_maximal(simplexes: Sequence[GeoSimplex]) -> GeoComplex:
    """The complex of the given simplexes; validates the complex condition."""
    return GeoComplex(simplexes, validate=True)


# -- abstract complexes ----------------------------------------------------


class AbsComplex:
    """Abstract simplicial complex: distinct ordered vertex labels plus the
    nonempty subsets of the given faces, whose union is the vertex set.  A
    face is a tuple of indices into ``vertices``: ``given`` keeps the
    nonempty faces as given, each as its sorted index tuple, and they
    generate ``faces``, their closure (``_closure``), built the first time
    it is read.  A face and its subsets hold the same vertices, so the
    vertex cover is checked on ``given``.  Equality and the hash are those
    of the labelled complex: the label set and the faces as label sets."""

    def __init__(self, vertices: Sequence[Hashable], faces: Iterable[Sequence[int]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be distinct")
        self.given = frozenset(tuple(sorted(set(f))) for f in faces if f)
        if set().union(*self.given) != set(range(len(self.vertices))):
            raise ValueError("the union of the faces must be the vertex set")

    @_cached
    def faces(self) -> frozenset[tuple[int, ...]]:
        return frozenset(_closure(self.given))

    def _labelled(self) -> frozenset[frozenset]:
        """The faces as label sets, which equality and the hash compare."""
        return frozenset(frozenset(map(self.vertices.__getitem__, f)) for f in self.faces)

    def __eq__(self, other):
        return (isinstance(other, AbsComplex)
                and set(self.vertices) == set(other.vertices)
                and self._labelled() == other._labelled())

    def __hash__(self):
        return hash((frozenset(self.vertices), self._labelled()))

    def __repr__(self):
        return f"AbsComplex({len(self.vertices)} vertices, {len(self.faces)} faces)"


class WeightedComplex:
    """Abstract complex together with a positive integer weight per vertex,
    ``weights`` in the order of ``base.vertices``."""

    __slots__ = ("base", "weights")

    def __init__(self, base: AbsComplex, weights: Sequence[int]):
        if len(weights) != len(base.vertices):
            raise ValueError("weights must be defined exactly on the vertices")
        if any(int(w) < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        self.base = base
        self.weights = tuple(map(int, weights))

    def __repr__(self):
        return f"WeightedComplex({len(self.base.vertices)} vertices)"


def skeleton(cx: GeoComplex) -> AbsComplex:
    """Abstract skeleton: its vertices are cx's vertex table, labelled by
    their points, and its given faces the rank tuples of the maximal
    simplexes (``GeoComplex._ranks``)."""
    return AbsComplex(cx.vertices(), cx._ranks)


def standard_cube(n: int) -> GeoComplex:
    """Standard triangulation of [0,1]^n (Freudenthal 1942; Kuhn 1960):
    simplexes are convex hulls of chains in {0,1}^n under the product
    order; n! maximal simplexes, one per order of the axes.

    The corners in ``itertools.product`` order are sorted, so they are the
    vertex table, and corner c has the rank sum c_j 2^(n-1-j).  A maximal
    chain rises in the product order, so its ranks rise and it is sorted,
    and its steps are distinct unit vectors, so it is affinely independent:
    no point is compared and no rank check is made.

    Each simplex is handed its determinant (``GeoSimplex._det``), with no
    elimination.  The chain's vertex vectors are X_0 = (0, 1) and X_i =
    X_i-1 + (e_ai, 0).  Subtracting each row from the next leaves the
    determinant as it is and the rows (0, 1), (e_a1, 0), ..., (e_an, 0);
    expanding along the first, whose one entry 1 sits in column n + 1,
    gives (-1)^n times the determinant of the rows e_a1, ..., e_an, the
    sign of the axis order, (-1) to its number of inversions.

    The complex keeps its answer to the cube test (``_is_cube``), True with
    no test run.  The chain of the order a_1, ..., a_n of the axes spans
    the simplex {x : 1 >= x_a1 >= ... >= x_an >= 0}: its vertices satisfy
    the inequalities, and a point satisfying them is the convex combination
    of the chain with weights 1 - x_a1, x_a1 - x_a2, ..., x_an.  Every
    point of the cube satisfies them for an order sorting its coordinates,
    and a point of two such simplexes has ties x_ai = x_ai+1 wherever their
    orders differ, so it lies in the simplex of their common chain, a face
    of both.  So the chains triangulate the cube.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    corners = [RPoint._from_homog(key + (1,)) for key in itertools.product((0, 1), repeat=n)]
    ranked = []
    for perm in itertools.permutations(range(n)):
        chain = [0]
        for i in perm:
            chain.append(chain[-1] | 1 << (n - 1 - i))
        det = (-1) ** (n + sum(a > b for a, b in itertools.combinations(perm, 2)))
        ranked.append((tuple(chain), GeoSimplex._raw(tuple(map(corners.__getitem__, chain)), det)))
    cube = GeoComplex._on_table(corners, sorted(ranked, key=itemgetter(0)))
    cube._answers[("cube",)] = True
    return cube


def _placement(w: WeightedComplex) -> list[RPoint]:
    """Each vertex's point in the realization: vertex i goes to
    e_i / weights[i] in R^k, for k vertices."""
    k = len(w.weights)
    return [RPoint._from_homog((0,) * i + (1,) + (0,) * (k - 1 - i) + (weight,))
            for i, weight in enumerate(w.weights)]


def realize(w: WeightedComplex) -> GeoComplex:
    """Geometric realization on scaled basis vectors (``_placement``), built
    from the faces the abstract complex was given, less each face that lies
    in another (``_maximal_ranked``), so the rest of the closure adds
    nothing.

    Points on distinct positive multiples of distinct basis vectors are
    linearly, hence affinely, independent, so no face takes a rank check.
    No point is compared either: for indices i < j, coordinate i is the
    first where e_i / w_i and e_j / w_j differ, and there 1 / w_i > 0, so
    e_i / w_i is the greater point.  A face's vertices in point order are
    its vertices in descending index, its sorted index tuple reversed.
    Every vertex lies in a given face, so the vertex table of the
    realization is the placement in descending index, where vertex i has
    rank k - 1 - i (``GeoComplex._on_table``)."""
    table = _placement(w)[::-1]
    top = len(table) - 1
    ranked = [(r, GeoSimplex._raw(tuple(map(table.__getitem__, r))))
              for r in sorted(tuple(top - i for i in reversed(f)) for f in w.base.given)]
    return GeoComplex._on_table(table, _maximal_ranked(ranked, len(table)))
