"""Simplicial complexes over exact rational coordinates.

Geometric complexes store all faces explicitly and check the defining
common-face condition on construction, pair by pair over the maximal
simplexes: a bounding-box test first, then a separating form read off the
cached integer rows of either simplex (``_separated``), and only when
neither settles the pair one exact LP whose infeasibility (a Farkas
certificate) or zero optimum shows the pair meets in a common face.
Abstract and weighted abstract complexes carry the combinatorial
skeletons.

Point location and independence are exact integer arithmetic.  Each point
caches its primitive homogeneous vector X = d(p, 1), for the least common
denominator d of p (``linalg.homogeneous``), and a tuple of points is
affinely independent iff the rank of their vectors is their number.  Each
simplex caches, on first use, its affine-hull equalities and barycentric
forms as integer rows E and B with one common denominator D > 0, read off
one fraction-free Gauss-Jordan elimination of its vertex vectors
(``linalg.simplex_rows``): p lies on the affine hull iff E X = 0, and its
barycentric coordinates are B X / (D d), so a containment test compares
integer signs.  The same vectors and rows are what ``linalg``'s cell
kernel clips and pulls.
``GeoComplex.carrier`` finds a vertex by set lookup and otherwise the first
maximal simplex holding p, whose face on the positive coordinates is the
carrier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from types import SimpleNamespace
from typing import Hashable, Iterable, Optional, Sequence

from . import linalg
from .exactnum import format_rat, parse_rat


class NotASimplicialComplex(ValueError):
    pass


@dataclass(frozen=True, order=True)
class RPoint:
    """A rational point with a fixed ambient dimension."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("ambient dimension must be >= 1")
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    @cached_property
    def _homog(self) -> tuple[int, ...]:
        """The primitive homogeneous vector d(p, 1), computed once, like
        ``_hash``."""
        return linalg.homogeneous(self.coords)

    @cached_property
    def _hash(self) -> int:
        return hash((self.coords,))

    def __hash__(self) -> int:
        # The generated hash, computed once: otherwise every set or cache
        # lookup hashes each Fraction coordinate again.  ``_hash`` lives in
        # the instance dict, not in a field, so equality, ordering and repr
        # ignore it.
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(format_rat(c) for c in self.coords) + ")"


def rpoint(*coords) -> RPoint:
    """Build an RPoint from ints, Fractions or 'p/q' strings."""
    if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
        coords = tuple(coords[0])
    return RPoint(tuple(parse_rat(c) if isinstance(c, str) else Fraction(c)
                        for c in coords))


@dataclass(frozen=True, order=True)
class GeoSimplex:
    """Simplex with affinely independent rational vertices in canonical
    (lexicographic) order, so equality is structural."""

    vertices: tuple[RPoint, ...]

    def __post_init__(self):
        vs = tuple(sorted(set(self.vertices)))
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        if len({v.dim for v in vs}) != 1:
            raise ValueError("vertices must share an ambient dimension")
        if linalg.matrix_rank([v._homog for v in vs]) != len(vs):
            raise ValueError("vertices are not affinely independent")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _raw(cls, vertices: tuple[RPoint, ...]) -> "GeoSimplex":
        """Skip validation for vertex tuples known to be sorted, distinct and
        affinely independent (faces of existing simplexes)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertices", vertices)
        return obj

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices,))

    def __hash__(self) -> int:
        # As RPoint: the generated hash, computed once per instance.
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return self.vertices[0].dim

    def faces(self) -> Iterable["GeoSimplex"]:
        """All nonempty faces, the simplex itself included."""
        for k in range(1, len(self.vertices) + 1):
            for sub in itertools.combinations(self.vertices, k):
                yield GeoSimplex._raw(sub)

    @cached_property
    def _point_rows(self) -> tuple[tuple[tuple[int, ...], ...],
                                   tuple[tuple[int, ...], ...], int]:
        """The equalities E, barycentric forms B and denominator D of
        ``linalg.simplex_rows``.

        Cached on the instance (the dataclass is frozen but has a
        ``__dict__``), so the rows go away with the simplex.
        """
        return linalg.simplex_rows(self._vertex_rows)

    @cached_property
    def _box(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """The bounding box (lowest corner, highest corner), cached on the
        instance like ``_point_rows``."""
        columns = list(zip(*(v.coords for v in self.vertices)))
        return tuple(map(min, columns)), tuple(map(max, columns))

    @cached_property
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

    def relint_contains(self, p: RPoint) -> bool:
        w = self._weights(_homogeneous(p, self.ambient_dim))
        return w is not None and all(a > 0 for a in w)

    def barycenter(self) -> RPoint:
        k = Fraction(1, len(self.vertices))
        coords = [Fraction(0)] * self.ambient_dim
        for v in self.vertices:
            for i, c in enumerate(v.coords):
                coords[i] += k * c
        return RPoint(tuple(coords))

    def __repr__(self):
        return "conv(" + ", ".join(repr(v) for v in self.vertices) + ")"


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


def _bbox_overlap(a: GeoSimplex, b: GeoSimplex) -> bool:
    (alo, ahi), (blo, bhi) = a._box, b._box
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(alo, ahi, blo, bhi))


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
    """The defining condition: a cap b = conv(shared vertices).

    Disjoint bounding boxes, or a separating form of either simplex
    (``_separated``), settle the pair.  Otherwise: a point of a cap b is
    sum(mu_v v) over the vertices of a and sum(nu_w w) over those of b,
    with mu, nu >= 0 summing to 1 each.  The vertices of a are affinely
    independent, so mu is the point's barycentric coordinate vector in a,
    and the point lies in conv(shared) exactly when mu vanishes off the
    shared vertices.  One exact LP maximises that off-shared mass over
    a cap b: the pair meets in a common face iff the LP is infeasible
    (a cap b is empty) or its optimum is 0.
    """
    if not _bbox_overlap(a, b):
        return True
    shared = set(a._vertex_rows).intersection(b._vertex_rows)
    if _separated(a, b, shared) or _separated(b, a, shared):
        return True
    # Variables (mu, nu); the column of a vertex v of a is (v, 1, 0) and
    # that of a vertex w of b is (-w, 0, 1).
    cols = ([v.coords + (1, 0) for v in a.vertices]
            + [tuple(-c for c in w.coords) + (0, 1) for w in b.vertices])
    rhs = (0,) * a.ambient_dim + (1, 1)
    off_shared = ([0 if x in shared else 1 for x in a._vertex_rows]
                  + [0] * len(b.vertices))
    best = linalg.lp_maximize(list(zip(*cols)), rhs, off_shared)
    return best is None or best == 0


class GeoComplex:
    """Finite face-closed set of simplexes meeting pairwise in common faces."""

    __slots__ = ("simplexes", "ambient_dim", "_maximal", "_vertices")

    def __init__(self, simplexes: Iterable[GeoSimplex], validate: bool = True,
                 closed: bool = False):
        sset = frozenset(simplexes)
        if not sset:
            raise NotASimplicialComplex("a complex needs at least one simplex")
        dims = {s.ambient_dim for s in sset}
        if len(dims) != 1:
            raise NotASimplicialComplex("mixed ambient dimensions")
        if closed:
            self.simplexes = sset
        else:
            closure = set(sset)
            for s in sset:
                closure.update(s.faces())
            self.simplexes = frozenset(closure)
        self.ambient_dim = dims.pop()
        self._maximal = None
        self._vertices = None
        if validate:
            self._validate()

    def _validate(self):
        maxi = self.maximal_simplexes()
        for a, b in itertools.combinations(maxi, 2):
            if not _meet_in_common_face(a, b):
                raise NotASimplicialComplex(
                    f"not a simplicial complex: {a} and {b} do not meet in a common face")

    # -- structure ---------------------------------------------------------

    def maximal_simplexes(self) -> tuple[GeoSimplex, ...]:
        # Face closure makes "is a facet of some simplex" equivalent to
        # non-maximality.
        if self._maximal is None:
            facets = {s.vertices[:i] + s.vertices[i + 1:]
                      for s in self.simplexes for i in range(len(s.vertices))}
            self._maximal = tuple(sorted(s for s in self.simplexes
                                         if s.vertices not in facets))
        return self._maximal

    def vertices(self) -> tuple[RPoint, ...]:
        if self._vertices is None:
            vs = set()
            for s in self.simplexes:
                vs.update(s.vertices)
            self._vertices = tuple(sorted(vs))
        return self._vertices

    @property
    def dim(self) -> int:
        return max(s.dim for s in self.simplexes)

    def __contains__(self, s: GeoSimplex) -> bool:
        return s in self.simplexes

    def __len__(self) -> int:
        return len(self.simplexes)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeoComplex) and self.simplexes == other.simplexes

    def __hash__(self) -> int:
        return hash(self.simplexes)

    def __repr__(self):
        return (f"GeoComplex(dim {self.dim} in R^{self.ambient_dim}, "
                f"{len(self.simplexes)} simplexes, "
                f"{len(self.maximal_simplexes())} maximal)")

    # -- point queries -----------------------------------------------------

    def _locate(self, p: RPoint) -> Optional[tuple[GeoSimplex, list[int], int]]:
        """A maximal simplex s containing p, with p's barycentric coordinates
        in s as integers w over one denominator q > 0; None when p is
        outside the support.  Scans the maximal simplexes in order, with a
        bounding-box prefilter before the integer test."""
        x = _homogeneous(p, self.ambient_dim)
        for s in self.maximal_simplexes():
            lo, hi = s._box
            if any(c < a or c > b for c, a, b in zip(p.coords, lo, hi)):
                continue
            w = s._weights(x)
            if w is not None and all(a >= 0 for a in w):
                return s, w, s._point_rows[2] * x[-1]
        return None

    def carrier(self, p: RPoint) -> Optional[GeoSimplex]:
        """Minimal simplex containing p: the one holding p in its relative
        interior.  None when p is outside the support.

        A vertex of the complex is its own carrier, found by set lookup.
        Otherwise, take a maximal simplex holding p (``_locate``): its face
        spanned by the vertices where p's barycentric coordinates are
        positive holds p in its relative interior.  That simplex is unique
        in a complex, so the maximal simplex found does not matter.
        """
        vertex = GeoSimplex._raw((p,))
        if vertex in self.simplexes:
            return vertex
        found = self._locate(p)
        if found is None:
            return None
        s, w, _ = found
        return GeoSimplex._raw(tuple(v for v, a in zip(s.vertices, w) if a > 0))

    def contains_point(self, p: RPoint) -> bool:
        return self.carrier(p) is not None


def from_maximal(simplexes: Sequence[GeoSimplex]) -> GeoComplex:
    """Face-closure of the given simplexes; validates the complex condition."""
    return GeoComplex(simplexes, validate=True)


# -- abstract complexes ----------------------------------------------------


class AbsComplex:
    """Abstract simplicial complex: ordered vertex labels plus a subset-closed
    family of faces whose union is the vertex set."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices: Sequence[Hashable], faces: Iterable[frozenset]):
        self.vertices = tuple(dict.fromkeys(vertices))
        fset = {frozenset(f) for f in faces}
        fset.discard(frozenset())
        closure = set(fset)
        for f in fset:
            for k in range(1, len(f)):
                closure.update(map(frozenset, itertools.combinations(f, k)))
        self.faces = frozenset(closure)
        covered = set().union(*self.faces) if self.faces else set()
        if covered != set(self.vertices):
            raise ValueError("the union of the faces must be the vertex set")

    def __eq__(self, other):
        return (isinstance(other, AbsComplex)
                and set(self.vertices) == set(other.vertices)
                and self.faces == other.faces)

    def __hash__(self):
        return hash((frozenset(self.vertices), self.faces))

    def __repr__(self):
        return f"AbsComplex({len(self.vertices)} vertices, {len(self.faces)} faces)"


class WeightedComplex:
    """Abstract complex together with a positive integer weight per vertex."""

    __slots__ = ("base", "weights")

    def __init__(self, base: AbsComplex, weights: dict):
        if set(weights) != set(base.vertices):
            raise ValueError("weights must be defined exactly on the vertices")
        if any(int(w) < 1 for w in weights.values()):
            raise ValueError("weights must be positive integers")
        self.base = base
        self.weights = {v: int(w) for v, w in weights.items()}

    def __repr__(self):
        return f"WeightedComplex({len(self.base.vertices)} vertices)"


def skeleton(cx: GeoComplex) -> AbsComplex:
    """Abstract skeleton; vertices are labelled by their geometric points."""
    return AbsComplex(cx.vertices(),
                      [frozenset(s.vertices) for s in cx.simplexes])


def simplicially_isomorphic(a: GeoComplex, b: GeoComplex) -> Optional[dict]:
    """A vertex bijection identifying the two skeletons, or None.

    Exhaustive backtracking with degree-vector pruning; complexes at desk
    scale keep this cheap.
    """
    sa, sb = skeleton(a), skeleton(b)
    va, vb = list(sa.vertices), list(sb.vertices)
    if len(va) != len(vb) or len(sa.faces) != len(sb.faces):
        return None

    def profile(sk, v):
        sizes = sorted(len(f) for f in sk.faces if v in f)
        return tuple(sizes)

    prof_a = {v: profile(sa, v) for v in va}
    prof_b = {w: profile(sb, w) for w in vb}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return None

    faces_by_v_a = {v: [f for f in sa.faces if v in f] for v in va}
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
                    if img not in sb.faces:
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


def standard_cube(n: int) -> GeoComplex:
    """Standard triangulation of [0,1]^n: simplexes are convex hulls of
    chains in {0,1}^n under the product order; n! maximal simplexes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # One RPoint per corner, so equal vertices are the same object.
    corners: dict[tuple[int, ...], RPoint] = {}

    def corner(key: tuple[int, ...]) -> RPoint:
        p = corners.get(key)
        if p is None:
            p = corners[key] = RPoint(tuple(map(Fraction, key)))
        return p

    maxi = []
    for perm in itertools.permutations(range(n)):
        point = [0] * n
        chain = [corner(tuple(point))]
        for i in perm:
            point[i] = 1
            chain.append(corner(tuple(point)))
        maxi.append(GeoSimplex(tuple(chain)))
    return GeoComplex(maxi, validate=False)


def realize(w: WeightedComplex) -> GeoComplex:
    """Geometric realization on scaled basis vectors e_i / weight(v_i).

    Vertex enumeration order is the stored order of the underlying abstract
    complex; the ambient dimension is the number of vertices.
    """
    order = list(w.base.vertices)
    k = len(order)
    placed = {}
    for i, v in enumerate(order):
        coords = [Fraction(0)] * k
        coords[i] = Fraction(1, w.weights[v])
        placed[v] = RPoint(tuple(coords))
    # Points on distinct positive multiples of distinct basis vectors are
    # linearly, hence affinely, independent: no rank check per face.  The
    # faces of an AbsComplex are closed under subsets already.
    simplexes = [GeoSimplex._raw(tuple(sorted(placed[v] for v in f)))
                 for f in w.base.faces]
    return GeoComplex(simplexes, validate=False, closed=True)
