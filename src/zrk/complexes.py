"""Simplicial complexes over exact rational coordinates.

Geometric complexes store all faces explicitly and check the defining
common-face condition on construction, pair by pair over the maximal
simplexes: a bounding-box test first, then one exact LP whose infeasibility
(a Farkas certificate) or zero optimum shows the pair meets in a common
face.  Abstract and weighted abstract complexes carry the combinatorial
skeletons.

Point location is exact integer arithmetic.  Each simplex caches, on first
use, its affine-hull equalities and barycentric forms scaled to integer
rows E and B with one common denominator D > 0.  A point p with least
common denominator d becomes the integer vector X = d(p, 1); p lies on the
affine hull iff E X = 0, and its barycentric coordinates are B X / (D d),
so a containment test compares integer signs.  ``GeoComplex.carrier`` finds
a vertex by set lookup and otherwise the first maximal simplex holding p,
whose face on the positive coordinates is the carrier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
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
        if not linalg.affinely_independent([v.coords for v in vs]):
            raise ValueError("vertices are not affinely independent")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _raw(cls, vertices: tuple[RPoint, ...]) -> "GeoSimplex":
        """Skip validation for vertex tuples known to be sorted, distinct and
        affinely independent (faces of existing simplexes)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertices", vertices)
        return obj

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
        """The forms of ``linalg.simplex_forms`` (equalities E, barycentric
        forms B) as integer rows: D times each form (a, c) is the row
        (D a, D c), for their least common denominator D > 0.

        Cached on the instance (the dataclass is frozen but has a
        ``__dict__``), not in the module-level ``simplex_hrep`` cache, so
        the rows go away with the simplex.
        """
        eqs, bary = linalg.simplex_forms([v.coords for v in self.vertices])
        forms = eqs + bary
        scale = math.lcm(*(x.denominator for f in forms for x in f.coeffs + (f.const,)))

        def row(f: linalg.AffineForm) -> tuple[int, ...]:
            return tuple(x.numerator * (scale // x.denominator)
                         for x in f.coeffs + (f.const,))

        return tuple(map(row, eqs)), tuple(map(row, bary)), scale

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
    """d(p, 1) for the least common denominator d of p's coordinates; p must
    lie in R^n."""
    if p.dim != n:
        raise ValueError(f"a point in R^{p.dim} is not in R^{n}")
    d = math.lcm(*(c.denominator for c in p.coords))
    return tuple(c.numerator * (d // c.denominator) for c in p.coords) + (d,)


@lru_cache(maxsize=None)
def simplex_hrep(s: GeoSimplex):
    """Cached H-representation (equalities, facet forms) of a simplex."""
    return linalg.simplex_forms([v.coords for v in s.vertices])


@lru_cache(maxsize=None)
def _bbox(s: GeoSimplex):
    lo = tuple(min(v[i] for v in s.vertices) for i in range(s.ambient_dim))
    hi = tuple(max(v[i] for v in s.vertices) for i in range(s.ambient_dim))
    return lo, hi


def _bbox_overlap(a: GeoSimplex, b: GeoSimplex) -> bool:
    (alo, ahi), (blo, bhi) = _bbox(a), _bbox(b)
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(alo, ahi, blo, bhi))


def _meet_in_common_face(a: GeoSimplex, b: GeoSimplex) -> bool:
    """The defining condition: a cap b = conv(shared vertices).

    A point of a cap b is sum(mu_v v) over the vertices of a and
    sum(nu_w w) over those of b, with mu, nu >= 0 summing to 1 each.  The
    vertices of a are affinely independent, so mu is the point's
    barycentric coordinate vector in a, and the point lies in conv(shared)
    exactly when mu vanishes off the shared vertices.  One exact LP
    maximises that off-shared mass over a cap b: the pair meets in a common
    face iff the LP is infeasible (a cap b is empty) or its optimum is 0.
    """
    if not _bbox_overlap(a, b):
        return True
    # Variables (mu, nu); the column of a vertex v of a is (v, 1, 0) and
    # that of a vertex w of b is (-w, 0, 1).
    cols = ([v.coords + (1, 0) for v in a.vertices]
            + [tuple(-c for c in w.coords) + (0, 1) for w in b.vertices])
    rhs = (0,) * a.ambient_dim + (1, 1)
    in_b = set(b.vertices)
    off_shared = [0 if v in in_b else 1 for v in a.vertices] + [0] * len(b.vertices)
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
            lo, hi = _bbox(s)
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
    maxi = []
    for perm in itertools.permutations(range(n)):
        chain = []
        point = [Fraction(0)] * n
        chain.append(RPoint(tuple(point)))
        for i in perm:
            point[i] = Fraction(1)
            chain.append(RPoint(tuple(point)))
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
    simplexes = [GeoSimplex(tuple(placed[v] for v in f)) for f in w.base.faces]
    return GeoComplex(simplexes, validate=False)
