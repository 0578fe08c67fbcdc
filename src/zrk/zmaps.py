"""Piecewise-linear maps with the Z-map criterion, retract verification,
and the constructive reduction of a cube retraction to a section/retraction
pair through a weighted abstract complex.

A PL map is stored as a compatible triangulation of its domain plus one
rational image point per vertex; evaluation interpolates barycentrically
inside the carrier, so the map is affine on every simplex by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import linalg, subdivide
from .collapse import CollapseSequence, find_collapse_sequence
from .complexes import (AbsComplex, GeoComplex, GeoSimplex, RPoint,
                        WeightedComplex, realize, skeleton, standard_cube)
from .exactnum import smith_with_transforms
from .regular import (BudgetExhausted, den, desingularize_relative,
                      coprime_point, has_strongly_regular_triangulation,
                      is_regular, is_strongly_regular, desingularize)


class DomainError(ValueError):
    pass


class PropertyViolation(ValueError):
    """A labelled violation of one of the retraction properties (a)-(h)."""

    def __init__(self, label: str, message: str):
        super().__init__(f"property {label} violated: {message}")
        self.label = label


class ConditionViolation(ValueError):
    """A labelled violation of a certifier condition (i)-(iii)."""

    def __init__(self, label: str, message: str):
        super().__init__(f"condition {label} violated: {message}")
        self.label = label


class PLMap:
    """Piecewise-linear map: a domain triangulation plus vertex images."""

    __slots__ = ("domain", "images", "codomain_dim")

    def __init__(self, domain: GeoComplex, images: dict):
        missing = [v for v in domain.vertices() if v not in images]
        if missing:
            raise ValueError(f"missing images for vertices {missing[:3]}")
        self.domain = domain
        self.images = {v: images[v] for v in domain.vertices()}
        dims = {img.dim for img in self.images.values()}
        if len(dims) != 1:
            raise ValueError("vertex images must share an ambient dimension")
        self.codomain_dim = dims.pop()

    def eval(self, p: RPoint) -> RPoint:
        """Barycentric interpolation of the vertex images in a maximal
        simplex holding p; coordinates that are zero drop out, so this is
        the interpolation in the carrier."""
        found = self.domain._locate(p)
        if found is None:
            raise DomainError(f"point not in support: {p}")
        s, w, q = found
        coords = [Fraction(0)] * self.codomain_dim
        for weight, v in zip(w, s.vertices):
            if weight:
                for i, c in enumerate(self.images[v].coords):
                    coords[i] += weight * c
        return RPoint(tuple(c / q for c in coords))

    def image_simplex_points(self, s: GeoSimplex) -> list[RPoint]:
        return [self.images[v] for v in s.vertices]

    def rebase(self, finer: GeoComplex) -> "PLMap":
        """The same map expressed on a subdivision of the domain."""
        return PLMap(finer, {v: self.eval(v) for v in finer.vertices()})

    def __repr__(self):
        return (f"PLMap(R^{self.domain.ambient_dim} -> R^{self.codomain_dim}, "
                f"{len(self.domain.vertices())} vertices)")


def identity_map(cx: GeoComplex) -> PLMap:
    return PLMap(cx, {v: v for v in cx.vertices()})


# -- the Z-map criterion -----------------------------------------------------


def is_zmap(eta: PLMap) -> bool:
    """Divisibility criterion on a regular domain: den(eta(v)) | den(v).

    A non-regular domain is first desingularized (the map itself is
    unchanged); on regular domains the criterion is equivalent to every
    linear piece having integer coefficients.
    """
    domain = eta.domain
    if not all(is_regular(s) for s in domain.maximal_simplexes()):
        domain = desingularize(domain)
        eta = eta.rebase(domain)
    return all(den(v) % den(eta.images[v]) == 0 for v in domain.vertices())


def is_zmap_by_fit(eta: PLMap) -> bool:
    """Directly fit an integer-coefficient affine map on every maximal
    simplex (the independent route; agrees with the divisibility criterion
    on regular domains)."""
    return all(_integer_fit_exists(s, eta.image_simplex_points(s))
               for s in eta.domain.maximal_simplexes())


def _integer_fit_exists(s: GeoSimplex, images: Sequence[RPoint]) -> bool:
    """Is there an integer matrix [A | b] with A v_i + b = images_i on s?

    Written homogeneously: T . den(v_i)(v_i, 1) = den(v_i) * images_i must
    be solvable for an integer T, which the Smith form of the vertex matrix
    decides column by column.
    """
    from .regular import homog

    hv = [homog(v).entries for v in s.vertices]
    m = len(images[0].coords)
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
    u, d_mat, w = smith_with_transforms(v_mat)
    # T V = Y  <=>  (T U^-1)(U V W) = Y W  with U V W = D.
    y = [list(col) for col in zip(*rhs_cols)]  # m x k
    yw = _int_matmul(y, w)
    n1 = len(v_mat)
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


# -- composition and fixity --------------------------------------------------


def compose(eta: PLMap, theta: PLMap) -> PLMap:
    """theta after eta, as a PL map on a refinement of eta's domain."""
    target = theta.domain
    for s in eta.domain.maximal_simplexes():
        imgs = eta.image_simplex_points(s)
        if not _points_hull_in_support(imgs, target):
            raise DomainError("image containment failure: composition undefined")
    refined = subdivide.refine_for_map(eta.domain, eta, target)
    images = {}
    for v in refined.vertices():
        images[v] = theta.eval(eta.eval(v))
    return PLMap(refined, images)


def _points_hull_in_support(points: Sequence[RPoint], cx: GeoComplex) -> bool:
    """conv(points) inside |cx|, decided exactly."""
    unique = sorted(set(points))
    d = linalg.aff_dim([p.coords for p in unique])
    # Caratheodory: the hull is the union of the simplexes spanned by its
    # affinely independent (d+1)-subsets.
    return all(subdivide.supports(cx.maximal_simplexes(), GeoSimplex._raw(sub))
               for sub in itertools.combinations(unique, d + 1)
               if linalg.affinely_independent([p.coords for p in sub]))


def fixes_pointwise(eta: PLMap, part: GeoComplex) -> bool:
    """Is eta the identity on |part|?  Decided exactly by refining the
    domain against |part| and checking fixity on the inside vertices."""
    if not all(subdivide.supports(eta.domain.maximal_simplexes(), q)
               for q in part.maximal_simplexes()):
        raise DomainError("containment failure: |P| is not inside the domain")
    refined = subdivide.restrict(eta.domain, part)
    inside = subdivide.inside_subcomplex(refined, part)
    if inside is None:
        raise DomainError("containment failure: no simplex of the refined "
                          "domain lies inside |P|")
    return all(eta.eval(v) == v for v in inside.vertices())


# -- retract verification ----------------------------------------------------


def _is_unit_cube_triangulation(cx: GeoComplex) -> bool:
    """|cx| = [0,1]^n, decided through exact volumes."""
    n = cx.ambient_dim
    for v in cx.vertices():
        if any(c < 0 or c > 1 for c in v.coords):
            return False
    total = Fraction(0)
    for s in cx.maximal_simplexes():
        total += linalg.simplex_volume([v.coords for v in s.vertices])
    return total == 1


def verify_zretract(part: GeoComplex, eta: PLMap) -> bool:
    """Z-map from the whole cube onto |part| fixing |part| pointwise."""
    if eta.domain.ambient_dim != part.ambient_dim:
        raise DomainError("domain mismatch: ambient dimensions differ")
    if not _is_unit_cube_triangulation(eta.domain):
        raise DomainError("domain mismatch: the domain must triangulate the unit cube")
    if not is_zmap(eta):
        return False
    for s in eta.domain.maximal_simplexes():
        if not _points_hull_in_support(eta.image_simplex_points(s), part):
            return False
    return fixes_pointwise(eta, part)


def verify_section_retraction(part: GeoComplex, mu: PLMap, nu: PLMap) -> bool:
    """Z-maps mu and nu with mu(nu(v)) = v on |part|."""
    if nu.domain.ambient_dim != part.ambient_dim:
        raise DomainError("compatibility failure: nu must be defined on |P|")
    if nu.codomain_dim != mu.domain.ambient_dim:
        raise DomainError("compatibility failure: codomain of nu vs domain of mu")
    if mu.codomain_dim != part.ambient_dim:
        raise DomainError("compatibility failure: mu must land in the space of |P|")
    if not (is_zmap(mu) and is_zmap(nu)):
        return False
    round_trip = compose(nu, mu)
    return fixes_pointwise(round_trip, part)


def retarget_to_carrier_vertices(eta: PLMap, target: GeoComplex,
                                 keep: Callable[[RPoint], bool]) -> PLMap:
    """Replace non-kept vertex images by the least vertex of their carrier.

    Requires each domain simplex to map into a single simplex of target;
    the retargeted map still does (carrier minimality), so its image stays
    inside |target|."""
    for s in eta.domain.maximal_simplexes():
        imgs = eta.image_simplex_points(s)
        if not any(all(t.contains(img) for img in imgs)
                   for t in target.maximal_simplexes()):
            raise DomainError("carrier precondition failure: a simplex image "
                              "is not inside one target simplex")
    images = {}
    for v in eta.domain.vertices():
        img = eta.images[v]
        if keep(v):
            images[v] = img
            continue
        host = target.carrier(img)
        if host is None:
            raise DomainError(f"carrier precondition failure: the image {img} "
                              f"is not inside |target|")
        images[v] = min(host.vertices)
    return PLMap(eta.domain, images)


# -- the constructive reduction (part 2) -------------------------------------


@dataclass(frozen=True)
class SectionRetraction:
    weighted: WeightedComplex
    realization: GeoComplex
    section: PLMap      # xi : |P| -> realization
    retraction: PLMap   # mu : realization -> |P|


def part2_reduce(eta: PLMap, delta: GeoComplex, part: GeoComplex) -> SectionRetraction:
    """Build the weighted skeleton, the section xi, and the retraction mu.

    Verifies the retraction properties (a)-(h) first and reports violations
    by label.  The weights are the image denominators; vertices are
    enumerated in lexicographic order for determinism.
    """
    inside = _check_part1_properties(eta, delta, part)
    verts = sorted(delta.vertices())
    weights = {v: den(eta.images[v]) for v in verts}
    w = WeightedComplex(AbsComplex(verts, skeleton(delta).faces), weights)
    q = realize(w)
    if not is_strongly_regular(q):
        raise PropertyViolation("(h)", "the realized weighted complex is not "
                                       "strongly regular")
    # Realization places vertex i on e_i / weight; rebuild that mapping here.
    k = len(verts)
    placement = {}
    for i, v in enumerate(verts):
        coords = [Fraction(0)] * k
        coords[i] = Fraction(1, weights[v])
        placement[v] = RPoint(tuple(coords))

    xi = PLMap(inside, {v: placement[v] for v in inside.vertices()})
    mu = PLMap(q, {placement[v]: eta.images[v] for v in verts})
    if not is_zmap(xi):
        raise PropertyViolation("(h)", "the section is not a Z-map")
    if not is_zmap(mu):
        raise PropertyViolation("(h)", "the retraction is not a Z-map")
    if not fixes_pointwise(compose(xi, mu), part):
        raise PropertyViolation("(a)", "mu . xi does not fix |P| pointwise")
    return SectionRetraction(w, q, xi, mu)


def _check_part1_properties(eta: PLMap, delta: GeoComplex,
                            part: GeoComplex) -> GeoComplex:
    """Check the retraction properties; return the subcomplex inside |P|."""
    if eta.domain != delta:
        raise PropertyViolation("(d)", "the map is not compatible with the "
                                       "given triangulation")
    inside = subdivide.inside_subcomplex(delta, part)
    if not subdivide._adapted(inside, part):
        raise PropertyViolation("(e)", "the inside simplexes do not "
                                       "triangulate |P|")
    if not all(is_regular(s) for s in inside.simplexes):
        raise PropertyViolation("(f)", "the triangulation of |P| is not regular")
    for s in delta.maximal_simplexes():
        if not _points_hull_in_support(eta.image_simplex_points(s), part):
            raise PropertyViolation("(a)", f"the image of {s} leaves |P|")
    for v in inside.vertices():
        if eta.images[v] != v:
            raise PropertyViolation("(a)", f"vertex {v} is not fixed")
    n = delta.ambient_dim
    for s in delta.maximal_simplexes():
        if s.dim != n:
            continue
        g = 0
        for v in s.vertices:
            g = math.gcd(g, den(eta.images[v]))
        if g != 1:
            raise PropertyViolation("(h)", f"gcd of image denominators on {s} "
                                           f"is {g}")
    return inside


# -- the constructive pipeline (part 1, steps C-H) ----------------------------


@dataclass(frozen=True)
class PipelineResult:
    map: PLMap
    triangulation: GeoComplex
    collapse_sequence: Optional[CollapseSequence]
    status: str  # 'ok' | 'unknown'


def pipeline_dh(eta_b: PLMap, part: GeoComplex,
                collapse_budget: int = 100_000,
                desing_budget: int = 10_000) -> PipelineResult:
    """Turn a rational PL retraction of the cube onto |P| into a pair
    (eta, Delta) with the retraction properties (a)-(h).

    Steps: standard cube triangulation, common refinement with the given
    domain, restriction to |P|, relative desingularization, the fixity
    assignment with carrier refinement, and coprime blow-ups of the
    offending top simplexes.  Collapsibility of the result is re-certified
    by search; an inconclusive search yields status 'unknown'.
    """
    n = part.ambient_dim
    if eta_b.domain.ambient_dim != n:
        raise ConditionViolation("(i)", "retraction and |P| live in different spaces")
    if not _is_unit_cube_triangulation(eta_b.domain):
        raise ConditionViolation("(i)", "the retraction domain must triangulate "
                                        "the unit cube")
    for s in eta_b.domain.maximal_simplexes():
        if not _points_hull_in_support(eta_b.image_simplex_points(s), part):
            raise ConditionViolation("(i)", "the supplied map is not a "
                                            "retraction onto |P|")
    if not fixes_pointwise(eta_b, part):
        raise ConditionViolation("(i)", "the supplied map does not fix |P|")
    if not _lattice_points_in(part):
        raise ConditionViolation("(ii)", "|P| misses every vertex of the cube")
    if not has_strongly_regular_triangulation(part, budget=desing_budget):
        raise ConditionViolation("(iii)", "|P| has no strongly regular "
                                          "triangulation")

    # Step C: a collapsible start; Step D: make the retraction simplexwise
    # affine on it.
    delta = subdivide.common_refinement(standard_cube(n), eta_b.domain)
    # Step E: adapt to |P|.
    delta = subdivide.restrict(delta, part)
    # Step F: make the inside triangulation regular.
    delta = desingularize_relative(delta, part, budget=desing_budget)
    # Step G: fix |P| vertexwise, then refine until every simplex maps into
    # one inside simplex.
    inside = subdivide.inside_subcomplex(delta, part)
    eta_f = PLMap(delta, {
        v: (v if inside is not None and part.contains_point(v) else eta_b.eval(v))
        for v in delta.vertices()})
    delta_g = subdivide.refine_for_map(delta, eta_f, inside)
    eta_g = eta_f.rebase(delta_g)
    # Step H: blow up the top simplexes with non-coprime image denominators.
    delta_h = delta_g
    images = dict(eta_g.images)
    inside_h = subdivide.inside_subcomplex(delta_h, part)
    offending = []
    for s in delta_g.maximal_simplexes():
        if s.dim != n:
            continue
        g = 0
        for v in s.vertices:
            g = math.gcd(g, den(images[v]))
        if g != 1:
            offending.append(s)
    for s in offending:
        center = s.barycenter()
        host = next(t for t in inside_h.maximal_simplexes()
                    if all(t.contains(images[v]) for v in s.vertices))
        k = 1
        for v in s.vertices:
            k = k * den(images[v]) // math.gcd(k, den(images[v]))
        images[center] = coprime_point(host, k)
        delta_h = subdivide.stellar(delta_h, center)
    eta_h = PLMap(delta_h, {v: images[v] if v in images else eta_g.eval(v)
                            for v in delta_h.vertices()})

    _check_part1_properties(eta_h, delta_h, part)
    seq = find_collapse_sequence(delta_h, budget=collapse_budget)
    status = "ok" if seq is not None else "unknown"
    return PipelineResult(eta_h, delta_h, seq, status)


def _lattice_points_in(part: GeoComplex) -> list[RPoint]:
    """The vertices of [0,1]^n in |part|, in ``itertools.product`` order.

    Requires |part| inside [0,1]^n (``certify_main`` checks the vertex
    bounds; ``pipeline_dh`` has checked that a triangulation of the cube
    fixes |part| pointwise).  A cube vertex is an extreme point of the
    cube, so it lies in |part| exactly when it is a vertex of the
    triangulation; the sorted vertex order is the product order.
    """
    return [v for v in part.vertices() if all(c in (0, 1) for c in v.coords)]


# -- the certifier ------------------------------------------------------------


@dataclass(frozen=True)
class RetractWitnesses:
    collapse_complex: Optional[GeoComplex] = None
    collapse_sequence: Optional[CollapseSequence] = None
    lattice_vertex: Optional[RPoint] = None
    strongly_regular: Optional[GeoComplex] = None
    retraction: Optional[PLMap] = None


@dataclass(frozen=True)
class RetractVerdict:
    status: str  # 'certified' | 'refuted' | 'unknown'
    witnesses: Optional[RetractWitnesses] = None
    refutation_reason: Optional[str] = None


def certify_main(part: GeoComplex, budget: int = 100_000,
                 desing_budget: int = 10_000) -> RetractVerdict:
    """Decide Z-retract status through the three certifiable conditions.

    A refutation names every condition that verifiably fails ((ii): no cube
    vertex in |P|; (iii): no strongly regular triangulation).  A
    certification carries independently replayable witnesses.  When only
    the collapse search is inconclusive, or desingularization exhausts
    ``desing_budget`` so that (iii) stays undecided, the verdict is
    'unknown': contractibility itself is not decided here.
    """
    n = part.ambient_dim
    for v in part.vertices():
        if any(c < 0 or c > 1 for c in v.coords):
            raise DomainError("|P| must lie inside the unit cube")
    lattice = _lattice_points_in(part)
    try:
        sigma = desingularize(part, budget=desing_budget)
    except BudgetExhausted:
        sigma = None  # condition (iii) stays undecided
    failed = []
    if not lattice:
        failed.append("(ii)")
    if sigma is not None and not is_strongly_regular(sigma):
        failed.append("(iii)")
    if failed:
        return RetractVerdict("refuted", refutation_reason=",".join(failed))
    if sigma is None:
        return RetractVerdict("unknown")
    for candidate in (part, sigma):
        seq = find_collapse_sequence(candidate, budget=budget)
        if seq is not None:
            return RetractVerdict(
                "certified",
                witnesses=RetractWitnesses(
                    collapse_complex=candidate,
                    collapse_sequence=seq,
                    lattice_vertex=lattice[0],
                    strongly_regular=sigma))
    return RetractVerdict("unknown")
