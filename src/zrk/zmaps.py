"""Piecewise-linear maps with the Z-map criterion, retract verification,
and the constructive reduction of a cube retraction to a section/retraction
pair through a weighted abstract complex.

A PL map is stored as a compatible triangulation of its domain plus one
rational image point per vertex; evaluation interpolates barycentrically
inside the carrier, so the map is affine on every simplex by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import subdivide
from .collapse import CollapseSequence, find_collapse_sequence
from .complexes import (GeoComplex, GeoSimplex, RPoint, WeightedComplex,
                        realize, skeleton, standard_cube)
from .regular import (BudgetExhausted, den, desingularize_relative,
                      coprime_point, is_regular, is_strongly_regular_polyhedron,
                      desingularize)


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
        simplex holding p, with the weights ``GeoComplex._locate`` found
        there (``GeoSimplex._image``); coordinates that are
        zero drop out, so this is the interpolation in the carrier.  A
        domain vertex v is a vertex of every simplex holding it (its carrier
        is {v}), so its coordinates are a unit vector and the result is
        images[v], returned unsearched."""
        if p in self.images:
            return self.images[p]
        found = self.domain._locate(p)
        if found is None:
            raise DomainError(f"point not in support: {p}")
        s, w = found
        return s._image(w, self.image_simplex_points(s))

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
    if not all(is_regular(s) for s in eta.domain.maximal_simplexes()):
        eta = eta.rebase(desingularize(eta.domain))
    return all(den(v) % den(y) == 0 for v, y in eta.images.items())


# -- composition and fixity --------------------------------------------------


def compose(eta: PLMap, theta: PLMap) -> PLMap:
    """theta after eta, as a PL map on a refinement of eta's domain.

    ``refine_for_map`` decides whether eta's image lies in |theta's
    domain|: it cuts eta's domain until each simplex maps into one simplex
    there, and refuses where the preimage cells of a simplex do not tile
    it, or where the spaces differ.  Either is a containment failure."""
    try:
        refined = subdivide.refine_for_map(eta, theta.domain)
    except ValueError:  # SupportMismatch, or another ambient dimension
        raise DomainError("image containment failure: composition undefined") from None
    return PLMap(refined.domain, {v: theta.eval(y) for v, y in refined.images.items()})


def _image_leaving(eta: PLMap, cx: GeoComplex) -> Optional[GeoSimplex]:
    """The first maximal simplex of eta's domain whose image hull leaves
    |cx|, or None."""
    return next((s for s in eta.domain.maximal_simplexes()
                 if not subdivide.supports(cx, eta.image_simplex_points(s))), None)


def fixes_pointwise(eta: PLMap, part: GeoComplex) -> bool:
    """Is eta the identity on |part|?  Decided exactly on a refinement of
    part: ``refine_for_map`` cuts part until each simplex lies in one
    simplex of eta's domain, where eta is affine, and the refined simplexes
    cover |part|, so eta fixes |part| iff it fixes their vertices.  |part|
    outside |domain|, or in another space, is a containment failure."""
    try:
        refined = subdivide.refine_for_map(identity_map(part), eta.domain).domain
    except ValueError:  # SupportMismatch, or another ambient dimension
        raise DomainError("containment failure: |P| is not inside the domain") from None
    return all(eta.eval(v) == v for v in refined.vertices())


# -- retract verification ----------------------------------------------------


def verify_zretract(part: GeoComplex, eta: PLMap) -> bool:
    """Z-map from the whole cube onto |part| fixing |part| pointwise.  Only
    part is refined, for the fixity (``fixes_pointwise``); eta's domain is
    never restricted to |part|, a construction that slices all of it."""
    if eta.domain.ambient_dim != part.ambient_dim:
        raise DomainError("domain mismatch: ambient dimensions differ")
    if not eta.domain._is_cube():
        raise DomainError("domain mismatch: the domain must triangulate the unit cube")
    if not is_zmap(eta) or _image_leaving(eta, part) is not None:
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
    by label; this is the one check of them on the constructive path, as
    ``pipeline_dh`` establishes them without checking.  The skeleton is
    delta's vertex table and rank tuples (``skeleton``), and the weights
    are the image denominators in that order.

    Once (a)-(h) hold, xi and mu are Z-maps and mu . xi fixes |P|, so
    neither is checked again (``verify_section_retraction`` re-checks the
    pair on its own):
    - (a) gives w_v = den(v) on the inside vertices, and (f) makes
      ``inside`` regular, so den(xi(v)) = w_v divides den(v).
    - The realized simplexes have the vectors (e_v, w_v), whose columns at
      their vertices form an identity block, so q is regular, and
      den(mu(p_v)) = den(eta(v)) = w_v = den(p_v).
    - On an inside simplex xi is affine onto its realized face, where mu is
      affine and sends p_v to eta(v) = v.  So mu . xi is the identity on
      |inside|, which is |P| by (e).
    The strong regularity of q does not follow from (a)-(h), which ask
    (h) of the n-dimensional maximal simplexes only, so it is decided with
    them, on the weights, with no elimination.  The given faces of the
    skeleton are the maximal simplexes of delta, none in another, so they
    realize as the maximal simplexes of q, and q is strongly regular iff
    each of them is: regular, which holds as above, with vertex
    denominators of gcd 1 (``regular.is_strongly_regular_simplex``).  The
    vector (e_v, w_v) of p_v = e_v / w_v has an entry 1, so it is
    primitive, and the denominator of p_v is w_v.  So q is strongly regular
    iff the weights of each maximal simplex of delta have gcd 1.

    The placement is read off q: every vertex lies in a given face, so q's
    vertex table is the placement in descending index (``realize``).
    """
    inside, weights = _check_part1_properties(eta, delta, part)
    w = WeightedComplex(skeleton(delta), weights)
    q = realize(w)
    placement = q.vertices()[::-1]
    xi = PLMap(inside, {v: placement[delta._rank[v]] for v in inside.vertices()})
    mu = PLMap(q, dict(zip(placement, eta.images.values())))
    return SectionRetraction(w, q, xi, mu)


def _check_part1_properties(eta: PLMap, delta: GeoComplex,
                            part: GeoComplex) -> tuple[GeoComplex, list[int]]:
    """Check the retraction properties; return the subcomplex inside |P|
    and the image denominators in delta's vertex order.  (h) is read off
    one gcd per maximal simplex: the first n-dimensional one whose gcd is
    not 1 is reported by its gcd, and any other realizes as a face that is
    not strongly regular (``part2_reduce``)."""
    if eta.domain != delta:
        raise PropertyViolation("(d)", "the map is not compatible with the "
                                       "given triangulation")
    inside = subdivide.inside_subcomplex(delta, part)
    if not subdivide._adapted(inside, part):
        raise PropertyViolation("(e)", "the inside simplexes do not "
                                       "triangulate |P|")
    if not all(is_regular(s) for s in inside.maximal_simplexes()):
        raise PropertyViolation("(f)", "the triangulation of |P| is not regular")
    leaving = _image_leaving(eta, part)
    if leaving is not None:
        raise PropertyViolation("(a)", f"the image of {leaving} leaves |P|")
    for v in inside.vertices():
        if eta.images[v] != v:
            raise PropertyViolation("(a)", f"vertex {v} is not fixed")
    # eta's domain equals delta, so its images are in delta's vertex order.
    weights = [den(y) for y in eta.images.values()]
    gcds = [math.gcd(*map(weights.__getitem__, r)) for r in delta._ranks]
    for s, g in zip(delta.maximal_simplexes(), gcds):
        if g != 1 and s.dim == delta.ambient_dim:
            raise PropertyViolation("(h)", f"gcd of image denominators on {s} is {g}")
    if any(g != 1 for g in gcds):
        raise PropertyViolation("(h)", "the realized weighted complex is not "
                                       "strongly regular")
    return inside, weights


# -- the constructive pipeline (part 1, steps C-H) ----------------------------


@dataclass(frozen=True)
class PipelineResult:
    map: PLMap
    triangulation: GeoComplex
    collapse_sequence: Optional[CollapseSequence]
    status: str  # 'ok' | 'unknown'


def pipeline_dh(eta_b: PLMap, part: GeoComplex,
                collapse_budget: int = 100_000) -> PipelineResult:
    """Turn a rational PL retraction of the cube onto |P| into a pair
    (eta, Delta) with the retraction properties (a)-(h).

    Steps: standard cube triangulation, common refinement with the given
    domain, restriction to |P|, relative desingularization, the fixity
    assignment with carrier refinement, and coprime blow-ups of the
    offending top simplexes.  Collapsibility of the result is re-certified
    by search; an inconclusive search yields status 'unknown'.

    Each fact is established once.  (a)-(h) are not checked here: they
    follow from the steps, and ``part2_reduce`` checks them at its input.
    - (iii) is decided up front, on P's own maximal simplexes
      (``is_strongly_regular_polyhedron``), so a P failing it is refused
      before steps C-F run.  By that function's lemma, step F's regular
      triangulation I of |P|, the inside subcomplex, is then strongly
      regular, so step H's hosts are strongly regular simplexes.
    - Step F returns I, the subcomplex its blow-ups kept up to date
      (``desingularize_relative``), so I is never searched for after it.
    - Step G keeps I, so step H reads it.  ``refine_for_map`` keeps each
      simplex of I: its vertices are fixed and share a host.  Any other
      simplex s meets |P| only in proper faces of s that lie in I, so no
      piece of s, and no face of a piece, adds an inside simplex.
    - Step G's ``refine_for_map`` returns eta_g, not only delta_g: it
      images each new vertex on the simplex it cut the vertex from, whose
      vertex images it holds, so no vertex of delta_g is located in delta.
    - Step H does not touch |P|.  An n-simplex of I is regular and fixed,
      so its image denominators, a column of a unimodular matrix, are
      coprime: an offending s is not in I, and its barycentre lies in its
      interior, which misses |P|.
    - (a)-(h) hold for (eta_h, delta_h).  (d) holds by construction, (e)
      by step E, kept by steps F-H, and (f) by step F.  Step G fixes the
      vertices of I and maps each simplex into a simplex of I, and each
      cone of step H maps into the simplex of I holding its centre's image,
      which gives (a).  (h): a cone of an offending s has its barycentre as
      a vertex, whose image denominator is coprime to the lcm of s's.
    """
    n = part.ambient_dim
    if eta_b.domain.ambient_dim != n:
        raise ConditionViolation("(i)", "retraction and |P| live in different spaces")
    if not eta_b.domain._is_cube():
        raise ConditionViolation("(i)", "the retraction domain must triangulate "
                                        "the unit cube")
    if _image_leaving(eta_b, part) is not None:
        raise ConditionViolation("(i)", "the supplied map is not a "
                                        "retraction onto |P|")
    if not fixes_pointwise(eta_b, part):
        raise ConditionViolation("(i)", "the supplied map does not fix |P|")
    if not _lattice_points_in(part):
        raise ConditionViolation("(ii)", "|P| misses every vertex of the cube")
    if not is_strongly_regular_polyhedron(part):
        raise ConditionViolation("(iii)", "|P| has no strongly regular "
                                          "triangulation")

    # Step C: a collapsible start; Step D: make the retraction simplexwise
    # affine on it.
    delta = subdivide.common_refinement(standard_cube(n), eta_b.domain)
    # Step E: adapt to |P|.
    delta = subdivide.restrict(delta, part)
    # Step F: make the inside triangulation regular.
    delta, inside = desingularize_relative(delta, part)
    # Step G: fix |P| vertexwise, then refine until every simplex maps into
    # one inside simplex.  The inside simplexes triangulate |P|, so a vertex
    # of delta lies in |P| exactly when it is a vertex of one of them.
    eta_g = subdivide.refine_for_map(
        PLMap(delta, {v: v if v in inside._rank else eta_b.eval(v)
                      for v in delta.vertices()}), inside)
    # Step H: blow up the top simplexes with non-coprime image denominators
    # at their barycentres, each imaged to a point of the first inside
    # simplex holding its vertex images.  An offending s is maximal and
    # n-dimensional, so s is the carrier of its barycentre and its own star:
    # the blow-ups are moves of ``subdivide._Stars``, built only when some
    # simplex offends, and one complex is built from it.  The barycentre c
    # is sum p_j / (n + 1), so its vector d_c (c, 1) is the sum of the
    # vertex vectors X_j = d_j (p_j, 1) with the coefficients
    # d_c / ((n + 1) d_j) that each move is handed.
    images = dict(eta_g.images)
    offending = [s for s in eta_g.domain.maximal_simplexes() if s.dim == n
                 and math.gcd(*(den(images[v]) for v in s.vertices)) != 1]
    stars = subdivide._Stars(eta_g.domain) if offending else None
    for s in offending:
        first = min(frozenset.intersection(*(inside.hosts(images[v])
                                             for v in s.vertices)))
        center = s.barycenter()
        images[center] = coprime_point(inside.maximal_simplexes()[first],
                                       math.lcm(*(den(images[v]) for v in s.vertices)))
        stars.replace(center, {v: (den(center), (n + 1) * den(v)) for v in s.vertices})
    delta_h = stars.complex() if offending else eta_g.domain
    eta_h = PLMap(delta_h, images)

    seq = find_collapse_sequence(delta_h, budget=collapse_budget)
    status = "ok" if seq is not None else "unknown"
    return PipelineResult(eta_h, delta_h, seq, status)


def _lattice_points_in(part: GeoComplex) -> list[RPoint]:
    """The vertices of [0,1]^n in |part|, in ``itertools.product`` order.

    Requires |part| inside [0,1]^n (``certify_main`` checks the vertex
    bounds; ``pipeline_dh`` has checked that a triangulation of the cube
    fixes |part| pointwise).  A cube vertex is an extreme point of the
    cube, so it lies in |part| exactly when it is a vertex of the
    triangulation; the sorted vertex order is the product order.  A point
    is a cube vertex iff every entry of its integer vector d(p, 1) is 0 or
    1, its denominator d included, so no ``Fraction`` is compared.
    """
    return [v for v in part.vertices() if all(c in (0, 1) for c in v._homog)]


# -- the certifier ------------------------------------------------------------


@dataclass(frozen=True)
class RetractWitnesses:
    collapse_complex: Optional[GeoComplex] = None
    collapse_sequence: Optional[CollapseSequence] = None
    lattice_vertex: Optional[RPoint] = None
    strongly_regular: Optional[GeoComplex] = None


@dataclass(frozen=True)
class RetractVerdict:
    status: str  # 'certified' | 'refuted' | 'unknown'
    witnesses: Optional[RetractWitnesses] = None
    refutation_reason: Optional[str] = None
    # Why an 'unknown' verdict is unknown: 'desing-budget' or
    # 'collapse-search'.  It explains a run, so it takes no part in
    # equality and the .scx verdict does not hold it.
    unknown_reason: Optional[str] = field(default=None, compare=False)


def certify_main(part: GeoComplex, budget: int = 100_000,
                 desing_budget: int = 10_000) -> RetractVerdict:
    """Decide Z-retract status through the three certifiable conditions.

    A refutation names every condition that verifiably fails ((ii): no cube
    vertex in |P|; (iii): no strongly regular triangulation).  A
    certification carries independently replayable witnesses.  When only
    the collapse search is inconclusive, or desingularization exhausts
    ``desing_budget`` so that (iii) stays undecided, the verdict is
    'unknown', with the reason 'collapse-search' or 'desing-budget':
    contractibility itself is not decided here.

    (iii) is decided on P's own maximal simplexes
    (``is_strongly_regular_polyhedron``), which is what testing a
    desingularization sigma of P would answer.  So a P with no cube vertex
    that passes (iii) is refuted by (ii) alone before ``desingularize``
    runs.  It still runs where sigma is the regular witness, and where its
    budget tells a (iii) refutation from an undecided (iii): a verdict
    names (iii) only if sigma was found within ``desing_budget``.
    """
    for *x, d in (v._homog for v in part.vertices()):
        if min(x) < 0 or max(x) > d:
            raise DomainError("|P| must lie inside the unit cube")
    lattice = _lattice_points_in(part)
    strongly_regular = is_strongly_regular_polyhedron(part)
    if not lattice and strongly_regular:
        return RetractVerdict("refuted", refutation_reason="(ii)")
    try:
        sigma = desingularize(part, budget=desing_budget)
    except BudgetExhausted:
        sigma = None  # condition (iii) stays undecided
    failed = [] if lattice else ["(ii)"]
    if sigma is not None and not strongly_regular:
        failed.append("(iii)")
    if failed:
        return RetractVerdict("refuted", refutation_reason=",".join(failed))
    if sigma is None:
        return RetractVerdict("unknown", unknown_reason="desing-budget")
    for candidate in (part,) if sigma is part else (part, sigma):
        seq = find_collapse_sequence(candidate, budget=budget)
        if seq is not None:
            return RetractVerdict(
                "certified",
                witnesses=RetractWitnesses(
                    collapse_complex=candidate,
                    collapse_sequence=seq,
                    lattice_vertex=lattice[0],
                    strongly_regular=sigma))
    return RetractVerdict("unknown", unknown_reason="collapse-search")
