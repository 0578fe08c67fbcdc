import collections
import itertools
import math
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from zrk import (GeoSimplex, PLMap, certify_main, compose, desingularize,
                 find_collapse_sequence, fixes_pointwise,
                 from_maximal, identity_map, is_subdivision, is_zmap,
                 part2_reduce, pipeline_dh, replay,
                 restrict, rpoint, standard_cube,
                 stellar, verify_section_retraction, verify_zretract)
from zrk import complexes, subdivide, zmaps
from zrk.cli import main
from zrk.complexes import GeoComplex, WeightedComplex, realize
from zrk.regular import den, is_regular, is_strongly_regular
from zrk.scx import ScxDocument, parse_scx, print_scx
from zrk.zmaps import (ConditionViolation, DomainError, PropertyViolation,
                       _image_leaving, _lattice_points_in)

from conftest import random_rational, random_simplex, seg, tri
import oracles
from oracles import (RestrictionRefused, caratheodory_supports, clip_fixes_pointwise,
                     closure_realize, desingularizing_certify, fraction_eval,
                     json_print_scx,
                     has_strongly_regular_triangulation,
                     is_zmap_by_fit, locate_eval, product_lattice_points,
                     restricted_fixes_pointwise, retarget_to_carrier_vertices,
                     rowwise_restrict, scan_image_leaving, stellar_chain)


def seg2d(a, b):
    return GeoSimplex((rpoint(*a), rpoint(*b)))


def test_eval_golden(tent):
    assert tent.eval(rpoint("3/4")) == rpoint("1/4")
    assert tent.eval(rpoint("1/2")) == rpoint("1/2")
    ident = identity_map(standard_cube(2))
    for p in (rpoint("1/3", "1/3"), rpoint(1, 0), rpoint("1/8", "7/8")):
        assert ident.eval(p) == p


def test_eval_outside_domain(tent):
    with pytest.raises(DomainError, match="point not in support"):
        tent.eval(rpoint(2))


def test_eval_returns_vertex_images_as_interpolation_does():
    # eval returns a domain vertex's image without locating it; the oracle
    # interpolates every point in the simplex _locate finds.  Both agree on
    # vertices, on other points, and on the errors for points outside the
    # support or of another dimension.
    rng = random.Random(20172)

    def point(n, max_den=6):
        return rpoint(*[random_rational(rng, max_den) for _ in range(n)])

    half = rpoint("1/2", "1/2")
    square = from_maximal([tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1))])
    fold = PLMap(square, {v: half if any(v.coords) else v for v in square.vertices()})
    maps = [fold, fold.rebase(stellar(square, point(2, 4)))]
    for n in (2, 3):
        for _ in range(3):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, point(n, 4))
            k = rng.randint(1, 3)
            maps.append(PLMap(cx, {v: point(k) for v in cx.vertices()}))
    vertices = others = 0
    for eta in maps:
        n = eta.domain.ambient_dim
        for v in eta.domain.vertices():
            assert eta.eval(v) == locate_eval(eta, v) == eta.images[v]
            vertices += 1
        for _ in range(15):
            p = point(n)
            if p not in eta.images:
                assert eta.eval(p) == locate_eval(eta, p), (eta, p)
                others += 1
        for p in (rpoint("7/6", *["1/2"] * (n - 1)), rpoint(*[0] * (n + 1)),
                  rpoint(*[1] * (n - 1))):
            with pytest.raises(ValueError) as got:
                eta.eval(p)
            with pytest.raises(ValueError) as want:
                locate_eval(eta, p)
            assert (got.type, str(got.value)) == (want.type, str(want.value))
    assert vertices > 50 and others > 80, (vertices, others)


def test_eval_affine_on_simplexes(tent):
    weights = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
               Fraction(1)]
    for s in tent.domain.maximal_simplexes():
        a, b = s.vertices
        for lam in weights:
            p = rpoint(*[x + lam * (y - x) for x, y in zip(a.coords, b.coords)])
            expected = rpoint(*[x + lam * (y - x) for x, y in
                                zip(tent.eval(a).coords, tent.eval(b).coords)])
            assert tent.eval(p) == expected


def test_is_zmap_golden(tent, tent_domain):
    assert is_zmap(tent)
    bad = PLMap(tent_domain, {rpoint(0): rpoint(0),
                              rpoint("1/2"): rpoint("1/3"),
                              rpoint(1): rpoint(0)})
    assert not is_zmap(bad)
    assert is_zmap(identity_map(standard_cube(2)))


def test_is_zmap_desingularizes_irregular_domain():
    dom = from_maximal([seg("1/3", "2/3")])
    eta = PLMap(dom, {rpoint("1/3"): rpoint(0), rpoint("2/3"): rpoint(1)})
    # 3x - 1 has integer coefficients; the criterion needs the regular
    # refinement to see it
    assert is_zmap(eta)
    assert is_zmap_by_fit(eta)


def test_zmap_criterion_agrees_with_fit(tent):
    assert is_zmap_by_fit(tent)
    rng = random.Random(41)
    image_pool = [rpoint(0), rpoint(1), rpoint("1/2"), rpoint("1/3"),
                  rpoint("1/4"), rpoint("2/3"), rpoint("3/4")]
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    dom = stellar(dom, rpoint("1/4"))
    for _ in range(60):
        eta = PLMap(dom, {v: rng.choice(image_pool) for v in dom.vertices()})
        assert is_zmap(eta) == is_zmap_by_fit(eta)


def test_is_zmap_on_non_regular_domains_matches_the_fit(monkeypatch):
    # is_zmap desingularizes a non-regular domain first, a branch no
    # benchmark map reaches.  On seeded non-regular domains, stellar cubes
    # at non-lattice points and single simplexes with |det| > 1, it answers
    # as the integer fit on every maximal simplex does: for integer affine
    # maps, which are Z-maps, and for images drawn from a pool.
    rng = random.Random(98)
    desingularized = []
    real = zmaps.desingularize
    monkeypatch.setattr(zmaps, "desingularize",
                        lambda cx: desingularized.append(cx) or real(cx))
    domains = [stellar(standard_cube(n), rpoint(*[Fraction(rng.randint(1, 4), 5)
                                                  for _ in range(n)]))
               for n in (1, 2, 3) for _ in range(3)]
    while len(domains) < 18:
        s = random_simplex(rng, rng.randint(1, 3), 5)
        if s.dim == s.ambient_dim and abs(s._det) > 1:
            domains.append(from_maximal([s]))
    answers = collections.Counter()
    for dom in domains:
        assert not all(is_regular(s) for s in dom.maximal_simplexes())
        n = dom.ambient_dim
        for _ in range(4):
            m = rng.randint(1, 2)
            if rng.random() < 0.5:
                a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
                b = [rng.randint(-1, 1) for _ in range(m)]
                images = {v: rpoint(*[sum(x * y for x, y in zip(row, v.coords)) + c
                                      for row, c in zip(a, b)]) for v in dom.vertices()}
            else:
                images = {v: rpoint(*[random_rational(rng, 3) for _ in range(m)])
                          for v in dom.vertices()}
            eta = PLMap(dom, images)
            before = len(desingularized)
            answer = is_zmap(eta)
            assert len(desingularized) == before + 1
            assert answer == is_zmap_by_fit(eta), eta
            answers[answer] += 1
    assert min(answers[True], answers[False]) >= 15, answers


def test_compose_identity(tent):
    ident = identity_map(from_maximal([seg(0, 1)]))
    comp = compose(ident, tent)
    for k in range(9):
        p = rpoint(Fraction(k, 8))
        assert comp.eval(p) == tent.eval(p)


def test_compose_two_tents(tent, tent_domain):
    # full tent (peak 1) followed by the retraction tent (peak 1/2)
    full = PLMap(tent_domain, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint(1),
                               rpoint(1): rpoint(0)})
    comp = compose(full, tent)
    assert sorted(comp.domain.vertices()) == [
        rpoint(0), rpoint("1/4"), rpoint("1/2"), rpoint("3/4"), rpoint(1)]
    images = [comp.images[v] for v in sorted(comp.domain.vertices())]
    assert images == [rpoint(0), rpoint("1/2"), rpoint(0), rpoint("1/2"),
                      rpoint(0)]
    for k in range(9):
        p = rpoint(Fraction(k, 8))
        assert comp.eval(p) == tent.eval(full.eval(p))


def test_compose_zmaps_closed(tent):
    comp = compose(tent, tent)
    assert is_zmap(comp)
    assert is_zmap_by_fit(comp)


def test_fixes_pointwise(tent, half_interval):
    assert fixes_pointwise(tent, half_interval)
    assert not fixes_pointwise(tent, from_maximal([seg(0, 1)]))
    ident = identity_map(from_maximal([seg(0, 1)]))
    assert fixes_pointwise(ident, half_interval)


def test_fixes_pointwise_part_outside_the_domain(tent):
    # |P| outside the domain, partly or in another space, is reported by
    # the refinement of P against the domain and named as a containment
    # failure.
    for part in (from_maximal([seg("1/2", 2)]), from_maximal([seg(2, 3)]),
                 standard_cube(2)):
        with pytest.raises(DomainError, match=r"^containment failure: \|P\| is "
                                              "not inside the domain$"):
            fixes_pointwise(tent, part)


def _stellar_square_and_part():
    """A stellar square K and a part P, a triangle with a dangling edge,
    that ``subdivide.restrict`` adapts K to only by slicing on by the rows
    it left out: the rows it keeps do not adapt K."""
    cx = stellar_chain(standard_cube(2), [rpoint("1/4", 0), rpoint(0, "1/4"),
                                          rpoint(0, "3/4"), rpoint("1/4", "3/4")])
    part = from_maximal([tri((0, "3/4"), ("1/4", "3/4"), (1, 1)),
                         seg2d(("3/4", 1), (1, 1))])
    return cx, part


def test_fixity_is_decided_where_restrict_falls_back(tmp_path, capsys):
    # Fixity refines P, not the map's domain, so it answers on a K and P
    # that restrict adapts to each other only by its left-out rows, where
    # it once refused; retract-verify exits 1 on the constant map, not 65.
    cx, part = _stellar_square_and_part()
    constant = PLMap(cx, {v: rpoint(1, 1) for v in cx.vertices()})
    with pytest.raises(RestrictionRefused, match="failed to adapt"):
        rowwise_restrict(cx, part, fallback=False)
    out = subdivide.restrict(cx, part)
    assert is_subdivision(out, cx)
    assert subdivide.support_equal(subdivide.inside_subcomplex(out, part), part)
    assert fixes_pointwise(identity_map(cx), part)
    assert not fixes_pointwise(constant, part)
    assert not verify_zretract(part, constant)
    for name, doc in (("part", ScxDocument("complex", part)),
                      ("map", ScxDocument("plmap", constant))):
        (tmp_path / f"{name}.scx").write_text(print_scx(doc), encoding="utf-8")
    assert main(["retract-verify", str(tmp_path / "part.scx"),
                 str(tmp_path / "map.scx")]) == 1
    assert capsys.readouterr().out == "not a Z-retraction\n"


def _fixity_triples(rng, count):
    """Seeded (eta, P).  eta's domain is a stellar cube2 or cube3, blown up
    at random points and points of the cube's facets, or its maximal
    simplexes whose least vertex has x_0 < 1/2; eta is the identity, the
    identity with one or two vertex images moved, or the fold
    x -> min(x, 1 - x).  P is a random simplex, a simplex of the domain,
    or in the square a triangle with a dangling edge whose points are
    vertices of the domain or random."""
    def point(n):
        return rpoint(*[random_rational(rng, 4) for _ in range(n)])

    def boundary_point(n):
        p = [random_rational(rng, 4) for _ in range(n)]
        p[rng.randrange(n)] = rng.randint(0, 1)
        return rpoint(*p)

    while count:
        n = 2 if rng.random() < 0.75 else 3
        cx = stellar_chain(standard_cube(n), [rng.choice((point, boundary_point))(n)
                                              for _ in range(rng.randint(1, 4))])
        kind = rng.randrange(3) if n == 2 else rng.randint(1, 2)
        try:
            if kind == 0:
                a, b, c, d = (rng.choice(cx.vertices()) if rng.random() < 0.5
                              else point(n) for _ in range(4))
                part = from_maximal([GeoSimplex((a, b, c)), GeoSimplex((c, d))])
            elif kind == 1:
                part = from_maximal([random_simplex(rng, n, 4)])
            else:
                part = from_maximal([rng.choice(sorted(cx.simplexes))])
        except ValueError:
            continue
        if rng.random() < 1 / 6:
            cx = from_maximal([s for s in cx.maximal_simplexes()
                               if 2 * s.vertices[0].coords[0] < 1])
        images = {v: v for v in cx.vertices()}
        form = rng.randrange(3)
        if form == 1:
            for v in rng.sample(cx.vertices(), rng.randint(1, 2)):
                images[v] = point(n)
        elif form == 2:
            images = {v: rpoint(*[min(c, 1 - c) for c in v.coords]) for v in images}
        yield PLMap(cx, images), part
        count -= 1


def test_fixity_matches_the_restricted_and_clipped_oracles():
    # Refining P gives the answer, or the DomainError text, of restricting
    # the domain; where restrict falls back on its left-out rows, both
    # equal the answer of testing every vertex of every cell of P against
    # the domain.
    def outcome(check, eta, part):
        try:
            return check(eta, part)
        except (DomainError, subdivide.SupportMismatch, RestrictionRefused) as exc:
            return type(exc), str(exc)

    def kept_rows(eta, part):
        return rowwise_restrict(eta.domain, part, fallback=False)

    seen = collections.Counter()
    for eta, part in _fixity_triples(random.Random(7), 525):
        new = outcome(fixes_pointwise, eta, part)
        assert new == outcome(restricted_fixes_pointwise, eta, part), (eta, part)
        if outcome(kept_rows, eta, part) == (RestrictionRefused,
                                             "restriction failed to adapt to |P|"):
            assert new == clip_fixes_pointwise(eta, part), (eta, part)
            seen["fell back"] += 1
        else:
            seen[new if isinstance(new, bool) else "outside"] += 1
    assert all(seen[key] for key in (True, False, "outside", "fell back")), seen


def test_verify_zretract(tent, half_interval, third_interval):
    assert verify_zretract(half_interval, tent)
    ident = identity_map(from_maximal([seg(0, 1)]))
    assert verify_zretract(from_maximal([seg(0, 1)]), ident)
    # a candidate onto the third interval fails the Z-map criterion
    dom = from_maximal([seg(0, "1/3"), seg("1/3", "2/3"), seg("2/3", 1)])
    candidate = PLMap(dom, {rpoint(0): rpoint("1/3"),
                            rpoint("1/3"): rpoint("1/3"),
                            rpoint("2/3"): rpoint("2/3"),
                            rpoint(1): rpoint("2/3")})
    assert not verify_zretract(third_interval, candidate)


def test_verify_zretract_domain_must_be_cube(tent, half_interval):
    small = PLMap(half_interval, {rpoint(0): rpoint(0),
                                  rpoint("1/2"): rpoint("1/2")})
    with pytest.raises(DomainError, match="domain mismatch"):
        verify_zretract(half_interval, small)
    with pytest.raises(DomainError) as err:
        verify_zretract(standard_cube(2), tent)
    assert str(err.value) == "domain mismatch: ambient dimensions differ"


def test_retarget_to_carrier_vertices():
    target = from_maximal([seg(0, "1/3"), seg("1/3", "1/2"), seg("1/2", 1)])
    dom = from_maximal([seg(0, "1/4"), seg("1/4", "1/2"), seg("1/2", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/4"): rpoint("1/3"),
                      rpoint("1/2"): rpoint("5/12"), rpoint(1): rpoint("1/2")})
    out = retarget_to_carrier_vertices(eta, target,
                                       keep=lambda v: v != rpoint("1/2"))
    # 5/12 has carrier edge [1/3, 1/2]; its least vertex is 1/3
    assert out.images[rpoint("1/2")] == rpoint("1/3")
    assert all(out.images[v] == eta.images[v]
               for v in dom.vertices() if v != rpoint("1/2"))
    # the retargeted map still sends each simplex into one target simplex
    for s in out.domain.maximal_simplexes():
        imgs = out.image_simplex_points(s)
        assert any(all(t.contains(i) for i in imgs)
                   for t in target.maximal_simplexes())
    kept = retarget_to_carrier_vertices(eta, target, keep=lambda v: True)
    assert kept.images == eta.images


def test_broken_invariants_raise_domain_error(monkeypatch, tent, half_interval):
    # This used to be an assert, which python -O strips.
    monkeypatch.setattr(GeoComplex, "carrier", lambda cx, p: None)
    with pytest.raises(DomainError, match="carrier precondition failure"):
        retarget_to_carrier_vertices(tent, half_interval, keep=lambda v: False)


def test_lattice_points_match_product_scan():
    # Parts inside the cube: the corpus, cube1-5, seeded stellar
    # subdivisions of cube2-4, and unions of some of their maximal
    # simplexes and random simplexes, which miss some or all corners.
    rng = random.Random(20149)
    parts = []
    for entry in resources.files("zrk.corpus").iterdir():
        if entry.name.endswith(".scx") and ".verdict." not in entry.name:
            doc = parse_scx(entry.read_text(encoding="utf-8"))
            if doc.kind == "complex":
                parts.append(doc.payload)
    parts += [standard_cube(n) for n in range(1, 6)]
    for n in (2, 3, 4):
        for _ in range(2):
            cx = standard_cube(n)
            for _ in range(rng.randint(1, 3)):
                cx = stellar(cx, rpoint(*[random_rational(rng, 4) for _ in range(n)]))
            maxi = cx.maximal_simplexes()
            parts += [cx, from_maximal(rng.sample(maxi, rng.randint(1, len(maxi) - 1))),
                      from_maximal([random_simplex(rng, n, 4)])]
    found = [_lattice_points_in(part) for part in parts]
    assert found == [product_lattice_points(part) for part in parts]
    assert any(not f for f in found)
    assert any(0 < len(f) < 2 ** part.ambient_dim for f, part in zip(found, parts))


def test_certifying_compares_no_fractions(monkeypatch):
    # certify_main reads the cube bounds and the cube vertices of |P| off
    # the points' integer vectors, and the search, desingularization and
    # strong-regularity tests compare integers only.  The parts are cube3,
    # a stellar cube3 and a random simplex, built before counting.
    rng = random.Random(20234)
    parts = [standard_cube(3), stellar(standard_cube(3), rpoint("1/3", "1/4", "1/2")),
             from_maximal([random_simplex(rng, 3, 4)])]
    calls = collections.Counter()
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _n=name, _f=real: calls.update([_n]) or _f(*args))
    assert Fraction(1, 2) < Fraction(2, 3) and calls == {"__lt__": 1}
    verdicts = []
    for part in parts:
        calls.clear()
        verdicts.append(certify_main(part).status)
        assert not calls, (part, calls)
    monkeypatch.undo()
    assert verdicts[:2] == ["certified", "certified"]


def test_part2_reduce_worked_example(tent, tent_domain, half_interval):
    result = part2_reduce(tent, tent_domain, half_interval)
    assert result.weighted.base.vertices == tent_domain.vertices()
    assert result.weighted.weights == (1, 2, 1)
    e1, e2, e3 = rpoint(1, 0, 0), rpoint(0, "1/2", 0), rpoint(0, 0, 1)
    assert sorted(result.realization.maximal_simplexes()) == sorted(
        [GeoSimplex((e1, e2)), GeoSimplex((e2, e3))])
    assert result.section.images == {rpoint(0): e1, rpoint("1/2"): e2}
    assert result.retraction.images == {e1: rpoint(0), e2: rpoint("1/2"),
                                        e3: rpoint(0)}
    assert is_strongly_regular(result.realization)
    assert verify_section_retraction(half_interval, result.retraction,
                                     result.section)


def test_part2_reduce_identity_case():
    cx = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    ident = identity_map(cx)
    result = part2_reduce(ident, cx, cx)
    assert result.weighted.base.vertices == cx.vertices()
    assert list(result.weighted.weights) == [den(v) for v in cx.vertices()]
    assert verify_section_retraction(cx, result.retraction, result.section)


def test_part2_reduce_gcd_violation(tent_domain, half_interval):
    eta = PLMap(tent_domain, {rpoint(0): rpoint(0),
                              rpoint("1/2"): rpoint("1/2"),
                              rpoint(1): rpoint("1/2")})
    with pytest.raises(PropertyViolation, match=r"\(h\)") as err:
        part2_reduce(eta, tent_domain, half_interval)
    assert err.value.label == "(h)"


def test_part2_reduce_fixity_violation(tent_domain):
    part = from_maximal([seg(0, "1/2")])
    eta = PLMap(tent_domain, {rpoint(0): rpoint(0),
                              rpoint("1/2"): rpoint("1/4"),
                              rpoint(1): rpoint(0)})
    with pytest.raises(PropertyViolation) as err:
        part2_reduce(eta, tent_domain, part)
    assert err.value.label == "(a)"


def test_part2_reduce_names_each_violated_property(tent, tent_domain, half_interval):
    # (d): the map lives on another triangulation; (f): the triangulation of
    # |P| is not regular, as [0, 2/3] is not; (a): the image of a simplex
    # leaves |P|, before any vertex is found unfixed.
    two_thirds = from_maximal([seg(0, "2/3"), seg("2/3", 1)])
    cases = [
        (tent, standard_cube(1), half_interval, "(d)",
         "the map is not compatible with the given triangulation"),
        (identity_map(two_thirds), two_thirds, from_maximal([seg(0, "2/3")]), "(f)",
         "the triangulation of |P| is not regular"),
        (identity_map(tent_domain), tent_domain, half_interval, "(a)",
         f"the image of {seg('1/2', 1)} leaves |P|"),
    ]
    for eta, delta, part, label, message in cases:
        with pytest.raises(PropertyViolation) as err:
            part2_reduce(eta, delta, part)
        assert err.value.label == label
        assert str(err.value) == f"property {label} violated: {message}"


def test_verify_section_retraction_refuses_incompatible_maps(tent, tent_domain,
                                                            half_interval):
    # mu maps the realization in R^3 onto |P| in R^1 and nu maps |P| into
    # R^3; each of the three spaces that must match is mismatched once.
    result = part2_reduce(tent, tent_domain, half_interval)
    mu, nu = result.retraction, result.section
    flat = PLMap(mu.domain, {v: rpoint(0, 0) for v in mu.domain.vertices()})
    cases = [
        (standard_cube(2), mu, nu, "nu must be defined on |P|"),
        (half_interval, mu, identity_map(half_interval), "codomain of nu vs domain of mu"),
        (half_interval, flat, nu, "mu must land in the space of |P|"),
    ]
    for part, m, n, message in cases:
        with pytest.raises(DomainError) as err:
            verify_section_retraction(part, m, n)
        assert str(err.value) == f"compatibility failure: {message}"


def test_verify_section_retraction_perturbed(tent, tent_domain, half_interval):
    result = part2_reduce(tent, tent_domain, half_interval)
    bad_images = dict(result.retraction.images)
    bad_images[rpoint(0, "1/2", 0)] = rpoint("1/4")
    bad_mu = PLMap(result.retraction.domain, bad_images)
    assert not verify_section_retraction(half_interval, bad_mu, result.section)


def test_verify_section_retraction_lattice_point():
    part = from_maximal([GeoSimplex((rpoint(0, 0),))])
    nu = PLMap(part, {rpoint(0, 0): rpoint(0)})
    mu_dom = from_maximal([seg(0, 1)])
    mu = PLMap(mu_dom, {rpoint(0): rpoint(0, 0), rpoint(1): rpoint(0, 0)})
    assert verify_section_retraction(part, mu, nu)


def test_pipeline_worked_example(tent, half_interval, monkeypatch):
    # |P| is regular already and no simplex offends, so neither step F nor
    # step H builds a star index.
    def forbidden(*args):
        raise AssertionError("no stellar move is needed")

    monkeypatch.setattr(subdivide, "_Stars", forbidden)
    result = pipeline_dh(tent, half_interval)
    monkeypatch.undo()
    assert result.status == "ok"
    assert result.triangulation == tent.domain
    assert result.map.images == tent.images
    assert replay(result.triangulation, result.collapse_sequence)
    reduced = part2_reduce(result.map, result.triangulation, half_interval)
    assert verify_section_retraction(half_interval, reduced.retraction,
                                     reduced.section)


def test_pipeline_identity_whole_cube():
    cube = from_maximal([seg(0, 1)])
    result = pipeline_dh(identity_map(cube), cube)
    assert result.status == "ok"
    for v in result.triangulation.vertices():
        assert result.map.images[v] == v


def test_pipeline_step_h_blowup(half_interval, tent_domain):
    # eta_b(1) = 1/2 forces a blow-up of [1/2, 1] at 3/4 with an odd-
    # denominator image
    eta = PLMap(tent_domain, {rpoint(0): rpoint(0),
                              rpoint("1/2"): rpoint("1/2"),
                              rpoint(1): rpoint("1/2")})
    result = pipeline_dh(eta, half_interval)
    assert result.status == "ok"
    assert rpoint("3/4") in result.triangulation.vertices()
    x = result.map.images[rpoint("3/4")]
    assert den(x) % 2 == 1
    import math
    for s in result.triangulation.maximal_simplexes():
        g = 0
        for v in s.vertices:
            g = math.gcd(g, den(result.map.images[v]))
        assert g == 1


def test_pipeline_step_h_hosts_are_the_first_inside_simplexes(monkeypatch):
    # Step H blows up each top simplex with non-coprime image denominators
    # at a point of the first inside simplex holding all its vertex images,
    # as a scan over the inside simplexes finds it.  Here the top half of
    # the square folds onto (1/2, 1/4), on an edge of two inside simplexes.
    h = "1/2"
    lower = [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]
    c = ("1/2", "3/4")
    upper = [tri((0, h), (1, h), c), tri((1, h), (1, 1), c),
             tri((1, 1), (0, 1), c), tri((0, 1), (0, h), c)]
    domain, part = from_maximal(lower + upper), from_maximal(lower)
    w = rpoint("1/2", "1/4")
    eta = PLMap(domain, {v: v if v[1] <= Fraction(1, 2) else w
                         for v in domain.vertices()})
    # Step F replaces stars too, so a replacement is step H's blow-up only
    # after a coprime point has been drawn; the maximal simplexes held
    # before the first one are delta_g's.
    hosts, blown = [], []
    coprime, replace = zmaps.coprime_point, subdivide._Stars.replace

    def spy(stars, p, carrier):
        if hosts:
            blown.append((stars.complex().maximal_simplexes(), p))
        return replace(stars, p, carrier)

    monkeypatch.setattr(zmaps, "coprime_point",
                        lambda host, k: hosts.append(host) or coprime(host, k))
    monkeypatch.setattr(subdivide._Stars, "replace", spy)
    result = pipeline_dh(eta, part)
    monkeypatch.undo()
    assert result.status == "ok" and hosts and len(hosts) == len(blown)
    delta_g = GeoComplex(blown[0][0])
    inside = subdivide.inside_subcomplex(delta_g, part)
    shared = 0
    for host, (_, centre) in zip(hosts, blown):
        s = next(m for m in delta_g.maximal_simplexes() if m.barycenter() == centre)
        images = [result.map.images[v] for v in s.vertices]
        held = [t for t in inside.maximal_simplexes()
                if all(t.contains(y) for y in images)]
        assert host == held[0], (s, held)
        shared += len(held) > 1
    assert shared


def test_pipeline_condition_violations(third_interval, antidiagonal):
    dom = from_maximal([seg(0, "1/3"), seg("1/3", "2/3"), seg("2/3", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint("1/3"), rpoint("1/3"): rpoint("1/3"),
                      rpoint("2/3"): rpoint("2/3"), rpoint(1): rpoint("2/3")})
    with pytest.raises(ConditionViolation) as err:
        pipeline_dh(eta, third_interval)
    assert err.value.label == "(ii)"


def test_pipeline_refuses_a_map_failing_condition_i(tent, tent_domain, half_interval,
                                                    antidiagonal):
    # Condition (i) asks for a retraction of the cube onto |P|: a map in
    # another space, one on a domain that is not the cube, and one that
    # does not fix |P| are each refused by name.
    cases = [
        (tent, antidiagonal, "retraction and |P| live in different spaces"),
        (identity_map(half_interval), half_interval,
         "the retraction domain must triangulate the unit cube"),
        (PLMap(tent_domain, {v: rpoint(0) for v in tent_domain.vertices()}), half_interval,
         "the supplied map does not fix |P|"),
    ]
    for eta, part, message in cases:
        with pytest.raises(ConditionViolation) as err:
            pipeline_dh(eta, part)
        assert err.value.label == "(i)"
        assert str(err.value) == f"condition (i) violated: {message}"


def _path_through_an_even_edge():
    """P, the path (0,0)-(1/2,0)-(0,1/2), which holds a cube vertex, and the
    simplicial retraction eta of the square onto it.  Every point of the
    second edge has x + y = 1/2, so an even denominator: P fails (iii)."""
    h, q = "1/2", "1/4"
    part = from_maximal([seg2d((0, 0), (h, 0)), seg2d((h, 0), (0, h))])
    dom = from_maximal([tri((0, 0), (h, 0), (0, q)), tri((0, q), (h, 0), (0, h)),
                        tri((h, 0), (1, 0), (1, 1)), tri((h, 0), (1, 1), (0, h)),
                        tri((0, h), (1, 1), (0, 1))])
    moved = {rpoint(0, q): rpoint(h, 0), rpoint(1, 0): rpoint(h, 0),
             rpoint(1, 1): rpoint(h, 0), rpoint(0, 1): rpoint(0, h)}
    return PLMap(dom, {v: moved.get(v, v) for v in dom.vertices()}), part


def test_pipeline_refuses_a_part_failing_condition_iii():
    # (iii) is decided up front on P's own maximal simplexes, before steps
    # C-F run; the oracle decides it on a desingularization of P.  eta
    # passes (i) and (ii), so (iii) is the refusal.
    eta, part = _path_through_an_even_edge()
    assert _image_leaving(eta, part) is None and fixes_pointwise(eta, part)
    assert not has_strongly_regular_triangulation(part)
    with pytest.raises(ConditionViolation, match="^condition \\(iii\\) violated: "
                       "\\|P\\| has no strongly regular triangulation$") as err:
        pipeline_dh(eta, part)
    assert err.value.label == "(iii)"


def test_pipeline_refuses_condition_iii_before_step_c(monkeypatch):
    # The even-edge path is refused with no common refinement, the first
    # construction step; every part that passes (iii) gets one.
    calls = []
    refine = subdivide.common_refinement
    monkeypatch.setattr(subdivide, "common_refinement",
                        lambda a, b: calls.append(b) or refine(a, b))
    eta, part = _path_through_an_even_edge()
    with pytest.raises(ConditionViolation, match="^condition \\(iii\\)"):
        pipeline_dh(eta, part)
    assert calls == []
    for eta, part in _seeded_folds()[:2]:
        assert pipeline_dh(eta, part).status == "ok"
    assert len(calls) == 2


def test_pipeline_2d(half_diagonal_retraction):
    eta, part = half_diagonal_retraction
    result = pipeline_dh(eta, part)
    assert result.status == "ok"
    reduced = part2_reduce(result.map, result.triangulation, part)
    assert verify_section_retraction(part, reduced.retraction, reduced.section)


def _seeded_folds():
    """The fold of the square onto its lower half, with its domain
    subdivided at 0-3 seeded points, eight times."""
    rng = random.Random(3407)
    h = "1/2"
    lower = [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]
    upper = [tri((0, h), (1, h), (1, 1)), tri((0, h), (0, 1), (1, 1))]
    square, part = from_maximal(lower + upper), from_maximal(lower)
    fold = PLMap(square, {v: rpoint(v[0], min(v[1], 1 - v[1])) for v in square.vertices()})
    folds = []
    for _ in range(8):
        dom = square
        for _ in range(rng.randint(0, 3)):
            dom = stellar(dom, rpoint(*[random_rational(rng, 4) for _ in range(2)]))
        folds.append((fold.rebase(dom), part))
    return folds


def _seeded_segments(rng, count):
    """Segments P from the origin to seeded points b of the square, each
    with the retraction of stellar(square, b) sending every vertex but the
    origin to b.  Only b whose edge to the origin is not regular are kept,
    so step F blows up every P."""
    origin = rpoint(0, 0)
    cases = []
    while len(cases) < count:
        b = rpoint(*[random_rational(rng, 9) for _ in range(2)])
        if b != origin and not is_regular(GeoSimplex((origin, b))):
            dom = stellar(standard_cube(2), b)
            cases.append((PLMap(dom, {v: v if v == origin else b for v in dom.vertices()}),
                          from_maximal([GeoSimplex((origin, b))])))
    return cases


def _face_projection(n):
    """[0,1]^n onto its face x_n = 0, on the standard triangulation."""
    cube = standard_cube(n)
    face = GeoComplex([s for s in cube.simplexes if all(v[-1] == 0 for v in s.vertices)])
    return PLMap(cube, {v: rpoint(*v.coords[:-1], 0) for v in cube.vertices()}), face


def test_part2_pair_is_a_section_and_retraction_on_seeded_folds():
    # part2_reduce proves, and does not check, that its section and
    # retraction are Z-maps with mu . xi fixing |P|; the checkers confirm
    # it on the fold of the square onto its lower half, with its domain
    # subdivided at 0-3 seeded points.
    for eta, part in _seeded_folds():
        result = pipeline_dh(eta, part)
        assert result.status == "ok"
        red = part2_reduce(result.map, result.triangulation, part)
        assert is_zmap(red.section) and is_zmap(red.retraction)
        assert verify_section_retraction(part, red.retraction, red.section)


def test_pipeline_establishes_the_part1_properties(monkeypatch, tent, half_interval):
    # pipeline_dh checks neither (a)-(h) at its end nor the inside
    # subcomplex of step G's delta_g: its docstring proves both.  On seeded
    # folds, segments where step F blows up, the tent and the face
    # projections, its output passes the check part2_reduce runs, the
    # inside subcomplexes of cold copies of step F's delta and of delta_g
    # are the one step F returns, and step H leaves it as it is.  Some
    # outputs have step-H blow-ups.
    refined, desingularized = [], []
    refine, desingularize_relative = subdivide.refine_for_map, zmaps.desingularize_relative

    def refine_spy(plmap, target):
        out = refine(plmap, target)
        refined.append((out.domain, target))
        return out

    def desingularize_spy(cx, part):
        out, inside = desingularize_relative(cx, part)
        cold = GeoComplex(out.maximal_simplexes(), validate=False)
        assert subdivide.inside_subcomplex(cold, part) == inside
        desingularized.append(out is not cx)
        return out, inside

    monkeypatch.setattr(subdivide, "refine_for_map", refine_spy)
    monkeypatch.setattr(zmaps, "desingularize_relative", desingularize_spy)
    cases = (_seeded_folds() + _seeded_segments(random.Random(2729), 8)
             + [(tent, half_interval), _face_projection(2), _face_projection(3)])
    blown_up = []
    for eta, part in cases:
        result = pipeline_dh(eta, part)
        delta_g, inside = refined[-1]  # step G's refinement is the last
        cold = GeoComplex(delta_g.maximal_simplexes(), validate=False)
        assert subdivide.inside_subcomplex(cold, part) == inside
        assert zmaps._check_part1_properties(result.map, result.triangulation, part) == (
            inside, [den(result.map.images[v]) for v in result.triangulation.vertices()])
        blown_up.append(result.triangulation is not delta_g)
    assert len(desingularized) == len(cases)
    assert any(blown_up[:8]) and all(desingularized[8:16])


def test_refined_maps_match_the_rebase_oracle(monkeypatch, tent, half_interval):
    # refine_for_map hands on the map on the refinement: old vertices keep
    # their images, and a new vertex gets the affine image on the simplex
    # it was cut from.  On the cases of the test above, every call, step G's
    # and fixity's, agrees with the map rebased by point location
    # (PLMap.rebase) and with the scanning overlay.  Step G locates no point
    # in step F's complex: rebasing its map onto delta_g located every new
    # vertex there with a linear scan over its maximal simplexes.
    calls, located, step_f = [], collections.Counter(), []
    refine, desingularize_relative = subdivide.refine_for_map, zmaps.desingularize_relative
    locate = GeoComplex._locate

    def refine_spy(plmap, target):
        calls.append((plmap, target, refine(plmap, target)))
        return calls[-1][2]

    def desingularize_spy(cx, part):
        step_f.append(desingularize_relative(cx, part))
        return step_f[-1]

    monkeypatch.setattr(subdivide, "refine_for_map", refine_spy)
    monkeypatch.setattr(zmaps, "desingularize_relative", desingularize_spy)
    monkeypatch.setattr(GeoComplex, "_locate", lambda cx, p: located.update([id(cx)])
                        or locate(cx, p))
    cases = (_seeded_folds() + _seeded_segments(random.Random(2729), 8)
             + [(tent, half_interval), _face_projection(2), _face_projection(3)])
    for eta, part in cases:
        assert pipeline_dh(eta, part).status == "ok"
    monkeypatch.undo()
    assert len(step_f) == len(cases)
    assert not [i for i, (delta, _) in enumerate(step_f) if located[id(delta)]]
    cut = 0
    for plmap, target, out in calls:
        assert out.domain == oracles.scan_refine_for_map(plmap, target)
        assert out.images == plmap.rebase(out.domain).images
        cut += out is not plmap
    assert cut >= 10, cut


@pytest.fixture
def half_diagonal_retraction():
    part = from_maximal([seg2d((0, 0), ("1/2", "1/2"))])
    dom = from_maximal([tri((0, 0), (1, 0), (0, 1)),
                        tri((1, 0), (0, 1), (1, 1))])
    eta = PLMap(dom, {rpoint(0, 0): rpoint(0, 0),
                      rpoint(1, 0): rpoint("1/2", "1/2"),
                      rpoint(0, 1): rpoint("1/2", "1/2"),
                      rpoint(1, 1): rpoint("1/2", "1/2")})
    return eta, part


def test_certify_main_golden(half_interval, third_interval, antidiagonal):
    v = certify_main(half_interval)
    assert v.status == "certified"
    wit = v.witnesses
    assert replay(wit.collapse_complex, wit.collapse_sequence)
    assert is_strongly_regular(wit.strongly_regular)
    assert half_interval.contains_point(wit.lattice_vertex)
    assert all(c in (0, 1) for c in wit.lattice_vertex.coords)

    refuted = certify_main(third_interval)
    assert refuted.status == "refuted" and refuted.refutation_reason == "(ii)"

    both = certify_main(antidiagonal)
    assert both.status == "refuted"
    assert both.refutation_reason == "(ii),(iii)"


def test_certify_main_cubes():
    for n in (1, 2):
        assert certify_main(standard_cube(n)).status == "certified"


def test_certify_main_desing_budget_gives_unknown(third_interval):
    # [0, 2/3] contains a cube vertex but is not regular, so condition (iii)
    # needs a blow-up that a zero budget does not allow.
    assert certify_main(from_maximal([seg(0, "2/3")]),
                        desing_budget=0).status == "unknown"
    refuted = certify_main(third_interval, desing_budget=0)
    assert refuted.status == "refuted" and refuted.refutation_reason == "(ii)"


def test_certify_main_searches_a_regular_part_once(monkeypatch):
    # The hollow triangle is regular, so desingularize returns it as it is;
    # its one failed search is not repeated on the same object.
    calls = []

    def counting(cx, budget):
        calls.append(cx)
        return find_collapse_sequence(cx, budget=budget)

    monkeypatch.setattr(zmaps, "find_collapse_sequence", counting)
    hollow = from_maximal([tri((0, 0), (1, 0)), tri((1, 0), (0, 1)),
                           tri((0, 0), (0, 1))])
    assert certify_main(hollow).status == "unknown"
    assert calls == [hollow]


def test_certify_main_prints_the_desingularizing_oracles_verdicts():
    # certify_main decides (iii) on P's own maximal simplexes and refutes a
    # P with no cube vertex that passes it without desingularizing; the
    # oracle desingularizes every P.  The printed verdicts agree at the
    # default budget and at desing_budget=0, where the oracle's (iii) stays
    # undecided unless P is regular.  Inputs: the corpus, cube1-3, seeded
    # random simplexes in R^1..R^3, mixed-dimension complexes, and seeded
    # paths from the origin through two random points, which hold a cube
    # vertex and may fail (iii).
    from test_regular import _mixed_complexes
    rng = random.Random(405)
    parts = [parse_scx(entry.read_text(encoding="utf-8")).payload
             for entry in sorted(resources.files("zrk.corpus").iterdir(),
                                 key=lambda entry: entry.name)
             if entry.name.endswith(".scx") and ".verdict." not in entry.name
             and entry.name not in ("square_to_half_diagonal.scx", "tent_retraction.scx")]
    parts += [standard_cube(n) for n in (1, 2, 3)]
    parts += [from_maximal([random_simplex(rng, rng.randint(1, 3), 6)]) for _ in range(40)]
    parts += _mixed_complexes(rng, 12)
    paths = []
    while len(paths) < 12:
        n = rng.randint(2, 3)
        p, q = (rpoint(*[random_rational(rng, 6) for _ in range(n)]) for _ in range(2))
        try:
            paths.append(from_maximal([GeoSimplex((rpoint(*[0] * n), p)),
                                       GeoSimplex((p, q))]))
        except ValueError:
            continue
    parts += paths
    seen = collections.Counter()
    for part in parts:
        for desing_budget in (10_000, 0):
            got = certify_main(part, desing_budget=desing_budget)
            want = desingularizing_certify(part, desing_budget=desing_budget)
            text = print_scx(ScxDocument("verdict", got))
            assert text == print_scx(ScxDocument("verdict", want)), part
            seen[desing_budget, got.refutation_reason or got.status] += 1
    assert all(seen[10_000, kind] >= 3 for kind in
               ("certified", "(ii)", "(iii)", "(ii),(iii)")), seen
    assert seen[0, "unknown"] >= 3 and seen[0, "(ii)"] >= 10, seen


def test_certify_main_refutes_by_ii_alone_without_desingularizing(monkeypatch, third_interval,
                                                                   antidiagonal):
    # [1/3, 2/3] has no cube vertex and passes (iii), so it is refuted by
    # (ii) with no desingularization.  The antidiagonal fails (iii) too; a
    # desingularization, within its budget, tells that from an undecided
    # (iii), so it still runs there.
    calls = []
    monkeypatch.setattr(zmaps, "desingularize",
                        lambda cx, budget: calls.append(cx) or desingularize(cx, budget=budget))
    assert certify_main(third_interval).refutation_reason == "(ii)"
    assert calls == []
    assert certify_main(antidiagonal).refutation_reason == "(ii),(iii)"
    assert calls == [antidiagonal]


def test_certified_polyhedra_not_refuted(tent, half_interval):
    # consistency: a polyhedron carrying a verified retraction is never
    # refuted
    assert verify_zretract(half_interval, tent)
    assert certify_main(half_interval).status != "refuted"


def brute_force_no_zmap_retraction(part, domain, max_den):
    """Small-instance oracle: no vertex-image assignment with denominators
    <= max_den yields a Z-map retraction onto |part|."""
    pool = []
    seen = set()
    for d in range(1, max_den + 1):
        for nums in itertools.product(range(0, d + 1),
                                      repeat=part.ambient_dim):
            p = rpoint(*[Fraction(x, d) for x in nums])
            if p in seen or not part.contains_point(p):
                continue
            seen.add(p)
            pool.append(p)
    verts = list(domain.vertices())
    for assignment in itertools.product(pool, repeat=len(verts)):
        eta = PLMap(domain, dict(zip(verts, assignment)))
        if not is_zmap(eta):
            continue
        ok_image = all(
            any(all(t.contains(img) for img in eta.image_simplex_points(s))
                for t in part.maximal_simplexes())
            for s in domain.maximal_simplexes())
        if ok_image and fixes_pointwise(eta, part):
            return False
    return True


def test_a_long_path_goes_through_every_step_without_recursion():
    # The Farey path 0, 1/2000, 1/1999, ..., 1/2, 1 of [0,1]: 2,001
    # vertices, every edge regular with coprime denominators, triangulating
    # the cube, so validation takes the linear cube test.  No step recurses
    # once per vertex, so none raises RecursionError.
    points = [rpoint(0)] + [rpoint(Fraction(1, k)) for k in range(2000, 0, -1)]
    path = from_maximal([GeoSimplex(pair) for pair in zip(points, points[1:])])
    assert len(path.vertices()) == 2001
    assert parse_scx(print_scx(ScxDocument("complex", path))).payload == path
    verdict = certify_main(path)
    assert verdict.status == "certified"
    back = parse_scx(print_scx(ScxDocument("verdict", verdict))).payload
    assert back.status == "certified"
    assert replay(back.witnesses.collapse_complex, back.witnesses.collapse_sequence)
    assert is_subdivision(path, standard_cube(1))
    assert desingularize(path) is path
    assert len(stellar(path, rpoint("3/4")).maximal_simplexes()) == 2001
    half = from_maximal([seg(0, "1/2")])
    assert restrict(path, half) is path
    assert fixes_pointwise(identity_map(path), half)
    fold = PLMap(path, {v: rpoint(0) if v == rpoint(1) else v for v in path.vertices()})
    assert verify_zretract(half, fold)


def test_refutations_backed_by_brute_force(third_interval, antidiagonal):
    interval = from_maximal([seg(0, "1/4"), seg("1/4", "1/2"),
                             seg("1/2", "3/4"), seg("3/4", 1)])
    assert brute_force_no_zmap_retraction(third_interval, interval, 4)
    assert brute_force_no_zmap_retraction(antidiagonal, standard_cube(2), 4)


def test_pipeline_identity_cube3():
    from zrk import standard_cube
    cube = standard_cube(3)
    result = pipeline_dh(identity_map(cube), cube)
    assert result.status == "ok"
    assert result.triangulation == cube
    assert replay(result.triangulation, result.collapse_sequence)


def test_degenerate_image_hull_containment():
    # three collinear image points: the hull is a segment, not a simplex
    part = from_maximal([seg(0, 1)])
    pts = [rpoint(0), rpoint("1/2"), rpoint(1)]
    assert subdivide.supports(part, pts)
    small = from_maximal([seg(0, "1/2")])
    assert not subdivide.supports(small, pts)
    # a degenerate quadrilateral in the plane
    sq = standard_cube(2)
    pts2 = [rpoint(0, 0), rpoint(1, 0), rpoint("1/2", "1/2"), rpoint("1/2", 0)]
    assert subdivide.supports(sq, pts2)


def test_image_leaving_matches_scanning_oracle():
    # zmaps._image_leaving locates each image point once and runs the
    # volume test only on a simplex whose images lie in |P| with no simplex
    # of P holding them all.  It returns the same first simplex as the
    # oracle, which runs the volume test on every simplex, for images in
    # one simplex of P, images spread over P, images in the cube (some
    # leave |P|), images in another space, and images flattened onto the
    # diagonal the two triangles of the square share (in |P| or leaving it).
    # compose, which leaves the question to refine_for_map, fails exactly
    # where the oracle finds an image leaving the target, for P and for the
    # square.
    rng = random.Random(20171)

    def in_simplex(t):
        w = [rng.randint(0, 4) for _ in t.vertices]
        w[rng.randrange(len(w))] += 1
        return rpoint(*[sum(a * v.coords[i] for a, v in zip(w, t.vertices)) / sum(w)
                        for i in range(t.ambient_dim)])

    # Three of the four triangles around the square's centre: |P| is not
    # convex, so images spread over it can have a hull that leaves it.
    centre = stellar(standard_cube(2), rpoint("1/2", "1/2"))
    part = from_maximal([t for t in centre.maximal_simplexes()
                         if rpoint(1, 1) not in t.vertices
                         or rpoint(1, 0) not in t.vertices])
    cover = part.maximal_simplexes()
    assert len(cover) == 3
    def images(case, dom):
        if case == "one simplex":
            t = rng.choice(cover)
            return {v: in_simplex(t) for v in dom.vertices()}
        if case == "spread":
            return {v: in_simplex(rng.choice(cover)) for v in dom.vertices()}
        if case == "diagonal":
            hi = rng.choice((1, 2))
            xs = [random_rational(rng, 4, 1 - hi, hi) for _ in dom.vertices()]
            return {v: rpoint(x, x) for v, x in zip(dom.vertices(), xs)}
        k = 2 if case == "cube" else rng.choice((1, 3))
        return {v: rpoint(*[random_rational(rng, 4) for _ in range(k)])
                for v in dom.vertices()}

    square = standard_cube(2)
    cases = ("one simplex", "spread", "cube", "other space", "diagonal")
    undecided = {True: 0, False: 0}
    found = {name: set() for name in cases}
    for name in cases:
        for _ in range(12 if name == "diagonal" else 6):
            dom = standard_cube(2)
            for _ in range(rng.randint(0, 3)):
                dom = stellar(dom, rpoint(*[random_rational(rng, 4) for _ in range(2)]))
            eta = PLMap(dom, images(name, dom))
            want = scan_image_leaving(eta, part)
            assert zmaps._image_leaving(eta, part) == want, (name, eta)
            found[name].add(want is None)
            for s in dom.maximal_simplexes():
                imgs = eta.image_simplex_points(s)
                if imgs[0].dim != 2:
                    continue
                hosts = [{t for t in cover if t.contains(p)} for p in imgs]
                if all(hosts) and not set.intersection(*hosts):
                    undecided[caratheodory_supports(cover, imgs)] += 1
            for target in (part, square):
                if scan_image_leaving(eta, target) is None:
                    assert compose(eta, identity_map(target)).domain.ambient_dim == 2
                else:
                    with pytest.raises(DomainError, match="^image containment failure"):
                        compose(eta, identity_map(target))
    assert (found["one simplex"] == {True} and found["spread"] == {True, False}
            and False in found["cube"] and found["other space"] == {False}
            and found["diagonal"] == {True, False}), found
    assert undecided[True] > 5 and undecided[False] > 5, undecided


def test_eval_matches_fraction_interpolation():
    # eval combines the images' integer vectors over one lcm and divides by
    # the gcd; the oracle sums Fraction coordinates.  Seeded maps on
    # stellar cubes in R^1..R^3, into R^1..R^3, with negative, zero and
    # integer image coordinates.
    rng = random.Random(4004)

    def point(n, lo=0, hi=1):
        return rpoint(*[random_rational(rng, rng.choice((1, 4, 9)), lo, hi) for _ in range(n)])

    checked = 0
    for n in (1, 2, 3):
        for _ in range(4):
            cx = standard_cube(n)
            for _ in range(rng.randint(0, 3)):
                cx = stellar(cx, point(n))
            k = rng.randint(1, 3)
            eta = PLMap(cx, {v: point(k, -2, 2) for v in cx.vertices()})
            for _ in range(20):
                p = point(n)
                got, want = eta.eval(p), fraction_eval(eta, p)
                assert got == want and got.coords == want.coords, (eta, p)
                assert hash(got) == hash(want) and repr(got) == repr(want)
                checked += 1
    assert checked == 240


def _pipeline_ops(monkeypatch, seed):
    """The ops of the benchmark's pipeline workload for ``seed`` (None: every
    op any seed can draw), built in memory."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    return workloads.build("pipeline", seed)


def test_the_pipeline_cases_build_no_fraction(monkeypatch):
    # Every point the constructive path computes is built from its integer
    # vector, tilings compare integer volumes, and points print from their
    # vectors, so pipeline_dh, part2_reduce, verify_section_retraction and
    # print_scx make no Fraction on the nine seed-1 cases of the
    # benchmark's pipeline workload, built before counting.  They made
    # 1,038 in a pass when computed points were built from Fractions.
    ops = _pipeline_ops(monkeypatch, 1)
    made = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: made.append(args) or real(cls, *args, **kw))
    assert Fraction(1, 2) and made == [(1, 2)]
    made.clear()
    texts = [op.run()[0] for op in ops]
    assert len(ops) == 9 and not made
    assert all("section-retraction: valid" in text for text in texts)


def test_realize_matches_the_closure_on_the_pipeline_cases(monkeypatch):
    # part2_reduce realizes the skeleton of its triangulation from the
    # maximal faces alone; the oracle realizes every face of the closure.
    # Both print the same bytes on every pipeline case of the benchmark.
    weighted = []
    real = zmaps.realize
    monkeypatch.setattr(zmaps, "realize", lambda w: weighted.append(w) or real(w))
    for op in _pipeline_ops(monkeypatch, None):
        op.run()
    assert len(weighted) > 9
    for w in weighted:
        assert (print_scx(ScxDocument("complex", real(w)))
                == print_scx(ScxDocument("complex", closure_realize(w))))


def test_part2_decides_strong_regularity_on_the_weights(monkeypatch):
    # part2_reduce decides (h) on its realization q as gcd 1 of the weights
    # over each given face, and realize orders each face by descending
    # stored index.  On seeded stellar variants of the fold and of the
    # projections of the square and the cube onto a face, with their own
    # weights, weights doubled to fail the test and seeded small weights:
    # is_strongly_regular(q) agrees with the gcd test, the closure's
    # realization is q, and every weighted document prints as json does.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    rng = random.Random(2046)
    found = []
    for case in (workloads.fold(), workloads.face_projection(2),
                 workloads.face_projection(3)):
        for _ in range(3):
            point = rpoint(*[random_rational(rng, 4) for _ in range(case[1].ambient_dim)])
            eta, part = workloads.stellar_variant(case, point)
            result = pipeline_dh(eta, part)
            base = part2_reduce(result.map, result.triangulation, part).weighted
            for weights in (base.weights, [2 * w for w in base.weights],
                            *([rng.choice((1, 2, 3, 4, 6)) for _ in base.weights]
                              for _ in range(3))):
                w = WeightedComplex(base.base, weights)
                q = realize(w)
                coprime = all(math.gcd(*(weights[i] for i in f)) == 1 for f in w.base.given)
                assert is_strongly_regular(q) == coprime, (case, point, weights)
                assert q == closure_realize(w)
                doc = ScxDocument("weighted", w)
                assert print_scx(doc) == json_print_scx(doc)
                found.append(coprime)
    assert found.count(True) >= 9 and found.count(False) >= 18, found


def test_part2_refuses_a_realization_that_is_not_strongly_regular():
    # (a)-(g) hold, and (h) holds on the triangle, but the dangling edge's
    # vertices both map to (1/2, 0): its weights are 2 and 2, so its
    # realized simplex is regular but not strongly regular.
    h = "1/2"
    delta = from_maximal([tri((0, 0), (h, 0), (0, 1)), seg2d((h, 0), (1, 0))])
    eta = PLMap(delta, {rpoint(0, 0): rpoint(0, 0), rpoint(h, 0): rpoint(h, 0),
                        rpoint(0, 1): rpoint(0, 0), rpoint(1, 0): rpoint(h, 0)})
    part = from_maximal([seg2d((0, 0), (h, 0))])
    skeleton_weights = [den(eta.images[v]) for v in delta.vertices()]
    assert not is_strongly_regular(realize(WeightedComplex(zmaps.skeleton(delta),
                                                           skeleton_weights)))
    with pytest.raises(PropertyViolation, match="^property \\(h\\) violated: the realized "
                       "weighted complex is not strongly regular$") as err:
        part2_reduce(eta, delta, part)
    assert err.value.label == "(h)"


def test_part2_reports_a_top_simplex_gcd_before_a_lower_face():
    # (h) is decided in one pass over delta's maximal simplexes.  The
    # dangling edge (0, 1)-(0, 3/2), whose weights are 2 and 2, comes before
    # the triangle whose three weights are 2, yet the triangle's gcd is
    # reported, as when the n-dimensional simplexes were checked first.
    h = "1/2"
    delta = from_maximal([tri((0, 0), (h, 0), (0, 1)), tri((h, 0), (0, 1), (1, 1)),
                          seg2d((0, 1), (0, "3/2"))])
    assert delta._ranks == ((0, 1, 3), (1, 2), (1, 3, 4))
    origin, image = rpoint(0, 0), rpoint(h, 0)
    eta = PLMap(delta, {v: v if v == origin else image for v in delta.vertices()})
    part = from_maximal([seg2d((0, 0), (h, 0))])
    with pytest.raises(PropertyViolation, match="^property \\(h\\) violated: gcd of image "
                       "denominators on conv\\(\\(0, 1\\), \\(1/2, 0\\), \\(1, 1\\)\\) "
                       "is 2$"):
        part2_reduce(eta, delta, part)


def test_part2_builds_the_placement_once(monkeypatch, tent, half_interval):
    # realize places the vertices, and part2_reduce reads the placement off
    # q's vertex table in descending index instead of building a second
    # dense copy of it.  The section and the retraction are the maps on
    # that placement: xi sends each inside vertex of index i to the point
    # of index i, and mu sends that point to the image of delta's vertex i.
    real, calls = complexes._placement, []
    monkeypatch.setattr(complexes, "_placement", lambda w: calls.append(w) or real(w))
    for eta, part in _seeded_folds()[:3] + [(tent, half_interval)]:
        result = pipeline_dh(eta, part)
        calls.clear()
        reduced = part2_reduce(result.map, result.triangulation, part)
        assert calls == [reduced.weighted]
        placed, verts = real(reduced.weighted), result.triangulation.vertices()
        assert reduced.realization.vertices() == tuple(reversed(placed))
        assert reduced.section.images == {v: placed[verts.index(v)]
                                          for v in reduced.section.domain.vertices()}
        assert reduced.retraction.images == {p: result.map.images[v]
                                             for p, v in zip(placed, verts)}
