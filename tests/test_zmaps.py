import itertools
import random
from fractions import Fraction
from importlib import resources

import pytest

from zrk import (GeoSimplex, PLMap, certify_main, compose, fixes_pointwise,
                 from_maximal, identity_map, is_zmap, is_zmap_by_fit,
                 part2_reduce, pipeline_dh, replay,
                 retarget_to_carrier_vertices, rpoint, standard_cube, stellar,
                 verify_section_retraction, verify_zretract)
from zrk import subdivide
from zrk.complexes import GeoComplex
from zrk.regular import den, is_strongly_regular
from zrk.scx import parse_scx
from zrk.zmaps import (ConditionViolation, DomainError, PropertyViolation,
                       _lattice_points_in)

from conftest import random_rational, random_simplex, seg, tri
from oracles import product_lattice_points


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
    # Both used to be asserts, which python -O strips.  A restriction that
    # returns a complex away from |P| leaves no simplex inside it.
    monkeypatch.setattr(subdivide, "restrict", lambda cx, part: from_maximal([seg(2, 3)]))
    with pytest.raises(DomainError, match="no simplex of the refined domain"):
        fixes_pointwise(tent, half_interval)
    monkeypatch.undo()
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


def test_part2_reduce_worked_example(tent, tent_domain, half_interval):
    result = part2_reduce(tent, tent_domain, half_interval)
    verts = sorted(tent_domain.vertices())
    assert [result.weighted.weights[v] for v in verts] == [1, 2, 1]
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
    verts = sorted(cx.vertices())
    assert [result.weighted.weights[v] for v in verts] == [den(v) for v in verts]
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


def test_pipeline_worked_example(tent, half_interval):
    result = pipeline_dh(tent, half_interval)
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


def test_pipeline_condition_violations(third_interval, antidiagonal):
    dom = from_maximal([seg(0, "1/3"), seg("1/3", "2/3"), seg("2/3", 1)])
    eta = PLMap(dom, {rpoint(0): rpoint("1/3"), rpoint("1/3"): rpoint("1/3"),
                      rpoint("2/3"): rpoint("2/3"), rpoint(1): rpoint("2/3")})
    with pytest.raises(ConditionViolation) as err:
        pipeline_dh(eta, third_interval)
    assert err.value.label == "(ii)"


def test_pipeline_2d(half_diagonal_retraction):
    eta, part = half_diagonal_retraction
    result = pipeline_dh(eta, part)
    assert result.status == "ok"
    reduced = part2_reduce(result.map, result.triangulation, part)
    assert verify_section_retraction(part, reduced.retraction, reduced.section)


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
    from zrk.zmaps import _points_hull_in_support
    # three collinear image points: the hull is a segment, not a simplex
    part = from_maximal([seg(0, 1)])
    pts = [rpoint(0), rpoint("1/2"), rpoint(1)]
    assert _points_hull_in_support(pts, part)
    small = from_maximal([seg(0, "1/2")])
    assert not _points_hull_in_support(pts, small)
    # a degenerate quadrilateral in the plane
    sq = standard_cube(2)
    pts2 = [rpoint(0, 0), rpoint(1, 0), rpoint("1/2", "1/2"), rpoint("1/2", 0)]
    assert _points_hull_in_support(pts2, sq)
