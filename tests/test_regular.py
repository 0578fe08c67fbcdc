import math
import random
from fractions import Fraction

import pytest

from zrk import (GeoComplex, GeoSimplex, RPoint, anchor, certify_main, coprime_point,
                 den, desingularize,
                 desingularize_relative, from_maximal,
                 has_strongly_regular_triangulation, homog, is_regular,
                 is_strongly_regular, is_strongly_regular_simplex,
                 is_subdivision, rpoint, standard_cube, stellar)
from zrk import exactnum, linalg, regular, subdivide, zmaps
from zrk.exactnum import invariant_factors
from zrk.regular import BudgetExhausted, InvariantBroken

from conftest import random_rational, random_simplex, seg, tri
from oracles import (all_faces_strongly_regular, dot, fraction_box_point,
                     fraction_exit_parameter, minor_gcd, rebuild_desingularize,
                     simplex_hrep)


def test_den_golden():
    assert den(rpoint("1/2", "1/3")) == 6
    assert den(rpoint(0, 1)) == 1
    assert den(rpoint("3/4", "1/6")) == 12


def test_homog_golden():
    assert homog(rpoint("1/2", "1/3")).entries == (3, 2, 6)
    assert homog(rpoint(1, 1)).entries == (1, 1, 1)
    assert homog(rpoint("1/2")).entries == (1, 2)


def test_homog_recovers_point():
    rng = random.Random(5)
    for _ in range(50):
        p = rpoint(*[Fraction(rng.randint(0, 12), rng.randint(1, 12))
                     for _ in range(rng.randint(1, 3))])
        assert homog(p).point() == p
        assert math.gcd(*homog(p).entries) == 1


def test_is_regular_golden():
    assert is_regular(tri((0, 0), (1, 0), ("1/2", "1/2")))
    assert not is_regular(seg("1/3", "2/3"))
    assert is_regular(GeoSimplex((rpoint(0, 0), rpoint(1, 0))))


def test_is_regular_vertex_order_invariant():
    s1 = GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2"), rpoint(1, 1)))
    s2 = GeoSimplex((rpoint(1, 1), rpoint("1/2", 0), rpoint(0, "1/2")))
    assert s1 == s2
    assert is_regular(s1) == is_regular(s2)


def test_strongly_regular_simplex_golden():
    assert not is_strongly_regular_simplex(GeoSimplex((rpoint("1/2", 0),
                                                       rpoint(0, "1/2"))))
    assert is_strongly_regular_simplex(tri((0, 0), (1, 0), ("1/2", "1/2")))
    assert not is_strongly_regular_simplex(seg("1/3", "2/3"))


def test_strongly_regular_complex_golden(antidiagonal):
    assert is_strongly_regular(from_maximal([seg(0, "1/2"), seg("1/2", 1)]))
    assert not is_strongly_regular(antidiagonal)
    for n in (1, 2, 3):
        assert is_strongly_regular(standard_cube(n))


def test_desingularize_one_step(third_interval):
    out = desingularize(third_interval)
    assert sorted(out.maximal_simplexes()) == [seg("1/3", "1/2"), seg("1/2", "2/3")]
    assert all(is_regular(s) for s in out.simplexes)


def test_desingularize_identity_on_regular():
    cx = standard_cube(2)
    assert desingularize(cx) == cx


def test_desingularize_2d():
    cx = from_maximal([tri(("1/2", "1/2"), (1, 0), ("1/3", 0))])
    assert not all(is_regular(s) for s in cx.simplexes)
    out = desingularize(cx)
    assert is_subdivision(out, cx)
    assert all(is_regular(s) for s in out.simplexes)


def _desingularize_inputs():
    """15 seed-23 random simplexes, seeded stellar subdivisions of cube2-3
    at random rational points, and random rational simplexes in
    [0,1]^2..3."""
    cxs = []
    rng = random.Random(23)
    while len(cxs) < 15:
        s = random_simplex(rng, rng.randint(1, 2), 6)
        if s.dim > 0:
            cxs.append(from_maximal([s]))
    rng = random.Random(20148)
    for n in (2, 2, 3, 3):
        cx = standard_cube(n)
        for _ in range(rng.randint(2, 3)):
            cx = stellar(cx, rpoint(*[random_rational(rng, 5) for _ in range(n)]))
        cxs.append(cx)
    while len(cxs) < 30:
        s = random_simplex(rng, rng.randint(2, 3), 4)
        if s.dim > 0:
            cxs.append(from_maximal([s]))
    # Two complexes whose result depends on the order of the blow-ups.
    for seed in (105, 171):
        rng = random.Random(seed)
        n = rng.choice((2, 3))
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 4)):
            cx = stellar(cx, rpoint(*[random_rational(rng, 7) for _ in range(n)]))
        cxs.append(cx)
    return cxs


def test_desingularize_random_corpus():
    for cx in _desingularize_inputs()[:15]:
        out = desingularize(cx)
        assert is_subdivision(out, cx)
        assert all(is_regular(t) for t in out.simplexes)


def test_desingularize_budget():
    with pytest.raises(BudgetExhausted, match="desingularization budget exhausted"):
        desingularize(from_maximal([seg("1/3", "2/3")]), budget=0)


def test_desingularize_matches_rebuild_oracle():
    for cx in _desingularize_inputs():
        for budget in (0, 1, 3, 10_000):
            try:
                expected = rebuild_desingularize(cx, budget).simplexes
            except BudgetExhausted:
                expected = BudgetExhausted
            try:
                got = desingularize(cx, budget).simplexes
            except BudgetExhausted:
                got = BudgetExhausted
            assert got == expected, (cx, budget)


def test_desingularize_builds_one_complex(monkeypatch):
    # Star replacement works on the maximal simplexes alone: one complex is
    # built at the end, and no step rebuilds it or searches for a carrier.
    cxs = [cx for cx in _desingularize_inputs()
           if not all(is_regular(s) for s in cx.maximal_simplexes())]
    built = []
    init = GeoComplex.__init__
    monkeypatch.setattr(GeoComplex, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))

    def forbidden(*args):
        raise AssertionError("desingularize must not call this")

    monkeypatch.setattr(subdivide, "stellar", forbidden)
    monkeypatch.setattr(GeoComplex, "carrier", forbidden)
    for cx in cxs:
        built.clear()
        desingularize(cx)
        assert len(built) == 1


def test_desingularize_relative_already_regular():
    cx = from_maximal([seg(0, "1/3"), seg("1/3", 1)])
    part = from_maximal([seg(0, "1/3")])
    assert desingularize_relative(cx, part) == cx


def test_desingularize_relative_subdivides_part():
    cx = from_maximal([seg(0, "2/3"), seg("2/3", 1)])
    part = from_maximal([seg(0, "2/3")])
    out = desingularize_relative(cx, part)
    assert sorted(out.maximal_simplexes()) == [
        seg(0, "1/2"), seg("1/2", "2/3"), seg("2/3", 1)]


def test_desingularize_relative_precondition():
    cx = from_maximal([seg(0, 1)])
    part = from_maximal([seg(0, "1/2")])
    with pytest.raises(ValueError, match="precondition violation"):
        desingularize_relative(cx, part)


def test_coprime_point_golden():
    assert coprime_point(seg(0, "1/2"), 2) == rpoint(0)
    assert coprime_point(seg("1/2", 1), 6) == rpoint(1)
    # no vertex works: both denominators share a factor with k on one side
    s = seg("1/2", "1/3")
    p = coprime_point(s, 6)
    assert s.contains(p) and math.gcd(6, den(p)) == 1


def test_coprime_point_corpus():
    simplexes = [seg(0, "1/2"), seg("1/2", 1), seg("1/3", "1/2"),
                 tri((0, 0), (1, 0), ("1/2", "1/2"))]
    for s in simplexes:
        for k in range(2, 13):
            p = coprime_point(s, k)
            assert s.contains(p)
            assert math.gcd(k, den(p)) == 1


def test_coprime_point_precondition():
    with pytest.raises(ValueError, match="strongly regular"):
        coprime_point(GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2"))), 2)


def test_anchor_lattice_point(half_interval):
    w, eps = anchor(half_interval, rpoint(0))
    assert w == rpoint(0) and eps > 0


def test_anchor_half_interval_witness(half_interval):
    out = anchor(half_interval, rpoint("1/2"))
    assert out is not None
    w, eps = out
    assert all(c.denominator == 1 for c in w.coords)
    assert eps > 0
    # verify the segment stays inside
    end = rpoint(*[a + eps * (b - a) for a, b in zip(rpoint("1/2").coords, w.coords)])
    assert half_interval.contains_point(end)


def test_anchor_absent_on_antidiagonal(antidiagonal):
    assert anchor(antidiagonal, rpoint("1/4", "1/4")) is None


def test_anchor_outside_support(half_interval):
    with pytest.raises(ValueError, match="point not in support"):
        anchor(half_interval, rpoint("3/4"))


# Broken invariants raise InvariantBroken, also under ``python -O``; each
# test below forces one through a monkeypatched helper.


def _with_row_transform(u_new):
    """smith_with_transforms with its row transform U replaced."""
    real = regular.smith_with_transforms

    def smith(rows):
        _, d, v = real(rows)
        return u_new, d, v
    return smith


def test_integer_inverse_invariants(monkeypatch):
    # U W = D V^-1: row i of U W over d_i is row i of the integer matrix
    # V^-1.  U = I makes the torsion row (2, 0, 3) / 3 for the vertex
    # vectors (1, 0, 3) and (2, 0, 3): not integral, so neither is the box
    # point built from it.
    bad = GeoSimplex((rpoint("1/3", 0), rpoint("2/3", 0)))
    monkeypatch.setattr(regular, "smith_with_transforms",
                        _with_row_transform([[1, 0], [0, 1]]))
    with pytest.raises(InvariantBroken, match="box point is not integral"):
        regular._box_point(bad)


def test_box_point_invariants(monkeypatch):
    with pytest.raises(InvariantBroken, match="no box point"):
        regular._box_point(seg(0, 1))
    bad = GeoSimplex((rpoint("1/3", 0), rpoint("2/3", 0)))
    # This U makes the torsion generator 3 (2, 0, 3) / 3, the vertex vector
    # (2, 0, 3) itself, so every multiple of it is 0 modulo the vertex
    # lattice.
    monkeypatch.setattr(regular, "smith_with_transforms",
                        _with_row_transform([[1, 0], [0, 3]]))
    with pytest.raises(InvariantBroken, match="every box coefficient"):
        regular._box_point(bad)


def test_box_point_matches_fraction_oracle():
    simplexes = [cx.maximal_simplexes()[0] for cx in _desingularize_inputs()[:15]]
    rng = random.Random(61)
    while len(simplexes) < 55:
        s = random_simplex(rng, rng.randint(1, 3), 7)
        if s.dim > 0 and not is_regular(s):
            simplexes.append(s)
    # Torsion order 4097 exceeds the 4096 cap on enumerated candidates.
    wide = seg("1/4099", "1/2")
    assert invariant_factors(homog(v).entries for v in wide.vertices)[-1] == 4097
    simplexes.append(wide)
    for s in simplexes:
        try:
            expected = fraction_box_point(s)
        except InvariantBroken as e:
            expected = str(e)
        try:
            got, carrier = regular._box_point(s)
        except InvariantBroken as e:
            got = str(e)
        assert got == expected, s
        if isinstance(got, str):
            continue
        # desingularize blows up the carrier read off the box coefficients:
        # the face on which the point has positive barycentric coordinates.
        weights = s._weights(got._homog)
        assert carrier == {v for v, a in zip(s.vertices, weights) if a > 0}, s


def test_is_strongly_regular_matches_all_faces_oracle(antidiagonal):
    inputs = _desingularize_inputs()
    cxs = inputs + [desingularize(cx) for cx in inputs[:20]] + [
        antidiagonal, desingularize(antidiagonal),
        from_maximal([seg(0, "1/2"), seg("1/2", 1)])]
    verdicts = []
    for cx in cxs:
        expected = all_faces_strongly_regular(cx)
        assert is_strongly_regular(cx) == expected, cx
        verdicts.append(expected)
    assert verdicts.count(True) > 5 and verdicts.count(False) > 5


def test_regularity_paths_stay_integer(monkeypatch):
    # certify_main tests regularity without Smith transforms and finds box
    # points without a determinant; is_strongly_regular looks at the
    # maximal simplexes only.
    rng = random.Random(8)
    while True:
        s = random_simplex(rng, 2, 6)
        if s.dim == 2 and not is_regular(s):
            break
    inputs = [standard_cube(3), from_maximal([s])]
    is_reg, is_sreg, box = (regular.is_regular, regular.is_strongly_regular,
                            regular._box_point)
    smith, det = exactnum.smith_with_transforms, linalg.det
    inside, calls = [], {"regular": 0, "box": 0, "smith": 0, "det": 0}

    def entered(key, fn):
        def wrapped(*args):
            calls[key] += 1
            inside.append(key)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapped

    def counted(key, within, fn):
        def wrapped(*args):
            if within in inside:
                calls[key] += 1
            return fn(*args)
        return wrapped

    for mod in (regular, zmaps):
        monkeypatch.setattr(mod, "is_regular", entered("regular", is_reg))
        monkeypatch.setattr(mod, "is_strongly_regular", entered("regular", is_sreg))
    monkeypatch.setattr(regular, "_box_point", entered("box", box))
    monkeypatch.setattr(exactnum, "smith_with_transforms",
                        counted("smith", "regular", smith))
    monkeypatch.setattr(regular, "smith_with_transforms",
                        counted("smith", "regular", smith))
    monkeypatch.setattr(linalg, "det", counted("det", "box", det))
    is_reg.cache_clear()
    verdicts = [certify_main(cx).status for cx in inputs]
    assert calls["regular"] > 10 and calls["box"] > 0, calls
    assert calls["smith"] == 0 and calls["det"] == 0, calls
    monkeypatch.undo()
    assert verdicts == [certify_main(cx).status for cx in inputs]

    for cx in inputs + [desingularize(inputs[1])]:
        seen = []
        monkeypatch.setattr(regular, "is_regular",
                            lambda t: seen.append(t) or is_reg(t))
        is_strongly_regular(cx)
        assert seen and set(seen) <= set(cx.maximal_simplexes())


def test_exit_parameter_matches_fraction_forms():
    # Seeded (s, v, w) with v in s and w an integer point, as anchor's
    # lattice scan tries them, a vertex of s (the parameter is capped at
    # 1), or v moved along an edge of s (the forms of the other vertices
    # have rate 0).  Lower-dimensional s make many w leave the affine hull.
    rng = random.Random(1405)
    kinds = {"off the hull": 0, "capped": 0, "zero rate": 0, "cut": 0}
    for _ in range(400):
        n = rng.randint(1, 3)
        s = random_simplex(rng, n, 5)
        weights = [rng.randint(0, 3) for _ in s.vertices]
        weights[0] += not any(weights)
        v = RPoint(tuple(sum(Fraction(c, sum(weights)) * u[i]
                             for c, u in zip(weights, s.vertices)) for i in range(n)))
        pick = rng.randrange(3)
        if pick == 0:
            w = rpoint(*[rng.randint(-1, 2) for _ in range(n)])
        elif pick == 1 or s.dim == 0:
            w = rng.choice(s.vertices)
        else:
            a, b = rng.sample(s.vertices, 2)
            w = RPoint(tuple(x + y - z for x, y, z in zip(v.coords, b.coords, a.coords)))
        if w == v:
            continue
        expected = fraction_exit_parameter(s, v, w)
        assert regular._exit_parameter(s, v, w) == expected, (s, v, w)
        eqs, ineqs = simplex_hrep(s)
        direction = tuple(b - a for a, b in zip(v.coords, w.coords))
        kinds["off the hull"] += any(dot(e.coeffs, direction) for e in eqs)
        kinds["capped"] += expected == 1
        kinds["cut"] += expected is not None and expected < 1
        kinds["zero rate"] += expected is not None and any(
            dot(f.coeffs, direction) == 0 for f in ineqs)
    assert all(count >= 20 for count in kinds.values()), kinds


def test_coprime_point_invariant(monkeypatch):
    monkeypatch.setattr(regular, "_composition_with_total", lambda dens, total: None)
    with pytest.raises(InvariantBroken, match="exhausted its cap"):
        coprime_point(seg("1/2", "1/3"), 6)


def test_anchor_invariants(monkeypatch, half_interval):
    monkeypatch.setattr(regular, "xgcd", lambda a, b: (2, 0, 0))
    with pytest.raises(InvariantBroken, match="not coprime"):
        anchor(half_interval, rpoint("1/2"))
    monkeypatch.undo()
    monkeypatch.setattr(regular.subdivide, "supports", lambda cover, s: False)
    with pytest.raises(InvariantBroken, match="leaves"):
        anchor(half_interval, rpoint("1/2"))


def test_has_strongly_regular_triangulation_golden(half_interval, third_interval,
                                                   antidiagonal):
    assert has_strongly_regular_triangulation(half_interval)
    assert has_strongly_regular_triangulation(third_interval)
    assert not has_strongly_regular_triangulation(antidiagonal)


def test_strong_regularity_triangulation_invariance():
    # two different triangulations of each support agree after
    # desingularization
    supports_2d = [
        from_maximal([seg(0, "1/2")]),
        from_maximal([seg("1/3", "2/3")]),
        from_maximal([tri((0, 0), (1, 0), (0, 1))]),
        from_maximal([GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2")))]),
    ]
    for cx in supports_2d:
        alt = stellar(cx, cx.maximal_simplexes()[0].barycenter())
        v1 = is_strongly_regular(desingularize(cx))
        v2 = is_strongly_regular(desingularize(alt))
        assert v1 == v2


def test_regularity_matches_minor_gcd_oracle():
    rng = random.Random(31)
    for _ in range(200):
        s = random_simplex(rng, rng.randint(1, 3), 6)
        rows = [homog(v).entries for v in s.vertices]
        oracle = minor_gcd(rows, len(rows)) == 1
        assert is_regular(s) == oracle
