import collections
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zrk import (GeoComplex, GeoSimplex, RPoint, certify_main, coprime_point,
                 den, desingularize,
                 desingularize_relative, from_maximal, is_regular,
                 is_strongly_regular, is_strongly_regular_polyhedron,
                 is_strongly_regular_simplex, is_subdivision, rpoint, standard_cube, stellar)
from zrk import exactnum, linalg, regular, subdivide, zmaps
from zrk.exactnum import invariant_factors
from zrk.regular import BudgetExhausted, InvariantBroken

from conftest import random_rational, random_simplex, seg, tri
from rfold import rfold
import oracles
from oracles import (all_faces_strongly_regular, anchor, dot, exit_parameter,
                     fraction_box_point, fraction_exit_parameter,
                     has_strongly_regular_triangulation, homog, minor_gcd,
                     rebuild_desingularize, rebuild_desingularize_relative,
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
    # A vertex's one vector is primitive.
    assert is_regular(GeoSimplex((rpoint("1/3", "2/5"),)))


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


def test_desingularize_identity_on_regular(monkeypatch):
    # A regular input is returned as it is, with no star index built; so
    # is a complex whose inside subcomplex is regular, however the rest is,
    # with that subcomplex.
    def forbidden(*args):
        raise AssertionError("a regular input builds no star index")

    monkeypatch.setattr(subdivide, "_Stars", forbidden)
    cx = standard_cube(2)
    assert desingularize(cx) is cx
    cx, part = from_maximal([seg(0, "1/3"), seg("1/3", 1)]), from_maximal([seg(0, "1/3")])
    out, inside = desingularize_relative(cx, part)
    assert out is cx and inside is subdivide.inside_subcomplex(cx, part)


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


def _relative_inputs():
    """80 seed-2016 pairs (cx, part): stellar subdivisions of cube2-3 at up
    to three points with denominators <= 6, restricted to the face
    x_n = 0 or to the chain simplex x_1 >= ... >= x_n of the cube; half of
    the points are moved onto the part."""
    rng = random.Random(2016)
    out = []
    for i in range(80):
        n = rng.choice((2, 2, 3))
        if i % 2:
            part = from_maximal([GeoSimplex(tuple(v for v in s.vertices if v[-1] == 0))
                                 for s in standard_cube(n).maximal_simplexes()
                                 if sum(v[-1] == 0 for v in s.vertices) == n])
        else:
            part = from_maximal([GeoSimplex(tuple(
                rpoint(*([1] * k + [0] * (n - k))) for k in range(n + 1)))])
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 3)):
            p = [random_rational(rng, 6) for _ in range(n)]
            if rng.random() < 0.5:
                if i % 2:
                    p[-1] = 0
                else:
                    p.sort(reverse=True)
            cx = stellar(cx, rpoint(*p))
        out.append((subdivide.restrict(cx, part), part))
    return out


def _inside_regular(cx, part):
    return all(is_regular(s) for s in
               subdivide.inside_subcomplex(cx, part).maximal_simplexes())


def test_desingularize_relative_matches_rebuild_oracle():
    # The inside subcomplex returned is the one a search of the result
    # finds (the rank-tuple kernel, on a complex that keeps no answer).
    inputs = _relative_inputs()
    assert sum(not _inside_regular(cx, part) for cx, part in inputs) >= 40
    for cx, part in inputs:
        for budget in (0, 1, 3, 10_000):
            try:
                out = rebuild_desingularize_relative(cx, part, budget)
                expected = out.simplexes, subdivide._inside_subcomplex(out, part)
            except BudgetExhausted:
                expected = BudgetExhausted
            try:
                out, inside = desingularize_relative(cx, part, budget)
                got = out.simplexes, inside
            except BudgetExhausted:
                got = BudgetExhausted
            assert got == expected, (cx, part, budget)


def test_desingularize_builds_one_complex(monkeypatch):
    # Star replacement works on the maximal simplexes alone: one complex is
    # built at the end, and no step rebuilds it or searches for a carrier.
    # The relative version also finds the inside subcomplex just once, so
    # it builds that one besides, and the complex of the subdivided one it
    # returns.  A complex keeps its inside subcomplex
    # once asked, as restrict and the filter below ask, so each pair runs
    # on a cold copy: the same complex built again.  Builds are counted
    # where both constructors set a complex's fields (``GeoComplex._fill``),
    # so the private one that the stars and the inside subcomplex use
    # counts too.
    cxs = [cx for cx in _desingularize_inputs()
           if not all(is_regular(s) for s in cx.maximal_simplexes())]
    pairs = [(GeoComplex(cx.maximal_simplexes(), validate=False), part)
             for cx, part in _relative_inputs() if not _inside_regular(cx, part)]
    built = []
    fill = GeoComplex._fill
    monkeypatch.setattr(GeoComplex, "_fill", lambda self, *a: built.append(1) or fill(self, *a))
    inside_calls = []
    inside = subdivide.inside_subcomplex
    monkeypatch.setattr(subdivide, "inside_subcomplex",
                        lambda *a: inside_calls.append(1) or inside(*a))

    def forbidden(*args):
        raise AssertionError("desingularize must not call this")

    monkeypatch.setattr(subdivide, "stellar", forbidden)
    monkeypatch.setattr(GeoComplex, "carrier", forbidden)
    for cx in cxs:
        built.clear()
        desingularize(cx)
        assert len(built) == 1
    for cx, part in pairs:
        built.clear()
        inside_calls.clear()
        desingularize_relative(cx, part)
        assert len(inside_calls) == 1 and len(built) == 3


def _path(k: int) -> GeoComplex:
    """The path through j/(k - 1), j = 0..k - 1."""
    points = [rpoint(Fraction(j, k - 1)) for j in range(k)]
    return GeoComplex([GeoSimplex(pair) for pair in zip(points, points[1:])],
                      validate=False)


def test_star_work_per_blow_up_does_not_grow(monkeypatch):
    # A blow-up reads the stars of its carrier's vertices, not the whole
    # complex, so its star work, the sum of those stars' sizes, is the same
    # on the path at k = 250 and k = 1,000; a scan of every maximal simplex
    # grows with k.
    work = []
    replace = subdivide._Stars.replace

    def spy(stars, p, carrier):
        work.append(sum(len(stars._star[v]) for v in carrier))
        return replace(stars, p, carrier)

    monkeypatch.setattr(subdivide._Stars, "replace", spy)
    per_blow_up = {}
    for k in (250, 1000):
        work.clear()
        with pytest.raises(BudgetExhausted):
            desingularize(_path(k), budget=200)
        assert len(work) == 201
        per_blow_up[k] = sum(work) / len(work)
    assert per_blow_up[250] == per_blow_up[1000] <= 4, per_blow_up


def test_desingularize_relative_already_regular():
    cx = from_maximal([seg(0, "1/3"), seg("1/3", 1)])
    part = from_maximal([seg(0, "1/3")])
    assert desingularize_relative(cx, part) == (cx, part)


def test_desingularize_relative_subdivides_part():
    cx = from_maximal([seg(0, "2/3"), seg("2/3", 1)])
    part = from_maximal([seg(0, "2/3")])
    out, inside = desingularize_relative(cx, part)
    assert sorted(out.maximal_simplexes()) == [
        seg(0, "1/2"), seg("1/2", "2/3"), seg("2/3", 1)]
    assert sorted(inside.maximal_simplexes()) == [seg(0, "1/2"), seg("1/2", "2/3")]


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


def test_is_regular_hands_its_rows_to_the_kernel_unchecked(monkeypatch):
    # A simplex's vertex vectors are its own int rows, so is_regular runs
    # the kernel of extends_to_basis without IntMat's checks, and answers
    # as extends_to_basis does.
    rng = random.Random(278)
    simplexes = [random_simplex(rng, n, 6) for n in (1, 2, 3, 4) for _ in range(15)]
    checks = []
    real = exactnum.IntMat.__post_init__
    monkeypatch.setattr(exactnum.IntMat, "__post_init__",
                        lambda self: checks.append(1) or real(self))
    regular.is_regular.cache_clear()
    answers = [is_regular(s) for s in simplexes]
    assert not checks
    assert answers == [exactnum.extends_to_basis(s._vertex_rows) for s in simplexes]
    assert len(checks) == len(simplexes) and True in answers and False in answers


def test_full_dimensional_regularity_is_read_off_the_determinant(monkeypatch):
    # n + 1 vectors in Z^(n+1) extend to a basis iff they are one, iff
    # |det| = 1, so is_regular reads a full-dimensional simplex off _det and
    # runs no saturation test; it answers as the saturation oracle does, on
    # the simplex and on every face.  Seeded simplexes in R^1 to R^5 with
    # det = -1 (and +1, which no sorted segment has) and |det| from 2 to 6,
    # from the checking constructor and built _raw, whose _det is computed
    # on first use.
    rng = random.Random(1968)
    saturated = []
    real = exactnum._saturated
    for module in (exactnum, regular):
        monkeypatch.setattr(module, "_saturated", lambda a: saturated.append(len(a)) or real(a))
    for n in range(1, 6):
        wanted = collections.Counter({d: 2 for d in (-1, 2, 3, 4, 5, 6)})
        wanted[1] = 2 if n > 1 else 0
        while +wanted:
            q = rng.choice((1, 1, 2, 3))
            points = [RPoint(tuple(Fraction(rng.randint(0, 2 * q), q) for _ in range(n)))
                      for _ in range(n + 1)]
            try:
                s = GeoSimplex(tuple(points))
            except ValueError:
                continue
            key = s._det if abs(s._det) == 1 else abs(s._det)
            if wanted[key] <= 0:
                continue
            wanted[key] -= 1
            raw = GeoSimplex._raw(s.vertices)
            assert "_det" not in raw.__dict__
            for t in (s, raw):
                regular.is_regular.cache_clear()
                assert is_regular(t) == oracles.saturation_is_regular(t) == (abs(key) == 1)
                assert not saturated, (t, saturated)
            assert raw._det == s._det
            for face in oracles.simplex_faces(s):
                if face.dim < n:
                    regular.is_regular.cache_clear()
                    assert is_regular(face) == oracles.saturation_is_regular(face), face
            assert saturated or n == 1
            saturated.clear()


def test_box_point_and_hull_hand_their_rows_to_smith_unchecked(monkeypatch):
    # A simplex's vertex vectors are its own int rows, so _box_point and
    # _hull_meets_lattice run the Smith kernel without IntMat's checks, and
    # it gives the U and D that the checked oracle smith_with_transforms
    # gives.
    rng = random.Random(279)
    boxed, hulls = [], []
    while len(boxed) < 30 or len(hulls) < 30:
        s = random_simplex(rng, rng.randint(1, 4), 6)
        if s.dim > 0 and not is_regular(s):
            boxed.append(s)
        hulls += [f for f in oracles.simplex_faces(s) if f.dim < s.ambient_dim
                  and math.gcd(*map(den, f.vertices)) > 1]
    checks, seen = [], []
    real_check = exactnum.IntMat.__post_init__
    monkeypatch.setattr(exactnum.IntMat, "__post_init__",
                        lambda self: checks.append(1) or real_check(self))
    smith = regular._smith

    def spy(a):
        rows = [tuple(r) for r in a]
        got = smith(a)
        seen.append((rows, got))
        return got
    monkeypatch.setattr(regular, "_smith", spy)
    for s in boxed:
        regular._box_point(s)
    for f in hulls:
        regular._hull_meets_lattice(f)
    assert not checks and len(seen) == len(boxed) + len(hulls)
    for rows, got in seen:
        assert got == oracles.smith_with_transforms(rows)[:2], rows
    assert len(checks) == len(seen)


def test_anchor_lattice_scan_counts_against_the_budget(antidiagonal):
    # The fallback scan tries the 17^2 = 289 integer points of the box of
    # radius den(v) * n = 8; the budget bounds them as it bounds the
    # desingularization's stellar steps.
    v = rpoint("1/4", "1/4")
    assert anchor(antidiagonal, v, budget=289) is None
    for budget in (100, 288):
        with pytest.raises(BudgetExhausted, match="lattice scan"):
            anchor(antidiagonal, v, budget=budget)


def test_anchor_outside_support(half_interval):
    with pytest.raises(ValueError, match="point not in support"):
        anchor(half_interval, rpoint("3/4"))


# Broken invariants raise InvariantBroken, also under ``python -O``; each
# test below forces one through a monkeypatched helper.


def _with_row_transform(u_new):
    """``regular._smith`` with its row transform U replaced."""
    real = regular._smith

    def smith(rows):
        _, d = real(rows)
        return u_new, d
    return smith


def test_integer_inverse_invariants(monkeypatch):
    # U W = D V^-1: row i of U W over d_i is row i of the integer matrix
    # V^-1.  U = I makes the torsion row (2, 0, 3) / 3 for the vertex
    # vectors (1, 0, 3) and (2, 0, 3): not integral, so neither is the box
    # point built from it.
    bad = GeoSimplex((rpoint("1/3", 0), rpoint("2/3", 0)))
    monkeypatch.setattr(regular, "_smith",
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
    monkeypatch.setattr(regular, "_smith",
                        _with_row_transform([[1, 0], [0, 3]]))
    with pytest.raises(InvariantBroken, match="every box coefficient"):
        regular._box_point(bad)


def test_handed_determinants_match_eliminations(monkeypatch):
    # Every determinant a simplex is handed, by standard_cube's Kuhn formula
    # or by a stellar move from its parent's, is the determinant of its
    # vertex vectors, by Bareiss elimination and by cofactor expansion (0
    # for a lower-dimensional simplex).  Cubes 1-6; stellar cube2-4s at
    # seeded points inside simplexes and on their faces, and a segment in
    # R^2; absolute and relative desingularizations, one from the capped
    # box point; and step H on two folds.  Step H blows up pulled cells,
    # which hold no determinant, so in the pipeline each move reads its
    # parents' first.
    made, handed = [], collections.Counter()
    raw = GeoSimplex._raw.__func__

    def spy(cls, vertices, det=None):
        s = raw(cls, vertices, det)
        if det is not None:
            made.append(s)
        return s

    def check(kind):
        for s in made:
            rows = [list(x) for x in s._vertex_rows]
            full = len(rows) == len(rows[0])
            assert vars(s)["_det"] == linalg.det(rows) == (
                oracles._int_det(rows) if full else 0), (kind, s)
        handed[kind] += len(made)
        made.clear()

    monkeypatch.setattr(GeoSimplex, "_raw", classmethod(spy))
    for n in range(1, 7):
        standard_cube(n)
    check("cube")
    rng = random.Random(1993)
    for n in (2, 3, 4, 2, 3, 4):
        cx = standard_cube(n)
        for _ in range(6):
            m = rng.choice(cx.maximal_simplexes())
            face = rng.sample(m.vertices, rng.randint(2, len(m.vertices)))
            weights = [rng.randint(1, 5) for _ in face]
            cx = stellar(cx, rpoint(*[Fraction(sum(w * v[i] for w, v in zip(weights, face)),
                                               sum(weights)) for i in range(n)]))
        check("stellar")
    stellar(from_maximal([GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2")))]),
            rpoint("1/6", "1/3"))
    check("stellar")
    for cx in _desingularize_inputs()[:20]:
        desingularize(cx)
    with pytest.raises(BudgetExhausted):
        desingularize(from_maximal([seg("1/4099", "1/2")]), budget=20)
    for cx, part in _relative_inputs()[:20]:
        desingularize_relative(cx, part)
    check("desingularize")
    replace, coprime, step_h = subdivide._Stars.replace, zmaps.coprime_point, []

    def read_first(stars, p, coefficients):
        for m in set.intersection(*(stars._star[v] for v in coefficients)):
            m._det
        cones = replace(stars, p, coefficients)
        if step_h and step_h[-1] is None:  # step H images its centre, then moves
            step_h[-1] = len(cones)
        return cones

    monkeypatch.setattr(zmaps, "coprime_point", lambda *a: step_h.append(None) or coprime(*a))
    for n, k in ((2, 15), (3, 2)):
        eta, part = rfold(n, k)
        monkeypatch.setattr(subdivide._Stars, "replace", read_first)
        zmaps.pipeline_dh(eta, part)
        monkeypatch.setattr(subdivide._Stars, "replace", replace)
        check("step H")
    assert handed["cube"] == sum(math.factorial(n) for n in range(1, 7))
    assert min(handed.values()) >= 100 and sum(step_h) >= 100, (handed, sum(step_h))


def test_a_certify_pass_eliminates_nothing(monkeypatch):
    # The seed-1 ops of the benchmark's certify workload, built in memory.
    # Every determinant a certify pass reads is one its simplexes hold: the
    # checking constructor's, the Kuhn formula's or one a blow-up handed
    # on, so no op eliminates.  Eliminating for each cone's determinant
    # made 125 Bareiss eliminations per pass, 86 of them in one random
    # simplex's desingularization.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    ops = workloads.build("certify", 1)
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda *a, **k: calls.append(1) or bareiss(*a, **k))
    regular.is_regular.cache_clear()
    statuses = collections.Counter(op.run()[1].status for op in ops)
    assert not calls
    assert statuses["certified"] >= 8 and statuses["refuted"] >= 2, statuses


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
    rebuilt = []
    for s in simplexes:
        try:
            expected = fraction_box_point(s)
        except InvariantBroken as e:
            expected = str(e)
        try:
            got, coefficients = regular._box_point(s)
        except InvariantBroken as e:
            got = str(e)
        assert got == expected, s
        if isinstance(got, str):
            continue
        # desingularize blows up the carrier read off the box coefficients:
        # the face on which the point has positive barycentric coordinates.
        weights = s._weights(got._homog)
        assert set(coefficients) == {v for v, a in zip(s.vertices, weights) if a > 0}, s
        # The coefficients, which the blow-up hands on to give each cone its
        # determinant, rebuild the point's vector from the vertex vectors.
        assert all(a > 0 and b > 0 for a, b in coefficients.values()), s
        assert [sum(Fraction(a, b) * v._homog[c] for v, (a, b) in coefficients.items())
                for c in range(len(got._homog))] == list(got._homog), s
        rebuilt.append(s)
    assert len(rebuilt) > 40 and wide in rebuilt


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
    smith, det = regular._smith, linalg.det
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
    # zmaps decides the strong regularity of a realization on its weights.
    monkeypatch.setattr(regular, "is_strongly_regular", entered("regular", is_sreg))
    monkeypatch.setattr(regular, "_box_point", entered("box", box))
    monkeypatch.setattr(regular, "_smith",
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
        assert exit_parameter(s, v, w) == expected, (s, v, w)
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
    monkeypatch.setattr(oracles, "xgcd", lambda a, b: (2, 0, 0))
    with pytest.raises(InvariantBroken, match="not coprime"):
        anchor(half_interval, rpoint("1/2"))
    monkeypatch.undo()
    monkeypatch.setattr(subdivide, "supports", lambda cover, s: False)
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


def _simplex_of_dim(rng, ambient: int, k: int, max_den: int = 0) -> GeoSimplex:
    """A seeded k-simplex in [0,1]^ambient with denominators <= max_den; by
    default 12, or 3 for a full-dimensional one in R^3 or R^4, whose
    desingularization at 12 can take half a minute."""
    max_den = max_den or (3 if k == ambient > 2 else 12)
    while True:
        try:
            return GeoSimplex(tuple(rpoint(*[random_rational(rng, max_den)
                                             for _ in range(ambient)])
                                    for _ in range(k + 1)))
        except ValueError:
            continue


def _mixed_complexes(rng, count: int) -> list[GeoComplex]:
    """Two simplexes of different dimensions sharing a vertex, in R^2..R^4,
    where they form a complex; full-dimensional only in R^2, where the
    oracle desingularizes one fast."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        k1, k2 = rng.sample(range(1, 3 if n == 2 else n), 2)
        a, b = _simplex_of_dim(rng, n, k1), _simplex_of_dim(rng, n, k2)
        b = GeoSimplex((a.vertices[0],) + b.vertices[1:])
        try:
            out.append(from_maximal([a, b]))
        except ValueError:
            continue
    return out


def test_strongly_regular_polyhedron_matches_the_desingularizing_oracle(antidiagonal):
    # The lemma decides (iii) on P's own maximal simplexes; the oracle
    # desingularizes P and tests the result.  Seeded simplexes of every
    # dimension 0..n in R^1..R^4, mixed-dimension complexes, and a stellar
    # subdivision of each, which has other maximal simplexes and the same
    # support.
    rng = random.Random(7118)
    cxs = [antidiagonal]
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            cxs += [from_maximal([_simplex_of_dim(rng, n, k)]) for _ in range(12)]
    cxs += _mixed_complexes(rng, 40)
    verdicts = {}
    for cx in cxs:
        expected = has_strongly_regular_triangulation(cx)
        assert is_strongly_regular_polyhedron(cx) == expected, cx
        first = cx.maximal_simplexes()[0]
        if first.dim:
            assert is_strongly_regular_polyhedron(stellar(cx, first.barycenter())) == expected
        key = (cx.ambient_dim, max(s.dim for s in cx.maximal_simplexes()),
               len(cx.maximal_simplexes()) > 1)
        verdicts.setdefault(expected, set()).add(key)
    # Both answers occur in every ambient dimension and for mixed complexes;
    # a full-dimensional simplex always passes.
    assert {n for n, _, _ in verdicts[False]} == {1, 2, 3, 4}, verdicts
    assert any(mixed for _, _, mixed in verdicts[False]), verdicts
    assert any(mixed for _, _, mixed in verdicts[True]), verdicts
    assert not any(n == k and not mixed for n, k, mixed in verdicts[False]), verdicts


def test_strongly_regular_polyhedron_needs_smith_only_off_the_shortcuts(monkeypatch):
    # Full-dimensional simplexes and those with coprime vertex denominators
    # pass with no Smith form; the antidiagonal, both vertices over 2, needs
    # one.
    calls = []
    smith = regular._smith
    monkeypatch.setattr(regular, "_smith",
                        lambda rows: calls.append(rows) or smith(rows))
    assert is_strongly_regular_polyhedron(standard_cube(3))
    assert is_strongly_regular_polyhedron(from_maximal([seg("1/3", "1/2")]))
    assert is_strongly_regular_polyhedron(from_maximal([tri(("1/2", 0, 0), (0, "1/2", 0),
                                                            (0, 0, "1/2"))])) is False
    assert len(calls) == 1
    assert is_strongly_regular_polyhedron(from_maximal([tri(("1/2", 0), (0, "1/2"))])) is False
    assert is_strongly_regular_polyhedron(from_maximal([tri(("1/2", "1/2"), (0, 1))]))
    assert len(calls) == 2


def test_regularity_matches_minor_gcd_oracle():
    rng = random.Random(31)
    for _ in range(200):
        s = random_simplex(rng, rng.randint(1, 3), 6)
        rows = [homog(v).entries for v in s.vertices]
        oracle = minor_gcd(rows, len(rows)) == 1
        assert is_regular(s) == oracle
