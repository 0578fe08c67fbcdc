"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; tolerances are zero (bit
exactness) and the stated runtime bounds are asserted.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from zrk import (GeoSimplex, PLMap, certify_main, den, desingularize,
                 find_collapse_sequence, from_maximal, is_regular,
                 is_strongly_regular, is_strongly_regular_simplex,
                 is_subdivision, is_zmap, part2_reduce,
                 pipeline_dh, replay, rpoint, standard_cube, stellar,
                 verify_section_retraction, verify_zretract)
from zrk.linalg import matrix_rank
from zrk.scx import parse_scx

from conftest import random_simplex, seg, tri
from oracles import (anchor, has_strongly_regular_triangulation, homog, is_zmap_by_fit,
                     minor_gcd)
from test_zmaps import brute_force_no_zmap_retraction


def corpus_complexes():
    out = {}
    for entry in resources.files("zrk.corpus").iterdir():
        if entry.name.endswith(".scx") and ".verdict." not in entry.name:
            doc = parse_scx(entry.read_text(encoding="utf-8"))
            if doc.kind == "complex":
                out[entry.name[:-4]] = doc.payload
    return out


def test_criterion_1_regularity_oracle_equivalence():
    rng = random.Random(20260810)
    t0 = time.monotonic()
    checked = 0
    while checked < 1000:
        ambient = rng.randint(1, 4)
        s = random_simplex(rng, ambient, 8)
        rows = [homog(v).entries for v in s.vertices]
        # independent oracle: rows extend to a basis iff the gcd of the
        # maximal minors is 1 (rows of a simplex are always independent)
        assert matrix_rank(rows) == len(rows)
        oracle = minor_gcd(rows, len(rows)) == 1
        assert is_regular(s) == oracle, s
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 too slow: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: regularity oracle equivalence on {checked} "
          f"random simplexes in {elapsed:.1f}s")


def test_criterion_2_golden_examples():
    assert not is_regular(seg("1/3", "2/3"))
    anti = GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2")))
    assert is_regular(anti)
    assert not is_strongly_regular_simplex(anti)
    assert is_strongly_regular(from_maximal([seg(0, "1/2"), seg("1/2", 1)]))
    print("\nACCEPTANCE 2 PASS: golden regularity examples bit-exact")


def test_criterion_3_desingularization_corpus():
    for name, cx in sorted(corpus_complexes().items()):
        out = desingularize(cx)  # default budget; raises if exhausted
        assert is_subdivision(out, cx), name
        assert all(is_regular(s) for s in out.simplexes), name
    one_step = desingularize(from_maximal([seg("1/3", "2/3")]))
    assert sorted(one_step.maximal_simplexes()) == [
        seg("1/3", "1/2"), seg("1/2", "2/3")]
    print("\nACCEPTANCE 3 PASS: desingularization on the corpus, one-step "
          "example exact")


def _support_family():
    """>= 20 supports, each with two distinct triangulations."""
    supports = []
    for k in range(1, 8):
        supports.append(from_maximal([seg(0, Fraction(k, 8))]))
    for k in range(2, 7):
        supports.append(from_maximal([seg(Fraction(1, k), Fraction(2, 3))]))
    for a in ("1/2", "1/3", "2/3", "1/4"):
        supports.append(from_maximal([GeoSimplex((rpoint(a, 0), rpoint(0, a)))]))
    supports.append(from_maximal([tri((0, 0), (1, 0), (0, 1))]))
    supports.append(from_maximal([tri((0, 0), ("1/2", 0), (0, "1/2"))]))
    supports.append(standard_cube(1))
    supports.append(standard_cube(2))
    supports.append(from_maximal([seg(0, "1/2"), seg("1/2", 1)]))
    return supports


def test_criterion_4_strong_regularity_invariance():
    supports = _support_family()
    assert len(supports) >= 20
    agreements = 0
    for cx in supports:
        first = cx.maximal_simplexes()[0]
        alt = stellar(cx, first.barycenter())
        assert alt != cx
        v1 = is_strongly_regular(desingularize(cx))
        v2 = is_strongly_regular(desingularize(alt))
        assert v1 == v2, cx
        agreements += 1
    print(f"\nACCEPTANCE 4 PASS: strong-regularity verdicts agree on "
          f"{agreements}/{len(supports)} support pairs")


def _sample_points(cx, rng, count=25):
    pts = list(cx.vertices())
    lo = [min(v[i] for v in pts) for i in range(cx.ambient_dim)]
    hi = [max(v[i] for v in pts) for i in range(cx.ambient_dim)]
    tries = 0
    found = 0
    while found < count and tries < 4000:
        tries += 1
        d = rng.randint(1, 8)
        coords = []
        for i in range(cx.ambient_dim):
            span_num = int((hi[i] - lo[i]) * d)
            base = int(lo[i] * d) if (lo[i] * d).denominator == 1 else None
            num = rng.randint(0, max(span_num, 1))
            coords.append(lo[i] + Fraction(num, d))
        p = rpoint(*coords)
        if cx.contains_point(p) and p not in pts:
            pts.append(p)
            found += 1
    return pts


def test_criterion_5_anchor_equivalence():
    rng = random.Random(5)
    for name, cx in sorted(corpus_complexes().items()):
        expected = has_strongly_regular_triangulation(cx)
        pts = _sample_points(cx, rng)
        all_present = True
        witness_absent = None
        for p in pts:
            got = anchor(cx, p)
            if got is None:
                all_present = False
                witness_absent = p
            else:
                w, eps = got
                assert all(c.denominator == 1 for c in w.coords)
                assert eps > 0
        assert all_present == expected, (name, witness_absent)
    print("\nACCEPTANCE 5 PASS: anchor presence equivalent to strong "
          "regularity on the corpus")


def test_criterion_6_collapsibility():
    t0 = time.monotonic()
    rng = random.Random(12)
    for n, exact_steps in ((1, None), (2, 5), (3, None)):
        cx = standard_cube(n)
        seq = find_collapse_sequence(cx)
        assert seq is not None and replay(cx, seq)
        if exact_steps is not None:
            assert len(seq.steps) == exact_steps
        for _ in range(10):
            s = rng.choice(cx.maximal_simplexes())
            sub = stellar(cx, s.barycenter())
            seq2 = find_collapse_sequence(sub)
            assert seq2 is not None and replay(sub, seq2)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 6 too slow: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 PASS: cubes and 30 stellar subdivisions collapse "
          f"in {elapsed:.1f}s")


def _random_regular_domain(rng, n):
    """Random regular triangulation: mediant blow-ups keep regularity."""
    cx = standard_cube(n)
    for _ in range(rng.randint(0, 3)):
        edges = [s for s in cx.simplexes if s.dim == 1]
        edge = rng.choice(sorted(edges))
        u, v = edge.vertices
        total = tuple(a + b for a, b in zip(homog(u).entries, homog(v).entries))
        p = rpoint(*[Fraction(e, total[-1]) for e in total[:-1]])
        cx = stellar(cx, p)
    return cx


def test_criterion_7_zmap_criterion_consistency():
    rng = random.Random(77)
    image_pool_1d = [rpoint(x) for x in
                     ("0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "1/6")]
    image_pool_2d = [rpoint(*xy) for xy in
                     (("0", "0"), ("1", "0"), ("1/2", "1/2"), ("1/3", "0"),
                      ("1/2", "0"), ("1/4", "1/4"), ("2/3", "1/3"))]
    checked = 0
    while checked < 200:
        n = rng.randint(1, 2)
        dom = _random_regular_domain(rng, n)
        assert all(is_regular(s) for s in dom.simplexes)
        pool = image_pool_1d if rng.random() < 0.5 else image_pool_2d
        eta = PLMap(dom, {v: rng.choice(pool) for v in dom.vertices()})
        assert is_zmap(eta) == is_zmap_by_fit(eta)
        checked += 1
    print(f"\nACCEPTANCE 7 PASS: divisibility and integer-fit routes agree "
          f"on {checked} random maps")


def test_criterion_8_end_to_end_worked_example():
    t0 = time.monotonic()
    half = from_maximal([seg(0, "1/2")])
    dom = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    tent = PLMap(dom, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint("1/2"),
                       rpoint(1): rpoint(0)})
    result = pipeline_dh(tent, half)
    assert result.status == "ok"
    reduced = part2_reduce(result.map, result.triangulation, half)
    assert reduced.weighted.base.vertices == result.triangulation.vertices()
    assert reduced.weighted.weights == (1, 2, 1)
    e1, e2, e3 = rpoint(1, 0, 0), rpoint(0, "1/2", 0), rpoint(0, 0, 1)
    assert reduced.section.images == {rpoint(0): e1, rpoint("1/2"): e2}
    assert reduced.retraction.images == {e1: rpoint(0), e2: rpoint("1/2"),
                                         e3: rpoint(0)}
    assert verify_section_retraction(half, reduced.retraction, reduced.section)
    assert verify_zretract(half, tent)
    verdict = certify_main(half)
    assert verdict.status == "certified"
    wit = verdict.witnesses
    assert replay(wit.collapse_complex, wit.collapse_sequence)
    assert is_strongly_regular(wit.strongly_regular)
    assert half.contains_point(wit.lattice_vertex)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 8 too slow: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 8 PASS: worked example end to end in {elapsed:.2f}s")


def test_criterion_9_refutations():
    third = from_maximal([seg("1/3", "2/3")])
    verdict = certify_main(third)
    assert verdict.status == "refuted" and verdict.refutation_reason == "(ii)"

    anti = from_maximal([GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2")))])
    verdict = certify_main(anti)
    assert verdict.status == "refuted"
    assert verdict.refutation_reason == "(ii),(iii)"

    interval = from_maximal([seg(0, "1/4"), seg("1/4", "1/2"),
                             seg("1/2", "3/4"), seg("3/4", 1)])
    assert brute_force_no_zmap_retraction(third, interval, 4)
    assert brute_force_no_zmap_retraction(anti, standard_cube(2), 4)
    print("\nACCEPTANCE 9 PASS: refutations with small-scale brute-force "
          "corroboration")
