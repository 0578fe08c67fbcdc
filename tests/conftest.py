import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zrk import GeoComplex, GeoSimplex, PLMap, from_maximal, rpoint


def seg(a, b) -> GeoSimplex:
    return GeoSimplex((rpoint(a), rpoint(b)))


def tri(*pts) -> GeoSimplex:
    return GeoSimplex(tuple(rpoint(*p) for p in pts))


@pytest.fixture
def half_interval() -> GeoComplex:
    return from_maximal([seg(0, "1/2")])


@pytest.fixture
def third_interval() -> GeoComplex:
    return from_maximal([seg("1/3", "2/3")])


@pytest.fixture
def antidiagonal() -> GeoComplex:
    return from_maximal([GeoSimplex((rpoint("1/2", 0), rpoint(0, "1/2")))])


@pytest.fixture
def tent_domain() -> GeoComplex:
    return from_maximal([seg(0, "1/2"), seg("1/2", 1)])


@pytest.fixture
def tent(tent_domain) -> PLMap:
    return PLMap(tent_domain, {rpoint(0): rpoint(0),
                               rpoint("1/2"): rpoint("1/2"),
                               rpoint(1): rpoint(0)})


def random_rational(rng: random.Random, max_den: int, lo=0, hi=1) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_simplex(rng: random.Random, ambient: int, max_den: int) -> GeoSimplex:
    """Random rational simplex in [0,1]^ambient with denominators <= max_den."""
    from zrk import linalg

    k = rng.randint(0, ambient)
    while True:
        pts = [rpoint(*[random_rational(rng, max_den) for _ in range(ambient)])
               for _ in range(k + 1)]
        try:
            return GeoSimplex(tuple(pts))
        except ValueError:
            continue


def random_simplex_pool() -> list[GeoSimplex]:
    """The simplexes of the benchmark's ``random_simplex`` pool, rational
    simplexes in [0,1]^n for n = 1..3, in pool order."""
    pools = Path(__file__).resolve().parent.parent / "bench" / "data" / "pools.json"
    return [GeoSimplex(tuple(rpoint(*v) for v in entry["vertices"]))
            for entry in json.loads(pools.read_text(encoding="utf-8"))["random_simplex"]]
