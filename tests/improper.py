"""Seeded sets of Kuhn simplexes that leave one grid, proper and improper,
for the tests of the common-face condition.

A Kuhn simplex of the 1/m grid is a chain v0 < v1 < ... < vk in the product
order: v0 lies on the grid, and each step is (1/m) times a 0/1 vector, the
steps having disjoint supports.  Every set of Kuhn simplexes of one grid is
a subcomplex of Freudenthal's triangulation of that grid, which refines the
triangulation of every grid 1/m' with m' dividing m.  So a set can be
improper only when it leaves a single grid, which the families below do in
four ways:

- ``off grid``: a Kuhn set with one vertex moved off the grid, in every
  simplex that has it or in one of them only;
- ``two grids``: the chains of 1/2 on x_0 <= 1/2 and those of another grid
  on x_0 >= c, overlapping, meeting across x_0 = 1/2, or apart;
- ``nested``: the chains of 1/2 around the corner cell [0, 1/2]^n, and
  those of 1/4 inside it, in all of it, in a smaller box, or on top of
  the coarse chains there;
- ``T-junction``: the chains of the 1/m grid with one simplex, or all of
  them, replaced by the chains of the 1/2m grid inside it.

Each family comes whole and as a seeded subset, in dimensions 2 and 3,
with grids small enough for a pair-by-pair check to stay cheap.  Whether a
set is proper is not recorded: a test compares two deciders on it.
"""

import itertools
import random
from fractions import Fraction

from zrk.complexes import GeoSimplex, RPoint

FAMILIES = ("off grid", "two grids", "nested", "T-junction")


def kuhn_simplexes(n: int, m: int) -> list[GeoSimplex]:
    """The n! m^n maximal Kuhn simplexes of the 1/m grid of [0,1]^n."""
    out = []
    for base in itertools.product(range(m), repeat=n):
        for perm in itertools.permutations(range(n)):
            point, chain = list(base), [tuple(base)]
            for i in perm:
                point[i] += 1
                chain.append(tuple(point))
            out.append(GeoSimplex(tuple(RPoint(tuple(Fraction(c, m) for c in p))
                                        for p in chain)))
    return out


def _barycentre(s: GeoSimplex) -> tuple[Fraction, ...]:
    return s.barycenter().coords


def _off_grid(rng: random.Random, n: int) -> list[list[GeoSimplex]]:
    """The chains of 1/2 with an inner vertex moved by a small rational
    step, in every simplex that has it, and in one simplex only."""
    simplexes = kuhn_simplexes(n, 2)
    v = RPoint(tuple(Fraction(1, 2) for _ in range(n)))
    step = [Fraction(rng.choice((-1, 0, 1)), rng.choice((5, 7, 9))) for _ in range(n)]
    if not any(step):
        step[0] = Fraction(1, 7)
    moved = RPoint(tuple(c + d for c, d in zip(v.coords, step)))

    def move(s: GeoSimplex) -> GeoSimplex:
        return GeoSimplex(tuple(moved if u == v else u for u in s.vertices))

    having = [i for i, s in enumerate(simplexes) if v in s.vertices]
    one = rng.choice(having)
    return [[move(s) for s in simplexes],
            [move(s) if i == one else s for i, s in enumerate(simplexes)]]


def _two_grids(n: int) -> list[list[GeoSimplex]]:
    """The chains of 1/2 on x_0 <= 1/2, with those of 1/m on x_0 >= c for
    (m, c) = (2, 1/2) (one grid), (4, 1/2) (finer across the cut),
    (3, 1/3) (overlapping) and (3, 2/3) (apart)."""
    half = Fraction(1, 2)
    left = [s for s in kuhn_simplexes(n, 2) if _barycentre(s)[0] < half]
    sets = []
    for m, c in ((2, half), (4, half), (3, Fraction(1, 3)), (3, Fraction(2, 3))):
        if n == 3 and m == 4:
            continue
        sets.append(left + [s for s in kuhn_simplexes(n, m) if _barycentre(s)[0] > c])
    return sets


def _nested(n: int) -> list[list[GeoSimplex]]:
    """The chains of 1/2 outside the corner cell [0, 1/2]^n, with the
    chains of 1/4 in the whole cell, in [0, 1/4]^n alone, and in the cell
    on top of the coarse chains that fill it; and the coarse chains of the
    cell with the fine ones of [0, 1/4]^n on top."""
    coarse = kuhn_simplexes(n, 2)
    cell = Fraction(1, 2)
    inside = [s for s in coarse if max(_barycentre(s)) < cell]
    outside = [s for s in coarse if max(_barycentre(s)) > cell]
    fine = [s for s in kuhn_simplexes(n, 4) if max(_barycentre(s)) < cell]
    small = [s for s in fine if max(_barycentre(s)) < cell / 2]
    return [outside + fine, outside + small, coarse + fine, inside + small]


def _t_junction(rng: random.Random, n: int) -> list[list[GeoSimplex]]:
    """The chains of 1/m, m = 2 in the plane and 1 in space, with one of
    them replaced by the chains of 1/2m inside it, and with every one."""
    m = 2 if n == 2 else 1
    coarse, fine = kuhn_simplexes(n, m), kuhn_simplexes(n, 2 * m)
    s = rng.choice(coarse)
    inside = [t for t in fine if s.contains(t.barycenter())]
    return [[t for t in coarse if t != s] + inside, fine]


def improper_families(rng: random.Random) -> list[tuple[str, list[GeoSimplex]]]:
    """(family, simplexes) for each set of each family in dimensions 2 and
    3, whole and as a seeded subset of at least two simplexes."""
    out = []
    for n in (2, 3):
        for name, sets in (("off grid", _off_grid(rng, n)), ("two grids", _two_grids(n)),
                           ("nested", _nested(n)), ("T-junction", _t_junction(rng, n))):
            for simplexes in sets:
                subset = rng.sample(simplexes, rng.randint(2, len(simplexes)))
                out += [(name, simplexes), (name, subset)]
    return out
