"""The seeded fold family rfold(n, k), which drives ``pipeline_dh`` from a
few dozen maximal simplexes to complexes of 10^4 to 10^5 of them.

The domain is ``standard_cube(n)`` squeezed into x_n in [0, 1/2], plus a
copy shifted to x_n in [1/2, 1], so it has 2 n! maximal simplexes.  It is
made stellar at k points drawn by ``random.Random(k)``: for each
coordinate, d = randint(2, 7), then i = randint(1, d - 1), and the
coordinate is i/d.  The map is eta(x) = (x_1, ..., x_{n-1},
min(x_n, 1 - x_n)), affine on each simplex, as both copies are, and P is
the lower copy.
"""

import random
from fractions import Fraction

from zrk import GeoComplex, GeoSimplex, PLMap, RPoint, standard_cube, stellar


def rfold_points(n: int, k: int) -> list[RPoint]:
    """The k seeded stellar points of rfold(n, k), in the order drawn."""
    rng = random.Random(k)
    points = []
    for _ in range(k):
        coords = []
        for _ in range(n):
            d = rng.randint(2, 7)
            coords.append(Fraction(rng.randint(1, d - 1), d))
        points.append(RPoint(coords))
    return points


def rfold(n: int, k: int) -> tuple[PLMap, GeoComplex]:
    """The retraction eta of rfold(n, k) and the polyhedron P."""
    half = Fraction(1, 2)

    def copy(shift):
        return [GeoSimplex(tuple(RPoint(list(v)[:-1] + [v[-1] * half + shift])
                                 for v in s.vertices))
                for s in standard_cube(n).maximal_simplexes()]

    lower = copy(0)
    domain = GeoComplex(lower + copy(half))
    for p in rfold_points(n, k):
        domain = stellar(domain, p)
    images = {v: RPoint(list(v)[:-1] + [min(v[-1], 1 - v[-1])]) for v in domain.vertices()}
    return PLMap(domain, images), GeoComplex(lower)
