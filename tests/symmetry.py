"""The signed coordinate permutations of the cube [0,1]^n, acting on points,
simplexes and complexes.

A symmetry g = (perm, flips) sends x to y with y_i = x_perm[i], or
1 - x_perm[i] where flips[i].  Its homogeneous lift is a unimodular integer
matrix, so den(g v) = den(v), and g maps the cube, its corners, regular and
strongly regular simplexes, and collapsible complexes onto the same kinds.
So every kernel answers on gK as it does on K, up to relabelling, which
needs no reference code to check.
"""

import random

from zrk.complexes import GeoComplex, GeoSimplex, RPoint

Symmetry = tuple[tuple[int, ...], tuple[bool, ...]]


def random_symmetry(rng: random.Random, n: int) -> Symmetry:
    return tuple(rng.sample(range(n), n)), tuple(rng.random() < 0.5 for _ in range(n))


def act(g: Symmetry, obj):
    """g applied to a point, a simplex or a complex.  A point's integer
    vector d(x, 1) maps to d(y, 1), which is primitive again, as
    gcd(d - a, d) = gcd(a, d)."""
    perm, flips = g
    if isinstance(obj, RPoint):
        *x, d = obj._homog
        return RPoint._from_homog(tuple(d - x[j] if f else x[j]
                                        for j, f in zip(perm, flips)) + (d,))
    if isinstance(obj, GeoSimplex):
        return GeoSimplex(tuple(act(g, v) for v in obj.vertices))
    if isinstance(obj, GeoComplex):
        return GeoComplex([act(g, s) for s in obj.maximal_simplexes()], validate=False)
    raise TypeError(f"no cube symmetry acts on {type(obj).__name__}")
