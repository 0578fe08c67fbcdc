"""The signed coordinate permutations of the cube [0,1]^n, acting on points,
simplexes, complexes, PL maps and collapse sequences.

A symmetry g = (perm, flips) sends x to y with y_i = x_perm[i], or
1 - x_perm[i] where flips[i].  Its homogeneous lift is a unimodular integer
matrix, so den(g v) = den(v), and g maps the cube, its corners, regular and
strongly regular simplexes, and collapsible complexes onto the same kinds.
So every kernel answers on gK as it does on K, up to relabelling, which
needs no reference code to check.
"""

import random

from zrk.collapse import CollapseSequence, CollapseStep
from zrk.complexes import GeoComplex, GeoSimplex, RPoint
from zrk.zmaps import PLMap

Symmetry = tuple[tuple[int, ...], tuple[bool, ...]]


def random_symmetry(rng: random.Random, n: int) -> Symmetry:
    return tuple(rng.sample(range(n), n)), tuple(rng.random() < 0.5 for _ in range(n))


def act(g: Symmetry, obj):
    """g applied to a point, a simplex, a complex, a PL map or a collapse
    sequence.  A point's integer vector d(x, 1) maps to d(y, 1), which is
    primitive again, as gcd(d - a, d) = gcd(a, d).  A map eta of the cube
    into itself becomes g eta g^-1: its domain is gK, and the image of g v
    is g eta(v).  A sequence's steps and terminal are moved one by one and
    handed to the public ``CollapseSequence``, which ranks the moved steps
    on their own sorted vertex table: g changes the order of the points, so
    the rank pairs of g seq are not those of seq."""
    perm, flips = g
    if isinstance(obj, RPoint):
        *x, d = obj._homog
        return RPoint._from_homog(tuple(d - x[j] if f else x[j]
                                        for j, f in zip(perm, flips)) + (d,))
    if isinstance(obj, GeoSimplex):
        return GeoSimplex(tuple(act(g, v) for v in obj.vertices))
    if isinstance(obj, GeoComplex):
        return GeoComplex([act(g, s) for s in obj.maximal_simplexes()], validate=False)
    if isinstance(obj, PLMap):
        return PLMap(act(g, obj.domain), {act(g, v): act(g, img) for v, img in obj.images.items()})
    if isinstance(obj, CollapseSequence):
        return CollapseSequence(tuple(CollapseStep(act(g, st.maximal), act(g, st.free_facet))
                                      for st in obj.steps), act(g, obj.terminal))
    raise TypeError(f"no cube symmetry acts on {type(obj).__name__}")
