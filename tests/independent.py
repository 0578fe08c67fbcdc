"""A regularity checker that shares no code with zrk.

It reads a complex out of ``.scx`` text itself and decides regularity and
strong regularity from the definitions, with the standard library alone,
so that a witness zrk certifies is checked by arithmetic zrk did not do:

- A rational point v of R^n has the integer vector den(v) (v, 1), for the
  least common denominator den(v) of its coordinates.
- A simplex is regular when the vectors of its vertices are part of a
  basis of Z^(n+1), that is when the gcd of the maximal minors of the
  matrix of those vectors is 1.  Each minor is a determinant by cofactor
  expansion.
- A regular simplex is strongly regular when the denominators of its
  vertices have gcd 1.
- A complex is regular when every simplex is, and strongly regular when,
  besides, every maximal simplex is strongly regular.  A face of a regular
  simplex is regular, as part of a part of a basis is part of a basis, so
  the maximal simplexes are the ones tested.

A verdict document is read for its ``strongly_regular`` witness.

``replay`` re-checks a collapse sequence on the same terms: faces are
frozensets of points, and a step (T, F) is an elementary collapse when T
and F are live, F is a facet of T and T is the only live face that
properly contains F.  The run must leave the terminal vertex alone.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


def maximal_simplexes(text: str, witness: str = "strongly_regular"
                      ) -> list[list[tuple[Fraction, ...]]]:
    """The maximal simplexes of the complex in a ``.scx`` document: a
    complex document's own, or a verdict's ``witness``."""
    body = json.loads(text)
    if body["kind"] == "verdict":
        body = body["witnesses"][witness]
    elif body["kind"] != "complex":
        raise ValueError(f"no complex in a {body['kind']} document")
    return [[tuple(map(Fraction, point)) for point in simplex]
            for simplex in body["maximal_simplexes"]]


def vector(point: tuple[Fraction, ...]) -> list[int]:
    """den(v) (v, 1) for the least common denominator den(v) of v."""
    d = math.lcm(*(c.denominator for c in point))
    return [int(c * d) for c in point] + [d]


def determinant(m: list[list[int]]) -> int:
    """The determinant of a square integer matrix by cofactor expansion
    along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def minor_gcd(rows: list[list[int]]) -> int:
    """The gcd of the k x k minors of a k-row integer matrix; 0 when its
    rows are dependent."""
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        g = math.gcd(g, determinant([[row[c] for c in cols] for row in rows]))
        if g == 1:
            break
    return g


def is_regular(simplex: list[tuple[Fraction, ...]]) -> bool:
    return minor_gcd([vector(v) for v in simplex]) == 1


def is_strongly_regular(simplexes: list[list[tuple[Fraction, ...]]]) -> bool:
    """Every maximal simplex regular, with vertex denominators of gcd 1."""
    return all(is_regular(s) and math.gcd(*(vector(v)[-1] for v in s)) == 1
               for s in simplexes)


def face(points: list) -> frozenset:
    """A simplex of a ``.scx`` document as the set of its points."""
    return frozenset(tuple(map(Fraction, point)) for point in points)


def replay(complex_text: str, sequence: dict) -> bool:
    """Whether ``sequence``, a verdict's ``collapse_sequence`` object (its
    ``steps`` [T, F] and its ``terminal``), collapses the complex of
    ``complex_text`` to the terminal vertex alone: a complex document's
    own complex, or a verdict's ``collapse_complex`` witness.  The live
    faces start as every face of every maximal simplex."""
    live = {frozenset(subset) for simplex in maximal_simplexes(complex_text, "collapse_complex")
            for k in range(1, len(simplex) + 1)
            for subset in itertools.combinations(simplex, k)}
    for t, f in sequence["steps"]:
        t, f = face(t), face(f)
        if not (t in live and f in live and f < t and len(t) == len(f) + 1
                and all(g == t for g in live if f < g)):
            return False
        live -= {t, f}
    return live == {face([sequence["terminal"]])}
