import random
from fractions import Fraction

import pytest

from zrk.linalg import AffineForm, enumerate_cell_vertices, lp_maximize


def test_lp_maximize_hand_cases():
    # max x + y on the simplex x + y + s = 1
    assert lp_maximize([[1, 1, 1]], [1], [1, 1, 0]) == 1
    # a negative right-hand side has no nonnegative solution here
    assert lp_maximize([[1, 1]], [-1], [1, 0]) is None
    # a repeated row and a zero row are redundant
    assert lp_maximize([[1, 1], [1, 1], [0, 0]], [2, 2, 0], [1, 0]) == 2
    assert lp_maximize([[1, 1], [1, 1]], [2, 3], [1, 0]) is None
    with pytest.raises(ValueError, match="unbounded"):
        lp_maximize([[1, -1]], [0], [1, 0])
    # Beale's example, on which the largest-coefficient rule cycles
    beale = [[1, 0, 0, Fraction(1, 4), -8, -1, 9],
             [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
             [0, 0, 1, 0, 0, 1, 0]]
    objective = [0, 0, 0, Fraction(3, 4), -20, Fraction(1, 2), -6]
    assert lp_maximize(beale, [0, 0, 1], objective) == Fraction(5, 4)


def test_lp_maximize_matches_vertex_enumeration():
    # Random bounded programs (the last row caps the sum of x); the optimum
    # is the best vertex of {rows.x = rhs, x >= 0}, or None when it is empty.
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        rows.append([1] * n)
        rhs.append(rng.randint(1, 3))
        objective = [rng.randint(-3, 3) for _ in range(n)]
        eqs = [AffineForm(tuple(map(Fraction, r)), Fraction(-b))
               for r, b in zip(rows, rhs)]
        ineqs = [AffineForm(tuple(Fraction(int(i == j)) for j in range(n)),
                            Fraction(0)) for i in range(n)]
        verts = enumerate_cell_vertices(eqs, ineqs, n)
        expected = (max(sum(c * x for c, x in zip(objective, v)) for v in verts)
                    if verts else None)
        assert lp_maximize(rows, rhs, objective) == expected, (rows, rhs, objective)
