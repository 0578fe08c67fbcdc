import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zrk.exactnum import (IntMat, _smith, extends_to_basis, format_rat,
                          invariant_factors, lcd, parse_rat)

from conftest import seg
from oracles import _int_det, minor_gcd, smith_extends_to_basis, smith_with_transforms

rats = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_invariant_factors_golden():
    assert invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[1, 0, 3], [2, 0, 3]]) == [1, 3]


def test_invariant_factors_divisibility_chain():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d = invariant_factors(m)
        assert len(d) == min(rows, cols)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_invariant_factors_against_minor_gcd_oracle():
    # Product of the first k factors equals the gcd of all k x k minors.
    rng = random.Random(11)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d = invariant_factors(m)
        prod = 1
        for k, dk in enumerate(d, start=1):
            prod *= dk
            assert prod == minor_gcd(m, k), (m, d, k)


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_extends_to_basis_golden():
    assert extends_to_basis([(1, 0, 2), (0, 1, 2)]) is True
    assert extends_to_basis([(1, 0, 3), (2, 0, 3)]) is False
    assert extends_to_basis([(0, 0, 0, 1)]) is True


def test_extends_to_basis_rejects_dependent_rows():
    with pytest.raises(ValueError, match="not affinely independent input"):
        extends_to_basis([(1, 2, 3), (2, 4, 6)])
    # Dependent rows raise also after a pivot that is not +-1.
    with pytest.raises(ValueError, match="not affinely independent input"):
        extends_to_basis([(2, 0, 0), (0, 3, 0), (2, 3, 0)])
    # Empty input, more rows than columns and ragged rows.
    for bad in ([], [()], [(1,), (2,)], [(1, 2), (3,)]):
        with pytest.raises(ValueError):
            extends_to_basis(bad)


def test_lattice_kernels_reject_non_integers():
    # int() used to truncate these: (1.9, 0) passed as the basis row (1, 0).
    for bad in ([(1.9, 0)], [(2.7,)], [(1.5,)], [(True, 0)], [(Fraction(2), 1)]):
        with pytest.raises(ValueError, match="entries must be integers"):
            extends_to_basis(bad)
        with pytest.raises(ValueError, match="entries must be integers"):
            invariant_factors(bad)
        with pytest.raises(ValueError, match="entries must be integers"):
            IntMat.from_rows(bad)


def _outcome(fn, rows):
    try:
        return fn(rows)
    except ValueError:
        return ValueError


def test_extends_to_basis_matches_smith_oracle():
    rng = random.Random(41)
    seen = []
    for _ in range(2500):
        m = rng.randint(1, 5)
        k = rng.randint(1, m)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(k)]
        if rng.random() < 0.2:
            zero = rng.randrange(m)
            for r in rows:
                r[zero] = 0
        if k > 1 and rng.random() < 0.15:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        expected = _outcome(smith_extends_to_basis, rows)
        assert _outcome(extends_to_basis, rows) == expected, rows
        seen.append(expected)
    assert min(seen.count(v) for v in (True, False, ValueError)) > 300


def test_extends_to_basis_unimodular_invariance():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(2, 4)
        k = rng.randint(1, m)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        from zrk.linalg import matrix_rank
        if matrix_rank(rows) != k:
            continue
        u = _random_unimodular(rng, m)
        transformed = [[sum(r[t] * u[t][j] for t in range(m)) for j in range(m)]
                       for r in rows]
        assert extends_to_basis(rows) == extends_to_basis(transformed)


def test_lcd_golden():
    assert lcd([Fraction(1, 2), Fraction(1, 3)]) == 6
    assert lcd([Fraction(0), Fraction(1)]) == 1
    assert lcd([Fraction(3, 4), Fraction(1, 6)]) == 12


@given(rats, rats)
def test_rat_arithmetic_exact(a, b):
    assert (a + b) - b == a


@given(st.lists(rats, min_size=1, max_size=6))
def test_lcd_is_least(xs):
    d = lcd(xs)
    assert all((x * d).denominator == 1 for x in xs)
    for smaller in range(1, min(d, 50)):
        if d % smaller == 0 and smaller < d:
            assert not all((x * smaller).denominator == 1 for x in xs)


def test_parse_and_format_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2") == Fraction(-2)
    assert format_rat(Fraction(1, 2)) == "1/2"
    assert format_rat(Fraction(5)) == "5"
    assert format_rat(-3) == "-3"
    for bad in (0.5, 2.0, True):
        with pytest.raises(ValueError, match=type(bad).__name__):
            format_rat(bad)
    with pytest.raises(ValueError, match="not in lowest terms"):
        parse_rat("2/4")
    with pytest.raises(ValueError, match="positive"):
        parse_rat("1/-2")


def test_intmat_validation():
    with pytest.raises(ValueError):
        IntMat.from_rows([])
    with pytest.raises(ValueError):
        IntMat.from_rows([[1, 2], [3]])
    m = IntMat.from_rows([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)


def test_smith_with_transforms_consistency():
    rng = random.Random(19)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_with_transforms(a)
        # U A V = D, U and V unimodular, D diagonal with the invariant factors.
        ua = [[sum(u[i][t] * a[t][j] for t in range(rows)) for j in range(cols)]
              for i in range(rows)]
        uav = [[sum(ua[i][t] * v[t][j] for t in range(cols)) for j in range(cols)]
               for i in range(rows)]
        assert uav == d
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert diag == invariant_factors(a)
        assert abs(_int_det(u)) == 1
        assert abs(_int_det(v)) == 1


def test_smith_keeps_the_oracles_row_transform_and_diagonal():
    # _smith reduces one augmented matrix [A | I] and keeps no V; every
    # operation runs in the oracle's order on the oracle's numbers, so U
    # and D are the oracle's own, not merely another valid pair.  The
    # vertex rows of seg(1/4099, 1/2) have the torsion 4097, over the box
    # point's cap of 4096 candidates, where U's exact choice picks the
    # point.
    rng = random.Random(58)
    cases = [[[0] * cols for _ in range(rows)] for rows in range(1, 4) for cols in range(1, 4)]
    cases.append([list(r) for r in seg("1/4099", "1/2")._vertex_rows])
    for _ in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            # A rank-deficient matrix: its last row an integer combination
            # of two others.
            i, j = rng.randrange(rows - 1), rng.randrange(rows - 1)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            a[-1] = [p * x + q * y for x, y in zip(a[i], a[j])]
        cases.append(a)
    deficient = 0
    for a in cases:
        u, d, _ = smith_with_transforms(a)
        frozen = [tuple(r) for r in a]
        assert _smith(frozen) == (u, d), a
        deficient += 0 in (d[i][i] for i in range(min(len(a), len(a[0]))))
    assert deficient > 50 and any(len(a) != len(a[0]) for a in cases)
    assert invariant_factors(cases[9])[-1] == 4097
