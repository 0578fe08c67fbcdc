"""Exact integer and rational arithmetic with lattice-algebra kernels.

``Rat`` is the standard-library ``fractions.Fraction``: it already keeps
numerator/denominator coprime with a positive denominator, which is exactly
the required canonical form.  The lattice kernels take integer matrices
only: an entry that is not an ``int`` (a float, a ``Fraction``, a bool)
raises ``ValueError`` instead of being truncated.  ``extends_to_basis`` is
a saturation test by unimodular column operations that computes no
transforms; ``regular.is_regular`` reads a full-dimensional simplex's
determinant, and runs that test's kernel ``_saturated`` on any other
simplex of two vertices or more.  The Smith kernel ``_smith`` keeps only
the row transform U and the diagonal D of U * A * V = D, which is all its
callers read: ``invariant_factors`` the diagonal, and ``regular``'s
lattice tests U and D; the full decomposition with V is a test oracle.
``_saturated`` and ``_smith`` skip the integer checks, for callers whose
rows are zrk's own.  A broken invariant of this arithmetic, here or in
the modules that build on it, raises ``InvariantBroken`` (``_check``).
Rationals are read as (numerator, denominator) pairs of ints
(``_rat_pair``), which ``parse_rat`` makes a ``Fraction`` and ``.scx``
parsing does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rat = Fraction


class InvariantBroken(RuntimeError):
    """An internal invariant of the number theory failed: a bug, never a
    property of the input.  Raised instead of ``assert`` so that it also
    fires under ``python -O``."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantBroken(message)


def parse_rat(text: str) -> Rat:
    """Parse 'p' or 'p/q' in lowest terms with q >= 1.

    Raises ValueError for non-canonical inputs such as '2/4' or '1/-2'.
    """
    return Fraction(*_rat_pair(text))


def _rat_pair(text: str) -> tuple[int, int]:
    """``parse_rat`` as its (numerator, denominator) pair of ints, with the
    same errors; it builds no ``Fraction``."""
    num_s, slash, den_s = text.strip().partition("/")
    num, den = int(num_s), int(den_s) if slash else 1
    if den < 1:
        raise ValueError(f"{text!r}: denominator must be positive")
    if math.gcd(num, den) != 1:
        raise ValueError(f"{text!r}: not in lowest terms")
    return num, den


def _exact(x, what: str):
    """x itself, unless it is a float or a bool: a float would stand in for
    a rational it only approximates, and a bool is no number."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"{what} is a {type(x).__name__} ({x!r}); "
                         "use an int, a Fraction or a 'p/q' string")
    return x


def format_rat(x: Rat) -> str:
    """Serialize as 'p/q' for true fractions and 'p' for integers."""
    if not isinstance(x, Fraction):
        x = Fraction(_exact(x, "the value"))
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class IntMat:
    """Immutable integer matrix, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must be nonempty")
        width = len(self.entries[0])
        if any(len(r) != width for r in self.entries):
            raise ValueError("ragged rows")
        if any(isinstance(x, bool) or not isinstance(x, int)
               for r in self.entries for x in r):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMat":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


def invariant_factors(m: IntMat | Sequence[Sequence[int]]) -> list[int]:
    """Smith-form diagonal d_1 | d_2 | ... | d_min(rows, cols), read off
    ``_smith``'s D once ``IntMat`` has checked the rows."""
    _, d = _smith(_int_rows(m.entries if isinstance(m, IntMat) else m))
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def extends_to_basis(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the k rows extend to a basis of Z^m.

    Unimodular column operations reduce the rows A to A C = [L | 0], L
    lower triangular k x k and det C = +-1: for each row i in turn, an
    extended gcd folds each entry right of the pivot (i, i) into the pivot,
    as a 2 x 2 column operation of determinant 1 applied to rows i..k-1
    (the rows above are already zero there).  Dependent rows raise
    ``ValueError``; otherwise the rows extend to a basis exactly when every
    diagonal entry of L is +-1.

    Proof.  If the diagonal entry of row i is 0, row i of A C lies in the
    span of the first i unit vectors, as do rows 0..i-1, so the rows are
    dependent; if no diagonal entry is 0, L is nonsingular and the rows are
    independent.  If every diagonal entry is +-1, L is unimodular, the
    square matrix M with rows [L | 0] and [0 | I] has det +-1, and M C^-1
    is a unimodular matrix whose first k rows are A.  Conversely, the
    determinant of any square integer matrix whose first k rows are A is,
    by Laplace expansion along those rows, an integer combination of the
    k x k minors of A; each of these is an integer combination of the
    minors of A C (Cauchy-Binet with C^-1), and the only nonzero one of
    those is det L.  So every completion has a determinant divisible by
    det L, and none is unimodular when |det L| > 1.
    """
    if not rows:
        raise ValueError("empty input")
    a = _int_rows(rows)
    if len(a) > len(a[0]):
        raise ValueError("not affinely independent input")
    return _saturated(a)


def _saturated(a: list[list[int]]) -> bool:
    """``extends_to_basis`` on rows known to be ints, at most as many as
    their width, given as mutable lists that it reduces in place; for
    callers whose rows are zrk's own, such as a simplex's vertex vectors,
    so they skip ``IntMat``'s checks."""
    k, m = len(a), len(a[0])
    for i in range(k):
        top = a[i]
        for j in range(i + 1, m):
            b = top[j]
            if not b:
                continue
            g, x, y = xgcd(top[i], b)
            p, b = top[i] // g, b // g  # x p + y b = 1
            for r in a[i:]:
                ri, rj = r[i], r[j]
                r[i], r[j] = x * ri + y * rj, p * rj - b * ri
    diagonal = [a[i][i] for i in range(k)]
    if 0 in diagonal:
        raise ValueError("not affinely independent input")
    return all(d in (1, -1) for d in diagonal)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g, g = +-gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows as mutable lists, once ``IntMat`` has checked that they form
    a nonempty rectangular matrix of ints."""
    return [list(r) for r in IntMat.from_rows(rows).entries]


def lcd(xs: Sequence[Rat]) -> int:
    """Least positive d with d*x integral for every x."""
    if not xs:
        raise ValueError("empty input")
    return math.lcm(*(x.denominator for x in xs))


def _smith(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(U, D) of the Smith form U * A * V = D of the rows A, with U
    unimodular and d_1 | d_2 | ... on D's diagonal, for rows known to be
    ints: callers whose rows are zrk's own skip ``IntMat``'s checks, as
    with ``_saturated``.  V is not kept; the full decomposition is the
    test oracle ``smith_with_transforms`` in ``tests/oracles.py``.

    The kernel reduces one augmented copy of the rows: each row of A
    followed by its row of the identity.  Row operations, swaps and sign
    flips act on whole rows, so the identity block becomes U; column
    operations, swaps and the divisibility fold touch the first nc entries
    only, so that block becomes D."""
    nr, nc = len(rows), len(rows[0])
    a = [[*r, *(int(i == j) for j in range(nr))] for i, r in enumerate(rows)]

    def diagonalize(top: int) -> None:
        while top < nr and top < nc:
            best = None
            for i in range(top, nr):
                for j in range(top, nc):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            a[top], a[best[0]] = a[best[0]], a[top]
            for row in a:
                row[top], row[best[1]] = row[best[1]], row[top]
            dirty = False
            for i in range(top + 1, nr):
                q = a[i][top] // a[top][top]
                if q:  # row_i -= q * row_top
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                if a[i][top] != 0:
                    dirty = True
            for j in range(top + 1, nc):
                q = a[top][j] // a[top][top]
                if q:  # col_j -= q * col_top
                    for row in a:
                        row[j] -= q * row[top]
                if a[top][j] != 0:
                    dirty = True
            if dirty:
                continue
            if a[top][top] < 0:
                a[top] = [-x for x in a[top]]
            top += 1

    diagonalize(0)
    # Divisibility fix-up: whenever d_i does not divide d_j, fold column j
    # into column i and re-diagonalize from i; the pivot there becomes
    # gcd(d_i, d_j), so the chain strictly improves and the loop terminates.
    size = min(nr, nc)
    while True:
        violation = next(((i, j) for i in range(size) for j in range(i + 1, size)
                          if (a[j][j] % a[i][i] if a[i][i] else a[j][j])), None)
        if violation is None:
            return [r[nc:] for r in a], [r[:nc] for r in a]
        i, j = violation
        for row in a:
            row[i] += row[j]
        diagonalize(i)
