"""Certified numbers: bounds evaluated exactly in rationals and rounded
outward once to floats.

Every float is a rational, so a bound built from floats can be evaluated
without rounding error in ``fractions.Fraction`` and then rounded upward
to the least float at or above it.  Here are that rounding (``round_up``),
an upward square root (``sqrt_up``) and the operator norms of a float
matrix that ``systems.lipschitz_bound`` certifies the contraction factor
with (``spectral_norm``, ``row_sum_norm``), computed without LAPACK.
Nothing here needs numpy.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction


def round_up(x: Fraction) -> float:
    """The least float at or above the rational x (inf above the float
    range): the one outward rounding of a bound evaluated exactly, so a
    bound that is a float stays exact."""
    try:
        f = float(x)
    except OverflowError:
        return math.inf
    return f if f >= x else math.nextafter(f, math.inf)


def sqrt_up(n: int) -> Fraction:
    """The least float at or above the square root of n, as a rational."""
    s = math.sqrt(n)
    return Fraction(s) if Fraction(s) ** 2 >= n else Fraction(math.nextafter(s, math.inf))


@functools.lru_cache(maxsize=4096)
def row_sum_norm(rows: tuple) -> float:
    """The largest absolute row sum of the square matrix with the given
    finite float rows, summed exactly and rounded upward: its operator norm
    for the max metric."""
    return round_up(max(sum(abs(Fraction(x)) for x in row) for row in rows))


@functools.lru_cache(maxsize=4096)
def spectral_norm(rows: tuple) -> float:
    """The least float t at or above the spectral norm of the square matrix
    A with the given finite float rows: t^2 I - A^T A is positive
    semidefinite, tested exactly (``semidefinite``), and no smaller float
    passes.  The search (``least_float``) starts from a float estimate
    (``_spectral_guess``).  A diagonal A gives max |a_jj|, as a float SVD
    does, give or take its last ulp."""
    exact = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    gram = [[sum(exact[k][i] * exact[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]

    def covers(t):
        square = t * t
        return semidefinite([[(square if i == j else 0) - gram[i][j] for j in range(n)]
                             for i in range(n)])

    return least_float(covers, _spectral_guess(rows))


def _spectral_guess(rows) -> float:
    """A float estimate of the spectral norm of the matrix with the given
    rows: the square root of the Rayleigh quotient of A^T A after a few
    power steps from the axis of its largest diagonal entry, which is an
    exact eigenvector when A is diagonal; 1 when the floats overflow."""
    n = len(rows)
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    def times(x):
        return [sum(g * v for g, v in zip(row, x)) for row in gram]

    axis = max(range(n), key=lambda i: gram[i][i])
    x = [float(i == axis) for i in range(n)]
    for _ in range(16):
        y = times(x)
        top = max(map(abs, y))
        if not 0 < top < math.inf:
            break
        x = [v / top for v in y]
    guess = math.sqrt(max(sum(map(math.prod, zip(x, times(x)))) / sum(v * v for v in x), 0.0))
    return guess if guess < math.inf else 1.0


def semidefinite(s: list) -> bool:
    """Whether the symmetric rational matrix s is positive semidefinite, by
    an exact LDL^T elimination (s is consumed).  A negative pivot, or a zero
    pivot whose row is not zero, refutes it; a positive pivot is eliminated
    by its Schur complement."""
    n = len(s)
    for k in range(n):
        pivot = s[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(s[k][j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = s[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    s[i][j] -= f * s[k][j]
    return True


def least_float(covers, start: float) -> float:
    """The least float t >= 0 for which covers(Fraction(t)) holds, for a
    test that, once it holds, holds for every larger t; inf when no finite
    float passes.  Nonnegative floats are ordered as their bit patterns, so
    the search walks those from the float start: by strides of 1, 2, 4, ...
    ulps until the test changes, then by bisection."""

    def test(i):
        return covers(Fraction(_float_of(i)))

    inf = _bits_of(math.inf)
    at = _bits_of(start if 0 < start < math.inf else 0.0)
    if test(at):
        hi, step = at, 1
        while hi - step >= 0 and test(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(hi - step, -1)
    else:
        lo, step = at, 1
        while lo + step < inf and not test(lo + step):
            lo, step = lo + step, 2 * step
        hi = min(lo + step, inf)
    # lo fails (or lies below 0) and hi passes (or is inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid
    return _float_of(hi)


def _bits_of(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float_of(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]
