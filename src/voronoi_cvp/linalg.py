"""Exact linear algebra over rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
tuples.  Everything here is exact: no floats, no square roots.  Square
roots only ever appear as *integer bounds* (`floor_of_sum_with_sqrt`)
used to turn a rational ball constraint into an integer interval.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg(u: Sequence[Fraction]) -> Vec:
    return tuple(-a for a in u)


def scale(c: Fraction, u: Sequence[Fraction]) -> Vec:
    return tuple(c * a for a in u)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def norm_sq(u: Sequence[Fraction]) -> Fraction:
    return dot(u, u)


def dot_int(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def scaled_ints(u: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Return ``(k, d)`` with ``u == k / d`` entrywise and integer ``k``, ``d >= 1``."""
    d = 1
    for x in u:
        d = lcm(d, x.denominator)
    return tuple(x.numerator * (d // x.denominator) for x in u), d


def scale_exact(u: Sequence[Fraction], d: int) -> tuple[int, ...]:
    """Entrywise ``u * d`` when that is integral; raises otherwise."""
    out = []
    for x in u:
        num = x.numerator * d
        if num % x.denominator:
            raise ValueError(f"{x} * {d} is not integral")
        out.append(num // x.denominator)
    return tuple(out)


def matvec_columns(columns: Sequence[Sequence[Fraction]], coeffs: Sequence) -> Vec:
    """Linear combination sum_j coeffs[j] * columns[j]."""
    n = len(columns[0])
    acc = [Fraction(0)] * n
    for c, col in zip(coeffs, columns, strict=True):
        if c:
            cf = frac(c)
            for i, x in enumerate(col):
                acc[i] += cf * x
    return tuple(acc)


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int], int]:
    """Row echelon form; returns (rows, pivot columns, sign of permutation)."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pc = rows[r][c]
        for i in range(r + 1, m):
            if rows[i][c]:
                f = rows[i][c] / pc
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots, sign


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    rows = [[frac(x) for x in v] for v in vectors]
    _, pivots, _ = _eliminate(rows)
    return len(pivots)


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    rows = [[frac(x) for x in row] for row in matrix]
    rows, pivots, sign = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    d = Fraction(sign)
    for i in range(n):
        d *= rows[i][pivots[i]]
    return d


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec:
    """Solve M x = rhs for square nonsingular M (rows given)."""
    n = len(matrix)
    rows = [[frac(x) for x in row] + [frac(b)] for row, b in zip(matrix, rhs, strict=True)]
    rows, pivots, _ = _eliminate(rows)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        c = pivots[i]
        s = rows[i][n] - sum(rows[i][j] * x[j] for j in range(c + 1, n))
        x[c] = s / rows[i][c]
    return tuple(x)


def inverse(matrix: Sequence[Sequence[Fraction]]) -> Mat:
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        cols.append(solve(matrix, e))
    # cols[j] is the j-th column of the inverse
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def ldl(gram: Sequence[Sequence[Fraction]]) -> tuple[Mat, Vec]:
    """LDL^T factorization of a symmetric positive definite matrix.

    Returns (L, d) with L unit lower triangular so that for any z,
    z^T G z = sum_j d[j] * (z[j] + sum_{i>j} L[i][j] z[i])^2.
    """
    n = len(gram)
    L = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = gram[i][j] - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            L[i][j] = s / d[j]
        L[i][i] = Fraction(1)
        d[i] = gram[i][i] - sum(L[i][k] * L[i][k] * d[k] for k in range(i))
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
    return tuple(tuple(row) for row in L), tuple(d)


def floor_of_sum_with_sqrt(m: Fraction, q: Fraction) -> int:
    """floor(m + sqrt(q)) computed exactly for rational m and q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    mp, mq = m.numerator, m.denominator
    qp, qq = q.numerator, q.denominator
    s = qp * qq  # sqrt(q) == sqrt(s) / qq
    u = isqrt(mq * mq * s)  # u <= mq * sqrt(s) < u + 1
    return (mp * qq + u) // (mq * qq)


def ceil_of_diff_with_sqrt(m: Fraction, q: Fraction) -> int:
    """ceil(m - sqrt(q)) computed exactly for rational m and q >= 0."""
    return -floor_of_sum_with_sqrt(-m, q)


def sqrt_upper(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q), tight to within 1/denominator."""
    if q < 0:
        raise ValueError("negative radicand")
    s = q.numerator * q.denominator
    u = isqrt(s)
    if u * u == s:
        return Fraction(u, q.denominator)
    return Fraction(u + 1, q.denominator)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
