"""Exact linear algebra over rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
tuples.  Everything here is exact: no floats, no square roots.  The
ball enumerator in `oracles` scales `ldl`'s output to integers and takes
its square roots as exact `math.isqrt` bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


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


def scaled_vectors(
    n: int, *vectors: Sequence[Fraction]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Scale n-vectors to integers over one denominator d: vectors[i] == k[i] / d."""
    if any(len(v) != n for v in vectors):
        raise ValueError(f"expected vectors of length {n}")
    flat, d = scaled_ints([x for v in vectors for x in v])
    return tuple(flat[i : i + n] for i in range(0, len(flat), n)), d


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
    """Inverse of a square nonsingular matrix: one Gauss-Jordan pass over [M | I]."""
    n = len(matrix)
    rows = [
        [frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            raise ValueError("matrix is singular")
        rows[c], rows[p] = rows[p], rows[c]
        pc = rows[c][c]
        rows[c] = [a / pc for a in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


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
            s = frac(gram[i][j]) - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            L[i][j] = s / d[j]
        L[i][i] = Fraction(1)
        d[i] = frac(gram[i][i]) - sum(L[i][k] * L[i][k] * d[k] for k in range(i))
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
    return tuple(tuple(row) for row in L), tuple(d)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
