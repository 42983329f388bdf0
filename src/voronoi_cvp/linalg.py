"""Exact linear algebra over rationals and integers.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
tuples.  Everything here is exact: no floats, no square roots.  Matrices
are inverted over the integers: `inverse` is one fraction-free
Gauss-Jordan elimination (Bareiss) of an integer matrix, returning an
integer K and d = |det M| with M K = d I, and `solve` multiplies by K, so a
`Fraction` is built only for the solution it returns.  The ball enumerator
in `oracles` scales `ldl`'s output to integers and takes its square roots
as exact `math.isqrt` bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index, mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


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


def scaled_ints(u: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Return ``(k, d)`` with ``u == k / d`` entrywise and integer ``k``, ``d >= 1``."""
    d = lcm(*(x.denominator for x in u))
    return tuple(x.numerator * (d // x.denominator) for x in u), d


def scaled_vectors(
    n: int, *vectors: Sequence[Fraction]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Scale n-vectors to integers over one denominator d: vectors[i] == k[i] / d."""
    if any(len(v) != n for v in vectors):
        raise ValueError(f"expected vectors of length {n}")
    flat, d = scaled_ints([x for v in vectors for x in v])
    return tuple(flat[i : i + n] for i in range(0, len(flat), n)), d


def inverse(matrix: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer inverse of a square integer matrix: ``(K, d)`` with M K = d I, d = |det M|.

    Fraction-free Gauss-Jordan (Bareiss 1968) over [M | I]: each step
    replaces every other row i by (p r_i - m_ik r_k) / p_prev, which divides
    exactly, so every entry stays an integer minor and the last pivot is
    +-det M.  Raises ValueError when M is singular.
    """
    n = len(matrix)
    rows = [
        [*map(index, row), *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)
    ]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise ValueError("matrix is singular")
        rows[k], rows[p] = rows[p], rows[k]
        r_k = rows[k]
        for i, r_i in enumerate(rows):
            if i != k:
                rows[i] = [(r_k[k] * a - r_i[k] * b) // prev for a, b in zip(r_i, r_k)]
        prev = r_k[k]
    sign = 1 if prev > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in rows), sign * prev


def solve(matrix: Sequence[Sequence[int]], rhs: Sequence[Fraction]) -> Vec:
    """Solve M x = rhs for a square nonsingular integer M: x = K rhs / d."""
    K, d = inverse(matrix)
    (r_int,), dr = scaled_vectors(len(K), vec(rhs))
    return tuple(Fraction(dot_int(row, r_int), d * dr) for row in K)


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
