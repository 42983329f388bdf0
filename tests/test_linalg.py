from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from voronoi_cvp import linalg

from conftest import ceil_of_diff_with_sqrt, floor_of_sum_with_sqrt, rank, sqrt_upper

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
nonneg = st.fractions(min_value=0, max_value=10_000, max_denominator=50)


@given(rationals, nonneg)
def test_floor_of_sum_with_sqrt_characterization(m, q):
    # k = floor(m + sqrt(q)) iff k - m <= sqrt(q) < k + 1 - m
    k = floor_of_sum_with_sqrt(m, q)
    low = k - m
    assert low <= 0 or low * low <= q
    high = k + 1 - m
    assert high > 0 and high * high > q


@given(rationals, nonneg)
def test_ceil_of_diff_with_sqrt_characterization(m, q):
    k = ceil_of_diff_with_sqrt(m, q)
    # k >= m - sqrt(q) and k - 1 < m - sqrt(q)
    lhs = m - k
    assert lhs <= 0 or lhs * lhs <= q
    prev = m - (k - 1)
    assert prev > 0 and prev * prev > q


@given(nonneg)
def test_sqrt_upper_bounds(q):
    up = sqrt_upper(q)
    assert up * up >= q
    step = Fraction(1, q.denominator)
    if up >= step:
        assert (up - step) * (up - step) < q or (up - step) * (up - step) == q == up * up


@given(st.lists(rationals, min_size=2, max_size=4))
def test_scaled_ints_round_trip(xs):
    ints, d = linalg.scaled_ints(tuple(xs))
    assert d >= 1
    assert all(Fraction(k, d) == x for k, x in zip(ints, xs))
    # d is the least common denominator
    lcm = 1
    for x in xs:
        lcm = linalg.lcm(lcm, x.denominator)
    assert d == lcm
    # scaled_vectors: the same scaling over several vectors of one length
    assert linalg.scaled_vectors(len(xs), xs, xs[::-1]) == ((ints, ints[::-1]), d)
    with pytest.raises(ValueError):
        linalg.scaled_vectors(len(xs), xs, xs[1:])


@st.composite
def square_matrices(draw, n_max=3):
    n = draw(st.integers(min_value=1, max_value=n_max))
    entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def integer_matrices(draw, n_max=5):
    """Square integer matrices; about half have a last row that depends on the others."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    entries = st.integers(min_value=-4, max_value=4)
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        weights = [draw(entries) for _ in range(n - 1)]
        m[-1] = [sum(w * row[j] for w, row in zip(weights, m)) for j in range(n)]
    return m


@given(integer_matrices())
def test_solve_and_inverse(m):
    n = len(m)
    if rank(m) < n:
        with pytest.raises(ValueError):
            linalg.inverse(m)
        with pytest.raises(ValueError):
            linalg.solve(m, (1,) * n)
        return
    K, d = linalg.inverse(m)
    assert d > 0 and all(type(x) is int for row in K for x in row)
    mk = [[linalg.dot_int(row, col) for col in zip(*K)] for row in m]
    assert mk == [[d * int(i == j) for j in range(n)] for i in range(n)]
    # d^2 = det(M^T M), the product of the LDL^T pivots of M^T M
    cols = list(zip(*m))
    _, pivots = linalg.ldl([[linalg.dot_int(a, b) for b in cols] for a in cols])
    assert d * d == prod(pivots)
    rhs = tuple(Fraction(i + 1, 3) for i in range(n))
    x = linalg.solve(m, rhs)
    assert tuple(linalg.dot(row, x) for row in m) == rhs


def test_inverse_of_skewed_basis():
    # den * B for the skewed basis B of test_round_half_to_even (den = 2):
    # det 12 with an inverse of denominator 12
    assert linalg.inverse(((4, 1), (0, 3))) == (((3, -1), (0, 4)), 12)
    # a negative determinant still gives d = |det M| > 0
    assert linalg.inverse(((0, 1), (1, 0))) == (((0, 1), (1, 0)), 1)
    assert linalg.inverse(((0, 2), (3, 0))) == (((0, 2), (3, 0)), 6)
    with pytest.raises(ValueError):
        linalg.inverse(((1, 2), (2, 4)))
    # the elimination is over the integers only: a Fraction entry is refused
    with pytest.raises(TypeError):
        linalg.inverse(((Fraction(1, 2), 0), (0, 1)))


@given(square_matrices())
def test_ldl_reconstructs_gram(m):
    n = len(m)
    assume(rank(m) == n)
    cols = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    gram = [[linalg.dot(a, b) for b in cols] for a in cols]
    L, d = linalg.ldl(gram)
    assert all(di > 0 for di in d)
    recon = [
        [
            sum(L[i][k] * L[j][k] * d[k] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert recon == gram
    # quadratic form identity on a probe vector
    z = tuple(Fraction(i - 1, 2) for i in range(n))
    direct = linalg.dot(z, tuple(linalg.dot(row, z) for row in gram))
    via_ldl = sum(
        d[j] * (z[j] + sum(L[i][j] * z[i] for i in range(j + 1, n))) ** 2
        for j in range(n)
    )
    assert direct == via_ldl


def test_ldl_of_integer_gram_is_exact():
    # integer entries must not fall into float division
    L, d = linalg.ldl([[2, 1], [1, 2]])
    assert (L, d) == (((1, 0), (Fraction(1, 2), 1)), (2, Fraction(3, 2)))
    assert all(isinstance(x, Fraction) for x in (*L[0], *L[1], *d))


def test_rank_and_det_basics():
    assert rank([(1, 0), (2, 0)]) == 1
    assert rank([(1, 0), (0, 1)]) == 2
    # the determinant comes out of the inverse as d = |det M|
    assert linalg.inverse([[2, 1], [0, 3]])[1] == 6
    assert linalg.inverse([[1, 2], [3, 4]])[1] == 2
    with pytest.raises(ValueError):
        linalg.inverse([[1, 2], [2, 4]])


def test_ceil_frac():
    assert linalg.ceil_frac(Fraction(7, 2)) == 4
    assert linalg.ceil_frac(Fraction(-7, 2)) == -3
    assert linalg.ceil_frac(Fraction(4)) == 4
