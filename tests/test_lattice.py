from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from voronoi_cvp import (
    InputError,
    LatticeBasis,
    SizeCapError,
    Target,
    coset_reps_mod2,
    covering_radius_upper,
    encoding_length,
    encoding_length_int,
    encoding_stats,
    qbar,
)
from voronoi_cvp import linalg
from voronoi_cvp.lattice import (
    basis_from_obj,
    basis_hash,
    basis_to_obj,
    random_rational_basis,
    random_rational_target,
    read_basis,
    write_basis,
)

from conftest import make_rng

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def ceil_log2(m: int) -> int:
    # independent reference: smallest k with 2^k >= m
    k = 0
    while 2**k < m:
        k += 1
    return k


@pytest.mark.parametrize("z,expected", [(0, 1), (3, 3), (100, 8)])
def test_encoding_length_int_examples(z, expected):
    assert encoding_length_int(z) == expected


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_encoding_length_int_matches_reference(z):
    assert encoding_length_int(z) == 1 + ceil_log2(abs(z) + 1)
    assert encoding_length_int(z) == encoding_length_int(-z)


def test_encoding_length_examples():
    # <0> + <1> = 1 + 2
    assert encoding_length([Fraction(0)]) == 3
    # (1/2, 3): <1>+<2>+<3>+<1> = 2+3+3+2
    assert encoding_length([Fraction(1, 2), Fraction(3)]) == 10
    # 2x2 identity: two entries 1/1 (2+2 each) and two entries 0/1 (1+2 each)
    assert encoding_length([[1, 0], [0, 1]]) == 14


@given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=8))
def test_encoding_length_additive_and_sign_invariant(xs, ys):
    assert encoding_length(xs + ys) == encoding_length(xs) + encoding_length(ys)
    assert encoding_length([-x for x in xs]) == encoding_length(xs)


def test_qbar_examples():
    z2 = LatticeBasis.identity(2)
    assert qbar(z2, Target.of([Fraction(1, 2), Fraction(1, 3)])) == 6
    assert qbar(z2, Target.of([3, -7])) == 1
    b = LatticeBasis.from_rows([[1, Fraction(1, 2)], [0, Fraction(1, 2)]])
    assert qbar(b, Target.of([Fraction(1, 4), 0])) == 4


def _prime_factors(q: int) -> set[int]:
    primes, d = set(), 2
    while d * d <= q:
        while q % d == 0:
            primes.add(d)
            q //= d
        d += 1
    if q > 1:
        primes.add(q)
    return primes


@given(
    st.lists(rationals, min_size=2, max_size=2),
    st.sampled_from([1, 2, 3, 4, 6, 12]),
)
def test_qbar_clears_denominators_minimally(tcoords, scale_den):
    basis = LatticeBasis.from_rows([[Fraction(1, scale_den), 0], [0, 1]])
    t = Target.of(tcoords)
    q = qbar(basis, t)
    for col in basis.columns:
        for x in col:
            assert (x * q).denominator == 1
    for x in t.coords:
        assert (x * q).denominator == 1
    # minimal: every proper divisor of q divides q/p for some prime p | q
    for p in _prime_factors(q):
        div = q // p
        cleared = all((x * div).denominator == 1 for x in t.coords) and all(
            (x * div).denominator == 1 for col in basis.columns for x in col
        )
        assert not cleared


def test_coset_reps_lexicographic():
    assert coset_reps_mod2(1) == [(1,)]
    assert coset_reps_mod2(2) == [(0, 1), (1, 0), (1, 1)]
    assert len(coset_reps_mod2(3)) == 7
    with pytest.raises(SizeCapError):
        coset_reps_mod2(15)
    coset_reps_mod2(15, dim_cap=15)  # configurable


def test_covering_radius_upper_examples():
    n = 4
    eye = LatticeBasis.identity(n)
    assert covering_radius_upper(eye.columns) == n
    assert covering_radius_upper([(Fraction(5, 2),)]) == Fraction(25, 4)
    scaled = [(3, 0), (0, 3)]
    assert covering_radius_upper(scaled) == 18


def test_covering_radius_upper_rejects_dependent():
    with pytest.raises(InputError):
        covering_radius_upper([(1, 0), (2, 0)])


def test_gram_positive_definite_on_random_bases():
    rng = make_rng(5)
    for _ in range(10):
        b = random_rational_basis(3, rng)
        g = b.gram
        for k in range(1, 4):
            minor = [row[:k] for row in g[:k]]
            assert linalg.det(minor) > 0
        assert g == tuple(tuple(r) for r in zip(*g))  # symmetric


def test_bit_length_bound_on_random_instances():
    # log2(qbar * mu_upper) <= <B> + <t>, checked exactly as
    # qbar^2 * S <= 4^(bits + 1) with S = sum ||b_i||^2 (mu_upper = sqrt(S)/2).
    rng = make_rng(9)
    for _ in range(25):
        b = random_rational_basis(3, rng)
        t = random_rational_target(b, rng)
        stats = encoding_stats(b, t)
        s = covering_radius_upper(b.columns)
        bits = stats.bits_basis + stats.bits_target
        assert stats.qbar**2 * s <= 4 ** (bits + 1)


def test_basis_file_round_trip(tmp_path):
    b = LatticeBasis.from_rows(
        [[Fraction(2, 3), Fraction(-1, 7)], [0, Fraction(5)]]
    )
    path = tmp_path / "b.json"
    write_basis(b, path)
    b2 = read_basis(path)
    assert b2.columns == b.columns
    assert basis_hash(b2) == basis_hash(b)
    obj = basis_to_obj(b)
    assert obj["basis"][0][0] == "2/3"  # reduced p/q rendering


def test_singular_basis_rejected():
    with pytest.raises(InputError):
        LatticeBasis.from_rows([[1, 2], [2, 4]])
    with pytest.raises(InputError):
        basis_from_obj({"n": 2, "basis": [["1", "1"], ["1", "1"]]})


def test_from_rows_columns_consistency():
    b = LatticeBasis.from_rows([[1, 2], [3, 4]])
    assert b.columns == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    assert b.rows() == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    assert b.apply((1, 1)) == (Fraction(3), Fraction(7))


def test_random_basis_respects_bounds_and_seeding():
    rng1, rng2 = make_rng(33), make_rng(33)
    b1 = random_rational_basis(3, rng1, max_numerator=4, max_denominator=2)
    b2 = random_rational_basis(3, rng2, max_numerator=4, max_denominator=2)
    assert b1.columns == b2.columns  # deterministic by seed
    for col in b1.columns:
        for x in col:
            assert abs(x.numerator) <= 4 * x.denominator or abs(x) <= 4
            assert x.denominator <= 2
