import pickle
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from voronoi_cvp import (
    ContractViolation,
    InputError,
    LatticeBasis,
    LatticePoint,
    SizeCapError,
    Target,
    coset_reps_mod2,
    encoding_length,
    encoding_length_int,
    qbar,
)
from voronoi_cvp import linalg, oracles
from voronoi_cvp.lattice import (
    basis_from_obj,
    basis_hash,
    basis_to_obj,
    random_rational_basis,
    random_rational_target,
    read_basis,
    target_from_obj,
    write_basis,
)

from conftest import fraction_gram, make_rng, rank

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


@given(st.lists(rationals, max_size=6))
def test_target_stores_its_integers_once(xs):
    t = Target.of(xs)
    assert [Fraction(k, t.den) for k in t.ints] == list(t.coords)
    assert t.den == lcm(*(x.denominator for x in t.coords))
    # `coords` alone is compared, hashed, shown and pickled, as before the stored form
    assert t == Target(coords=tuple(Fraction(x) for x in xs)) and hash(t) == hash((t.coords,))
    assert repr(t) == f"Target(coords={t.coords!r})"
    u = pickle.loads(pickle.dumps(t))
    assert u == t and (u.ints, u.den) == (t.ints, t.den)
    b = LatticeBasis.from_rows([[Fraction(1, 6), 0], [0, 1]])
    assert qbar(b, t) == lcm(b.den, *(x.denominator for x in t.coords))


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


@st.composite
def bases_and_coeffs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(rank(rows) == n)
    coeffs = draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n))
    return LatticeBasis.from_rows(rows), coeffs


@given(bases_and_coeffs())
def test_apply_is_the_column_combination(case):
    basis, a = case
    expected = [Fraction(0)] * basis.n
    for aj, col in zip(a, basis.columns):
        expected = [e + aj * x for e, x in zip(expected, col)]
    point = LatticePoint.from_coeffs(basis, a)
    assert point.ambient == tuple(expected)
    assert point.image == tuple(basis.den * x for x in expected)
    with pytest.raises(ValueError):
        LatticePoint.from_coeffs(basis, a + [0])


def test_coset_reps_lexicographic():
    assert coset_reps_mod2(1) == [(1,)]
    assert coset_reps_mod2(2) == [(0, 1), (1, 0), (1, 1)]
    assert len(coset_reps_mod2(3)) == 7
    with pytest.raises(SizeCapError):
        coset_reps_mod2(15)
    coset_reps_mod2(15, dim_cap=15)  # configurable


def test_gram_positive_definite_on_random_bases():
    rng = make_rng(5)
    for _ in range(10):
        b = random_rational_basis(3, rng)
        g = oracles._integer_gram(b)
        assert g == [[b.den**2 * x for x in row] for row in fraction_gram(b)]
        assert g == [list(r) for r in zip(*g)]  # symmetric
        # the LDL^T pivots are the ratios of successive leading minors
        _, pivots = linalg.ldl(g)
        assert all(p > 0 for p in pivots)


def test_bit_length_bound_on_random_instances():
    # log2(qbar * mu_upper) <= <B> + <t>, checked exactly as
    # qbar^2 * S <= 4^(bits + 1) with S = sum ||b_i||^2 (mu_upper = sqrt(S)/2).
    rng = make_rng(9)
    for _ in range(25):
        b = random_rational_basis(3, rng)
        t = random_rational_target(b, rng)
        s = sum(linalg.norm_sq(c) for c in b.columns)
        bits = b.encoding_length + t.encoding_length
        assert qbar(b, t) ** 2 * s <= 4 ** (bits + 1)


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


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "basis": [1, 2]},
        {"n": 1, "basis": "5"},
        {"n": 1, "basis": ["5"]},
        {"n": 2, "basis": [[1, 0], [0, None]]},
        # entries are JSON strings or integers, and n is a JSON integer
        {"n": 2, "basis": [[0.1, 0], [0, 1]]},
        {"n": 2, "basis": [[1.0, 0], [0, 1]]},
        {"n": 2, "basis": [[True, 0], [0, 1]]},
        {"n": 2.0, "basis": [[1, 0], [0, 1]]},
        {"n": True, "basis": [[1]]},
        {"n": "1", "basis": [["1"]]},
    ],
)
def test_malformed_basis_object_rejected(obj):
    with pytest.raises(InputError):
        basis_from_obj(obj)


def test_target_object_must_hold_a_list():
    with pytest.raises(InputError):
        target_from_obj({"t": "12"})
    with pytest.raises(InputError):
        target_from_obj({"t": [1, None]})
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(InputError):
            target_from_obj({"t": ["1", bad]})
    assert target_from_obj({"t": ["1", "2"]}).coords == (1, 2)
    assert target_from_obj({"t": ["-1/2", 3]}).coords == (Fraction(-1, 2), 3)


def test_origin_is_the_zero_point_of_every_basis():
    for basis in (LatticeBasis.identity(3), LatticeBasis.from_rows([[1, 2, 0], [0, 3, 1], [1, 0, 5]])):
        zero = LatticePoint.from_coeffs(basis, (0, 0, 0))
        origin = LatticePoint.origin(3)
        assert origin == zero and hash(origin) == hash(zero)
        assert origin.ambient == zero.ambient == (Fraction(0),) * 3
        assert origin.image_on(basis) == zero.image_on(basis) == (0, 0, 0)


def test_point_compares_by_coeffs_and_keeps_its_image():
    b = LatticeBasis.from_rows([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    p = LatticePoint.from_coeffs(b, (3, -1))
    assert p.image == (3, -4)
    assert p.ambient == (Fraction(1, 2), Fraction(-2, 3))
    # the same coefficients on another basis are the same (coefficient) point
    assert p == LatticePoint.from_coeffs(LatticeBasis.identity(2), (3, -1))
    # an equal basis built again is the same basis
    assert p.image_on(LatticeBasis.from_rows([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])) == p.image
    with pytest.raises(ContractViolation):
        p.image_on(LatticeBasis.identity(2))
    with pytest.raises(ContractViolation):
        LatticePoint.origin(3).image_on(b)


def test_from_rows_columns_consistency():
    b = LatticeBasis.from_rows([[1, 2], [3, 4]])
    assert b.columns == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    assert b.rows() == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    assert LatticePoint.from_coeffs(b, (1, 1)).ambient == (Fraction(3), Fraction(7))


def test_random_basis_respects_bounds_and_seeding():
    rng1, rng2 = make_rng(33), make_rng(33)
    b1 = random_rational_basis(3, rng1, max_numerator=4, max_denominator=2)
    b2 = random_rational_basis(3, rng2, max_numerator=4, max_denominator=2)
    assert b1.columns == b2.columns  # deterministic by seed
    for col in b1.columns:
        for x in col:
            assert abs(x.numerator) <= 4 * x.denominator or abs(x) <= 4
            assert x.denominator <= 2


def test_random_basis_refuses_an_empty_dimension():
    for n in (0, -1):
        with pytest.raises(InputError, match="dimension at least 1"):
            random_rational_basis(n, make_rng(1))
