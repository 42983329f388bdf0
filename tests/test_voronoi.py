import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from voronoi_cvp import (
    ContractViolation,
    InputError,
    LatticeBasis,
    LatticePoint,
    SizeCapError,
    VoronoiCellData,
    compute_relevant_vectors,
    cvp_bruteforce,
    membership,
    voronoi,
    voronoi_norm,
)
from voronoi_cvp.lattice import DEFAULT_DIM_CAP, Target, random_rational_basis
from voronoi_cvp.linalg import norm_sq, scale, vec
from voronoi_cvp.voronoi import cell_from_obj, cell_to_obj, load_cell, save_cell

from conftest import (
    A2_PLUS_LINE,
    D4,
    add,
    enumerate_ball,
    make_rng,
    relevant_vectors_by_coset,
    scaled_basis,
    shortest_vector,
    sqrt_upper,
)

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=32)


def ambient_set(cell):
    return {v.ambient for v in cell.vectors}


def test_integer_lattice_relevant_vectors():
    for n in (1, 2, 3, 4):
        cell = compute_relevant_vectors(LatticeBasis.identity(n))
        expected = set()
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            expected.add(tuple(e))
            expected.add(tuple(-x for x in e))
        assert ambient_set(cell) == expected
        assert len(cell.vectors) == 2 * n


def test_one_dimensional_cell():
    cell = compute_relevant_vectors(LatticeBasis.from_rows([[Fraction(5, 2)]]))
    assert ambient_set(cell) == {(Fraction(5, 2),), (Fraction(-5, 2),)}
    assert cell.lambda1_sq / 4 == cell.outer_radius_sq == Fraction(25, 16)


def test_even_sum_lattice_is_degenerate(skew2_cell):
    # the coset of (2,0) has four tied minimizers, so only 4 facets remain
    assert len(skew2_cell.vectors) == 4
    assert ambient_set(skew2_cell) == {
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(-1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    }
    assert skew2_cell.lambda1_sq == 2
    assert (skew2_cell.lambda1_sq / 4, skew2_cell.outer_radius_sq) == (Fraction(1, 2), Fraction(1))


def test_relevant_vector_bound_and_negation_closure(rand_lattices):
    for basis, cell in rand_lattices:
        n = basis.n
        assert len(cell.vectors) <= 2 * (2**n - 1)
        coeffs = {v.coeffs for v in cell.vectors}
        assert all(tuple(-c for c in v) in coeffs for v in coeffs)
        assert all(any(v) for v in coeffs)


def test_generic_2d_lattice_has_six_facets():
    # a generic planar lattice meets the 2(2^2 - 1) facet bound exactly;
    # the sheared basis below is generic, unlike rectangular-type lattices
    basis = LatticeBasis.from_rows([[1, Fraction(1, 2)], [0, 1]])
    cell = compute_relevant_vectors(basis)
    assert len(cell.vectors) == 6
    assert ambient_set(cell) == {
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(-1, 2), Fraction(-1)),
        (Fraction(1, 2), Fraction(-1)),
        (Fraction(-1, 2), Fraction(1)),
    }


def test_strict_coset_minimality_reverified(rand_lattices):
    # independent check: points of 2L within ||v|| of -v are exactly {0, -2v},
    # i.e. the coset v + 2L has no element of norm <= ||v|| besides +-v
    for basis, cell in rand_lattices[:2]:
        doubled = scaled_basis(basis, 2)
        for v in cell.vectors[:6]:
            hits = enumerate_ball(
                doubled, tuple(-x for x in v.ambient), norm_sq(v.ambient)
            )
            got = {p.coeffs for p in hits}
            assert got == {tuple(0 for _ in v.coeffs), tuple(-c for c in v.coeffs)}


def test_tie_lattices_drop_tied_cosets():
    assert len(compute_relevant_vectors(A2_PLUS_LINE).vectors) == 8
    d4 = compute_relevant_vectors(D4)
    assert len(d4.vectors) == 24
    assert all(norm_sq(v.ambient) == 2 for v in d4.vectors)


def test_ball_search_matches_per_coset_reference(skew2_cell, rand_lattices, high_dim_cells):
    # completeness as well as correctness: the same ordered list as the
    # independent per-coset brute-force search, ties and the n = 8 case included
    cells = [compute_relevant_vectors(LatticeBasis.identity(n)) for n in range(1, 6)]
    cells += [skew2_cell, compute_relevant_vectors(LatticeBasis.from_rows([[Fraction(5, 2)]]))]
    cells += [compute_relevant_vectors(b) for b in (A2_PLUS_LINE, D4)]
    cells += [c for _, c in rand_lattices] + [high_dim_cells[n] for n in (6, 7)]
    cells.append(compute_relevant_vectors(random_rational_basis(8, make_rng(8))))
    for cell in cells:
        expected = relevant_vectors_by_coset(cell.basis)
        assert [v.coeffs for v in cell.vectors] == [v.coeffs for v in expected.vectors]
        assert [v.ambient for v in cell.vectors] == [v.ambient for v in expected.vectors]


def cell_arrays(cell):
    return (
        cell.coeffs, cell._vr_int, cell._norm_int,
        *(None if a is None else (a.dtype, a.tolist()) for a in (cell._vr_np, cell._norm_np)),
    )


def test_cell_builders_agree(rand_lattices):
    # the ball search, the cache round trip and the per-coset reference build the same
    # rows, images and norms, and the images are den B a computed row by row
    rng = make_rng(30)
    bases = [random_rational_basis(n, rng) for n in range(2, 8)]
    # past the int64 product's bound (n = 4): norms that still fit int64, and images that do not
    small = compute_relevant_vectors(rand_lattices[3][0])
    mid = scaled_basis(small.basis, isqrt((2**63 - 1) // max(small._norm_int)))
    top = 4 * max(abs(x) for r in mid.rows_int for x in r) * max(max(r) for r in small.coeffs)
    assert 4 * top * top >= 2**63
    bases += [mid, scaled_basis(small.basis, 2**64)]
    for basis in bases:
        cell = compute_relevant_vectors(basis)
        loaded = cell_from_obj(cell_to_obj(cell), basis)
        expected = relevant_vectors_by_coset(basis)
        assert cell == loaded == expected
        assert cell_arrays(cell) == cell_arrays(loaded) == cell_arrays(expected)
        assert cell._vr_int == tuple(LatticePoint.from_coeffs(basis, a).image for a in cell.coeffs)
        assert (cell._vr_np is None) == (max(cell._norm_int) >= 2**63) == (basis is bases[-1])


def test_ball_search_caps(monkeypatch):
    monkeypatch.setattr(voronoi, "DEFAULT_NODE_CAP", 3)
    with pytest.raises(SizeCapError):
        compute_relevant_vectors(LatticeBasis.identity(3))
    # the dimension cap raises before any enumeration starts
    def no_search(*args):
        raise AssertionError("ball search started")

    monkeypatch.setattr(voronoi, "_class_minima", no_search)
    with pytest.raises(SizeCapError):
        compute_relevant_vectors(LatticeBasis.identity(3), dim_cap=2)
    with pytest.raises(SizeCapError):
        compute_relevant_vectors(LatticeBasis.identity(DEFAULT_DIM_CAP + 1))


def test_relevant_vectors_have_cell_norm_two(z3_cell, skew2_cell, rand_lattices):
    cells = [z3_cell, skew2_cell] + [c for _, c in rand_lattices]
    for cell in cells:
        for v in cell.vectors:
            assert voronoi_norm(cell, v.ambient) == 2


def test_norm_zero_and_facet_centers(z2_cell):
    assert voronoi_norm(z2_cell, (Fraction(0), Fraction(0))) == 0
    for v in z2_cell.vectors:
        assert membership(z2_cell, scale(Fraction(1, 2), v.ambient))


@given(st.lists(small_rationals, min_size=3, max_size=3))
def test_integer_lattice_norm_is_scaled_linf(z3_cell, xs):
    expected = 2 * max(abs(x) for x in xs)
    assert voronoi_norm(z3_cell, vec(xs)) == expected


def test_membership_examples(z2_cell):
    assert membership(z2_cell, (Fraction(1, 2), Fraction(1, 2)))  # boundary
    assert not membership(z2_cell, (Fraction(3, 5), Fraction(0)))


@given(
    st.lists(small_rationals, min_size=2, max_size=2),
    st.lists(small_rationals, min_size=2, max_size=2),
)
def test_norm_symmetry_and_triangle(skew2_cell, xs, ys):
    x, y = vec(xs), vec(ys)
    assert voronoi_norm(skew2_cell, x) == voronoi_norm(skew2_cell, tuple(-a for a in x))
    assert voronoi_norm(skew2_cell, add(x, y)) <= voronoi_norm(
        skew2_cell, x
    ) + voronoi_norm(skew2_cell, y)


def test_membership_matches_oracle(rand_lattices):
    rng = make_rng(17)
    for basis, cell in rand_lattices[:2]:
        n = basis.n
        for _ in range(12):
            x = vec(
                Fraction(int(rng.integers(-24, 25)), 16) for _ in range(n)
            )
            sols = cvp_bruteforce(basis, Target(coords=x))
            zero_is_closest = any(not any(p.coeffs) for p in sols.points)
            assert membership(cell, x) == zero_is_closest


def test_sandwich_radii_probes(rand_lattices):
    rng = make_rng(18)
    for basis, cell in rand_lattices[:2]:
        n = basis.n
        r_sq, big_r_sq = cell.lambda1_sq / 4, cell.outer_radius_sq
        for _ in range(8):
            u = vec(Fraction(int(rng.integers(-9, 10)), 8) for _ in range(n))
            if not any(u):
                continue
            # shrink u inside the inner ball: ||su||^2 < r^2 implies membership
            s = sqrt_upper(norm_sq(u) / r_sq) * 2
            inner = tuple(x / s for x in u)
            assert norm_sq(inner) < r_sq
            assert membership(cell, inner)
            # any member stays inside the outer ball
            if membership(cell, u):
                assert norm_sq(u) <= big_r_sq


def test_integer_lattice_sandwich(z4_cell):
    assert (z4_cell.lambda1_sq / 4, z4_cell.outer_radius_sq) == (Fraction(1, 4), Fraction(1))


def test_cache_round_trip(tmp_path, skew2_basis, skew2_cell):
    path = tmp_path / "cache.json"
    save_cell(skew2_cell, path)
    loaded = load_cell(path, skew2_basis)
    assert [v.coeffs for v in loaded.vectors] == [
        v.coeffs for v in skew2_cell.vectors
    ]
    assert loaded.lambda1_sq == skew2_cell.lambda1_sq
    assert loaded.outer_radius_sq == skew2_cell.outer_radius_sq


def test_cache_rejects_mismatched_basis(skew2_cell):
    obj = cell_to_obj(skew2_cell)
    other = LatticeBasis.identity(2)
    with pytest.raises(InputError):
        cell_from_obj(obj, other)


def test_cache_rejects_tampering(skew2_basis, skew2_cell):
    obj = cell_to_obj(skew2_cell)
    obj["vr"] = obj["vr"][:1]  # breaks negation closure
    with pytest.raises(InputError):
        cell_from_obj(obj, skew2_basis)


def test_cache_rejects_row_of_wrong_length(skew2_basis, skew2_cell):
    obj = cell_to_obj(skew2_cell)
    obj["vr"] = [["1", "0", "0"], ["-1", "0", "0"]]  # closed under negation, n = 2
    with pytest.raises(InputError, match="wrong length"):
        cell_from_obj(obj, skew2_basis)


def test_cell_rejects_rows_of_another_dimension(skew2_basis, skew2_cell):
    # a coefficient row carries no basis; only its length can betray another lattice
    with pytest.raises(ContractViolation, match="length 2"):
        VoronoiCellData(basis=skew2_basis, coeffs=((1, 0, 0), (-1, 0, 0)))
    # the rows on an equal basis built again give the same images
    again = LatticeBasis.from_rows([[2, 1], [0, 1]])
    assert VoronoiCellData(basis=again, coeffs=skew2_cell.coeffs)._vr_int == skew2_cell._vr_int


def reference_json_int(value) -> int:
    """The per-entry cache rule that the one-pass check replaces."""
    if str(value) != str(int(value)):
        raise TypeError(f"expected an integer entry, got {json.dumps(value)}")
    return int(value)


def entry_outcome(check, values):
    try:
        return list(map(check, values)) if check is reference_json_int else check(values)
    except (TypeError, ValueError, OverflowError) as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "field, bad",
    [("vr", 1.7), ("vr", 1.0), ("vr", True), ("vr", " 1 "), ("vr", "+1"), ("vr", "1.0"),
     ("vr", "01"), ("vr", None), ("vr", [1]), ("row", "10"), ("row", {"0": 1}),
     ("n", 2.9), ("n", 2.0), ("n", "2"), ("n", True),
     ("vr", "1_0"), ("vr", "-0"), ("vr", "\u0663"), ("vr", "0x1"), ("vr", " -1"),
     ("vr", "1,0"), ("vr", float("inf")), ("vr", "9" * 5000),
     ("pair", "1" + "0" * 29), ("pair", 10**30)],
)
def test_cache_accepts_only_what_the_writer_writes(skew2_basis, skew2_cell, field, bad):
    # the checksum is recomputed around each bad value, so only the entry check can object
    obj = cell_to_obj(skew2_cell)
    i, k = next((i, k) for i, r in enumerate(obj["vr"]) for k, c in enumerate(r) if c == "1")
    obj["vr"][i][k] = 1  # a JSON integer is fine
    obj["checksum"] = voronoi._checksum(obj)
    assert cell_from_obj(obj, skew2_basis) == skew2_cell
    if field == "pair":  # a canonical entry past int64, with its negation: accepted
        j = obj["vr"].index([str(-int(c)) for c in obj["vr"][i]])
        obj["vr"][i][k], obj["vr"][j][k] = bad, str(-int(bad))
        obj["checksum"] = voronoi._checksum(obj)
        assert cell_from_obj(obj, skew2_basis).coeffs[i][k] == int(bad)
        return
    if field == "vr":
        obj["vr"][i][k] = bad
    elif field == "row":
        obj["vr"][i] = bad
    else:
        obj["n"] = bad
    obj["checksum"] = voronoi._checksum(obj)
    with pytest.raises(InputError, match="malformed" if field != "n" else "dimension") as e:
        cell_from_obj(obj, skew2_basis)
    if field == "vr":  # the message the per-entry rule gives at the same entry
        _, reason = entry_outcome(reference_json_int, [c for r in obj["vr"] for c in r])
        assert str(e.value) == f"malformed relevant-vector cache: {reason}"


cache_entries = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.text(alphabet="0123456789-+ _,.xe\u0663", max_size=5),
    st.sampled_from([1.0, True, None, float("inf"), float("nan"), [1], {}, "9" * 5000]),
)


@given(st.lists(cache_entries, max_size=8))
def test_one_pass_entry_check_matches_the_per_entry_rule(values):
    # same integers, or the same exception and message at the same first rejected entry
    got = entry_outcome(voronoi._json_ints, values)
    assert got == entry_outcome(reference_json_int, values)
    if not isinstance(got, tuple):
        assert all(type(x) is int for x in got)


def test_lambda1_equals_oracle(skew2_basis, skew2_cell):
    lam, _ = shortest_vector(skew2_basis)
    assert skew2_cell.lambda1_sq == lam
