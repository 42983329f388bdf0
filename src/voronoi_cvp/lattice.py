"""Rational lattice bases, encoding lengths, and related exact arithmetic.

A lattice is the set of integer combinations of the columns of a full-rank
rational matrix.  A basis keeps its `Fraction` columns and the integer rows of
den * B (den the least common denominator); a lattice point keeps only integers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from . import linalg
from .errors import ContractViolation, InputError, SizeCapError
from .linalg import Vec, frac, lcm, vec

#: Hard default on any enumeration that is exponential in the dimension.
DEFAULT_DIM_CAP = 14


def encoding_length_int(z: int) -> int:
    """Bits in the standard binary encoding of an integer: 1 + ceil(log2(|z|+1))."""
    return 1 + abs(z).bit_length()


def _iter_scalars(data) -> Iterable[Fraction]:
    if isinstance(data, (Fraction, int)):
        yield frac(data)
        return
    for item in data:
        yield from _iter_scalars(item)


def encoding_length(data) -> int:
    """Total encoding length of a scalar, vector, or matrix of rationals.

    Each entry p/q (reduced, q >= 1) contributes <p> + <q> bits.
    """
    total = 0
    for x in _iter_scalars(data):
        total += encoding_length_int(x.numerator) + encoding_length_int(x.denominator)
    return total


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank rational basis; columns generate the lattice.

    `rows_int` holds the rows of den * B, with `den` the least common
    denominator.
    """

    columns: tuple[Vec, ...]
    den: int
    rows_int: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.columns)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "LatticeBasis":
        cols = tuple(vec(c) for c in columns)
        n = len(cols)
        if n == 0 or any(len(c) != n for c in cols):
            raise InputError("basis must be a nonempty square matrix")
        rows_int, den = linalg.scaled_vectors(n, *zip(*cols))
        try:
            linalg.inverse(rows_int)
        except ValueError:
            raise InputError("basis columns are linearly dependent") from None
        return cls(columns=cols, den=den, rows_int=rows_int)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "LatticeBasis":
        """Row-major matrix input; column j of the matrix is basis vector j."""
        mat = [vec(r) for r in rows]
        n = len(mat)
        if n == 0 or any(len(r) != n for r in mat):
            raise InputError("basis must be a nonempty square matrix")
        return cls.from_columns(tuple(tuple(mat[i][j] for i in range(n)) for j in range(n)))

    @classmethod
    def identity(cls, n: int) -> "LatticeBasis":
        return cls.from_columns([[int(i == j) for i in range(n)] for j in range(n)])

    def rows(self) -> tuple[Vec, ...]:
        return tuple(
            tuple(self.columns[j][i] for j in range(self.n)) for i in range(self.n)
        )

    def coefficients_of(self, point: Sequence[Fraction]) -> Vec:
        """Solve B a = point (a is rational for rational input)."""
        return linalg.solve(self.rows_int, linalg.scale(Fraction(self.den), point))

    @property
    def encoding_length(self) -> int:
        return encoding_length(self.columns)

    @cached_property
    def digest(self) -> str:
        """sha256 of the basis file object, the key of caches and manifests; computed once."""
        return hashlib.sha256(canonical_json(basis_to_obj(self))).hexdigest()


@dataclass(frozen=True)
class LatticePoint:
    """Integer coefficients a (the only compared field) and the image den * B a on `basis`.

    `basis` is None only for `origin`, whose image is 0 on every basis.  `ambient` builds
    its `Fraction`s when read; the `_on` readers refuse a point of another basis.
    """

    coeffs: tuple[int, ...]
    image: tuple[int, ...] = field(repr=False, compare=False)
    basis: Optional[LatticeBasis] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_coeffs(cls, basis: LatticeBasis, coeffs: Sequence[int]) -> "LatticePoint":
        c = tuple(int(a) for a in coeffs)
        if len(c) != basis.n:
            raise ValueError(f"expected {basis.n} coefficients, got {len(c)}")
        return cls(c, tuple(linalg.dot_int(row, c) for row in basis.rows_int), basis)

    @classmethod
    def origin(cls, n: int) -> "LatticePoint":
        return cls((0,) * n, (0,) * n)

    @property
    def ambient(self) -> Vec:
        return tuple(Fraction(x, getattr(self.basis, "den", 1)) for x in self.image)

    def image_on(self, basis: LatticeBasis) -> tuple[int, ...]:
        if len(self.image) != basis.n or self.basis not in (None, basis):
            raise ContractViolation("lattice point was built on another basis")
        return self.image

    def ambient_on(self, basis: LatticeBasis) -> Vec:
        return tuple(Fraction(x, basis.den) for x in self.image_on(basis))

    def scaled_with(self, basis: LatticeBasis, *targets: "Target"):
        """((k_0, k_1, ...), d): the point is k_0 / d and targets[i] is k_(i+1) / d, one lcm."""
        scaled = [t.ints_on(basis.n) for t in targets]
        d = lcm(basis.den, *(dt for _, dt in scaled))
        image = tuple(d // basis.den * x for x in self.image_on(basis))
        return (image, *(tuple(d // dt * x for x in k) for k, dt in scaled)), d


@dataclass(frozen=True)
class Target:
    """A rational query point `coords` (the only compared field), held once as the integers
    `ints` over one denominator `den`, the lcm of the reduced denominators of `coords`."""

    coords: Vec
    ints: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ints, den = linalg.scaled_ints(self.coords)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)

    def ints_on(self, n: int) -> tuple[tuple[int, ...], int]:
        """(ints, den), refusing a target of another dimension."""
        if len(self.coords) != n:
            raise ValueError(f"expected a target of length {n}, got {len(self.coords)}")
        return self.ints, self.den

    @classmethod
    def of(cls, entries: Sequence) -> "Target":
        return cls(coords=vec(entries))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def encoding_length(self) -> int:
        return encoding_length(self.coords)


def qbar(basis: LatticeBasis, target: Target | None = None) -> int:
    """Least positive integer clearing every denominator of the basis (and target)."""
    return basis.den if target is None else lcm(basis.den, target.den)


def coset_reps_mod2(n: int, dim_cap: int = DEFAULT_DIM_CAP) -> list[tuple[int, ...]]:
    """The 2^n - 1 nonzero 0/1 coefficient vectors, in lexicographic order."""
    if n > dim_cap:
        raise SizeCapError(f"dimension {n} exceeds cap {dim_cap} for 2^n enumeration")
    return [p for p in product((0, 1), repeat=n) if any(p)]


# ---------------------------------------------------------------------------
# file formats


def basis_to_obj(basis: LatticeBasis) -> dict:
    return {"n": basis.n, "basis": [[str(x) for x in row] for row in basis.rows()]}


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _json_rational(value) -> Fraction:
    """A file entry: a JSON string such as "p/q", or a JSON integer (not a boolean)."""
    if not (isinstance(value, str) or type(value) is int):
        raise TypeError(f"expected a string or integer entry, got {json.dumps(value)}")
    return Fraction(value)


def basis_from_obj(obj: dict) -> LatticeBasis:
    try:
        n = obj["n"]
        if type(n) is not int:  # booleans are not integers
            raise TypeError(f"n must be a JSON integer, got {json.dumps(n)}")
        rows = [_json_list(r, "basis row") for r in _json_list(obj["basis"], "basis")]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed basis object: {e}") from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("basis matrix shape does not match n")
    try:
        return LatticeBasis.from_rows([[_json_rational(x) for x in row] for row in rows])
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational entry in basis: {e}") from None


def target_from_obj(obj: dict) -> Target:
    try:
        return Target.of([_json_rational(x) for x in _json_list(obj["t"], "target")])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"malformed target object: {e}") from None


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def basis_hash(basis: LatticeBasis) -> str:
    return basis.digest


def write_basis(basis: LatticeBasis, path) -> None:
    with open(path, "w") as f:
        json.dump(basis_to_obj(basis), f, indent=1)
        f.write("\n")


def _read_json(path, what: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read {what} file {path}: {e}") from None


def read_basis(path) -> LatticeBasis:
    return basis_from_obj(_read_json(path, "basis"))


def read_target(path) -> Target:
    return target_from_obj(_read_json(path, "target"))


# ---------------------------------------------------------------------------
# instance generation


def random_rational_basis(
    n: int,
    rng,
    max_numerator: int = 5,
    max_denominator: int = 3,
    defect_cap: int = 16,
    max_attempts: int = 10_000,
) -> LatticeBasis:
    """Random full-rank basis with entries p/q, |p| <= max_numerator, q <= max_denominator.

    Rejects bases whose orthogonality defect prod ||b_j|| / |det| exceeds
    `defect_cap`: badly skewed bases make exact enumeration boxes explode
    without adding test value.  A dimension below 1 raises `InputError`.
    """
    if n < 1:
        raise InputError(f"a basis needs dimension at least 1, got {n}")
    for _ in range(max_attempts):
        rows = [
            [
                Fraction(
                    int(rng.integers(-max_numerator, max_numerator + 1)),
                    int(rng.integers(1, max_denominator + 1)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        # the defect test on den * B: den^(2n) scales both sides alike
        rows_int, _ = linalg.scaled_vectors(n, *rows)
        try:
            _, d = linalg.inverse(rows_int)
        except ValueError:
            continue
        if prod(linalg.dot_int(c, c) for c in zip(*rows_int)) > (defect_cap * d) ** 2:
            continue
        return LatticeBasis.from_rows(rows)
    raise SizeCapError("could not draw a well-conditioned basis")


def random_rational_target(
    basis: LatticeBasis, rng, max_denominator: int = 64
) -> Target:
    """Random rational target within a few fundamental cells of the origin."""
    spans = [
        1 + linalg.ceil_frac(sum((abs(c[i]) for c in basis.columns), Fraction(0)))
        for i in range(basis.n)
    ]
    coords = []
    for i in range(basis.n):
        q = int(rng.integers(1, max_denominator + 1))
        p = int(rng.integers(-spans[i] * q, spans[i] * q + 1))
        coords.append(Fraction(p, q))
    return Target.of(coords)
