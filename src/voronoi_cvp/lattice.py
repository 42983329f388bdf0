"""Rational lattice bases, encoding lengths, and related exact arithmetic.

A lattice is the set of integer combinations of the columns of a full-rank
rational matrix.  All stored data is exact (`fractions.Fraction`); geometric
predicates elsewhere in the package rely on that exactness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from . import linalg
from .errors import InputError, SizeCapError
from .linalg import Vec, frac, lcm, vec

Scalar = Fraction

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

    `gram[i][j]` caches the inner product of columns i and j.
    """

    columns: tuple[Vec, ...]
    gram: tuple[Vec, ...]

    @property
    def n(self) -> int:
        return len(self.columns)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "LatticeBasis":
        cols = tuple(vec(c) for c in columns)
        n = len(cols)
        if n == 0 or any(len(c) != n for c in cols):
            raise InputError("basis must be a nonempty square matrix")
        gram = tuple(tuple(linalg.dot(a, b) for b in cols) for a in cols)
        if linalg.det(gram) == 0:
            raise InputError("basis columns are linearly dependent")
        return cls(columns=cols, gram=gram)

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
        return cls.from_columns(
            tuple(tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n))
        )

    def rows(self) -> tuple[Vec, ...]:
        return tuple(
            tuple(self.columns[j][i] for j in range(self.n)) for i in range(self.n)
        )

    def apply(self, coeffs: Sequence[int]) -> Vec:
        """Ambient coordinates of the lattice point with the given coefficients."""
        return linalg.matvec_columns(self.columns, coeffs)

    def coefficients_of(self, point: Sequence[Fraction]) -> Vec:
        """Solve B a = point (a is rational for rational input)."""
        return linalg.solve(self.rows(), point)

    def scaled(self, factor) -> "LatticeBasis":
        f = frac(factor)
        return LatticeBasis.from_columns(tuple(linalg.scale(f, c) for c in self.columns))

    @property
    def denominator_lcm(self) -> int:
        d = 1
        for col in self.columns:
            for x in col:
                d = lcm(d, x.denominator)
        return d

    @property
    def encoding_length(self) -> int:
        return encoding_length(self.columns)


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point: integer coefficients plus cached ambient coordinates."""

    coeffs: tuple[int, ...]
    ambient: Vec

    @classmethod
    def from_coeffs(cls, basis: LatticeBasis, coeffs: Sequence[int]) -> "LatticePoint":
        c = tuple(int(a) for a in coeffs)
        return cls(coeffs=c, ambient=basis.apply(c))

    @classmethod
    def origin(cls, n: int) -> "LatticePoint":
        return cls(coeffs=(0,) * n, ambient=linalg.zeros(n))

    def shifted(self, delta_coeffs: Sequence[int], delta_ambient: Vec) -> "LatticePoint":
        return LatticePoint(
            coeffs=tuple(a + b for a, b in zip(self.coeffs, delta_coeffs)),
            ambient=linalg.add(self.ambient, delta_ambient),
        )


@dataclass(frozen=True)
class Target:
    """A rational query point in ambient coordinates."""

    coords: Vec

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
    d = basis.denominator_lcm
    if target is not None:
        for x in target.coords:
            d = lcm(d, x.denominator)
    return d


@dataclass(frozen=True)
class EncodingStats:
    bits_basis: int
    bits_target: int
    qbar: int


def encoding_stats(basis: LatticeBasis, target: Target) -> EncodingStats:
    return EncodingStats(
        bits_basis=basis.encoding_length,
        bits_target=target.encoding_length,
        qbar=qbar(basis, target),
    )


def coset_reps_mod2(n: int, dim_cap: int = DEFAULT_DIM_CAP) -> list[tuple[int, ...]]:
    """The 2^n - 1 nonzero 0/1 coefficient vectors, in lexicographic order."""
    if n > dim_cap:
        raise SizeCapError(f"dimension {n} exceeds cap {dim_cap} for 2^n enumeration")
    return [p for p in product((0, 1), repeat=n) if any(p)]


def covering_radius_upper(vectors: Sequence[Sequence[Fraction]]) -> Fraction:
    """Sum of squared lengths S of n independent lattice vectors.

    The covering radius satisfies mu <= sqrt(S)/2; the caller keeps S
    squared so everything stays rational.
    """
    vs = [vec(v) for v in vectors]
    n = len(vs[0])
    if len(vs) != n or linalg.rank(vs) != n:
        raise InputError("need n linearly independent vectors")
    return sum((linalg.norm_sq(v) for v in vs), Fraction(0))


# ---------------------------------------------------------------------------
# file formats


def _fmt(x: Fraction) -> str:
    return str(x)


def basis_to_obj(basis: LatticeBasis) -> dict:
    return {"n": basis.n, "basis": [[_fmt(x) for x in row] for row in basis.rows()]}


def basis_from_obj(obj: dict) -> LatticeBasis:
    try:
        n = int(obj["n"])
        rows = obj["basis"]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed basis object: {e}") from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("basis matrix shape does not match n")
    try:
        return LatticeBasis.from_rows([[Fraction(x) for x in row] for row in rows])
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational entry in basis: {e}") from None


def target_to_obj(target: Target) -> dict:
    return {"t": [_fmt(x) for x in target.coords]}


def target_from_obj(obj: dict) -> Target:
    try:
        return Target.of([Fraction(x) for x in obj["t"]])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"malformed target object: {e}") from None


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def basis_hash(basis: LatticeBasis) -> str:
    return hashlib.sha256(canonical_json(basis_to_obj(basis))).hexdigest()


def write_basis(basis: LatticeBasis, path) -> None:
    with open(path, "w") as f:
        json.dump(basis_to_obj(basis), f, indent=1)
        f.write("\n")


def read_basis(path) -> LatticeBasis:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read basis file {path}: {e}") from None
    return basis_from_obj(obj)


def read_target(path) -> Target:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read target file {path}: {e}") from None
    return target_from_obj(obj)


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
    without adding test value.
    """
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
        d = linalg.det(rows)
        if d == 0:
            continue
        cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
        prod_sq = Fraction(1)
        for c in cols:
            prod_sq *= linalg.norm_sq(c)
        if prod_sq > (defect_cap * defect_cap) * d * d:
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
