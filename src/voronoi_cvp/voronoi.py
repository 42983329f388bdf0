"""The Voronoi cell of a lattice, represented by its relevant vectors.

A lattice vector v induces a facet of the cell exactly when +-v are the
unique minimum-norm elements of the coset v + 2L.  The cell itself is the
intersection of the halfspaces <x, v> <= <v, v>/2 over relevant v, which
makes membership and the cell norm exactly decidable for rational input.

Hot paths (membership, norm) run on integer-scaled copies of the data:
with v = v_int / D (D the basis's common denominator) and x = x_int / Dx,
the facet inequality becomes 2 D <v_int, x_int> <= <v_int, v_int> Dx, a
pure integer predicate, scanned as one int64 matrix product wherever the
O(n) bound of `VoronoiCellData.scan` proves it exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ContractViolation, InputError
from .lattice import (
    DEFAULT_DIM_CAP,
    LatticeBasis,
    LatticePoint,
    _json_list,
    basis_hash,
    canonical_json,
    coset_reps_mod2,
)
from .oracles import DEFAULT_NODE_CAP, _class_minima, _integer_gram, _integer_levels


@dataclass(frozen=True)
class VoronoiCellData:
    """Preprocessing advice: the relevant vectors, which alone fix the cell.

    `vectors` is closed under negation and deterministically ordered
    (cosets in lexicographic order; within a coset the representative whose
    leading nonzero coefficient is positive comes first).  Derived from it:
    `lambda1_sq` = min ||v||^2 (so r^2 = lambda1_sq / 4 gives r B_2 inside
    the cell) and `outer_radius_sq` = R^2 = (n/4) max ||v||^2 (cell inside
    R B_2).
    """

    basis: LatticeBasis
    vectors: tuple[LatticePoint, ...]
    lambda1_sq: Fraction = field(init=False)
    outer_radius_sq: Fraction = field(init=False)

    # the images basis.den * v of the relevant vectors, and their squared norms
    _vr_int: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())
    _norm_int: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    # the same as int64 arrays, None if a norm does not fit; bounds: >= every |v|_1, max norm
    _vr_np: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)
    _norm_np: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)
    _bounds: tuple[int, int] = field(init=False, repr=False, compare=False, default=(0, 0))

    def __post_init__(self):
        den = self.basis.den
        vr_int = tuple(v.image_on(self.basis) for v in self.vectors)
        norm_int = tuple(linalg.dot_int(w, w) for w in vr_int)
        if not norm_int:
            raise ContractViolation("a Voronoi cell needs relevant vectors")
        object.__setattr__(self, "lambda1_sq", Fraction(min(norm_int), den * den))
        object.__setattr__(
            self, "outer_radius_sq", Fraction(self.n * max(norm_int), 4 * den * den)
        )
        object.__setattr__(self, "_vr_int", vr_int)
        object.__setattr__(self, "_norm_int", norm_int)
        object.__setattr__(self, "_bounds", (isqrt(self.n * max(norm_int)) + 1, max(norm_int)))
        if max(norm_int) < 1 << 63:  # a norm bounds the square of each entry
            object.__setattr__(self, "_vr_np", np.array(vr_int, dtype=np.int64))
            object.__setattr__(self, "_norm_np", np.array(norm_int, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.basis.n

    def scan(self, x: Sequence[int], c1: int, c2: int, rows: Optional[np.ndarray] = None):
        """c1 <v, x> + c2 <v, v> over the relevant images v (or `rows`) as one int64 product, or
        None unless |c1| sqrt(n max <v, v>) max(1, max|x|) + |c2| max <v, v> < 2^63 (exact)."""
        l1_max, norm_max = self._bounds
        bound = abs(c2) * norm_max  # alone first: for a cell sample it fails already
        if self._vr_np is None or bound >= 1 << 63 or (
                bound + abs(c1) * l1_max * max(1, *map(abs, x)) >= 1 << 63):
            return None
        vr, nv = self._vr_np, self._norm_np
        if rows is not None:
            vr, nv = vr[rows], nv[rows]
        return vr @ np.array(x, dtype=np.int64) * c1 + nv * c2

    def membership_scaled(self, x_int: Sequence[int], dx: int) -> bool:
        """Exact membership of the point x_int / dx (dx > 0)."""
        den2 = 2 * self.basis.den
        s = self.scan(x_int, den2, -dx)
        if s is not None:
            return not (s > 0).any()
        for w, nv in zip(self._vr_int, self._norm_int):  # Python integers
            if den2 * linalg.dot_int(w, x_int) > nv * dx:
                return False
        return True


def compute_relevant_vectors(
    basis: LatticeBasis, dim_cap: int = DEFAULT_DIM_CAP
) -> VoronoiCellData:
    """Find the relevant vectors by minimizing each nonzero coset of 2L.

    A coset B p + 2L (p a nonzero 0/1 vector) contributes the pair +-v
    exactly when its minimum-norm element is unique up to sign; ties mean
    the coset induces no facet.  All the coset minima come from one exact
    integer ball search around the origin, whose squared radius grows by a
    factor 1 + 1/n from the shortest basis vector's until every coset has a
    point in it: every point outside the ball is longer, so each coset's
    minimum, ties included, is then known.  Every coset meets the ball of
    squared radius 4 mu^2 <= sum_j ||b_j||^2, which bounds the growth.
    """
    n = basis.n
    reps = coset_reps_mod2(n, dim_cap)
    gram = _integer_gram(basis)
    levels, m = _integer_levels(gram)
    origin = (0,) * n
    norms = [gram[j][j] for j in range(n)]
    radius, trace = min(norms), sum(norms)
    while True:
        minima = _class_minima(levels, origin, 1, radius * m, DEFAULT_NODE_CAP, True)
        if len(minima) == len(reps):
            break
        if radius >= trace:
            raise ContractViolation("a coset of 2L misses the covering ball")
        radius = min(trace, -(-radius * (n + 1) // n))
    out: list[LatticePoint] = []
    for p in reps:
        _, found = minima[sum(bit << k for k, bit in enumerate(p))]
        if len(found) != 1:
            continue  # two or more +- pairs tie: no facet from this coset
        v = LatticePoint.from_coeffs(basis, found[0])
        w = LatticePoint(tuple(-x for x in v.coeffs), tuple(-x for x in v.image), basis)
        lead = next(x for x in v.coeffs if x)
        out.extend((v, w) if lead > 0 else (w, v))
    return VoronoiCellData(basis=basis, vectors=tuple(out))


def voronoi_norm(cell: VoronoiCellData, x: Sequence[Fraction]) -> Fraction:
    """Smallest s >= 0 with x inside s times the cell: max_v 2 <v,x> / <v,v>."""
    (x_int,), dx = linalg.scaled_vectors(cell.n, linalg.vec(x))
    dots = cell.scan(x_int, 1, 0)
    dots = [linalg.dot_int(w, x_int) for w in cell._vr_int] if dots is None else dots.tolist()
    best_num, best_den = 0, 1
    for num, nv in zip(dots, cell._norm_int):
        if num * best_den > best_num * nv:
            best_num, best_den = num, nv
    return Fraction(2 * cell.basis.den * best_num, best_den * dx)


def membership(cell: VoronoiCellData, x: Sequence[Fraction]) -> bool:
    """Exact test that x lies in the (closed) cell."""
    (x_int,), dx = linalg.scaled_vectors(cell.n, linalg.vec(x))
    return cell.membership_scaled(x_int, dx)


# ---------------------------------------------------------------------------
# cache file


def _checksum(obj: dict) -> str:
    body = {k: obj[k] for k in ("basis_hash", "n", "vr")}
    return hashlib.sha256(canonical_json(body)).hexdigest()


def cell_to_obj(cell: VoronoiCellData) -> dict:
    obj = {
        "basis_hash": basis_hash(cell.basis),
        "n": cell.n,
        "vr": [[str(c) for c in v.coeffs] for v in cell.vectors],
    }
    obj["checksum"] = _checksum(obj)
    return obj


def save_cell(cell: VoronoiCellData, path) -> None:
    with open(path, "w") as f:
        json.dump(cell_to_obj(cell), f, indent=1)
        f.write("\n")


def _json_int(value) -> int:
    # a coefficient as `cell_to_obj` writes it (str(int)) or a JSON integer; not 1.0, True, " 1 "
    if str(value) != str(int(value)):
        raise TypeError(f"expected an integer entry, got {json.dumps(value)}")
    return int(value)


def cell_from_obj(obj: dict, basis: LatticeBasis) -> VoronoiCellData:
    """Rebuild a cell from cached coefficient vectors.

    The cache is rejected if `n` or a coefficient is not as `cell_to_obj` writes
    it, if its hash does not match the basis, if the structural invariants (row
    length, facet-count bound, closure under negation) fail, or if its sha256
    checksum is missing or wrong: a truncated list that is still closed under
    negation passes every other check and gives a larger cell.
    """
    try:
        cached_hash = obj["basis_hash"]
        n = obj["n"]
        rows = [_json_list(r, "vr row") for r in _json_list(obj["vr"], "vr")]
        vr_coeffs = [tuple(map(_json_int, r)) for r in rows]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed relevant-vector cache: {e}") from None
    if cached_hash != basis_hash(basis):
        raise InputError("relevant-vector cache does not match this basis")
    if type(n) is not int or n != basis.n:  # booleans are not integers
        raise InputError(f"relevant-vector cache has dimension {json.dumps(n)}, not {basis.n}")
    if not vr_coeffs or len(vr_coeffs) > 2 * (2**n - 1):
        raise InputError("relevant-vector cache has implausible size")
    if any(len(c) != n for c in vr_coeffs):
        raise InputError("relevant-vector cache has a row of the wrong length")
    seen = set(vr_coeffs)
    if any(tuple(-c for c in v) not in seen for v in vr_coeffs):
        raise InputError("relevant-vector cache is not closed under negation")
    if not all(any(c) for c in vr_coeffs):
        raise InputError("relevant-vector cache contains the zero vector")
    if obj.get("checksum") != _checksum(obj):
        raise InputError("relevant-vector cache checksum is missing or wrong")
    return VoronoiCellData(
        basis=basis,
        vectors=tuple(LatticePoint.from_coeffs(basis, c) for c in vr_coeffs),
    )


def load_cell(path, basis: LatticeBasis) -> VoronoiCellData:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read relevant-vector cache {path}: {e}") from None
    return cell_from_obj(obj, basis)
