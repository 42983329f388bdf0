"""The Voronoi cell of a lattice, represented by its relevant vectors.

A lattice vector v induces a facet of the cell exactly when +-v are the
unique minimum-norm elements of the coset v + 2L.  The cell itself is the
intersection of the halfspaces <x, v> <= <v, v>/2 over relevant v, which
makes membership and the cell norm exactly decidable for rational input.

Hot paths (membership, norm) run on integer-scaled copies of the data:
with v = v_int / D and x = x_int / Dx, the facet inequality becomes
2 D <v_int, x_int> <= <v_int, v_int> Dx, a pure integer predicate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg, oracles
from .errors import ContractViolation, InputError
from .lattice import (
    DEFAULT_DIM_CAP,
    LatticeBasis,
    Target,
    basis_hash,
    coset_reps_mod2,
)
from .linalg import Vec


@dataclass(frozen=True)
class RelevantVector:
    """A facet-inducing lattice vector with cached half squared norm."""

    coeffs: tuple[int, ...]
    ambient: Vec
    half_norm_sq: Fraction

    @property
    def norm_sq(self) -> Fraction:
        return 2 * self.half_norm_sq


@dataclass(frozen=True)
class VoronoiCellData:
    """Preprocessing advice: the relevant vectors plus derived statistics.

    `vectors` is closed under negation and deterministically ordered
    (cosets in lexicographic order; within a coset the representative whose
    leading nonzero coefficient is positive comes first).
    """

    basis: LatticeBasis
    vectors: tuple[RelevantVector, ...]
    lambda1_sq: Fraction
    max_norm_sq: Fraction
    inner_radius_sq: Fraction  # r^2 = lambda1^2 / 4, r B_2 inside the cell
    outer_radius_sq: Fraction  # R^2 = (n/4) max ||v||^2, cell inside R B_2

    # integer-scaled mirrors of `vectors` for the hot paths
    _den: int = field(init=False, repr=False, compare=False, default=1)
    _vr_int: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _norm_int: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    # rows of den * B, so den * (B a) = (<row, a> for each row)
    _basis_rows_int: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        den = self.basis.denominator_lcm
        vr_int = tuple(
            linalg.scale_exact(v.ambient, den) for v in self.vectors
        )
        norm_int = tuple(linalg.dot_int(w, w) for w in vr_int)
        rows_int = tuple(linalg.scale_exact(r, den) for r in self.basis.rows())
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_vr_int", vr_int)
        object.__setattr__(self, "_norm_int", norm_int)
        object.__setattr__(self, "_basis_rows_int", rows_int)

    @property
    def n(self) -> int:
        return self.basis.n

    def membership_scaled(self, x_int: Sequence[int], dx: int) -> bool:
        """Exact membership of the point x_int / dx (dx > 0)."""
        den2 = 2 * self._den
        for w, nv in zip(self._vr_int, self._norm_int):
            if den2 * linalg.dot_int(w, x_int) > nv * dx:
                return False
        return True

    def norm_scaled(self, x_int: Sequence[int], dx: int) -> Fraction:
        """Exact cell norm of the point x_int / dx (dx > 0)."""
        best_num, best_den = 0, 1
        den2 = 2 * self._den
        for w, nv in zip(self._vr_int, self._norm_int):
            num = den2 * linalg.dot_int(w, x_int)
            den = nv * dx
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        return Fraction(best_num, best_den)


def compute_relevant_vectors(
    basis: LatticeBasis,
    dim_cap: int = DEFAULT_DIM_CAP,
    node_cap: int = oracles.DEFAULT_NODE_CAP,
) -> VoronoiCellData:
    """Find the relevant vectors by minimizing each nonzero coset of 2L.

    A coset B p + 2L (p a nonzero 0/1 vector) contributes the pair +-v
    exactly when its minimum-norm element is unique up to sign; ties mean
    the coset induces no facet.
    """
    n = basis.n
    reps = coset_reps_mod2(n, dim_cap)
    doubled = basis.scaled(2)
    out: list[RelevantVector] = []
    lambda1_sq = None
    max_norm_sq = Fraction(0)
    for p in reps:
        c = basis.apply(p)
        sols = oracles.cvp_bruteforce(doubled, Target(coords=c), node_cap=node_cap)
        # minimum-norm coset elements are c - z over closest z in 2L
        if len(sols.points) != 2:
            continue  # tied minimizers: no facet from this coset
        cands = []
        for z in sols.points:
            coeffs = tuple(pi - 2 * ai for pi, ai in zip(p, z.coeffs))
            ambient = linalg.sub(c, z.ambient)
            cands.append((coeffs, ambient))
        (c1, a1), (c2, a2) = cands
        if tuple(-x for x in c1) != c2:
            raise ContractViolation("coset minimizers are not a +- pair")
        nsq = linalg.norm_sq(a1)
        lead = next(x for x in c1 if x)
        first, second = ((c1, a1), (c2, a2)) if lead > 0 else ((c2, a2), (c1, a1))
        for coeffs, ambient in (first, second):
            out.append(
                RelevantVector(coeffs=coeffs, ambient=ambient, half_norm_sq=nsq / 2)
            )
        lambda1_sq = nsq if lambda1_sq is None else min(lambda1_sq, nsq)
        max_norm_sq = max(max_norm_sq, nsq)
    if lambda1_sq is None:
        raise ContractViolation("no relevant vectors found")
    return VoronoiCellData(
        basis=basis,
        vectors=tuple(out),
        lambda1_sq=lambda1_sq,
        max_norm_sq=max_norm_sq,
        inner_radius_sq=lambda1_sq / 4,
        outer_radius_sq=Fraction(n, 4) * max_norm_sq,
    )


def voronoi_norm(cell: VoronoiCellData, x: Sequence[Fraction]) -> Fraction:
    """Smallest s >= 0 with x inside s times the cell: max_v 2 <v,x> / <v,v>."""
    x_int, dx = linalg.scaled_ints(linalg.vec(x))
    return cell.norm_scaled(x_int, dx)


def membership(cell: VoronoiCellData, x: Sequence[Fraction]) -> bool:
    """Exact test that x lies in the (closed) cell."""
    x_int, dx = linalg.scaled_ints(linalg.vec(x))
    return cell.membership_scaled(x_int, dx)


def sandwich_radii(cell: VoronoiCellData) -> tuple[Fraction, Fraction]:
    """(r^2, R^2) with r B_2 inside the cell inside R B_2."""
    return cell.inner_radius_sq, cell.outer_radius_sq


# ---------------------------------------------------------------------------
# cache file


def cell_to_obj(cell: VoronoiCellData) -> dict:
    return {
        "basis_hash": basis_hash(cell.basis),
        "n": cell.n,
        "vr": [[str(c) for c in v.coeffs] for v in cell.vectors],
    }


def save_cell(cell: VoronoiCellData, path) -> None:
    with open(path, "w") as f:
        json.dump(cell_to_obj(cell), f, indent=1)
        f.write("\n")


def cell_from_obj(obj: dict, basis: LatticeBasis) -> VoronoiCellData:
    """Rebuild a cell from cached coefficient vectors.

    Ambient coordinates are recomputed from the basis; the cache is rejected
    if its hash does not match the basis or the structural invariants
    (closure under negation, facet-count bound) fail.
    """
    try:
        cached_hash = obj["basis_hash"]
        n = int(obj["n"])
        vr_coeffs = [tuple(int(c) for c in row) for row in obj["vr"]]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed relevant-vector cache: {e}") from None
    if cached_hash != basis_hash(basis):
        raise InputError("relevant-vector cache does not match this basis")
    if n != basis.n:
        raise InputError("relevant-vector cache has wrong dimension")
    if not vr_coeffs or len(vr_coeffs) > 2 * (2**n - 1):
        raise InputError("relevant-vector cache has implausible size")
    seen = set(vr_coeffs)
    if any(tuple(-c for c in v) not in seen for v in vr_coeffs):
        raise InputError("relevant-vector cache is not closed under negation")
    vectors = []
    lambda1_sq = None
    max_norm_sq = Fraction(0)
    for coeffs in vr_coeffs:
        if not any(coeffs):
            raise InputError("relevant-vector cache contains the zero vector")
        ambient = basis.apply(coeffs)
        nsq = linalg.norm_sq(ambient)
        vectors.append(
            RelevantVector(coeffs=coeffs, ambient=ambient, half_norm_sq=nsq / 2)
        )
        lambda1_sq = nsq if lambda1_sq is None else min(lambda1_sq, nsq)
        max_norm_sq = max(max_norm_sq, nsq)
    return VoronoiCellData(
        basis=basis,
        vectors=tuple(vectors),
        lambda1_sq=lambda1_sq,
        max_norm_sq=max_norm_sq,
        inner_radius_sq=lambda1_sq / 4,
        outer_radius_sq=Fraction(basis.n, 4) * max_norm_sq,
    )


def load_cell(path, basis: LatticeBasis) -> VoronoiCellData:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read relevant-vector cache {path}: {e}") from None
    return cell_from_obj(obj, basis)
