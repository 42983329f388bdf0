"""The Voronoi cell of a lattice, represented by its relevant vectors.

A lattice vector v induces a facet of the cell exactly when +-v are the
unique minimum-norm elements of the coset v + 2L.  The cell itself is the
intersection of the halfspaces <x, v> <= <v, v>/2 over relevant v, which
makes membership and the cell norm exactly decidable for rational input.

The cell keeps integer coefficient rows a and, from one matrix product, the
images V = den B a (den the basis's denominator).  With x = x_int / dx the
facet inequality is 2 den <V, x_int> <= <V, V> dx, a pure integer predicate,
scanned as one int64 product wherever `VoronoiCellData.scan` proves it exact.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import isqrt
from operator import neg
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

    `coeffs` holds their integer coefficient rows, closed under negation and
    deterministically ordered (cosets in lexicographic order; within a coset
    the representative whose leading nonzero coefficient is positive comes
    first).  `vector(i)` reads row i as a `LatticePoint`, built on first read.
    Derived from the rows: `lambda1_sq` = min ||v||^2 (so r^2 = lambda1_sq / 4
    gives r B_2 inside the cell) and `outer_radius_sq` = R^2 = (n/4) max
    ||v||^2 (cell inside R B_2).  `__post_init__` also sets the images
    `_vr_int`, norms `_norm_int`, their int64 copies (None if a norm does not
    fit), `_bounds` and the built points `_points` (None until read).
    """

    basis: LatticeBasis
    coeffs: tuple[tuple[int, ...], ...]
    lambda1_sq: Fraction = field(init=False)
    outer_radius_sq: Fraction = field(init=False)

    def __post_init__(self):
        basis, rows, n = self.basis, self.coeffs, self.basis.n
        if not rows or set(map(len, rows)) != {n}:
            raise ContractViolation(f"a Voronoi cell needs relevant vectors as rows of length {n}")
        # |V_i| <= top = n max|den B| max|a| per entry, and <V, V> <= n top^2
        try:
            a = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * n).reshape(-1, n)
            top = n * max(map(abs, chain.from_iterable(basis.rows_int)))
            top *= max(int(a.max()), -int(a.min()))
        except OverflowError:  # a coefficient past int64
            top = 1 << 63
        if n * top * top >= 1 << 63:  # int64 is not proven exact: Python integers
            a = np.array(rows, dtype=object)
        vr = a @ np.array(basis.rows_int, dtype=a.dtype).T
        norm = (vr * vr).sum(axis=1)
        norm_int = tuple(norm.tolist())
        den, norm_max = basis.den, max(norm_int)
        fits = norm_max < 1 << 63  # a norm bounds the square of each entry
        vars(self).update(  # frozen: write the derived attributes directly
            lambda1_sq=Fraction(min(norm_int), den * den),
            outer_radius_sq=Fraction(n * norm_max, 4 * den * den),
            _vr_int=tuple(map(tuple, vr.tolist())),
            _norm_int=norm_int,
            _vr_np=vr.astype(np.int64) if fits else None,
            _norm_np=norm.astype(np.int64) if fits else None,
            _bounds=(isqrt(n * norm_max) + 1, norm_max),
            _points=[None] * len(rows),
        )

    @property
    def n(self) -> int:
        return self.basis.n

    def vector(self, i: int) -> LatticePoint:
        """Relevant vector i, built from its row and image on first read; no dot product."""
        p = self._points[i]
        if p is None:
            p = self._points[i] = LatticePoint(self.coeffs[i], self._vr_int[i], self.basis)
        return p

    @property
    def vectors(self) -> tuple[LatticePoint, ...]:
        """Every relevant vector as a `LatticePoint`, in cell order."""
        return tuple(map(self.vector, range(len(self.coeffs))))

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
    out: list[tuple[int, ...]] = []
    for p in reps:
        _, found = minima[sum(bit << k for k, bit in enumerate(p))]
        if len(found) != 1:
            continue  # two or more +- pairs tie: no facet from this coset
        v = found[0]
        w = tuple(map(neg, v))
        out.extend((v, w) if next(x for x in v if x) > 0 else (w, v))
    return VoronoiCellData(basis=basis, coeffs=tuple(out))


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
        "vr": [[str(c) for c in a] for a in cell.coeffs],
    }
    obj["checksum"] = _checksum(obj)
    return obj


def save_cell(cell: VoronoiCellData, path) -> None:
    with open(path, "w") as f:
        json.dump(cell_to_obj(cell), f, indent=1)
        f.write("\n")


#: `cell_to_obj`'s entries joined by commas: canonical decimals, the s with str(int(s)) == s
_CANONICAL_INTS = re.compile(r"(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*")


def _json_ints(values: list) -> list[int]:
    """Entries as `cell_to_obj` writes them (str(int)) or JSON integers; not 1.0, True, " 1 ".
    A written cache passes one regex over its joined entries; any other goes entry by entry."""
    try:
        if _CANONICAL_INTS.fullmatch(",".join(values)):
            return list(map(int, values))
    except (TypeError, ValueError):  # a non-string entry, a comma in an entry, the digit limit
        pass
    for value in values:  # raises at the first entry that the rule rejects
        if str(value) != str(int(value)):
            raise TypeError(f"expected an integer entry, got {json.dumps(value)}")
    return list(map(int, values))


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
        ints = _json_ints(list(chain.from_iterable(rows)))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"malformed relevant-vector cache: {e}") from None
    if cached_hash != basis_hash(basis):
        raise InputError("relevant-vector cache does not match this basis")
    if type(n) is not int or n != basis.n:  # booleans are not integers
        raise InputError(f"relevant-vector cache has dimension {json.dumps(n)}, not {basis.n}")
    if not rows or len(rows) > 2 * (2**n - 1):
        raise InputError("relevant-vector cache has implausible size")
    if set(map(len, rows)) != {n}:
        raise InputError("relevant-vector cache has a row of the wrong length")
    coeffs = tuple(zip(*[iter(ints)] * n))
    if not set(zip(*[map(neg, ints)] * n)) <= set(coeffs):
        raise InputError("relevant-vector cache is not closed under negation")
    if not all(map(any, coeffs)):
        raise InputError("relevant-vector cache contains the zero vector")
    if obj.get("checksum") != _checksum(obj):
        raise InputError("relevant-vector cache checksum is missing or wrong")
    return VoronoiCellData(basis=basis, coeffs=coeffs)


def load_cell(path, basis: LatticeBasis) -> VoronoiCellData:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read relevant-vector cache {path}: {e}") from None
    return cell_from_obj(obj, basis)
