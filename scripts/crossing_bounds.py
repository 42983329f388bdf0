#!/usr/bin/env python3
"""Crossing-count bound sweep.

Runs the randomized straight-line walk on a family of lattices and prints
the empirical mean crossings per phase next to the theoretical bounds:
(n/2) ||t - x||_V for the shifted segment and
(e^2/(sqrt(2)-1)) n (2 + ln(4/alpha)) for the descent to t + alpha*Z.

Example:
    python scripts/crossing_bounds.py --dims 2 3 4 --trials 400 --alpha 1/64
"""

import argparse
import sys
from fractions import Fraction

import numpy as np

from voronoi_cvp import LatticeBasis, LatticePoint, SamplerConfig, compute_relevant_vectors
from voronoi_cvp.experiments import (
    phase_b_bound,
    phase_c_bound,
    run_crossing_trials,
    summarize_crossings,
)
from voronoi_cvp.lattice import random_rational_basis, random_rational_target
from voronoi_cvp.voronoi import voronoi_norm


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--alpha", type=Fraction, default=Fraction(1, 32))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--random-lattices", type=int, default=1, help="per dimension")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    rng = np.random.Generator(np.random.PCG64(args.seed))
    print(
        f"{'lattice':<12} {'n':>2} {'||t-x||_V':>10} {'mean B':>8} {'bound B':>8} "
        f"{'mean C':>8} {'bound C':>8}  verdicts"
    )
    for n in args.dims:
        instances = [("Z^%d" % n, LatticeBasis.identity(n))]
        for i in range(args.random_lattices):
            instances.append((f"rand{n}-{i}", random_rational_basis(n, rng)))
        for name, basis in instances:
            cell = compute_relevant_vectors(basis)
            x = LatticePoint.origin(n)
            while True:
                t = random_rational_target(basis, rng, max_denominator=16)
                if voronoi_norm(cell, t.coords) > 1:
                    break
            cfg = SamplerConfig(seed=args.seed)
            outcomes = run_crossing_trials(
                cell, x, t, args.alpha, args.trials, cfg, jobs=args.jobs
            )
            s = summarize_crossings(
                outcomes, phase_b_bound(cell, x, t), phase_c_bound(n, args.alpha)
            )
            vnorm = voronoi_norm(cell, t.coords)
            print(
                f"{name:<12} {n:>2} {float(vnorm):>10.3f} {s.mean_b:>8.3f} "
                f"{float(s.bound_b):>8.3f} {s.mean_c:>8.3f} {s.bound_c:>8.1f}  "
                f"B={'ok' if s.verdict_b else 'VIOLATED'} "
                f"C={'ok' if s.verdict_c else 'VIOLATED'}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
