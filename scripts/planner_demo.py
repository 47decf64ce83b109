#!/usr/bin/env python3
"""Drive the fiberwise planner on representative queries and verify the paths.

Plans three queries over CP^2 (a generic pair in piece 0, an antipodal pair
off the poles in piece 1 and a pole pair over the 2-cell in piece 4), prints
the segment structure and a few sampled points for each, then runs the
partition and randomized path suites over CP^1 ... CP^3.

Usage: python scripts/planner_demo.py [--seed 1729] [--trials 2000]
"""

from __future__ import annotations

import argparse

import numpy as np

from paramtc.planner import BundlePoint, ProjectiveRep, cell_section, classify_pair, plan
from paramtc.verify import DEFAULT_SEED, check_partition, check_path, check_paths_random


def show(path, label: str) -> None:
    segs = " | ".join(
        f"{seg.kind} [{path.breakpoints[i]:.3f}, {path.breakpoints[i + 1]:.3f}]"
        for i, seg in enumerate(path.segments)
    )
    print(f"{label}: piece {path.piece}")
    print(f"  segments: {segs}")
    for i, p in enumerate(path.sample(5)):
        print(f"  t={i / 4:.2f}  s={p.s:+.6f}  |w|={p.w_norm:.6f}")
    outcome = check_path(path, samples=50)
    print(f"  invariants: {outcome.summary()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trials", type=int, default=2000)
    args = parser.parse_args()

    z = ProjectiveRep.normalized(np.array([1.0, 0.4 + 0.3j, -0.2j]))

    x = BundlePoint.from_fiber(z, 0.6, 0.8)
    y = BundlePoint.from_fiber(z, complex(0.0, -1.0), 0.0)
    show(plan(x, y), "generic pair")

    show(plan(x, x.antipode()), "antipodal pair off the poles")

    sigma = BundlePoint.section_point(z)
    path = plan(sigma, sigma.antipode())
    show(path, f"pole pair over the {classify_pair(sigma, sigma.antipode()) - 2}-cell")
    direction = cell_section(z, 2)
    print(f"  rotation direction picked by the cell section: |phi_j| = {np.linalg.norm(direction):.6f}")

    print()
    for n in (1, 2, 3):
        print(check_partition(n, trials=args.trials, seed=args.seed).summary())
        print(check_paths_random(n, trials=args.trials, seed=args.seed).summary())


if __name__ == "__main__":
    main()
