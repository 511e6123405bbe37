#!/usr/bin/env python3
"""Cost identification sweep over the two urn box families.

Builds a coarse grid of each parametric family, then estimates every
member's perception cost from the model's evaluation behavior alone.  The
estimate must be a certified lower bound within 0.5 of the true cost.
"""

import argparse
import sys
import time

import numpy as np

from ambicap import estimate_cost_star, standard_bet_dictionary
from ambicap.stock import model_5051, model_reflection


def sweep(name, model, grid, budget) -> int:
    family = model.family
    dictionary = standard_bet_dictionary(model.states)
    thetas = np.linspace(0.0, 1.0, grid)
    worst_short, worst_over, failures = 0.0, 0.0, 0
    start = time.perf_counter()
    for beta in thetas:
        for gamma in thetas:
            member = family.member_at((beta, gamma))
            true_cost = family.cost_at((beta, gamma))
            est = estimate_cost_star(model, member, dictionary, budget)
            short = true_cost - est.value
            over = est.value - true_cost
            worst_short = max(worst_short, short)
            worst_over = max(worst_over, over)
            if not (true_cost - 0.5 <= est.value <= true_cost + 1e-3):
                failures += 1
                print(f"  OUT OF BAND {name} theta=({beta:.2f},{gamma:.2f}): "
                      f"true {true_cost:.6f} est {est.value:.6f}")
    took = time.perf_counter() - start
    print(f"{name}: {grid}x{grid} members, worst shortfall {worst_short:.3g}, "
          f"worst excess {worst_over:.3g}, {failures} out of band, {took:.1f}s")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=5, help="grid points per axis")
    parser.add_argument("--budget", type=int, default=5000,
                        help="simplex pivot cap of each cost LP solve; reaching it raises")
    args = parser.parse_args()

    failures = sweep("urn-5051", model_5051(grid_resolution=args.grid), args.grid,
                     args.budget)
    failures += sweep("reflection", model_reflection(grid_resolution=args.grid),
                      args.grid, args.budget)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
