#!/usr/bin/env python3
"""Axiom sweep: necessity on random models, then separation witnesses.

For each variant, draws random models and checks every axiom the variant
must satisfy on sampled lotteries.  Then replays the stock separation
witnesses, confirming that each violated axiom really fails where it
should and that random search can find the violation on its own.
"""

import argparse
import sys
import time

import numpy as np

from ambicap import VARIANTS, StateSpace, check_axiom, necessary_axioms, recheck_witness
from ambicap.sampling import LotterySampler, random_cap_model
from ambicap.stock import stock_separations


def _random_states(rng) -> StateSpace:
    return StateSpace([f"s{j}" for j in range(rng.integers(2, 5))])


def run_necessity(variants, n_models, trials, seed) -> int:
    failures = 0
    for variant in variants:
        start = time.perf_counter()
        for i in range(n_models):
            rng = np.random.default_rng(seed + 1000 * i)
            model = random_cap_model(_random_states(rng), rng, variant=variant)
            for axiom_id in necessary_axioms(model):
                sampler = LotterySampler(model.states, seed=seed + i)
                report = check_axiom(model, axiom_id, sampler, trials)
                if not report.holds:
                    failures += 1
                    print(f"  FALSE COUNTEREXAMPLE {variant} model {i} {axiom_id}: "
                          f"{report.counterexample}")
        took = time.perf_counter() - start
        print(f"{variant}: {n_models} models x necessary axioms x {trials} trials "
              f"clean in {took:.1f}s" if failures == 0 else f"{variant}: FAILURES")
    return failures


def run_separations() -> int:
    failures = 0
    for model, axiom_id, witness in stock_separations():
        violated, magnitude = recheck_witness(model, axiom_id, witness, tol=1e-8)
        sampler = LotterySampler(model.states, seed=3)
        found = not check_axiom(model, axiom_id, sampler, 400).holds
        status = "ok" if violated and found else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}: {model.variant} violates {axiom_id} "
              f"(magnitude {magnitude:.4g}, sampled search found: {found})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=5, help="models per variant")
    parser.add_argument("--trials", type=int, default=300, help="trials per axiom")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--variants", nargs="*", default=list(VARIANTS), choices=VARIANTS)
    args = parser.parse_args()

    failures = run_necessity(args.variants, args.models, args.trials, args.seed)
    print()
    failures += run_separations()
    print("\nall clean" if failures == 0 else f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
