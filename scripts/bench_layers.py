#!/usr/bin/env python3
"""Layer timings at fixed seeds, each the best of several repeats.

    PYTHONPATH=src python3 scripts/bench_layers.py --label NAME --out BENCH.json

Times the ``ambicap`` that Python imports:

    finite_evaluate_value_us       one ``evaluate_value`` on a 4-state finite
                                   ``cap`` model, per call
    finite_kernel_per_lottery_us   one ``evaluate_values`` call over the same
                                   lotteries, per lottery
    parametric_kernel_per_lottery_us
                                   one ``evaluate_values`` call on the grid-11
                                   urn ``model_5051``, per lottery, for
                                   ``cap`` and ``cautious``
    parametric_evaluate_value_us   one ``evaluate_value`` on the grid-101 urn,
                                   per call, for ``cap`` and ``cautious``
    parametric_family_build_ms     one ``family_5051(101)``
    check_axiom_ms                 one 150-trial ``check_axiom`` per variant,
                                   the mean over the variant's necessary
                                   axioms (A1 aside)
    c4_body_s                      the body of the acceptance test
                                   ``test_c4_axiom_necessity_suite``
    order_ms                       one reflexive call of a tolerance order on
                                   the grid-9 urn ``model_5051``: the
                                   ``urn_parametric`` sizes (24 ambiguity and
                                   16 filtering samples) and the three
                                   500-sample orders of the acceptance test
                                   ``test_c7_comparatives_coherence``

The timings go to ``runs[NAME]`` of the JSON file at ``--out``, which is
created or updated, next to a ``machine`` block.  ``--out -`` prints the
file instead.  ``--tiny`` shrinks every input for a smoke run.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from ambicap import (
    VARIANTS,
    StateSpace,
    check_axiom,
    evaluate_value,
    evaluate_values,
    higher_filtering_incentives,
    more_tolerant_ambiguity,
    more_tolerant_ea_randomization,
    necessary_axioms,
    stack_lotteries,
)
from ambicap.sampling import LotterySampler, random_cap_model
from ambicap.stock import family_5051, model_5051


def best_of(repeats: int, fn) -> float:
    """Least wall time of ``repeats`` calls of ``fn``, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def finite_evaluation(repeats: int, n_lotteries: int) -> dict:
    states = StateSpace(["s0", "s1", "s2", "s3"])
    model = random_cap_model(states, np.random.default_rng(5), "cap")
    sampler = LotterySampler(states, seed=1)
    lotteries = [sampler.lottery() for _ in range(n_lotteries)]
    probs, payoffs = stack_lotteries([(P.probs, P.payoff_matrix) for P in lotteries], len(states))
    single = best_of(repeats, lambda: [evaluate_value(model, P) for P in lotteries])
    batched = best_of(repeats, lambda: evaluate_values(model, probs, payoffs))
    return {
        "members": len(model.family),
        "lotteries": n_lotteries,
        "finite_evaluate_value_us": single / n_lotteries * 1e6,
        "finite_kernel_per_lottery_us": batched / n_lotteries * 1e6,
    }


def parametric_evaluation(repeats: int, n_lotteries: int) -> dict:
    kernel, single = {}, {}
    for variant in ("cap", "cautious"):
        model = model_5051(11, variant)
        sampler = LotterySampler(model.states, seed=2)
        lotteries = [sampler.lottery() for _ in range(n_lotteries)]
        probs, payoffs = stack_lotteries(
            [(P.probs, P.payoff_matrix) for P in lotteries], len(model.states)
        )
        batched = best_of(repeats, lambda: evaluate_values(model, probs, payoffs))
        kernel[variant] = batched / n_lotteries * 1e6
        fine = model_5051(101, variant)
        lotteries = lotteries[: max(1, n_lotteries // 10)]
        calls = best_of(repeats, lambda: [evaluate_value(fine, P) for P in lotteries])
        single[variant] = calls / len(lotteries) * 1e6
    return {
        "parametric_kernel_per_lottery_us": kernel,
        "parametric_evaluate_value_us": single,
        "parametric_family_build_ms": best_of(repeats, lambda: family_5051(101)) * 1e3,
    }


def axiom_ops(repeats: int, trials: int) -> dict:
    out = {}
    for k, variant in enumerate(VARIANTS):
        states = StateSpace(["s0", "s1", "s2"])
        model = random_cap_model(states, np.random.default_rng(100 + k), variant)
        axioms = [a for a in necessary_axioms(model) if a != "A1-nondegeneracy"]

        def run():
            for i, axiom_id in enumerate(axioms):
                check_axiom(model, axiom_id, LotterySampler(states, seed=i), trials)

        out[variant] = best_of(repeats, run) / len(axioms) * 1e3
    return out


def c4_body(n_models: int, trials: int) -> None:
    """The loop of ``test_c4_axiom_necessity_suite``, without its verdict."""

    def states_for(rng):
        return StateSpace([f"s{j}" for j in range(int(rng.integers(2, 5)))])

    for i in range(n_models):
        rng = np.random.default_rng(1000 + i)
        model = random_cap_model(states_for(rng), rng, variant="cap")
        for axiom_id in ("A2-FSD", "A3-aepr", "A4-imtc", "A5-eaar", "A6-ica"):
            check_axiom(model, axiom_id, LotterySampler(model.states, seed=i), trials)
    special = {"cautious": "A-eapr", "dual_self": "A-sica", "choquet": "A-imtcm"}
    for variant, axiom_id in special.items():
        for i in range(n_models):
            rng = np.random.default_rng(2000 + i)
            model = random_cap_model(states_for(rng), rng, variant=variant)
            check_axiom(model, axiom_id, LotterySampler(model.states, seed=i), trials)
    for i in range(n_models):
        rng = np.random.default_rng(3000 + i)
        model = random_cap_model(states_for(rng), rng, singleton=True)
        check_axiom(model, "A-imt", LotterySampler(model.states, seed=i), trials)


def order_ops(repeats: int, grid: int, op_samples: tuple, c7_samples: int) -> dict:
    """ms per reflexive order call on ``model_5051(grid)``, seeded as the
    acceptance test c7 seeds its orders."""
    model = model_5051(grid)

    def ms(order, seed, n):
        return best_of(repeats, lambda: order(model, model, LotterySampler(model.states, seed=seed), n)) * 1e3

    return {
        "grid": grid,
        "op_samples": list(op_samples),
        "op_ambiguity": ms(more_tolerant_ambiguity, 1, op_samples[0]),
        "op_filtering": ms(higher_filtering_incentives, 2, op_samples[1]),
        "c7_samples": c7_samples,
        "c7_ea_randomization": ms(more_tolerant_ea_randomization, 0, c7_samples),
        "c7_ambiguity": ms(more_tolerant_ambiguity, 1, c7_samples),
        "c7_filtering": ms(higher_filtering_incentives, 2, c7_samples),
    }


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="run", help="key of this run under runs")
    parser.add_argument("--out", default="-", help="JSON file to create or update, or - for stdout")
    parser.add_argument("--repeats", type=int, default=5, help="repeats per timing; the best is kept")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for a smoke run")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    n_lotteries, trials, c4_models, c4_trials = (20, 5, 1, 5) if args.tiny else (2000, 150, 20, 1000)
    order_grid, order_samples, c7_samples = (5, (4, 4), 5) if args.tiny else (9, (24, 16), 500)
    run = {
        "repeats": args.repeats,
        **finite_evaluation(args.repeats, n_lotteries),
        **parametric_evaluation(args.repeats, n_lotteries // 10),
        "check_axiom_ms": axiom_ops(args.repeats, trials),
        "check_axiom_trials": trials,
        "c4_body_s": best_of(args.repeats, lambda: c4_body(c4_models, c4_trials)),
        "c4_models": c4_models,
        "c4_trials": c4_trials,
        "order_ms": order_ops(args.repeats, order_grid, order_samples, c7_samples),
    }
    path = None if args.out == "-" else Path(args.out)
    doc = json.loads(path.read_text()) if path is not None and path.exists() else {"runs": {}}
    doc["machine"] = machine()
    doc["runs"][args.label] = run
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
