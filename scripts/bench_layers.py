#!/usr/bin/env python3
"""Layer timings at fixed seeds, each the best of several repeats.

    PYTHONPATH=src python3 scripts/bench_layers.py --label NAME --out BENCH.json

Times the ``ambicap`` that Python imports:

    finite_evaluate_value_us       one ``evaluate_value`` on a 4-state finite
                                   ``cap`` model, per call
    finite_kernel_per_lottery_us   one ``evaluate_values`` call over the same
                                   lotteries, per lottery
    sampler_draw_lottery_us        one ``LotterySampler.draw_lottery`` on 4
                                   states, per lottery
    parametric_kernel_per_lottery_us
                                   one ``evaluate_values`` call on the grid-11
                                   urn ``model_5051``, per lottery, for
                                   ``cap`` and ``cautious``
    parametric_evaluate_value_us   one ``evaluate_value`` on the grid-101 urn,
                                   per call, for ``cap`` and ``cautious``
    parametric_family_build_ms     one ``family_5051(101)``: the median
                                   over fresh processes of each one's best
                                   of 5 builds after a warm-up build, with
                                   the quartiles (in one long process the
                                   best of 5 spreads 2x on unchanged code)
    parametric_lp_solves           ``_parametric_lp_max`` calls made by the
                                   grid-11 ``cap`` batch above and by the
                                   three 500-sample orders of c7 (below),
                                   counted by wrapping the function in this
                                   script
    evaluate_lp_solves             the same count for the ``c7_shares_ms``
                                   loop and the ``core_ms`` call (below),
                                   whose LPs all come from ``evaluate``
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
    c7_shares_ms                   the 2 000-pair
                                   ``shares_optimal_perception_detail``
                                   loop of that acceptance test
    cost_estimate_ms               one ``estimate_cost_star`` as the
                                   ``identify`` workload sizes it: each of
                                   the 25 members of ``model_5051`` and
                                   ``model_reflection`` at grid 5 with the
                                   standard bets, mean per estimate
    canonical_audit_ms             one ``check_canonical`` on ``family_5051``
                                   and ``family_reflection`` at grids 5, 7,
                                   9 and 11
    core_ms                        one ``estimate_multi_meu_core`` as the
                                   ``identify`` workload sizes it: 50
                                   samples on the grid-9 urn ``model_5051``

The timings go to ``runs[NAME]`` of the JSON file at ``--out``, which is
created or updated, next to a ``machine`` block.  ``--out -`` prints the
file instead.  ``--tiny`` shrinks every input for a smoke run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ambicap.model
from ambicap import (
    VARIANTS,
    StateSpace,
    check_axiom,
    check_canonical,
    estimate_cost_star,
    estimate_multi_meu_core,
    evaluate_value,
    evaluate_values,
    higher_filtering_incentives,
    more_tolerant_ambiguity,
    more_tolerant_ea_randomization,
    necessary_axioms,
    shares_optimal_perception_detail,
    stack_lotteries,
    standard_bet_dictionary,
)
from ambicap.sampling import LotterySampler, random_cap_model
from ambicap.stock import STATES_4, family_5051, family_reflection, model_5051, model_reflection


def best_of(repeats: int, fn) -> float:
    """Least wall time of ``repeats`` calls of ``fn``, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def lp_solves(fn) -> int:
    """``_parametric_lp_max`` calls made by ``fn()``, counted by wrapping
    the function in its module for the call."""
    original, calls = ambicap.model._parametric_lp_max, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    ambicap.model._parametric_lp_max = counted
    try:
        fn()
    finally:
        ambicap.model._parametric_lp_max = original
    return calls


BUILD_TIMING = """
import time
from ambicap.stock import family_5051
family_5051(101)
times = []
for _ in range(5):
    start = time.perf_counter()
    family_5051(101)
    times.append(time.perf_counter() - start)
print(min(times))
"""


def family_build(processes: int) -> dict:
    """ms per ``family_5051(101)``: the median and quartiles over fresh
    processes, each importing the ``ambicap`` this script imports, of the
    best of 5 builds after a warm-up build."""
    path = os.pathsep.join((str(Path(ambicap.__file__).parents[1]), os.environ.get("PYTHONPATH", "")))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-c", BUILD_TIMING]
    ms = [
        float(subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout) * 1e3
        for _ in range(processes)
    ]
    low, _, high = statistics.quantiles(ms, n=4)
    return {"processes": processes, "ms": statistics.median(ms), "quartiles": [low, high]}


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


def sampler_draws(repeats: int, n_lotteries: int) -> float:
    """us per ``draw_lottery`` on 4 states, one sampler across repeats."""
    sampler = LotterySampler(StateSpace(["s0", "s1", "s2", "s3"]), seed=3)
    return best_of(repeats, lambda: [sampler.draw_lottery() for _ in range(n_lotteries)]) / n_lotteries * 1e6


def urn_batch(variant: str, n_lotteries: int):
    """The grid-11 urn ``model_5051`` and ``n_lotteries`` lotteries of
    sampler seed 2, as a list and stacked."""
    model = model_5051(11, variant)
    sampler = LotterySampler(model.states, seed=2)
    lotteries = [sampler.lottery() for _ in range(n_lotteries)]
    probs, payoffs = stack_lotteries([(P.probs, P.payoff_matrix) for P in lotteries], len(model.states))
    return model, lotteries, probs, payoffs


def parametric_evaluation(repeats: int, n_lotteries: int) -> dict:
    kernel, single = {}, {}
    for variant in ("cap", "cautious"):
        model, lotteries, probs, payoffs = urn_batch(variant, n_lotteries)
        batched = best_of(repeats, lambda: evaluate_values(model, probs, payoffs))
        kernel[variant] = batched / n_lotteries * 1e6
        fine = model_5051(101, variant)
        lotteries = lotteries[: max(1, n_lotteries // 10)]
        calls = best_of(repeats, lambda: [evaluate_value(fine, P) for P in lotteries])
        single[variant] = calls / len(lotteries) * 1e6
    return {
        "parametric_kernel_per_lottery_us": kernel,
        "parametric_evaluate_value_us": single,
    }


def parametric_lp_solves(n_lotteries: int, grid: int, c7_samples: int) -> dict:
    """LP solves of the grid-11 ``cap`` batch of ``parametric_evaluation``
    and of the three reflexive orders of c7 on ``model_5051(grid)``."""
    model, _, probs, payoffs = urn_batch("cap", n_lotteries)
    urn = model_5051(grid)

    def c7_orders():
        orders = (more_tolerant_ea_randomization, more_tolerant_ambiguity, higher_filtering_incentives)
        for seed, order in enumerate(orders):
            order(urn, urn, LotterySampler(urn.states, seed=seed), c7_samples)

    return {
        "grid11_cap_lotteries": n_lotteries,
        "grid11_cap_batch": lp_solves(lambda: evaluate_values(model, probs, payoffs)),
        "c7_grid": grid,
        "c7_samples": c7_samples,
        "c7_orders": lp_solves(c7_orders),
    }


def evaluate_lp_solves(grid: int, n_pairs: int, core_grid: int, core_samples: int) -> dict:
    """LP solves of the ``c7_shares`` loop and of the ``core_ms`` call."""
    model = model_5051(core_grid)
    return {
        "c7_grid": grid,
        "c7_pairs": n_pairs,
        "c7_shares": lp_solves(lambda: c7_shares(grid, n_pairs)),
        "core_grid": core_grid,
        "core_samples": core_samples,
        "core": lp_solves(lambda: estimate_multi_meu_core(model, LotterySampler(model.states, seed=0), core_samples)),
    }


def c7_shares(grid: int, n_pairs: int) -> None:
    """The ``shares_optimal_perception_detail`` loop of c7."""
    model = model_5051(grid)
    sampler = LotterySampler(model.states, seed=3)
    for _ in range(n_pairs):
        shares_optimal_perception_detail(model, *sampler.pair())


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


def identification_ops(
    repeats: int, estimate_grid: int, grids: tuple, core_grid: int, core_samples: int
) -> dict:
    """ms per cost estimate of the urn members at ``estimate_grid``, per
    canonical audit of each stock family and grid, and per multi-MEU core
    call (sampler seed 0)."""
    dictionary = standard_bet_dictionary(STATES_4)
    members = [
        (model, model.family.member_at(theta))
        for model in (model_5051(estimate_grid), model_reflection(estimate_grid))
        for theta in model.family.thetas
    ]
    estimates = best_of(repeats, lambda: [estimate_cost_star(m, M, dictionary, 5000) for m, M in members])
    audits = {}
    for make in (family_5051, family_reflection):
        for grid in grids:
            family = make(grid)
            audits[f"{make.__name__}_{grid}"] = best_of(repeats, lambda: check_canonical(family)) * 1e3
    model = model_5051(core_grid)
    core = best_of(
        repeats, lambda: estimate_multi_meu_core(model, LotterySampler(model.states, seed=0), core_samples)
    )
    return {
        "cost_estimate_ms": {"grid": estimate_grid, "estimates": len(members), "ms": estimates / len(members) * 1e3},
        "canonical_audit_ms": audits,
        "core_ms": {"grid": core_grid, "samples": core_samples, "ms": core * 1e3},
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
    order_grid, order_samples = (5, (4, 4)) if args.tiny else (9, (24, 16))
    c7_samples, c7_pairs = (5, 20) if args.tiny else (500, 2000)
    estimate_grid, audit_grids, core_grid, core_samples = (2, (3,), 5, 10) if args.tiny else (5, (5, 7, 9, 11), 9, 50)
    run = {
        "repeats": args.repeats,
        **finite_evaluation(args.repeats, n_lotteries),
        "sampler_draw_lottery_us": sampler_draws(args.repeats, n_lotteries),
        **parametric_evaluation(args.repeats, n_lotteries // 10),
        "parametric_family_build_ms": family_build(2 if args.tiny else 9),
        "check_axiom_ms": axiom_ops(args.repeats, trials),
        "check_axiom_trials": trials,
        "c4_body_s": best_of(args.repeats, lambda: c4_body(c4_models, c4_trials)),
        "c4_models": c4_models,
        "c4_trials": c4_trials,
        "parametric_lp_solves": parametric_lp_solves(n_lotteries // 10, order_grid, c7_samples),
        "evaluate_lp_solves": evaluate_lp_solves(order_grid, c7_pairs, core_grid, core_samples),
        "order_ms": order_ops(args.repeats, order_grid, order_samples, c7_samples),
        "c7_shares_ms": {
            "grid": order_grid,
            "pairs": c7_pairs,
            "ms": best_of(args.repeats, lambda: c7_shares(order_grid, c7_pairs)) * 1e3,
        },
        **identification_ops(args.repeats, estimate_grid, audit_grids, core_grid, core_samples),
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
