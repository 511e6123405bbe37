#!/usr/bin/env python3
"""Layer timings at fixed seeds, each the best of several repeats.

    PYTHONPATH=src python3 scripts/bench_layers.py --label NAME --out BENCH.json

Times the ``ambicap`` that Python imports:

    finite_evaluate_value_us       one ``evaluate_value`` on a 4-state finite
                                   ``cap`` model, per call, timed in fresh
                                   processes (see below)
    finite_kernel_per_lottery_us   one ``evaluate_values`` call over the same
                                   lotteries, per lottery, timed in fresh
                                   processes
    sampler_draw_lottery_us        one ``LotterySampler.draw_lottery`` on 4
                                   states, per lottery, timed in fresh
                                   processes
    sampler_chunk_per_trial_us     one 64-trial chunk of the ``A3-aepr``
                                   (timing) draw on 4 states, per trial,
                                   timed in fresh processes
    parametric_kernel_per_lottery_us
                                   one ``evaluate_values`` call on the grid-11
                                   urn ``model_5051``, per lottery, for
                                   ``cap`` and ``cautious``, timed in fresh
                                   processes
    parametric_evaluate_value_us   one ``evaluate_value`` on the grid-101 urn,
                                   per call, for ``cap`` and ``cautious``,
                                   timed in fresh processes
    parametric_evaluate_us         one ``evaluate``, with its perception
                                   list, on the grid-101 urn, per call, for
                                   ``cap`` and ``cautious``, timed in fresh
                                   processes
    tied_bet_evaluate_us           one ``evaluate`` of the bet of 101 utils
                                   on red under the ``cap`` urn
                                   ``model_5051`` at grids 11 and 101, per
                                   call; its best corners tie, so it scores
                                   the whole grid; timed in fresh processes
    mixed_batch_evaluate_many_us   one ``evaluate_many`` of two rows under
                                   the grid-11 ``cap`` urn: the bet
                                   (10101.0002, 10000, 9000, 9000) and the
                                   constant 0.5, whose values differ by four
                                   orders of magnitude, per call, timed in
                                   fresh processes
    parametric_family_build_ms     one ``family_5051(101)``, timed in
                                   fresh processes (see below)
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
                                   axioms (A1 aside), timed in fresh
                                   processes
    c4_body_s                      the body of the acceptance test
                                   ``test_c4_axiom_necessity_suite``
    order_ms                       one reflexive call of a tolerance order on
                                   the grid-9 urn ``model_5051``: the
                                   ``urn_parametric`` sizes (24 ambiguity and
                                   16 filtering samples) and the three
                                   500-sample orders of the acceptance test
                                   ``test_c7_comparatives_coherence``,
                                   timed in fresh processes
    order_values_calls             the ``ambicap.model._values`` calls of
                                   the 500-sample ea order of c7, counted by
                                   wrapping the function in this script
    c7_shares_ms                   the 2 000-pair
                                   ``shares_optimal_perception_detail``
                                   loop of that acceptance test, timed in
                                   fresh processes
    cost_estimate_ms               one ``estimate_cost_star`` as the
                                   ``identify`` workload sizes it: each of
                                   the 25 members of ``model_5051`` and
                                   ``model_reflection`` at grid 5 with the
                                   standard bets, mean per estimate, timed
                                   in fresh processes
    canonical_audit_ms             one ``check_canonical`` on ``family_5051``
                                   and ``family_reflection`` at grids 5, 7,
                                   9 and 11, timed in fresh processes
    core_ms                        one ``estimate_multi_meu_core`` as the
                                   ``identify`` workload sizes it: 50
                                   samples on the grid-9 urn ``model_5051``,
                                   timed in fresh processes
    core_values_calls              the ``ambicap.model._values`` calls of
                                   that ``core_ms`` call, counted by
                                   wrapping the function in this script

A row timed in fresh processes is the median over processes, each
importing the ``ambicap`` this script imports, of each one's best of
``--repeats`` calls, with the quartiles, in the row's unit: in one long
process the best of 5 spreads up to 2x on unchanged code, depending on
what ran before it, and some rows read two speeds across processes.  Each
process times the family build first, then the three identification rows,
each after a warm-up call, then the other rows.  Only ``c4_body_s`` and
the counts run in this process.

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
    Lottery,
    StateSpace,
    UtilityAct,
    check_axiom,
    check_canonical,
    estimate_cost_star,
    estimate_multi_meu_core,
    evaluate,
    evaluate_many,
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
from ambicap.axioms import _AXIOM_TABLE
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


def warm_best_ms(repeats: int, fn) -> float:
    """Least wall time of ``repeats`` calls of ``fn`` after a warm-up call,
    in ms."""
    fn()
    return best_of(repeats, fn) * 1e3


def model_calls(name: str, fn) -> int:
    """Calls of ``ambicap.model``'s function ``name`` made by ``fn()``,
    counted by wrapping the function in its module for the call."""
    original, calls = getattr(ambicap.model, name), 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    setattr(ambicap.model, name, counted)
    try:
        fn()
    finally:
        setattr(ambicap.model, name, original)
    return calls


def fresh(call: str, processes: int) -> dict:
    """Median and quartiles, over ``processes`` fresh processes that import
    the ``ambicap`` this script imports, of each timing in the nested dict
    that ``call``, an expression over this module's names, returns."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join((str(Path(ambicap.__file__).parents[1]), str(here), os.environ.get("PYTHONPATH", "")))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-c", f"import json; from bench_layers import *; print(json.dumps({call}))"]
    runs = [
        json.loads(subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(processes)
    ]

    def summary(values):
        if isinstance(values[0], dict):
            return {key: summary([value[key] for value in values]) for key in values[0]}
        low, _, high = statistics.quantiles(values, n=4)
        return {"processes": processes, "median": statistics.median(values), "quartiles": [low, high]}

    return summary(runs)


def family_build_ms(repeats: int) -> dict:
    """ms per ``family_5051(101)``, in this process."""
    return {"parametric_family_build_ms": warm_best_ms(repeats, lambda: family_5051(101))}


def finite_model():
    """The 4-state finite ``cap`` model of the finite rows."""
    return random_cap_model(StateSpace(["s0", "s1", "s2", "s3"]), np.random.default_rng(5), "cap")


def finite_evaluation(repeats: int, n_lotteries: int) -> dict:
    model = finite_model()
    sampler = LotterySampler(model.states, seed=1)
    lotteries = [sampler.lottery() for _ in range(n_lotteries)]
    probs, payoffs = stack_lotteries([(P.probs, P.payoff_matrix) for P in lotteries], len(model.states))
    single = best_of(repeats, lambda: [evaluate_value(model, P) for P in lotteries])
    batched = best_of(repeats, lambda: evaluate_values(model, probs, payoffs))
    return {
        "finite_evaluate_value_us": single / n_lotteries * 1e6,
        "finite_kernel_per_lottery_us": batched / n_lotteries * 1e6,
    }


def sampler_draws(repeats: int, n_lotteries: int) -> float:
    """us per ``draw_lottery`` on 4 states, one sampler across repeats."""
    sampler = LotterySampler(StateSpace(["s0", "s1", "s2", "s3"]), seed=3)
    return best_of(repeats, lambda: [sampler.draw_lottery() for _ in range(n_lotteries)]) / n_lotteries * 1e6


def sampler_chunk(repeats: int, n_chunks: int) -> float:
    """us per trial of a 64-trial chunk of the timing draw of ``A3-aepr``
    on 4 states, one sampler across repeats."""
    states = StateSpace(["s0", "s1", "s2", "s3"])
    model, draw = random_cap_model(states, np.random.default_rng(5), "cap"), _AXIOM_TABLE["A3-aepr"][0]
    sampler = LotterySampler(states, seed=3)
    return best_of(repeats, lambda: [draw(model, sampler, 64) for _ in range(n_chunks)]) / (64 * n_chunks) * 1e6


def urn_batch(variant: str, n_lotteries: int):
    """The grid-11 urn ``model_5051`` and ``n_lotteries`` lotteries of
    sampler seed 2, as a list and stacked."""
    model = model_5051(11, variant)
    sampler = LotterySampler(model.states, seed=2)
    lotteries = [sampler.lottery() for _ in range(n_lotteries)]
    probs, payoffs = stack_lotteries([(P.probs, P.payoff_matrix) for P in lotteries], len(model.states))
    return model, lotteries, probs, payoffs


def parametric_evaluation(repeats: int, n_lotteries: int) -> dict:
    kernel, single, listed = {}, {}, {}
    for variant in ("cap", "cautious"):
        model, lotteries, probs, payoffs = urn_batch(variant, n_lotteries)
        batched = best_of(repeats, lambda: evaluate_values(model, probs, payoffs))
        kernel[variant] = batched / n_lotteries * 1e6
        fine = model_5051(101, variant)
        lotteries = lotteries[: max(1, n_lotteries // 10)]
        calls = best_of(repeats, lambda: [evaluate_value(fine, P) for P in lotteries])
        single[variant] = calls / len(lotteries) * 1e6
        calls = best_of(repeats, lambda: [evaluate(fine, P) for P in lotteries])
        listed[variant] = calls / len(lotteries) * 1e6
    return {
        "parametric_kernel_per_lottery_us": kernel,
        "parametric_evaluate_value_us": single,
        "parametric_evaluate_us": listed,
    }


def tied_and_mixed_evaluation(repeats: int, n_calls: int) -> dict:
    """us per ``evaluate`` of the tied red bet at grids 11 and 101, and per
    ``evaluate_many`` of the mixed-magnitude batch, in this process."""
    red = Lottery.dirac(UtilityAct(STATES_4, [101.0, 0.0, 0.0, 0.0]))
    tied = {}
    for grid in (11, 101):
        model = model_5051(grid)
        tied[f"grid{grid}"] = best_of(repeats, lambda: [evaluate(model, red) for _ in range(n_calls)]) / n_calls * 1e6
    model = model_5051(11)
    batch = [Lottery.dirac(UtilityAct(STATES_4, [10101.0002, 10000.0, 9000.0, 9000.0])), Lottery.constant(STATES_4, 0.5)]
    probs, payoffs = stack_lotteries([(P.probs, P.payoff_matrix) for P in batch], len(STATES_4))
    mixed = best_of(repeats, lambda: [evaluate_many(model, probs, payoffs) for _ in range(n_calls)]) / n_calls * 1e6
    return {"tied_bet_evaluate_us": tied, "mixed_batch_evaluate_many_us": mixed}


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
        "grid11_cap_batch": model_calls("_parametric_lp_max", lambda: evaluate_values(model, probs, payoffs)),
        "c7_grid": grid,
        "c7_samples": c7_samples,
        "c7_orders": model_calls("_parametric_lp_max", c7_orders),
    }


def evaluate_lp_solves(grid: int, n_pairs: int, core_grid: int, core_samples: int) -> dict:
    """LP solves of the ``c7_shares`` loop and of the ``core_ms`` call."""
    return {
        "c7_grid": grid,
        "c7_pairs": n_pairs,
        "c7_shares": model_calls("_parametric_lp_max", lambda: c7_shares(grid, n_pairs)),
        "core_grid": core_grid,
        "core_samples": core_samples,
        "core": model_calls("_parametric_lp_max", core_call(core_grid, core_samples)),
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
        "op_ambiguity": ms(more_tolerant_ambiguity, 1, op_samples[0]),
        "op_filtering": ms(higher_filtering_incentives, 2, op_samples[1]),
        "c7_ea_randomization": ms(more_tolerant_ea_randomization, 0, c7_samples),
        "c7_ambiguity": ms(more_tolerant_ambiguity, 1, c7_samples),
        "c7_filtering": ms(higher_filtering_incentives, 2, c7_samples),
    }


def ea_order_call(grid: int, samples: int):
    """The c7 ea order: reflexive on ``model_5051(grid)``, sampler seed 0."""
    model = model_5051(grid)
    return lambda: more_tolerant_ea_randomization(model, model, LotterySampler(model.states, seed=0), samples)


def process_timings(
    repeats: int, n_lotteries: int, trials: int, grid: int, op_samples: tuple, c7_samples: int, c7_pairs: int
) -> dict:
    """The evaluator, sampler, axiom, order and c7 shares timings, in this
    process."""
    return {
        **finite_evaluation(repeats, n_lotteries),
        "sampler_draw_lottery_us": sampler_draws(repeats, n_lotteries),
        "sampler_chunk_per_trial_us": sampler_chunk(repeats, max(1, n_lotteries // 64)),
        **parametric_evaluation(repeats, n_lotteries // 10),
        **tied_and_mixed_evaluation(repeats, max(1, n_lotteries // 20)),
        "check_axiom_ms": axiom_ops(repeats, trials),
        "order_ms": order_ops(repeats, grid, op_samples, c7_samples),
        "c7_shares_ms": best_of(repeats, lambda: c7_shares(grid, c7_pairs)) * 1e3,
    }


def urn_members(grid: int) -> list:
    """(model, member) of every grid point of both urns at ``grid``."""
    return [
        (model, model.family.member_at(theta))
        for model in (model_5051(grid), model_reflection(grid))
        for theta in model.family.thetas
    ]


def core_call(grid: int, samples: int):
    """The ``core_ms`` call: ``estimate_multi_meu_core`` on the urn at
    ``grid``, sampler seed 0."""
    model = model_5051(grid)
    return lambda: estimate_multi_meu_core(model, LotterySampler(model.states, seed=0), samples)


def identification_ms(repeats: int, estimate_grid: int, grids: list, core_grid: int, core_samples: int) -> dict:
    """ms per cost estimate of the urn members at ``estimate_grid``, per
    canonical audit of each stock family and grid, and per multi-MEU core
    call, in this process."""
    dictionary = standard_bet_dictionary(STATES_4)
    members = urn_members(estimate_grid)
    estimates = warm_best_ms(repeats, lambda: [estimate_cost_star(m, M, dictionary, 5000) for m, M in members])
    audits = {}
    for make in (family_5051, family_reflection):
        for grid in grids:
            family = make(grid)
            audits[f"{make.__name__}_{grid}"] = warm_best_ms(repeats, lambda: check_canonical(family))
    return {
        "cost_estimate_ms": estimates / len(members),
        "canonical_audit_ms": audits,
        "core_ms": warm_best_ms(repeats, core_call(core_grid, core_samples)),
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
    processes = 2 if args.tiny else 9
    # one call times every fresh-process row, each process in this order
    timed = fresh(
        f"family_build_ms({args.repeats})"
        f" | identification_ms({args.repeats}, {estimate_grid}, {list(audit_grids)}, {core_grid}, {core_samples})"
        f" | process_timings({args.repeats}, {n_lotteries}, {trials}, {order_grid}, {order_samples}, {c7_samples}, {c7_pairs})",
        processes,
    )
    rows = (
        "finite_evaluate_value_us",
        "finite_kernel_per_lottery_us",
        "sampler_draw_lottery_us",
        "sampler_chunk_per_trial_us",
        "parametric_kernel_per_lottery_us",
        "parametric_evaluate_value_us",
        "parametric_evaluate_us",
        "tied_bet_evaluate_us",
        "mixed_batch_evaluate_many_us",
        "parametric_family_build_ms",
        "check_axiom_ms",
    )
    run = {
        "repeats": args.repeats,
        "members": len(finite_model().family),
        "lotteries": n_lotteries,
        **{row: timed[row] for row in rows},
        "check_axiom_trials": trials,
        "c4_body_s": best_of(args.repeats, lambda: c4_body(c4_models, c4_trials)),
        "c4_models": c4_models,
        "c4_trials": c4_trials,
        "parametric_lp_solves": parametric_lp_solves(n_lotteries // 10, order_grid, c7_samples),
        "evaluate_lp_solves": evaluate_lp_solves(order_grid, c7_pairs, core_grid, core_samples),
        "order_ms": {
            "grid": order_grid,
            "op_samples": list(order_samples),
            "c7_samples": c7_samples,
            **timed["order_ms"],
        },
        "order_values_calls": {
            "grid": order_grid,
            "samples": c7_samples,
            "calls": model_calls("_values", ea_order_call(order_grid, c7_samples)),
        },
        "c7_shares_ms": {"grid": order_grid, "pairs": c7_pairs, **timed["c7_shares_ms"]},
        "cost_estimate_ms": {"grid": estimate_grid, "estimates": len(urn_members(estimate_grid)), **timed["cost_estimate_ms"]},
        "canonical_audit_ms": timed["canonical_audit_ms"],
        "core_ms": {"grid": core_grid, "samples": core_samples, **timed["core_ms"]},
        "core_values_calls": {
            "grid": core_grid,
            "samples": core_samples,
            "calls": model_calls("_values", core_call(core_grid, core_samples)),
        },
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
