"""The benchmark's four workloads.

Each builder takes the freshly imported package (``api``, one attribute per
module), the run's seed and a ``tiny`` flag for the benchmark's own smoke
tests, and returns a plan.  Building the plan is the workload's set-up;
``plan.round(r)`` lists the ops of round ``r``.  An op calls into the
package through module attributes looked up at call time, so the traced
run sees every call.  Every op's output is checked; ``final_failures``
adds the checks that are made over a whole run.

All inputs come from the seed: random models, sampler seeds, member order.
The same seed and round give the same ops, which the traced run relies on
to replay the untraced rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

NECESSITY_AXIOMS = ("A2-FSD", "A3-aepr", "A4-imtc", "A5-eaar", "A6-ica")
SEPARATION_SEARCHES = (("urn_5051", "A-sica"), ("urn_5051", "A-imt"), ("reflection", "A-imt"))
COST_BAND = (0.5, 1e-3)  # estimate must lie in [true - 0.5, true + 1e-3]
SHARES_MIN_AGREEMENT = 0.999


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # a failure message, or None


def op_seed(seed: int, r: int, i: int) -> int:
    return (seed * 1_000_003 + r * 1_009 + i) % (2**63)


# -- checks ---------------------------------------------------------------


def holds_check(trials: int):
    def check(report):
        if not report.holds:
            return f"{report.axiom_id} violated: {report.counterexample}"
        if report.trials != trials:
            return f"{report.axiom_id} ran {report.trials} trials, not {trials}"
        return None
    return check


def separation_check(api, model, axiom_id):
    def check(report):
        if report.holds or report.counterexample is None:
            return f"no {axiom_id} witness in {report.trials} trials"
        still, magnitude = api.axioms.recheck_witness(model, axiom_id, report.counterexample, 1e-8)
        if not still:
            return f"{axiom_id} witness does not recheck at 1e-8 ({magnitude})"
        return None
    return check


def verdict_check(samples: int):
    def check(verdict):
        if not verdict.holds:
            return f"reflexive order failed: {verdict.counterexample}"
        if verdict.samples_used != samples:
            return f"used {verdict.samples_used} samples, not {samples}"
        return None
    return check


def cost_band_check(true_cost: float):
    def check(estimate):
        lo, hi = true_cost - COST_BAND[0], true_cost + COST_BAND[1]
        if not lo <= estimate.value <= hi:
            return f"cost estimate {estimate.value} outside [{lo}, {hi}]"
        return None
    return check


def canonical_check(report):
    if not report.canonical or report.hull_gaps:
        return (f"not canonical: {len(report.monotonicity_violations)} monotonicity, "
                f"{len(report.cost_convexity_violations)} convexity, {len(report.hull_gaps)} hull gaps")
    return None


def core_check(sets):
    return None if len(sets) >= 1 else "estimate_multi_meu_core returned no set"


# -- finite_axioms --------------------------------------------------------


class FiniteAxioms:
    """Necessity checks on random finite models of every variant."""

    STATE_COUNTS = (2, 3, 4)

    def __init__(self, api, seed: int, tiny: bool = False):
        self.api, self.seed = api, seed
        self.trials = 10 if tiny else 150
        per_cell = 1 if tiny else 6
        rng = np.random.default_rng(seed)
        self.models = []
        for variant in api.model.VARIANTS:
            for n in self.STATE_COUNTS:
                states = api.geometry.StateSpace([f"s{j}" for j in range(n)])
                for _ in range(per_cell):
                    self.models.append(api.sampling.random_cap_model(states, rng, variant=variant))
        # A1 stops at its first strict ranking, so it is not a fixed-size check.
        self.axioms = [
            [a for a in api.axioms.necessary_axioms(m) if a != "A1-nondegeneracy"]
            for m in self.models
        ]

    def round(self, r: int) -> list[Op]:
        ops = []
        for i, (model, axioms) in enumerate(zip(self.models, self.axioms)):
            axiom_id = axioms[(r + i) % len(axioms)]
            s = op_seed(self.seed, r, i)
            ops.append(Op(
                f"necessity:{model.variant}",
                lambda m=model, a=axiom_id, s=s: self.api.axioms.check_axiom(
                    m, a, self.api.sampling.LotterySampler(m.states, seed=s), self.trials),
                holds_check(self.trials),
            ))
        return ops

    def final_failures(self) -> list[str]:
        return []


# -- urn_parametric -------------------------------------------------------


class UrnParametric:
    """Necessity checks, separation searches and comparatives on the
    parametric urn models."""

    def __init__(self, api, seed: int, tiny: bool = False):
        self.api, self.seed = api, seed
        stock = api.stock
        grid = 5 if tiny else 11
        self.urns = {"urn_5051": stock.model_5051(grid), "reflection": stock.model_reflection(grid)}
        self.comparative_model = stock.model_5051(5 if tiny else 9)
        self.trials = 5 if tiny else 25
        self.search_trials = 400
        # Samples per reflexive order, sized so that each order costs about as
        # much as a necessity check: ea_randomization evaluates 11 to 22
        # lotteries per sample, the other two 2 to 4.
        self.order_samples = {
            "more_tolerant_ea_randomization": 2 if tiny else 6,
            "more_tolerant_ambiguity": 4 if tiny else 24,
            "higher_filtering_incentives": 4 if tiny else 16,
        }
        self.shares_pairs = 2 if tiny else 6
        self.shares = []  # (linear, intersects) per shares op

    def round(self, r: int) -> list[Op]:
        api, seed = self.api, self.seed
        axioms, comparatives, sampling = api.axioms, api.comparatives, api.sampling
        ops = []

        def sampler(model):
            return sampling.LotterySampler(model.states, seed=op_seed(seed, r, len(ops)))

        for name, model in self.urns.items():
            for axiom_id in NECESSITY_AXIOMS:
                ops.append(Op(
                    f"necessity:{name}",
                    lambda m=model, a=axiom_id, smp=sampler(model): axioms.check_axiom(m, a, smp, self.trials),
                    holds_check(self.trials),
                ))
        for name, axiom_id in SEPARATION_SEARCHES:
            model = self.urns[name]
            ops.append(Op(
                f"separation:{name}:{axiom_id}",
                lambda m=model, a=axiom_id, smp=sampler(model): axioms.check_axiom(m, a, smp, self.search_trials),
                separation_check(api, model, axiom_id),
            ))
        model = self.comparative_model
        for order, n in self.order_samples.items():
            ops.append(Op(
                f"order:{order}",
                lambda m=model, o=order, n=n, smp=sampler(model): getattr(comparatives, o)(m, m, smp, n),
                verdict_check(n),
            ))
        for _ in range(self.shares_pairs):
            ops.append(Op(
                "shares_pair",
                lambda m=model, smp=sampler(model): comparatives.shares_optimal_perception_detail(m, *smp.pair()),
                self._record_shares,
            ))
        return ops

    def _record_shares(self, result):
        linear, intersects = result
        if not (isinstance(linear, bool) and isinstance(intersects, bool)):
            return f"shares_optimal_perception_detail returned {result!r}"
        self.shares.append((linear, intersects))
        return None

    def final_failures(self) -> list[str]:
        """Linearity and argmax may disagree on at most 0.1 % of pairs; past
        that, every disagreeing pair counts as a failed op."""
        disagree = sum(linear != intersects for linear, intersects in self.shares)
        if self.shares and 1.0 - disagree / len(self.shares) < SHARES_MIN_AGREEMENT:
            return [f"linearity and argmax disagree on {disagree} of {len(self.shares)} pairs"] * disagree
        return []


# -- identify -------------------------------------------------------------


class Identify:
    """Cost estimates on the urn members, canonical audits and the multi-MEU
    core."""

    def __init__(self, api, seed: int, tiny: bool = False):
        self.api, self.seed = api, seed
        stock, identification = api.stock, api.identification
        grid = 2 if tiny else 5
        self.members = []
        for model in (stock.model_5051(grid), stock.model_reflection(grid)):
            family = model.family
            for beta in np.linspace(0.0, 1.0, grid):
                for gamma in np.linspace(0.0, 1.0, grid):
                    theta = (float(beta), float(gamma))
                    self.members.append((model, family.member_at(theta), family.cost_at(theta)))
        self.order = np.random.default_rng(seed).permutation(len(self.members)).tolist()
        self.dictionary = identification.standard_bet_dictionary(stock.STATES_4)
        audit_grid = 3 if tiny else 5
        self.audit_families = (stock.family_5051(audit_grid), stock.family_reflection(audit_grid))
        self.core_model = stock.model_5051(5 if tiny else 9)
        self.estimates_per_round = 1 if tiny else 4
        self.core_samples = 10 if tiny else 50

    def round(self, r: int) -> list[Op]:
        identification = self.api.identification
        k = self.estimates_per_round
        ops = []
        for j in range(k):
            model, member, cost = self.members[self.order[(r * k + j) % len(self.members)]]
            ops.append(Op(
                "cost_estimate",
                lambda m=model, M=member: identification.estimate_cost_star(m, M, self.dictionary, 5000),
                cost_band_check(cost),
            ))
        for family in self.audit_families:
            ops.append(Op("canonical_audit", lambda f=family: identification.check_canonical(f), canonical_check))
        smp = self.api.sampling.LotterySampler(self.core_model.states, seed=op_seed(self.seed, r, len(ops)))
        ops.append(Op(
            "multi_meu_core",
            lambda: identification.estimate_multi_meu_core(self.core_model, smp, self.core_samples),
            core_check,
        ))
        return ops

    def final_failures(self) -> list[str]:
        return []


# -- scenario_suite -------------------------------------------------------


class ScenarioSuite:
    """The CLI in process: ``suite`` and ``report`` on each bundled file."""

    def __init__(self, api, seed: int, tiny: bool = False):
        self.api, self.seed = api, seed
        scenario = api.scenario
        paths = scenario.bundled_scenario_paths()
        if not paths:
            raise RuntimeError("no bundled scenarios found")
        for path in paths:
            scenario.load_scenario(path)
        self.argvs = [["--format", "machine", "suite"]]
        self.argvs += [["--format", "machine", "report", str(p)] for p in paths]
        if tiny:
            self.argvs = self.argvs[1:3]
        self.first_output: dict[str, str] = {}

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.api.cli.main(argv)
        return code, out.getvalue()

    def _check(self, argv):
        key = " ".join(argv[2:])

        def check(result):
            code, text = result
            if code != 0:
                return f"{key}: exit code {code}"
            if json.loads(text)["exit_code"] != 0:
                return f"{key}: report exit_code is not 0"
            first = self.first_output.setdefault(key, text)
            if text != first:
                return f"{key}: machine report differs from the first run"
            return None
        return check

    def round(self, r: int) -> list[Op]:
        order = np.random.default_rng(op_seed(self.seed, r, 0)).permutation(len(self.argvs))
        return [
            Op(f"cli:{self.argvs[i][2]}", lambda a=self.argvs[i]: self._main(a), self._check(self.argvs[i]))
            for i in order
        ]

    def final_failures(self) -> list[str]:
        return []


WORKLOADS = {
    "finite_axioms": FiniteAxioms,
    "urn_parametric": UrnParametric,
    "identify": Identify,
    "scenario_suite": ScenarioSuite,
}
