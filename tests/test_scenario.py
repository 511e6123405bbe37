"""Scenario files: loading, validation errors, execution, determinism."""

import textwrap

import numpy as np
import pytest
import yaml

import ambicap.comparatives
from ambicap import (
    ScenarioError,
    builtin_machina_suite,
    bundled_scenario_paths,
    load_scenario,
    run_queries,
    scenario_from_dict,
)
from ambicap.model import serialize_lottery
from ambicap.sampling import LotterySampler
from ambicap.scenario import _parse_affine, _parse_number


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


MINIMAL = """
name: minimal
states: [a, b]
acts:
  f: [10, 0]
  g: ["1/2", 0]
families:
  m:
    kind: finite
    members:
      - vertices: [["1/2", "1/2"]]
        cost: 0
models:
  main: {family: m, variant: cap}
queries:
  - {kind: evaluate, model: main, lottery: f, expect: {value: 5}}
"""


# A valid first query, then the query under test; defines a constant act
# and a one-parameter family for the checks that need them.
SECOND_QUERY = """
name: second
states: [a, b]
acts: {f: [10, 0], c: [3, 3]}
families:
  m: {kind: finite, members: [{vertices: [["1/2", "1/2"]], cost: 0}]}
  p: {kind: parametric, params: [t], grid_resolution: 3,
      vertices: [["1/2 - 1/2*t", "1/2 + 1/2*t"], ["1/2 + 1/2*t", "1/2 - 1/2*t"]]}
models: {main: {family: m, variant: cap}, pm: {family: p, variant: cap}}
queries:
  - {kind: evaluate, model: main, lottery: f, expect: {value: 5}}
  - %s
"""

COST = "kind: identify, model: main, member: {family: m, index: 0}"


class TestParsers:
    def test_rational_numbers(self):
        assert _parse_number("50/101", "x") == pytest.approx(50.0 / 101.0, abs=0)
        assert _parse_number("0.25", "x") == 0.25
        assert _parse_number(3, "x") == 3.0
        with pytest.raises(ScenarioError):
            _parse_number("fifty", "x")
        with pytest.raises(ScenarioError):
            _parse_number(True, "x")

    def test_affine_expressions(self):
        const, coefs = _parse_affine("50 - 25*beta - 25*gamma", ("beta", "gamma"), "x")
        assert const == 50.0 and coefs == [-25.0, -25.0]
        const, coefs = _parse_affine("25/101 + 25/101*beta", ("beta",), "x")
        assert const == pytest.approx(25 / 101, abs=0)
        assert coefs[0] == pytest.approx(25 / 101, abs=0)
        const, coefs = _parse_affine("beta", ("beta", "gamma"), "x")
        assert const == 0.0 and coefs == [1.0, 0.0]
        const, coefs = _parse_affine("-beta + beta", ("beta",), "x")
        assert coefs == [0.0]
        const, coefs = _parse_affine(0.75, ("beta",), "x")
        assert const == 0.75 and coefs == [0.0]

    def test_affine_rejects_unknown_names(self):
        with pytest.raises(ScenarioError, match="delta"):
            _parse_affine("2*delta", ("beta",), "x")
        with pytest.raises(ScenarioError):
            _parse_affine("beta*beta*beta", ("beta",), "x")
        with pytest.raises(ScenarioError):
            _parse_affine("", ("beta",), "x")


class TestLoading:
    def test_minimal_scenario(self, tmp_path):
        scenario = load_scenario(_write(tmp_path, MINIMAL))
        assert scenario.name == "minimal"
        assert len(scenario.states) == 2
        assert scenario.acts["g"].payoffs[0] == pytest.approx(0.5, abs=0)
        report = run_queries(scenario)
        assert report.exit_code == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.yaml")

    def test_yaml_parse_error(self, tmp_path):
        path = _write(tmp_path, "states: [a, b\nacts: {")
        with pytest.raises(ScenarioError, match="parse error"):
            load_scenario(path)

    @pytest.mark.parametrize("path", bundled_scenario_paths(), ids=lambda p: p.stem)
    def test_loader_in_use_parses_like_safe_load(self, path, monkeypatch):
        # libyaml's CSafeLoader when PyYAML has it, else SafeLoader
        loaders, load = [], yaml.load
        monkeypatch.setattr(yaml, "load", lambda text, Loader: loaders.append(Loader) or load(text, Loader))
        load_scenario(path)
        assert loaders == [yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader]
        text = path.read_text()
        assert load(text, Loader=loaders[0]) == yaml.safe_load(text)

    def test_utility_table_lookup(self, tmp_path):
        text = MINIMAL.replace(
            "acts:\n  f: [10, 0]",
            "utility_table: {win: 10}\nacts:\n  f: [win, 0]",
        )
        scenario = load_scenario(_write(tmp_path, text))
        assert scenario.acts["f"].payoffs[0] == 10.0

    @pytest.mark.parametrize(
        "breakage, path_fragment",
        [
            ("states: [a]", "states"),
            ("f: [10, 0, 3]", "acts.f"),
            ("f: [ten, 0]", "acts.f[0]"),
            ("lottery: f,", "queries[0].lottery"),
            ("model: main,", "queries[0].model"),
            ("kind: evaluate", "queries[0].kind"),
            ("variant: cap", "models.main.variant"),
            ("family: m,", "models.main.family"),
            ("{kind: evaluate, model: main, lottery: f, expect: {value: abc}}",
             "queries[1].expect.value"),
            ("{kind: compare, model: main, better: f, worse: f, margin: abc}",
             "queries[1].margin"),
            ("{kind: identify, model: main, member: {family: m, index: 7}}",
             "queries[1].member.index"),
            ("{%s, dictionary: [nope]}" % COST, "queries[1].dictionary[0]"),
            ("{%s, dictionary: [c]}" % COST, "queries[1].dictionary[0]"),
            ("{kind: identify, model: pm, member: {family: p, theta: [2]}}",
             "queries[1].member.theta"),
            ("{kind: identify, model: pm, member: {family: p, theta: [0.5, 0.5]}}",
             "queries[1].member.theta"),
            ("{kind: axioms, model: main, trials: abc}", "queries[1].trials"),
            ("{kind: axioms, model: main, seed: x}", "queries[1].seed"),
            ("{%s, budget: many}" % COST, "queries[1].budget"),
            ("{kind: evaluate, model: main, lottery: f, expect: {optimal_contains: 3}}",
             "queries[1].expect.optimal_contains"),
            ("{kind: identify, mode: core, model: main, samples: -4}", "queries[1].samples"),
            ("{kind: axioms, model: main, trails: 50}", "queries[1].trails"),
            ("grid_resolution: abc", "families.p.grid_resolution"),
            ("grid_resolutoin: 3", "families.p.grid_resolutoin"),
            ("varient: cautious", "models.main.varient"),
            ("cots: 0", "families.m.members[0].cots"),
            ("querys: []", "querys"),
            ("{kind: machina_property, family: m}", "queries[1].family"),
        ],
    )
    def test_path_precise_errors(self, tmp_path, breakage, path_fragment):
        replacements = {
            "states: [a]": ("states: [a, b]", "states: [a]"),
            "f: [10, 0, 3]": ("f: [10, 0]", "f: [10, 0, 3]"),
            "f: [ten, 0]": ("f: [10, 0]", "f: [ten, 0]"),
            "lottery: f,": ("lottery: f,", "lottery: missing,"),
            "model: main,": ("model: main,", "model: missing,"),
            "kind: evaluate": ("kind: evaluate", "kind: frobnicate"),
            "variant: cap": ("variant: cap", "variant: optimist"),
            "family: m,": ("family: m,", "family: missing,"),
            "grid_resolution: abc": ("grid_resolution: 3", "grid_resolution: abc"),
            "grid_resolutoin: 3": ("grid_resolution: 3", "grid_resolutoin: 3"),
            "varient: cautious": ("variant: cap", "varient: cautious"),
            "cots: 0": ("cost: 0", "cots: 0"),
            "querys: []": ("queries:", "querys: []\nqueries:"),
        }
        if breakage in replacements:
            old, new = replacements[breakage]
            valid = SECOND_QUERY % "{kind: evaluate, model: pm, lottery: f}"
            text = (MINIMAL if old in MINIMAL else valid).replace(old, new)
        else:
            text = SECOND_QUERY % breakage
        path = _write(tmp_path, text)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert path_fragment in err.value.path

    def test_non_grounded_family_rejected(self, tmp_path):
        text = MINIMAL.replace("cost: 0", "cost: 3")
        with pytest.raises(ScenarioError, match="families.m"):
            load_scenario(_write(tmp_path, text))

    def test_vertex_rows_must_be_distributions(self, tmp_path):
        text = MINIMAL.replace('[["1/2", "1/2"]]', '[["1/2", "1/3"]]')
        with pytest.raises(ScenarioError, match="families.m.members"):
            load_scenario(_write(tmp_path, text))

    def test_grid_override(self, tmp_path):
        text = """
        name: parametric
        states: [a, b]
        acts: {f: [10, 0]}
        families:
          m:
            kind: parametric
            params: [t]
            grid_resolution: 11
            cost: "1 - t"
            vertices:
              - ["1/2 - 1/2*t", "1/2 + 1/2*t"]
              - ["1/2 + 1/2*t", "1/2 - 1/2*t"]
        models:
          main: {family: m, variant: cap}
        queries:
          - {kind: evaluate, model: main, lottery: f}
        """
        scenario = load_scenario(_write(tmp_path, text), grid_resolution=4)
        assert scenario.families["m"].grid_resolution == 4

    def test_unknown_axiom_in_query(self, tmp_path):
        text = MINIMAL.replace(
            "- {kind: evaluate, model: main, lottery: f, expect: {value: 5}}",
            "- {kind: axioms, model: main, axioms: [A9-novel]}",
        )
        with pytest.raises(ScenarioError, match="queries"):
            load_scenario(_write(tmp_path, text))


class TestExecution:
    def test_expect_failure_sets_exit_one(self, tmp_path):
        text = MINIMAL.replace("expect: {value: 5}", "expect: {value: 6}")
        report = run_queries(load_scenario(_write(tmp_path, text)))
        assert report.exit_code == 1
        assert report.results[0].status == "expect-failed"
        assert "value" in report.results[0].message

    def test_error_query_keeps_going(self, tmp_path):
        text = """
        name: resilient
        states: [a, b]
        acts: {f: [10, 0]}
        families:
          m: {kind: finite, members: [{vertices: [["1/2", "1/2"]], cost: 0}]}
        models:
          main: {family: m, variant: dual_self}
        queries:
          - {kind: comparatives, which: more_tolerant_ambiguity,
             model1: main, model2: main, samples: 5}
          - {kind: evaluate, model: main, lottery: f, expect: {value: 5}}
        """
        report = run_queries(load_scenario(_write(tmp_path, text)))
        assert report.exit_code == 3
        assert [r.status for r in report.results] == ["error", "ok"]
        assert report.results[0].message

    def test_dominates_reports_contradictions(self, tmp_path, monkeypatch):
        # the second family's value beats the first's on every sample
        def values(model, probs, payoffs):
            calls.append(model)
            return np.full(len(probs), float(len(calls) - 1))

        calls = []
        monkeypatch.setattr(ambicap.comparatives, "evaluate_values", values)
        query = "{kind: comparatives, which: dominates_benefit, family1: m, family2: m, samples: 3, seed: 5}"
        scenario = load_scenario(_write(tmp_path, SECOND_QUERY % query))
        data = run_queries(scenario).results[1].data
        sampler = LotterySampler(scenario.states, seed=5)
        lotteries = [serialize_lottery(sampler.lottery()) for _ in range(3)]
        assert data == {"holds": True, "contradictions": [{"P": P, "gap": -1.0} for P in lotteries]}

    def test_machine_report_is_deterministic(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        a = run_queries(load_scenario(path)).to_machine()
        b = run_queries(load_scenario(path)).to_machine()
        assert a == b
        assert '"duration"' not in a and "duration_s" not in a

    def test_human_report_includes_timing_and_summary(self, tmp_path):
        report = run_queries(load_scenario(_write(tmp_path, MINIMAL)))
        text = report.to_human()
        assert "s)" in text and "exit 0" in text

    def test_kind_filter(self, tmp_path):
        report = run_queries(
            load_scenario(_write(tmp_path, MINIMAL)), kinds=("compare",)
        )
        assert report.results == []
        assert report.exit_code == 0

    def test_seed_override_is_deterministic(self, tmp_path):
        text = MINIMAL.replace(
            "- {kind: evaluate, model: main, lottery: f, expect: {value: 5}}",
            "- {kind: axioms, model: main, trials: 30, seed: 5}",
        )
        path = _write(tmp_path, text)
        a = run_queries(load_scenario(path), seed_override=9).to_machine()
        b = run_queries(load_scenario(path), seed_override=9).to_machine()
        assert a == b


class TestRoundTrip:
    def test_serialize_load_idempotent(self, tmp_path):
        for path in bundled_scenario_paths():
            scenario = load_scenario(path)
            dumped = yaml.safe_dump(scenario.to_dict())
            reloaded = scenario_from_dict(
                yaml.safe_load(dumped), name_hint=scenario.name
            )
            assert reloaded.name == scenario.name
            assert reloaded.acts.keys() == scenario.acts.keys()
            assert run_queries(reloaded).to_machine() == run_queries(
                scenario
            ).to_machine()


class TestBundledScenarios:
    def test_five_scenarios_ship(self):
        assert len(bundled_scenario_paths()) == 5

    def test_every_bundled_scenario_passes(self):
        for path in bundled_scenario_paths():
            report = run_queries(load_scenario(path))
            assert report.exit_code == 0, (
                path.name,
                [(r.name, r.status, r.message) for r in report.results],
            )

    def test_builtin_suite_aggregates(self):
        report = builtin_machina_suite()
        assert report.exit_code == 0
        assert report.scenario == "builtin-machina-suite"
        assert len(report.results) == 33
