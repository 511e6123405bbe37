"""Declarative scenario files and the query runner.

A scenario is a YAML mapping with states, optional consequence-to-util
table, named acts, named perception families (finite vertex lists or
parametric affine templates), named models, and an ordered query list.
Numbers may be written as exact rationals ("50/101"); parametric vertex
entries and costs are affine expressions in the declared parameters
("25/101 + 25/101*beta").

Queries run in order, each deterministic given its seed; the report has a
human rendering (with timings) and a canonical machine rendering that is
byte-identical across runs of the same scenario and seeds.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from .axioms import (
    AXIOM_IDS,
    check_axiom,
    machina_5051_dual_self_property,
    necessary_axioms,
)
from .comparatives import (
    dominates_benefit,
    higher_filtering_incentives,
    more_tolerant_ambiguity,
    more_tolerant_ea_randomization,
    perceptions_intersect,
    shares_optimal_perception_detail,
)
from .geometry import BeliefSet, StateSpace, UtilityAct
from .identification import (
    Dictionary,
    check_canonical,
    estimate_cost_star,
    estimate_multi_meu_core,
    normalize_act,
    standard_bet_dictionary,
)
from .model import CapModel, FiniteFamily, Lottery, ParametricFamily, VARIANTS, evaluate
from .sampling import LotterySampler

DEFAULT_EXPECT_TOL = 1e-6

_QUERY_KINDS = (
    "evaluate",
    "compare",
    "axioms",
    "identify",
    "comparatives",
    "machina_property",
)
_EXPECT_KEYS = (
    "tolerance",
    "value",
    "holds",
    "canonical",
    "is_lower_bound",
    "shares",
    "lower",
    "upper",
    "optimal_contains",
    "count_at_least",
)
_COMPARATIVES = (
    "more_tolerant_ea_randomization",
    "more_tolerant_ambiguity",
    "higher_filtering_incentives",
    "dominates_benefit",
    "shares_optimal_perception",
)


class ScenarioError(ValueError):
    """Validation failure with the offending path inside the file."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_NUM = r"\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM_RE = re.compile(
    rf"^(?:(?P<num>{_NUM})(?:\*(?P<name>{_NAME}))?"
    rf"|(?P<name2>{_NAME})(?:\*(?P<num2>{_NUM}))?)$"
)


def _parse_ratio(text: str, path: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        try:
            return float(text)
        except ValueError:
            raise ScenarioError(path, f"cannot parse number {text!r}") from None


def _parse_number(value, path: str) -> float:
    if isinstance(value, bool):
        raise ScenarioError(path, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return _parse_ratio(value.strip(), path)
    raise ScenarioError(path, f"expected a number, got {type(value).__name__}")


def _parse_affine(value, params: tuple[str, ...], path: str):
    """Affine expression in the parameters: returns (constant, coef list)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), [0.0] * len(params)
    text = str(value).replace(" ", "")
    if not text:
        raise ScenarioError(path, "empty expression")
    if text[0] not in "+-":
        text = "+" + text
    terms = re.findall(r"[+-][^+-]+", text)
    if "".join(terms) != text:
        raise ScenarioError(path, f"cannot parse affine expression {value!r}")
    const = 0.0
    coefs = dict.fromkeys(params, 0.0)
    for term in terms:
        m = _TERM_RE.match(term[1:])
        if m is None:
            raise ScenarioError(path, f"cannot parse term {term!r}")
        sign = 1.0 if term[0] == "+" else -1.0
        num = m.group("num") or m.group("num2")
        name = m.group("name") or m.group("name2")
        scale = _parse_ratio(num, path) if num else 1.0
        if name is None:
            const += sign * scale
        elif name in coefs:
            coefs[name] += sign * scale
        else:
            raise ScenarioError(path, f"unknown parameter {name!r} in {value!r}")
    return const, [coefs[p] for p in params]


@dataclass
class Scenario:
    """A validated scenario: every name resolvable, every object consistent."""

    name: str
    states: StateSpace
    utility_table: dict[str, float]
    acts: dict[str, UtilityAct]
    families: dict
    models: dict[str, CapModel]
    queries: list[dict]
    default_seed: int = 0
    source: dict = field(default_factory=dict, repr=False)
    lotteries: list[dict] = field(default_factory=list, repr=False)  # per query, by key

    def to_dict(self) -> dict:
        """Serializable form; reloading it yields an equal scenario."""
        return json.loads(json.dumps(self.source))


def _require_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _build_acts(states, raw, utility_table):
    acts = {}
    for name, entries in _require_map(raw, "acts").items():
        path = f"acts.{name}"
        if not isinstance(entries, list):
            raise ScenarioError(path, "expected a list of per-state payoffs")
        if len(entries) != len(states):
            raise ScenarioError(
                path, f"{len(entries)} payoffs for {len(states)} states"
            )
        payoffs = []
        for i, entry in enumerate(entries):
            if isinstance(entry, str) and entry in utility_table:
                payoffs.append(utility_table[entry])
            else:
                payoffs.append(_parse_number(entry, f"{path}[{i}]"))
        acts[name] = UtilityAct(states, payoffs)
    return acts


def _build_finite_family(states, spec, path):
    members_spec = spec.get("members")
    if not isinstance(members_spec, list) or not members_spec:
        raise ScenarioError(f"{path}.members", "expected a nonempty list")
    members = []
    for i, member in enumerate(members_spec):
        mpath = f"{path}.members[{i}]"
        member = _require_map(member, mpath)
        rows = member.get("vertices")
        if not isinstance(rows, list) or not rows:
            raise ScenarioError(f"{mpath}.vertices", "expected a nonempty list")
        matrix = [
            [_parse_number(x, f"{mpath}.vertices[{r}][{c}]") for c, x in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        cost = _parse_number(member.get("cost", 0.0), f"{mpath}.cost")
        try:
            members.append((BeliefSet(states, matrix), cost))
        except ValueError as exc:
            raise ScenarioError(mpath, str(exc)) from exc
    try:
        return FiniteFamily(members)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _build_parametric_family(states, spec, path, grid_override):
    params = spec.get("params")
    if not isinstance(params, list) or not params:
        raise ScenarioError(f"{path}.params", "expected a nonempty list of names")
    params = tuple(str(p) for p in params)
    grid = int(spec.get("grid_resolution", 11)) if grid_override is None else grid_override
    cost_base, cost_coefs = _parse_affine(spec.get("cost", 0.0), params, f"{path}.cost")
    rows = spec.get("vertices")
    if not isinstance(rows, list) or not rows:
        raise ScenarioError(f"{path}.vertices", "expected a nonempty list")
    V, n, k = len(rows), len(states), len(params)
    base = np.zeros((V, n))
    coefs = np.zeros((k, V, n))
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioError(
                f"{path}.vertices[{r}]", f"expected {n} per-state expressions"
            )
        for c, entry in enumerate(row):
            const, cvec = _parse_affine(entry, params, f"{path}.vertices[{r}][{c}]")
            base[r, c] = const
            coefs[:, r, c] = cvec
    try:
        return ParametricFamily(
            states, base, coefs, cost_base, cost_coefs, grid, param_names=params
        )
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _build_families(states, raw, grid_override):
    families = {}
    for name, spec in _require_map(raw, "families").items():
        path = f"families.{name}"
        spec = _require_map(spec, path)
        kind = spec.get("kind")
        if kind == "finite":
            families[name] = _build_finite_family(states, spec, path)
        elif kind == "parametric":
            families[name] = _build_parametric_family(states, spec, path, grid_override)
        else:
            raise ScenarioError(f"{path}.kind", "expected 'finite' or 'parametric'")
    return families


def _build_models(states, raw, families):
    models = {}
    for name, spec in _require_map(raw, "models").items():
        path = f"models.{name}"
        spec = _require_map(spec, path)
        fam_name = spec.get("family")
        if fam_name not in families:
            raise ScenarioError(f"{path}.family", f"undefined family {fam_name!r}")
        variant = spec.get("variant", "cap")
        if variant not in VARIANTS:
            raise ScenarioError(
                f"{path}.variant", f"unknown variant {variant!r}; expected {VARIANTS}"
            )
        try:
            models[name] = CapModel(states, families[fam_name], variant)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
    return models


def _validate_lottery_ref(scenario_acts, ref, path) -> Lottery:
    """The lottery a reference names; probabilities must be positive and
    sum to 1."""
    if isinstance(ref, str):
        if ref not in scenario_acts:
            raise ScenarioError(path, f"undefined act {ref!r}")
        return Lottery.dirac(scenario_acts[ref])
    if isinstance(ref, list) and ref:
        atoms = []
        for i, pair in enumerate(ref):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ScenarioError(f"{path}[{i}]", "expected [probability, act name]")
            prob = _parse_number(pair[0], f"{path}[{i}][0]")
            if pair[1] not in scenario_acts:
                raise ScenarioError(f"{path}[{i}][1]", f"undefined act {pair[1]!r}")
            atoms.append((prob, scenario_acts[pair[1]]))
        try:
            return Lottery(atoms)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
    raise ScenarioError(path, "expected an act name or [probability, act] pairs")


def _validate_query(scenario_parts, q, path) -> dict:
    """Check one query; returns the lotteries it names, by key."""
    states, acts, families, models = scenario_parts
    q = _require_map(q, path)
    kind = q.get("kind")
    if kind not in _QUERY_KINDS:
        raise ScenarioError(f"{path}.kind", f"unknown kind {kind!r}; expected {_QUERY_KINDS}")
    if "expect" in q:
        for key in _require_map(q["expect"], f"{path}.expect"):
            if key not in _EXPECT_KEYS:
                raise ScenarioError(f"{path}.expect.{key}", f"unknown expect key {key!r}")
    lotteries = {}

    def need_lottery(key):
        lotteries[key] = _validate_lottery_ref(acts, q.get(key), f"{path}.{key}")

    def need_model(key="model"):
        if q.get(key) not in models:
            raise ScenarioError(f"{path}.{key}", f"undefined model {q.get(key)!r}")

    def need_family(key="family"):
        if q.get(key) not in families:
            raise ScenarioError(f"{path}.{key}", f"undefined family {q.get(key)!r}")

    if kind == "evaluate":
        need_model()
        need_lottery("lottery")
    elif kind == "compare":
        need_model()
        need_lottery("better")
        need_lottery("worse")
    elif kind == "axioms":
        need_model()
        listed = q.get("axioms")
        if listed is not None:
            if not isinstance(listed, list):
                raise ScenarioError(f"{path}.axioms", "expected a list of axiom ids")
            for a in listed:
                if a not in AXIOM_IDS:
                    raise ScenarioError(f"{path}.axioms", f"unknown axiom id {a!r}")
    elif kind == "machina_property":
        need_family()
        if not isinstance(families[q["family"]], FiniteFamily):
            raise ScenarioError(f"{path}.family", "expected a finite family")
    elif kind == "identify":
        mode = q.get("mode", "cost")
        if mode not in ("cost", "canonical", "core"):
            raise ScenarioError(f"{path}.mode", f"unknown identify mode {mode!r}")
        if mode == "cost":
            need_model()
            member = _require_map(q.get("member"), f"{path}.member")
            fam = member.get("family")
            if fam not in families:
                raise ScenarioError(f"{path}.member.family", f"undefined family {fam!r}")
            if isinstance(families[fam], FiniteFamily):
                if not isinstance(member.get("index"), int):
                    raise ScenarioError(f"{path}.member.index", "expected an integer")
            elif not isinstance(member.get("theta"), list):
                raise ScenarioError(f"{path}.member.theta", "expected a parameter list")
        elif mode == "canonical":
            need_family()
        else:
            need_model()
    elif kind == "comparatives":
        which = q.get("which")
        if which not in _COMPARATIVES:
            raise ScenarioError(f"{path}.which", f"unknown comparative {which!r}")
        if which == "shares_optimal_perception":
            need_model()
            need_lottery("P")
            need_lottery("Q")
        elif which == "dominates_benefit":
            need_family("family1")
            need_family("family2")
        else:
            need_model("model1")
            need_model("model2")
    return lotteries


def load_scenario(path, *, grid_resolution=None, default_seed=None) -> Scenario:
    """Load and fully validate a scenario file."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(str(path), "file does not exist")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(str(path), f"parse error: {exc}") from exc
    return scenario_from_dict(
        raw, grid_resolution=grid_resolution, default_seed=default_seed,
        name_hint=path.stem,
    )


def scenario_from_dict(
    raw, *, grid_resolution=None, default_seed=None, name_hint="scenario"
) -> Scenario:
    raw = _require_map(raw, "scenario")
    labels = raw.get("states")
    if not isinstance(labels, list) or len(labels) < 2:
        raise ScenarioError("states", "expected a list of at least two labels")
    try:
        states = StateSpace(labels)
    except ValueError as exc:
        raise ScenarioError("states", str(exc)) from exc

    table_raw = raw.get("utility_table", {})
    utility_table = {
        str(k): _parse_number(v, f"utility_table.{k}")
        for k, v in _require_map(table_raw, "utility_table").items()
    }
    acts = _build_acts(states, raw.get("acts", {}), utility_table)
    families = _build_families(states, raw.get("families", {}), grid_resolution)
    models = _build_models(states, raw.get("models", {}), families)

    queries = raw.get("queries", [])
    if not isinstance(queries, list):
        raise ScenarioError("queries", "expected a list")
    lotteries = [
        _validate_query((states, acts, families, models), q, f"queries[{i}]")
        for i, q in enumerate(queries)
    ]

    seed = raw.get("seed", 0) if default_seed is None else default_seed
    return Scenario(
        name=str(raw.get("name", name_hint)),
        states=states,
        utility_table=utility_table,
        acts=acts,
        families=families,
        models=models,
        queries=list(queries),
        lotteries=lotteries,
        default_seed=int(seed),
        source=raw,
    )


@dataclass
class QueryResult:
    index: int
    kind: str
    name: str
    status: str  # ok | expect-failed | error
    data: dict
    expect: dict | None
    message: str | None
    duration_s: float


@dataclass
class Report:
    scenario: str
    results: list[QueryResult]

    @property
    def exit_code(self) -> int:
        codes = {"ok": 0, "expect-failed": 1, "error": 3}
        return max((codes[r.status] for r in self.results), default=0)

    def to_machine(self) -> str:
        """Canonical JSON: stable key order, no timings, lossless floats."""
        payload = {
            "scenario": self.scenario,
            "exit_code": self.exit_code,
            "results": [
                {
                    "index": r.index,
                    "kind": r.kind,
                    "name": r.name,
                    "status": r.status,
                    "data": r.data,
                    "expect": r.expect,
                    "message": r.message,
                }
                for r in self.results
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_human(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for r in self.results:
            head = f"[{r.status}] #{r.index} {r.kind}"
            if r.name:
                head += f" {r.name}"
            head += f" ({r.duration_s:.3f}s)"
            lines.append(head)
            if r.status == "error":
                lines.append(f"    error: {r.message}")
                continue
            for key, val in r.data.items():
                text = json.dumps(val) if isinstance(val, (list, dict)) else val
                lines.append(f"    {key}: {text}")
            if r.expect is not None:
                lines.append(f"    expect: {json.dumps(r.expect)} -> {r.status}")
        counts = {s: sum(1 for r in self.results if r.status == s) for s in
                  ("ok", "expect-failed", "error")}
        lines.append(
            f"{counts['ok']} ok, {counts['expect-failed']} expect-failed, "
            f"{counts['error']} errors; exit {self.exit_code}"
        )
        return "\n".join(lines)


def _jsonify(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


def _check_expect(data: dict, expect: dict, default_tol: float):
    failures = []
    tol = _parse_number(expect.get("tolerance", default_tol), "expect.tolerance")
    for key, want in expect.items():
        if key == "tolerance":
            continue
        if key == "value":
            want_v = _parse_number(want, "expect.value")
            if abs(data["value"] - want_v) > tol:
                failures.append(f"value {data['value']!r} != {want_v!r} (tol {tol})")
        elif key in ("holds", "canonical", "is_lower_bound", "shares"):
            got = data.get("holds" if key == "shares" else key)
            if got != bool(want):
                failures.append(f"{key} is {got}, expected {want}")
        elif key == "lower":
            if data["value"] < _parse_number(want, "expect.lower"):
                failures.append(f"value {data['value']!r} below {want!r}")
        elif key == "upper":
            if data["value"] > _parse_number(want, "expect.upper"):
                failures.append(f"value {data['value']!r} above {want!r}")
        elif key == "optimal_contains":
            for tag in want:
                if not perceptions_intersect(data["optimal_perceptions"], [tag]):
                    failures.append(f"optimal perceptions missing {tag!r}")
        elif key == "count_at_least":
            if data["count"] < int(want):
                failures.append(f"count {data['count']} below {want}")
    return failures


def _run_one_query(scenario: Scenario, q: dict, lotteries: dict, seed_override) -> dict:
    kind = q["kind"]
    seed = seed_override if seed_override is not None else q.get("seed", scenario.default_seed)

    if kind == "evaluate":
        model = scenario.models[q["model"]]
        res = evaluate(model, lotteries["lottery"])
        return {
            "value": res.value,
            "certainty_equivalent": res.certainty_equivalent,
            "optimal_perceptions": _jsonify(res.optimal_perceptions),
        }

    if kind == "compare":
        model = scenario.models[q["model"]]
        tol = _parse_number(q.get("margin", 1e-9), "compare.margin")
        v_better = evaluate(model, lotteries["better"]).value
        v_worse = evaluate(model, lotteries["worse"]).value
        return {
            "value_better": v_better,
            "value_worse": v_worse,
            "holds": bool(v_better > v_worse + tol),
        }

    if kind == "axioms":
        model = scenario.models[q["model"]]
        axiom_ids = q.get("axioms") or list(necessary_axioms(model))
        trials = int(q.get("trials", 1000))
        reports = []
        for axiom_id in axiom_ids:
            sampler = LotterySampler(scenario.states, seed=seed)
            reports.append(check_axiom(model, axiom_id, sampler, trials))
        return {
            "holds": all(r.holds for r in reports),
            "reports": [
                {
                    "axiom_id": r.axiom_id,
                    "holds": r.holds,
                    "trials": r.trials,
                    "counterexample": _jsonify(r.counterexample),
                }
                for r in reports
            ],
        }

    if kind == "machina_property":
        family = scenario.families[q["family"]]
        sampler = LotterySampler(scenario.states, seed=seed)
        rep = machina_5051_dual_self_property(list(family.sets), sampler)
        return {
            "holds": rep.holds,
            "trials": rep.trials,
            "counterexample": _jsonify(rep.counterexample),
        }

    if kind == "identify":
        mode = q.get("mode", "cost")
        if mode == "canonical":
            report = check_canonical(scenario.families[q["family"]])
            return {
                "canonical": report.canonical,
                "members_checked": report.members_checked,
                "monotonicity_violations": _jsonify(report.monotonicity_violations),
                "cost_convexity_violations": _jsonify(report.cost_convexity_violations),
                "hull_gaps": _jsonify(report.hull_gaps),
            }
        if mode == "core":
            model = scenario.models[q["model"]]
            sampler = LotterySampler(scenario.states, seed=seed)
            sets = estimate_multi_meu_core(model, sampler, int(q.get("samples", 200)))
            return {
                "count": len(sets),
                "sets": [_jsonify(M.matrix) for M in sets],
            }
        model = scenario.models[q["model"]]
        member_ref = q["member"]
        family = scenario.families[member_ref["family"]]
        if isinstance(family, FiniteFamily):
            member = family.sets[member_ref["index"]]
        else:
            member = family.member_at([
                _parse_number(x, "identify.member.theta") for x in member_ref["theta"]
            ])
        if "dictionary" in q:
            dict_acts = tuple(
                normalize_act(scenario.acts[name]) for name in q["dictionary"]
            )
            ladder = tuple(
                _parse_number(x, "identify.ladder") for x in q.get("ladder", (1, 10, 100, 1000))
            )
            dictionary = Dictionary(dict_acts, ladder)
        else:
            dictionary = standard_bet_dictionary(scenario.states)
        est = estimate_cost_star(model, member, dictionary, int(q.get("budget", 5000)))
        return {
            "value": est.value,
            "is_lower_bound": est.is_lower_bound,
            "witness_atoms": len(est.support_witness),
        }

    which = q["which"]
    n = int(q.get("samples", 2000))
    if which == "shares_optimal_perception":
        model = scenario.models[q["model"]]
        linear, intersects = shares_optimal_perception_detail(
            model, lotteries["P"], lotteries["Q"]
        )
        return {"holds": linear, "argmax_intersects": intersects}
    if which == "dominates_benefit":
        fam1 = scenario.families[q["family1"]]
        fam2 = scenario.families[q["family2"]]
        sets1 = list(fam1.sets) if isinstance(fam1, FiniteFamily) else list(fam1.to_finite().sets)
        sets2 = list(fam2.sets) if isinstance(fam2, FiniteFamily) else list(fam2.to_finite().sets)
        sampler = LotterySampler(scenario.states, seed=seed)
        return {"holds": dominates_benefit(sets1, sets2, sampler, n)}
    fn = {
        "more_tolerant_ea_randomization": more_tolerant_ea_randomization,
        "more_tolerant_ambiguity": more_tolerant_ambiguity,
        "higher_filtering_incentives": higher_filtering_incentives,
    }[which]
    sampler = LotterySampler(scenario.states, seed=seed)
    verdict = fn(scenario.models[q["model1"]], scenario.models[q["model2"]], sampler, n)
    return {
        "holds": verdict.holds,
        "samples_used": verdict.samples_used,
        "counterexample": _jsonify(verdict.counterexample),
    }


def _execute_query(scenario, index, q, seed_override, default_tol) -> QueryResult:
    kind = q["kind"]
    name = str(q.get("name", ""))
    start = time.perf_counter()
    try:
        data = _jsonify(
            _run_one_query(scenario, q, scenario.lotteries[index], seed_override)
        )
    except Exception as exc:  # runtime failure: report and keep going
        return QueryResult(
            index, kind, name, "error", {}, q.get("expect"),
            f"{type(exc).__name__}: {exc}", time.perf_counter() - start,
        )
    status = "ok"
    message = None
    expect = q.get("expect")
    if expect is not None:
        failures = _check_expect(data, expect, default_tol)
        if failures:
            status = "expect-failed"
            message = "; ".join(failures)
    return QueryResult(
        index, kind, name, status, data, expect, message, time.perf_counter() - start
    )


def run_queries(
    scenario: Scenario,
    kinds=None,
    *,
    seed_override=None,
    default_tolerance: float = DEFAULT_EXPECT_TOL,
) -> Report:
    """Execute the scenario's queries (optionally a subset of kinds) in
    order; per-query errors are recorded and do not stop the run."""
    results = [
        _execute_query(scenario, i, q, seed_override, default_tolerance)
        for i, q in enumerate(scenario.queries)
        if kinds is None or q["kind"] in kinds
    ]
    return Report(scenario.name, results)


def bundled_scenario_paths() -> list[Path]:
    root = Path(__file__).parent / "scenarios"
    return sorted(root.glob("*.yaml"))


def builtin_machina_suite() -> Report:
    """Run every bundled scenario and pool the results into one report."""
    results = []
    for path in bundled_scenario_paths():
        scenario = load_scenario(path)
        sub = run_queries(scenario)
        for r in sub.results:
            results.append(
                QueryResult(
                    len(results), r.kind, f"{scenario.name}: {r.name}".strip(": "),
                    r.status, r.data, r.expect, r.message, r.duration_s,
                )
            )
    return Report("builtin-machina-suite", results)
