"""Declarative scenario files and the query runner.

A scenario is a YAML mapping with states, optional consequence-to-util
table, named acts, named perception families (finite vertex lists or
parametric affine templates), named models, and an ordered query list.
Numbers may be written as exact rationals ("50/101"); parametric vertex
entries and costs are affine expressions in the declared parameters
("25/101 + 25/101*beta").

Loading binds each query once: the builder of its kind takes each key
exactly once (a key it does not take is an error), parses it with its
path in the file, resolves the names, and parses ``expect`` into checks.
So a malformed file raises ``ScenarioError`` before any query runs, and
running a query only calls its ``run(seed)`` closure, which holds the
expensive work (evaluation, sampling, canonical audits).

Queries run in order, each deterministic given its seed; the report has a
human rendering (with timings) and a canonical machine rendering that is
byte-identical across runs of the same scenario and seeds.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .axioms import (
    AXIOM_IDS,
    check_axiom,
    machina_5051_dual_self_property,
    necessary_axioms,
    require_5051_box,
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


@dataclass(frozen=True)
class BoundQuery:
    """A query bound at load: ``run(seed)`` returns its data, and each of
    ``checks`` maps (data, tolerance) to a failure message or None.
    ``expect`` is the file's raw mapping, which the report shows."""

    kind: str
    name: str
    seed: int
    expect: dict | None
    checks: tuple
    tolerance: float | None
    run: Callable[[int], dict]


@dataclass
class Scenario:
    """A validated scenario: every name resolvable, every object consistent."""

    name: str
    states: StateSpace
    utility_table: dict[str, float]
    acts: dict[str, UtilityAct]
    families: dict
    models: dict[str, CapModel]
    queries: list[BoundQuery]
    seed: int = 0
    source: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        """Serializable form; reloading it yields an equal scenario."""
        return json.loads(json.dumps(self.source))


def _construct(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError reported at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


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


def _build_finite_family(states, f: _Keys):
    members_spec = f.take("members")
    if not isinstance(members_spec, list) or not members_spec:
        raise ScenarioError(f.at("members"), "expected a nonempty list")
    members = []
    for i, spec in enumerate(members_spec):
        m = _Keys(spec, f"{f.at('members')}[{i}]")
        rows = m.take("vertices")
        if not isinstance(rows, list) or not rows:
            raise ScenarioError(m.at("vertices"), "expected a nonempty list")
        matrix = [
            [_parse_number(x, f"{m.at('vertices')}[{r}][{c}]") for c, x in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        cost = _parse_number(m.take("cost", 0.0), m.at("cost"))
        m.close()
        members.append((_construct(m.path, BeliefSet, states, matrix), cost))
    return _construct(f.path, FiniteFamily, members)


def _build_parametric_family(states, f: _Keys, grid_override):
    params = f.take("params")
    if not isinstance(params, list) or not params:
        raise ScenarioError(f.at("params"), "expected a nonempty list of names")
    params = tuple(str(p) for p in params)
    grid = f.integer("grid_resolution", 11)
    if grid_override is not None:
        grid = grid_override
    cost_base, cost_coefs = _parse_affine(f.take("cost", 0.0), params, f.at("cost"))
    rows = f.take("vertices")
    if not isinstance(rows, list) or not rows:
        raise ScenarioError(f.at("vertices"), "expected a nonempty list")
    V, n, k = len(rows), len(states), len(params)
    base = np.zeros((V, n))
    coefs = np.zeros((k, V, n))
    for r, row in enumerate(rows):
        rpath = f"{f.at('vertices')}[{r}]"
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioError(rpath, f"expected {n} per-state expressions")
        for c, entry in enumerate(row):
            const, cvec = _parse_affine(entry, params, f"{rpath}[{c}]")
            base[r, c] = const
            coefs[:, r, c] = cvec
    return _construct(
        f.path, ParametricFamily, states, base, coefs, cost_base, cost_coefs, grid,
        param_names=params,
    )


def _build_families(states, raw, grid_override):
    builders = {
        "finite": _build_finite_family,
        "parametric": partial(_build_parametric_family, grid_override=grid_override),
    }
    families = {}
    for name, spec in _require_map(raw, "families").items():
        f = _Keys(spec, f"families.{name}")
        families[name] = f.named("kind", builders, "family kind")(states, f)
        f.close()
    return families


def _build_models(states, raw, families):
    models = {}
    for name, spec in _require_map(raw, "models").items():
        m = _Keys(spec, f"models.{name}")
        family = m.named("family", families, "family")
        variant = m.take("variant", "cap")
        if variant not in VARIANTS:
            message = f"unknown variant {variant!r}; expected {VARIANTS}"
            raise ScenarioError(m.at("variant"), message)
        m.close()
        models[name] = _construct(m.path, CapModel, states, family, variant)
    return models


def _lookup(table: dict, name, path: str, what: str):
    try:
        return table[name]
    except (KeyError, TypeError):
        known = ", ".join(map(str, table))
        raise ScenarioError(path, f"unknown {what} {name!r}; expected one of {known}") from None


def _parse_int(value, path: str, low: int, high: float = float("inf")) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ScenarioError(path, f"expected an integer in [{low}, {high}], got {value!r}")
    return value


def _parse_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected true or false, got {value!r}")
    return value


def _parse_member(family, value, path):
    """An index into a finite family, or a theta in a parametric one's box."""
    if isinstance(family, FiniteFamily):
        return _parse_int(value, path, 0, len(family) - 1)
    if not isinstance(value, list) or len(value) != family.n_params:
        raise ScenarioError(path, f"expected a list of {family.n_params} parameters")
    theta = tuple(_parse_number(x, f"{path}[{i}]") for i, x in enumerate(value))
    if not all(0.0 <= t <= 1.0 for t in theta):
        raise ScenarioError(path, f"parameters {value!r} outside [0, 1]")
    return theta


class _Keys:
    """The keys of one mapping in the file, each taken at most once;
    ``close`` rejects the keys nobody took, with their path."""

    def __init__(self, raw, path: str):
        self.left = dict(_require_map(raw, path or "scenario"))
        self.path = path

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, default=None):
        return self.left.pop(key, default)

    def named(self, key: str, table: dict, what: str):
        return _lookup(table, self.take(key), self.at(key), what)

    def lottery(self, key: str, s: Scenario) -> Lottery:
        """An act name, or [probability, act] pairs with a valid distribution."""
        ref, path = self.take(key), self.at(key)
        if isinstance(ref, str):
            return Lottery.dirac(_lookup(s.acts, ref, path, "act"))
        if not (isinstance(ref, list) and ref):
            raise ScenarioError(path, "expected an act name or [probability, act] pairs")
        probs, payoffs = [], []
        for i, pair in enumerate(ref):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ScenarioError(f"{path}[{i}]", "expected [probability, act name]")
            probs.append(_parse_number(pair[0], f"{path}[{i}][0]"))
            payoffs.append(_lookup(s.acts, pair[1], f"{path}[{i}][1]", "act").payoffs)
        return _construct(path, Lottery, s.states, probs, payoffs)

    def integer(self, key: str, default, low: int = 1) -> int:
        return _parse_int(self.take(key, default), self.at(key), low)

    def close(self):
        for key in self.left:
            raise ScenarioError(self.at(key), f"unknown key {key!r}")


def _check(field, parse, fails, message):
    """Parser of one expect key: parses the wanted value and returns a check,
    which maps (data, tolerance) to a failure message or None."""

    def parser(want, path):
        w = parse(want, path)
        return lambda data, tol: (
            message.format(got=data[field], want=want, w=w, tol=tol)
            if fails(data[field], w, tol) else None
        )
    return parser


def _flag(key, field=None):
    return _check(field or key, _parse_bool, lambda got, w, tol: got != w,
                  key + " is {got}, expected {want}")


_HOLDS = {"holds": _flag("holds")}
_VALUE = {
    "value": _check("value", _parse_number, lambda got, w, tol: abs(got - w) > tol,
                    "value {got!r} != {w!r} (tol {tol})"),
    "lower": _check("value", _parse_number, lambda got, w, tol: got < w,
                    "value {got!r} below {want!r}"),
    "upper": _check("value", _parse_number, lambda got, w, tol: got > w,
                    "value {got!r} above {want!r}"),
}


def _optimal_contains(family):
    def parser(want, path):
        if not isinstance(want, list):
            raise ScenarioError(path, "expected a list of perceptions")
        tags = [(t, _parse_member(family, t, f"{path}[{i}]")) for i, t in enumerate(want)]
        return lambda data, tol: "; ".join(
            f"optimal perceptions missing {raw!r}" for raw, tag in tags
            if not perceptions_intersect(data["optimal_perceptions"], [tag])
        ) or None
    return parser


def _parse_expect(raw, path: str, parsers: dict):
    """The checks of an ``expect`` mapping in its order, and its tolerance
    (None leaves the run's default)."""
    checks, tol = [], None
    for key, want in _require_map(raw, path).items():
        kpath = f"{path}.{key}"
        if key == "tolerance" and "value" in parsers:
            tol = _parse_number(want, kpath)
            if tol < 0.0:
                raise ScenarioError(kpath, "expected a nonnegative tolerance")
        elif key in parsers:
            checks.append(parsers[key](want, kpath))
        else:
            raise ScenarioError(kpath, f"unknown expect key {key!r} for this query")
    return tuple(checks), tol


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


# One builder per query kind: it takes its keys from ``q`` and returns the
# closure that runs the query and the parsers of the expect keys it allows.


def _bind_evaluate(s: Scenario, q: _Keys):
    model, lottery = q.named("model", s.models, "model"), q.lottery("lottery", s)

    def run(seed):
        res = evaluate(model, lottery)
        return _fields(res, "value", "certainty_equivalent", "optimal_perceptions")
    return run, {**_VALUE, "optimal_contains": _optimal_contains(model.family)}


def _bind_compare(s: Scenario, q: _Keys):
    model = q.named("model", s.models, "model")
    better, worse = q.lottery("better", s), q.lottery("worse", s)
    margin = _parse_number(q.take("margin", 1e-9), q.at("margin"))

    def run(seed):
        v_better, v_worse = evaluate(model, better).value, evaluate(model, worse).value
        return {"value_better": v_better, "value_worse": v_worse,
                "holds": bool(v_better > v_worse + margin)}
    return run, _HOLDS


def _bind_axioms(s: Scenario, q: _Keys):
    model = q.named("model", s.models, "model")
    listed = q.take("axioms")
    if listed is not None and not (
        isinstance(listed, list) and all(a in AXIOM_IDS for a in listed)
    ):
        raise ScenarioError(q.at("axioms"), f"expected a list of axiom ids from {AXIOM_IDS}")
    trials = q.integer("trials", 1000)

    def run(seed):
        reports = [
            check_axiom(model, axiom_id, LotterySampler(s.states, seed=seed), trials)
            for axiom_id in listed or necessary_axioms(model)
        ]
        return {"holds": all(r.holds for r in reports), "reports": [
            _fields(r, "axiom_id", "holds", "trials", "counterexample") for r in reports
        ]}
    return run, _HOLDS


def _bind_machina_property(s: Scenario, q: _Keys):
    family = q.named("family", s.families, "family")
    if not isinstance(family, FiniteFamily):
        raise ScenarioError(q.at("family"), "expected a finite family")
    _construct(q.at("family"), require_5051_box, family.sets)

    def run(seed):
        sampler = LotterySampler(s.states, seed=seed)
        rep = machina_5051_dual_self_property(list(family.sets), sampler)
        return _fields(rep, "holds", "trials", "counterexample")
    return run, _HOLDS


def _parse_dictionary(s: Scenario, q: _Keys) -> Dictionary:
    names, path = q.take("dictionary"), q.at("dictionary")
    if names is None:
        return standard_bet_dictionary(s.states)
    if not isinstance(names, list):
        raise ScenarioError(path, "expected a list of act names")
    acts = [
        _construct(f"{path}[{i}]", normalize_act, _lookup(s.acts, name, f"{path}[{i}]", "act"))
        for i, name in enumerate(names)
    ]
    return _construct(path, Dictionary, tuple(acts))


def _bind_identify(s: Scenario, q: _Keys):
    mode = q.take("mode", "cost")
    if mode == "canonical":
        family = q.named("family", s.families, "family")

        def run(seed):
            return _fields(check_canonical(family), "canonical", "members_checked",
                           "monotonicity_violations", "cost_convexity_violations", "hull_gaps")
        return run, {"canonical": _flag("canonical")}
    if mode not in ("cost", "core"):
        raise ScenarioError(q.at("mode"), f"unknown identify mode {mode!r}")
    model = q.named("model", s.models, "model")
    if mode == "core":
        samples = q.integer("samples", 200)

        def run(seed):
            sets = estimate_multi_meu_core(model, LotterySampler(s.states, seed=seed), samples)
            return {"count": len(sets), "sets": [M.matrix for M in sets]}
        return run, {"count_at_least": _check(
            "count", lambda v, path: _parse_int(v, path, 0),
            lambda got, w, tol: got < w, "count {got} below {want}")}

    ref = _Keys(q.take("member"), q.at("member"))
    family = ref.named("family", s.families, "family")
    key = "index" if isinstance(family, FiniteFamily) else "theta"
    tag = _parse_member(family, ref.take(key), ref.at(key))
    ref.close()
    member = family.sets[tag] if key == "index" else family.member_at(tag)
    dictionary, budget = _parse_dictionary(s, q), q.integer("budget", 5000)

    def run(seed):
        est = estimate_cost_star(model, member, dictionary, budget)
        return {**_fields(est, "value", "is_lower_bound"),
                "witness_atoms": len(est.support_witness)}
    return run, {**_VALUE, "is_lower_bound": _flag("is_lower_bound")}


def _bind_shares(s: Scenario, q: _Keys):
    model = q.named("model", s.models, "model")
    P, Q = q.lottery("P", s), q.lottery("Q", s)

    def run(seed):
        linear, intersects = shares_optimal_perception_detail(model, P, Q)
        return {"holds": linear, "argmax_intersects": intersects}
    return run, {**_HOLDS, "shares": _flag("shares", "holds")}


def _bind_dominates(s: Scenario, q: _Keys):
    families = [q.named(key, s.families, "family") for key in ("family1", "family2")]
    samples = q.integer("samples", 2000)

    def run(seed):
        sets1, sets2 = (
            list(f.sets if isinstance(f, FiniteFamily) else f.to_finite().sets) for f in families
        )
        sampler = LotterySampler(s.states, seed=seed)
        contradictions = []
        holds = dominates_benefit(sets1, sets2, sampler, samples, contradictions)
        return {"holds": holds, "contradictions": contradictions}
    return run, _HOLDS


def _bind_ordering(order, s: Scenario, q: _Keys):
    model1, model2 = (q.named(key, s.models, "model") for key in ("model1", "model2"))
    samples = q.integer("samples", 2000)

    def run(seed):
        verdict = order(model1, model2, LotterySampler(s.states, seed=seed), samples)
        return _fields(verdict, "holds", "samples_used", "counterexample")
    return run, _HOLDS


def _bind_comparatives(s: Scenario, q: _Keys):
    builders = {
        "more_tolerant_ea_randomization": partial(_bind_ordering, more_tolerant_ea_randomization),
        "more_tolerant_ambiguity": partial(_bind_ordering, more_tolerant_ambiguity),
        "higher_filtering_incentives": partial(_bind_ordering, higher_filtering_incentives),
        "dominates_benefit": _bind_dominates,
        "shares_optimal_perception": _bind_shares,
    }
    return q.named("which", builders, "comparative")(s, q)


_BUILDERS = {
    "evaluate": _bind_evaluate,
    "compare": _bind_compare,
    "axioms": _bind_axioms,
    "identify": _bind_identify,
    "comparatives": _bind_comparatives,
    "machina_property": _bind_machina_property,
}


def _bind_query(s: Scenario, raw, path: str) -> BoundQuery:
    q = _Keys(raw, path)
    kind = q.take("kind")
    builder = _lookup(_BUILDERS, kind, q.at("kind"), "kind")
    name = str(q.take("name", ""))
    seed = q.integer("seed", s.seed, low=0)
    expect = q.take("expect")
    run, parsers = builder(s, q)
    checks, tol = ((), None) if expect is None else _parse_expect(expect, q.at("expect"), parsers)
    q.close()
    return BoundQuery(kind, name, seed, expect, checks, tol, run)


def load_scenario(path, *, grid_resolution=None) -> Scenario:
    """Load and fully validate a scenario file."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(str(path), "file does not exist")
    try:
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ScenarioError(str(path), f"parse error: {exc}") from exc
    return scenario_from_dict(raw, grid_resolution=grid_resolution, name_hint=path.stem)


def scenario_from_dict(raw, *, grid_resolution=None, name_hint="scenario") -> Scenario:
    top = _Keys(raw, "")
    labels = top.take("states")
    if not isinstance(labels, list) or len(labels) < 2:
        raise ScenarioError("states", "expected a list of at least two labels")
    states = _construct("states", StateSpace, labels)

    utility_table = {
        str(k): _parse_number(v, f"utility_table.{k}")
        for k, v in _require_map(top.take("utility_table", {}), "utility_table").items()
    }
    acts = _build_acts(states, top.take("acts", {}), utility_table)
    families = _build_families(states, top.take("families", {}), grid_resolution)
    models = _build_models(states, top.take("models", {}), families)

    queries = top.take("queries", [])
    if not isinstance(queries, list):
        raise ScenarioError("queries", "expected a list")
    scenario = Scenario(
        str(top.take("name", name_hint)), states, utility_table, acts, families, models,
        queries=[], seed=top.integer("seed", 0, low=0), source=raw,
    )
    top.close()
    scenario.queries = [
        _bind_query(scenario, q, f"queries[{i}]") for i, q in enumerate(queries)
    ]
    return scenario


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
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


def _execute_query(q: BoundQuery, index, seed_override, default_tol) -> QueryResult:
    start = time.perf_counter()
    try:
        data = _jsonify(q.run(q.seed if seed_override is None else seed_override))
    except Exception as exc:  # runtime failure: report and keep going
        return QueryResult(
            index, q.kind, q.name, "error", {}, q.expect,
            f"{type(exc).__name__}: {exc}", time.perf_counter() - start,
        )
    tol = default_tol if q.tolerance is None else q.tolerance
    failures = [f for f in (check(data, tol) for check in q.checks) if f]
    status = "expect-failed" if failures else "ok"
    return QueryResult(
        index, q.kind, q.name, status, data, q.expect, "; ".join(failures) or None,
        time.perf_counter() - start,
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
        _execute_query(q, i, seed_override, default_tolerance)
        for i, q in enumerate(scenario.queries)
        if kinds is None or q.kind in kinds
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
            name = f"{scenario.name}: {r.name}".strip(": ")
            results.append(replace(r, index=len(results), name=name))
    return Report("builtin-machina-suite", results)
