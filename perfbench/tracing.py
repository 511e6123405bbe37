"""Span tracer for the benchmark's traced run.

The tracer wraps the package's functions where their callers look them up:
every module attribute that holds a traced function (so a name imported
with ``from .model import evaluate_value`` is wrapped in the importing
module too), the methods of the classes listed in ``METHODS``, and the
trial functions that ``check_axiom`` reads from ``axioms._AXIOM_TABLE``.
Each call records a span (name, start, end, parent, op) in flat arrays
kept in memory; ``restore`` puts every original back.

Layers are the package's modules.  ``cli`` belongs to the ``scenario``
layer, and ``stock`` only supplies fixtures, so it is not traced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from array import array

MARK = "__perfbench_span__"
IDLE = -1  # op id of spans outside any op (round building, output checks)
SETUP = -2  # op id of spans recorded while the inputs are built

LAYER_OF_MODULE = {
    "geometry": "geometry",
    "model": "model",
    "sampling": "sampling",
    "axioms": "axioms",
    "comparatives": "comparatives",
    "identification": "identification",
    "scenario": "scenario",
    "cli": "scenario",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

# Private functions traced besides the public ones: the two halves of the
# parametric evaluator, which ROADMAP item 2 replaces.
PRIVATE = {"model": ("_parametric_scores", "_refine_parametric")}

METHODS = {
    ("model", "Lottery"): ("__init__",),
    ("model", "FiniteFamily"): ("__init__",),
    ("model", "ParametricFamily"): ("__init__",),
    ("model", "CapModel"): ("__init__",),
    ("sampling", "LotterySampler"): (
        "__init__", "uniform", "payoff", "act", "constant_lottery", "lottery", "pair",
    ),
}

EVALUATORS = ("evaluate", "evaluate_value")
HULL_GAP_TOL = 1e-9


def _evaluator_kind(model, *_args, **_kwargs) -> str:
    if model.variant == "choquet":
        return "choquet"
    return "parametric" if model.is_parametric else "finite"


def package_modules() -> dict:
    """Every imported module of the package, by full name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "ambicap" or name.startswith("ambicap.")
    }


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            if not name.startswith("_") or name in PRIVATE.get(mod.__name__.rsplit(".", 1)[-1], ()):
                yield name, obj


class Tracer:
    """In-memory span recorder.  One instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self.op_id = IDLE
        self._stack = [-1]
        self._patches: list = []
        self._own: list[int] | None = None

    def own_times(self) -> list[int]:
        """Self time of every span, computed once the pass has finished."""
        if self._own is None or len(self._own) != len(self.start):
            self._own = self_times(self.start, self.end, self.parent)
        return self._own

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.flag.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        i = self._open(self._intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, fn, name: str, kind=None, flag=None):
        """Wrapper recording a span per call.  ``kind(*args)`` appends a
        suffix to the span name; ``flag(result)`` marks the span."""
        tracer = self
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid if kind is None else tracer._intern(f"{name}.{kind(*args, **kwargs)}"))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if flag is not None and flag(result):
                tracer.flag[i] = 1
            return result

        setattr(traced, MARK, True)
        return traced

    # -- installing and removing wrappers ---------------------------------

    def _patch(self, holder, key, value, is_dict=False):
        original = holder[key] if is_dict else getattr(holder, key)
        self._patches.append((holder, key, original, is_dict))
        if is_dict:
            holder[key] = value
        else:
            setattr(holder, key, value)

    def install(self):
        """Wrap every traced function at each name that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrappers = {}
        for full, mod in modules.items():
            short = full.rsplit(".", 1)[-1]
            if short not in LAYER_OF_MODULE:
                continue
            for name, fn in _public_functions(mod):
                span = f"{short}.{name}"
                if short == "model" and name in EVALUATORS:
                    wrappers[fn] = self.wrap(fn, span, kind=_evaluator_kind)
                elif name == "convex_combination_gap":
                    wrappers[fn] = self.wrap(fn, span, flag=lambda gap: gap > HULL_GAP_TOL)
                elif name == "check_axiom":
                    wrappers[fn] = self.wrap(fn, span, flag=lambda report: not report.holds)
                else:
                    wrappers[fn] = self.wrap(fn, span)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[f"ambicap.{short}"], cls_name)
            for meth in methods:
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], f"{short}.{cls_name}.{meth}"))
        table = modules["ambicap.axioms"]._AXIOM_TABLE
        for axiom_id, (gen, viol) in list(table.items()):
            self._patch(
                table,
                axiom_id,
                (self.wrap(gen, "axioms.generate"), self.wrap(viol, "axioms.violation")),
                is_dict=True,
            )

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the body of the with statement."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def restore(self):
        """Put back every original, newest patch first."""
        while self._patches:
            holder, key, original, is_dict = self._patches.pop()
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        assert_unwrapped()


def _wrapped_names() -> list[str]:
    found = []
    modules = package_modules()
    for full, mod in modules.items():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{full}.{attr}")
    for (short, cls_name), methods in METHODS.items():
        mod = modules.get(f"ambicap.{short}")
        if mod is None:
            continue
        cls = getattr(mod, cls_name)
        found += [f"{cls_name}.{m}" for m in methods if getattr(cls.__dict__[m], MARK, False)]
    axioms = modules.get("ambicap.axioms")
    if axioms is not None:
        for axiom_id, fns in axioms._AXIOM_TABLE.items():
            found += [f"_AXIOM_TABLE[{axiom_id}]" for fn in fns if getattr(fn, MARK, False)]
    return found


def assert_unwrapped():
    """Raise if any package function is still a tracing wrapper."""
    wrapped = _wrapped_names()
    if wrapped:
        raise RuntimeError(f"package functions still traced: {wrapped[:5]}")


# -- analysis ---------------------------------------------------------------


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def span_summary(tr: Tracer) -> dict[str, dict]:
    """Per span name: count, total and self milliseconds, busiest first."""
    own = tr.own_times()
    out: dict[str, list] = {}
    for k, s, e, o in zip(tr.name_id, tr.start, tr.end, own):
        row = out.setdefault(tr.names[k], [0, 0, 0])
        row[0] += 1
        row[1] += e - s
        row[2] += o
    ordered = sorted(out.items(), key=lambda item: -item[1][2])
    return {n: {"count": c, "total_ms": t / 1e6, "self_ms": s / 1e6} for n, (c, t, s) in ordered}


def _layer(name: str) -> str | None:
    return LAYER_OF_MODULE.get(name.split(".", 1)[0])


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tr: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios from a finished traced pass.

    Spans recorded outside an op (set-up, output checks) count only in
    ``geometry.setup_lp_solves``.
    """
    names = [tr.names[k] for k in tr.name_id]
    parent = tr.parent
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    own = tr.own_times()
    in_op = [o >= 0 for o in tr.op]
    layer = [_layer(n) for n in names]

    op_wall = sum(d for n, d, ok in zip(names, dur, in_op) if ok and n == "bench.op")
    self_by_layer = dict.fromkeys(LAYERS, 0)
    for lay, s, ok in zip(layer, own, in_op):
        if ok and lay is not None:
            self_by_layer[lay] += s

    # nearest enclosing estimate_cost_star / check_axiom span of every span
    est_anc, axiom_anc = [], []
    for i, n in enumerate(names):
        p = parent[i]
        est_anc.append(i if n == "identification.estimate_cost_star" else (est_anc[p] if p >= 0 else -1))
        axiom_anc.append(i if n == "axioms.check_axiom" else (axiom_anc[p] if p >= 0 else -1))

    def in_ops(pred):
        return [i for i, n in enumerate(names) if in_op[i] and pred(n)]

    def mean_us(idx):
        return _mean([dur[i] for i in idx]) / 1e3

    def mean_ms(idx):
        return _mean([dur[i] for i in idx]) / 1e6

    per_op = max(n_ops, 1)
    evals = in_ops(lambda n: n.startswith(("model.evaluate.", "model.evaluate_value.")))
    lotteries = in_ops(lambda n: n == "model.Lottery.__init__")
    draws = [i for i in in_ops(lambda n: n.startswith("sampling.LotterySampler.") and not n.endswith(".__init__"))
             if parent[i] < 0 or layer[parent[i]] != "sampling"]
    comparative_samples = [
        i for i in draws
        if names[i] in ("sampling.LotterySampler.lottery", "sampling.LotterySampler.pair")
        and parent[i] >= 0 and layer[parent[i]] == "comparatives"
    ]
    violations = in_ops(lambda n: n == "axioms.violation")
    trials = [i for i in violations if axiom_anc[i] >= 0]
    separations = [i for i in in_ops(lambda n: n == "axioms.check_axiom") if tr.flag[i]]
    trials_to_witness = {i: 0 for i in separations}
    for i in trials:
        if axiom_anc[i] in trials_to_witness:
            trials_to_witness[axiom_anc[i]] += 1
    estimates = in_ops(lambda n: n == "identification.estimate_cost_star")
    estimate_evals = [i for i in evals if est_anc[i] >= 0]
    lps = in_ops(lambda n: n == "geometry.convex_combination_gap")
    hull_lps = [i for i in lps if parent[i] >= 0 and names[parent[i]] == "identification.check_canonical"]
    setup_lps = [i for i, n in enumerate(names) if not in_op[i] and tr.op[i] == SETUP
                 and n == "geometry.convex_combination_gap"]

    def share(lay):
        return self_by_layer[lay] / op_wall if op_wall else 0.0

    return {
        "model.lottery_builds_per_op": len(lotteries) / per_op,
        "model.lottery_build_us": mean_us(lotteries),
        "model.evaluations_per_op": len(evals) / per_op,
        "model.evaluate_finite_us": mean_us([i for i in evals if names[i].endswith(".finite")]),
        "model.evaluate_choquet_us": mean_us([i for i in evals if names[i].endswith(".choquet")]),
        "model.evaluate_parametric_us": mean_us([i for i in evals if names[i].endswith(".parametric")]),
        "model.parametric_grid_us": mean_us(in_ops(lambda n: n == "model._parametric_scores")),
        "model.parametric_refine_us": mean_us(in_ops(lambda n: n == "model._refine_parametric")),
        "model.self_share": share("model"),
        "sampling.draws_per_op": len(draws) / per_op,
        "sampling.draw_self_us": (self_by_layer["sampling"] / len(draws) / 1e3) if draws else 0.0,
        "sampling.self_share": share("sampling"),
        "axioms.trials_per_op": len(trials) / per_op,
        "axioms.trial_self_us": (self_by_layer["axioms"] / len(trials) / 1e3) if trials else 0.0,
        "axioms.witness_trial": _mean(list(trials_to_witness.values())),
        "axioms.self_share": share("axioms"),
        "comparatives.samples_per_op": len(comparative_samples) / per_op,
        "comparatives.self_share": share("comparatives"),
        "identification.cost_estimate_ms": mean_ms(estimates),
        "identification.evaluations_per_estimate": len(estimate_evals) / len(estimates) if estimates else 0.0,
        "identification.canonical_audit_ms": mean_ms(in_ops(lambda n: n == "identification.check_canonical")),
        "identification.core_ms": mean_ms(in_ops(lambda n: n == "identification.estimate_multi_meu_core")),
        "identification.self_share": share("identification"),
        "geometry.lp_solves_per_op": len(lps) / per_op,
        "geometry.lp_solve_us": mean_us(lps),
        "geometry.setup_lp_solves": float(len(setup_lps)),
        "geometry.hull_lp_calls": float(len(hull_lps)),
        "geometry.hull_lp_useful_ratio": (sum(tr.flag[i] for i in hull_lps) / len(hull_lps)) if hull_lps else 0.0,
        "geometry.self_share": share("geometry"),
        "scenario.load_ms": mean_ms(in_ops(lambda n: n == "scenario.load_scenario")),
        "scenario.run_queries_ms": mean_ms(in_ops(lambda n: n == "scenario.run_queries")),
        "scenario.self_share": share("scenario"),
        "trace.spans_per_op": sum(in_op) / per_op,
    }
