"""Benchmark of the ambicap package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs one op at a time (closed loop, no extra
threads), in whole rounds, until ``--seconds`` have passed.  Every op's
output is checked.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  The
set-up (a fresh import of the package plus building the workload's
inputs) is repeated and its median reported.

``--trace 1`` reports the per-layer metrics: it builds the inputs twice,
once with the package's functions wrapped, and alternates an untraced
round with the same round traced; the wrappers are removed between
traced rounds.

``--workload all`` runs every workload, each in its own process, one after
the other, and prints each result before a combined last line.

The last line of standard output is the result as one JSON object; the
line before it holds details (machine, op counts, tail percentile,
failures).  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported: one op at a time on one core.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("geometry", "model", "sampling", "stock", "axioms", "comparatives",
           "identification", "scenario", "cli")
SETUP_REPEATS = 7
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 175


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def declared_metrics() -> dict:
    """Metric name -> unit, from BENCHMARK.json, for each trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def fresh_import():
    """Import the package from this checkout's src/, dropping any loaded copy."""
    if not (SRC / "ambicap" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'ambicap'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in list(tracing.package_modules()):
        del sys.modules[name]
    package = importlib.import_module("ambicap")
    if Path(package.__file__).resolve().parent != (SRC / "ambicap").resolve():
        raise SetupError(f"imported ambicap from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ambicap.{m}") for m in MODULES})


@dataclass
class Pass:
    """Latencies and failures of one pass over whole rounds."""

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def execute(ops, result: Pass, tracer=None):
    """Run ops one at a time, timing each call and checking its output."""
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op_id = result.attempted
        t0 = clock()
        try:
            out = op.call() if tracer is None else tracer.call("bench.op", op.call)
            error = None
        except Exception as exc:  # a raising op is a failed op, never dropped
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if tracer is not None:
            tracer.op_id = tracing.IDLE
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        result.latencies.append(elapsed)
        result.kinds.append(op.kind)
        if error:
            result.failures.append(f"{op.kind}: {error}")


def run_round(plan, result: Pass, tracer=None):
    """The plan's next round; untraced only while no function is wrapped."""
    if tracer is None:
        tracing.assert_unwrapped()
    execute(plan.round(result.rounds), result, tracer)
    result.rounds += 1


def run_rounds(plan, seconds: float | None = None, rounds: int | None = None, tracer=None) -> Pass:
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    result = Pass()
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return result.rounds < rounds
        return result.rounds == 0 or time.perf_counter() - start < seconds

    while more():
        run_round(plan, result, tracer)
    result.failures += plan.final_failures()
    return result


def tail(latencies) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    samples beyond it; with fewer samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * k / max(n - 1, 1)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def measure_untraced(name: str, seed: int, seconds: float, tiny: bool = False):
    setups, plan = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        api = fresh_import()
        plan = workloads.WORKLOADS[name](api, seed, tiny)
        setups.append(time.perf_counter() - t0)
    result = run_rounds(plan, seconds=seconds)
    n = result.attempted
    tail_s, tail_pct = tail(result.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / result.busy_s,
        "op_p50_ms": statistics.median(result.latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_ratio": (n - len(result.failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_samples_s": setups,
        "rounds": result.rounds,
        "ops": n,
        "tail_percentile": tail_pct,
        "failed_ratio": len(result.failures) / n,
        "ops_by_kind": dict(Counter(result.kinds)),
    }
    return result, metrics, details


def measure_traced(name: str, seed: int, seconds: float, tiny: bool = False):
    """Alternate untraced and traced rounds over the same inputs, so that
    the overhead ratio compares the same work at the same time."""
    build = workloads.WORKLOADS[name]
    api = fresh_import()
    base_plan = build(api, seed, tiny)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op_id = tracing.SETUP
        traced_plan = tracer.call("bench.setup", build, api, seed, tiny)
        tracer.op_id = tracing.IDLE
    base, traced = Pass(), Pass()
    start = time.perf_counter()
    while base.rounds == 0 or time.perf_counter() - start < seconds:
        run_round(base_plan, base)
        with tracer.installed():
            run_round(traced_plan, traced, tracer)
    base.failures += base_plan.final_failures()
    traced.failures += traced_plan.final_failures()
    if traced.kinds != base.kinds:
        raise RuntimeError("the traced rounds ran other ops than the untraced ones")
    metrics = tracing.layer_metrics(tracer, traced.attempted)
    metrics["trace.overhead_ratio"] = traced.busy_s / base.busy_s
    result = Pass(base.latencies + traced.latencies, base.kinds + traced.kinds,
                  base.failures + traced.failures, base.rounds + traced.rounds)
    details = {
        "rounds": base.rounds,
        "ops": traced.attempted,
        "spans": len(tracer.start),
        "untraced_busy_s": base.busy_s,
        "traced_busy_s": traced.busy_s,
        "span_summary": tracing.span_summary(tracer),
    }
    return result, metrics, details


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """(result, details): the result holds correct/attempted/failed/metrics."""
    units = declared_metrics()[trace]
    measure_fn = measure_traced if trace else measure_untraced
    result, values, details = measure_fn(name, seed, seconds, tiny)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    details.update(workload=name, seed=seed, trace=int(trace), machine=machine(),
                   failures=result.failures[:20])
    return {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }, details


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
