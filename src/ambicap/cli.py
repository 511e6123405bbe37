"""Command-line interface.

Verbs:
    eval SCENARIO       run the evaluate/compare queries of a scenario
    axioms SCENARIO     run the axiom and dual-self box-property queries
    identify SCENARIO   run the identification queries
    compare SCENARIO    run the model-comparative queries
    report SCENARIO     run every query in the scenario
    suite               run the bundled reference scenarios

Exit codes: 0 success, 1 an expectation failed, 2 the scenario file is
malformed (found at load, before any query runs), 3 a query raised.
"""

from __future__ import annotations

import argparse
import sys

from .scenario import (
    DEFAULT_EXPECT_TOL,
    ScenarioError,
    builtin_machina_suite,
    load_scenario,
    run_queries,
)

_VERB_KINDS = {
    "eval": ("evaluate", "compare"),
    "axioms": ("axioms", "machina_property"),
    "identify": ("identify",),
    "compare": ("comparatives",),
    "report": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambicap",
        description="Evaluate costly-perception ambiguity models from scenario files.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override every query's random seed")
    parser.add_argument("--grid", type=int, default=None,
                        help="override parametric family grid resolution")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_EXPECT_TOL,
                        help="default tolerance for expectation checks")
    parser.add_argument("--format", choices=("human", "machine"), default="human",
                        help="report rendering")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERB_KINDS:
        p = sub.add_parser(verb, help=f"run {verb} queries from a scenario file")
        p.add_argument("scenario", help="path to a scenario YAML file")
    sub.add_parser("suite", help="run the bundled reference scenarios")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "suite":
            report = builtin_machina_suite()
        else:
            scenario = load_scenario(args.scenario, grid_resolution=args.grid)
            report = run_queries(
                scenario,
                _VERB_KINDS[args.verb],
                seed_override=args.seed,
                default_tolerance=args.tolerance,
            )
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    print(report.to_machine() if args.format == "machine" else report.to_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
