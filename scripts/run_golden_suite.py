#!/usr/bin/env python3
"""Run the bundled golden scenarios and print the report."""

import argparse
import sys

from ambicap import builtin_machina_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    args = parser.parse_args()

    report = builtin_machina_suite()
    print(report.to_machine() if args.format == "machine" else report.to_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
