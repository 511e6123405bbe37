"""Command-line driver: verbs, flags, exit codes."""

import json
import re
import shlex
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from ambicap.cli import main
from ambicap.scenario import bundled_scenario_paths


@pytest.fixture(scope="module")
def urn_path():
    return str(
        next(p for p in bundled_scenario_paths() if p.stem == "machina_5051")
    )


def _write(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(textwrap.dedent(text))
    return str(path)


BROKEN_REF = """
name: broken
states: [a, b]
acts: {f: [1, 0]}
families:
  m: {kind: finite, members: [{vertices: [["1/2", "1/2"]], cost: 0}]}
models: {main: {family: m, variant: cap}}
queries:
  - {kind: evaluate, model: nosuch, lottery: f}
"""

FAILING_EXPECT = """
name: failing
states: [a, b]
acts: {f: [1, 0]}
families:
  m: {kind: finite, members: [{vertices: [["1/2", "1/2"]], cost: 0}]}
models: {main: {family: m, variant: cap}}
queries:
  - {kind: evaluate, model: main, lottery: f, expect: {value: 99}}
"""

UNKNOWN_EXPECT_KEY = FAILING_EXPECT.replace("expect: {value: 99}", "expect: {valeu: 0.5}")

BAD_PROBABILITIES = FAILING_EXPECT.replace("acts: {f: [1, 0]}", "acts: {f: [1, 0], g: [0, 1]}")

BAD_SECOND_EXPECT = FAILING_EXPECT.replace(
    "expect: {value: 99}}",
    "expect: {value: 0.5}}\n  - {kind: evaluate, model: main, lottery: f, expect: {value: abc}}",
)

BAD_GRID = FAILING_EXPECT.replace(
    "families:\n",
    'families:\n  p: {kind: parametric, params: [t], grid_resolution: abc,'
    ' vertices: [["1/2 - 1/2*t", "1/2 + 1/2*t"]]}\n',
)

OUTSIDE_5051_BOX = """
name: outside
states: [red, blue, green, purple]
acts: {f: [1, 0, 0, 0]}
families:
  m: {kind: finite, members: [{vertices: [["1/4", "1/4", "1/4", "1/4"]], cost: 0}]}
queries:
  - {kind: machina_property, family: m}
"""

RUNTIME_ERROR = """
name: erroring
states: [a, b]
acts: {f: [1, 0]}
families:
  m: {kind: finite, members: [{vertices: [["1/2", "1/2"]], cost: 0}]}
models: {main: {family: m, variant: dual_self}}
queries:
  - {kind: comparatives, which: more_tolerant_ambiguity,
     model1: main, model2: main, samples: 5}
"""


class TestExitCodes:
    def test_success(self, urn_path, capsys):
        assert main(["eval", urn_path]) == 0
        assert "exit 0" in capsys.readouterr().out

    def test_expect_failure(self, tmp_path, capsys):
        assert main(["eval", _write(tmp_path, FAILING_EXPECT)]) == 1
        assert "expect-failed" in capsys.readouterr().out

    def test_validation_error(self, tmp_path, capsys):
        assert main(["eval", _write(tmp_path, BROKEN_REF)]) == 2
        err = capsys.readouterr().err
        assert "queries[0].model" in err

    def test_internal_error(self, tmp_path, capsys):
        assert main(["compare", _write(tmp_path, RUNTIME_ERROR)]) == 3
        assert "error" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "ghost.yaml")]) == 2

    def test_unknown_expect_key(self, tmp_path, capsys):
        assert main(["eval", _write(tmp_path, UNKNOWN_EXPECT_KEY)]) == 2
        assert "queries[0].expect.valeu" in capsys.readouterr().err

    def test_bad_expect_value_fails_before_any_query_runs(self, tmp_path, capsys):
        assert main(["eval", _write(tmp_path, BAD_SECOND_EXPECT)]) == 2
        out, err = capsys.readouterr()
        assert "queries[1].expect.value" in err
        assert out == ""

    def test_bad_grid_resolution(self, tmp_path, capsys):
        assert main(["eval", _write(tmp_path, BAD_GRID)]) == 2
        out, err = capsys.readouterr()
        assert "families.p.grid_resolution" in err
        assert out == ""

    def test_machina_family_outside_the_box(self, tmp_path, capsys):
        assert main(["axioms", _write(tmp_path, OUTSIDE_5051_BOX)]) == 2
        out, err = capsys.readouterr()
        assert "queries[0].family" in err
        assert out == ""

    @pytest.mark.parametrize("pairs", ["[[0.7, f], [0.7, g]]", "[[1.5, f], [-0.5, g]]"])
    def test_lottery_probabilities(self, tmp_path, capsys, pairs):
        text = BAD_PROBABILITIES.replace("lottery: f", f"lottery: {pairs}")
        assert main(["eval", _write(tmp_path, text)]) == 2
        assert "queries[0].lottery" in capsys.readouterr().err


class TestVerbsAndFlags:
    def test_suite_verb(self, capsys):
        assert main(["--format", "machine", "suite"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "builtin-machina-suite"
        assert len(payload["results"]) == 33
        assert all(r["status"] == "ok" for r in payload["results"])

    def test_machine_format_roundtrips_floats(self, urn_path, capsys):
        assert main(["--format", "machine", "eval", urn_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = [
            r["data"]["value"]
            for r in payload["results"]
            if r["kind"] == "evaluate"
        ]
        assert values[0] == 100.0 * (1.0 + 50.0 / 101.0)

    def test_report_verb_runs_all_kinds(self, capsys):
        path = str(
            next(
                p for p in bundled_scenario_paths() if p.stem == "dual_self_urns"
            )
        )
        assert main(["--format", "machine", "report", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = {r["kind"] for r in payload["results"]}
        assert {"evaluate", "axioms", "comparatives"} <= kinds

    def test_verb_filters_kinds(self, urn_path, capsys):
        assert main(["--format", "machine", "identify", urn_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"] == []

    def test_grid_override_keeps_goldens(self, urn_path, capsys):
        assert main(["--grid", "5", "eval", urn_path]) == 0

    def test_tolerance_flag_loosens_expect(self, tmp_path, capsys):
        path = _write(tmp_path, FAILING_EXPECT)  # true value 0.5, expect 99
        assert main(["--tolerance", "1000", "eval", path]) == 0

    def test_seed_flag_deterministic(self, tmp_path, capsys):
        text = FAILING_EXPECT.replace(
            "- {kind: evaluate, model: main, lottery: f, expect: {value: 99}}",
            "- {kind: axioms, model: main, trials: 25}",
        )
        path = _write(tmp_path, text)
        assert main(["--seed", "11", "--format", "machine", "axioms", path]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "11", "--format", "machine", "axioms", path]) == 0
        assert capsys.readouterr().out == first


def _readme_commands():
    """The ``ambicap`` lines of the README's bash blocks, comments cut."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("ambicap ")]


class TestReadme:
    def test_commands_parse(self, urn_path, capsys):
        commands = _readme_commands()
        assert len(commands) >= 4
        for command in commands:
            argv = [urn_path if a == "scenario.yaml" else a for a in shlex.split(command)[1:]]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code != 2, (command, capsys.readouterr().err)


class TestConsoleScript:
    def test_installed_entry_point(self, urn_path):
        exe = shutil.which("ambicap")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--format", "machine", "eval", urn_path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["exit_code"] == 0
