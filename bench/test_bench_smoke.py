"""Smoke test of the benchmark at tiny sizes.

Checks the result schema, that every metric is printed with its unit, that
failing ops are counted rather than raised, and that a traced run puts every
original function back.
"""

import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
from spans import LAYERS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _check_result(result, specs, printed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"])
        line = rf"^# {re.escape(name)} = \S+ {re.escape(metric['unit'])}$"
        assert re.search(line, printed, re.MULTILINE), name


def _package_functions():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "wignerpf" or name.startswith("wignerpf.")
        for attr, obj in vars(module).items()
        if callable(obj)
    }


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_end_to_end_run(workload, capsys):
    result = harness.run_workload(workload, 3, 0.2, False, tiny=True)
    printed = capsys.readouterr().out
    _check_result(result, SPEC["end_to_end"], printed)
    assert result["metrics"]["op_p50_ms"]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] > 0
    assert "# op_tail_ms is p" in printed
    assert "# set-up pass: failed_frac = " in printed
    assert "# timed ops: failed_frac = " in printed


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_traced_run(workload, capsys):
    before = _package_functions()
    result = harness.run_workload(workload, 3, 0.2, True, tiny=True)
    _check_result(result, SPEC["per_layer"], capsys.readouterr().out)
    assert _package_functions() == before
    parses = result["metrics"]["io.parse_matrix.calls"]["value"]
    assert (parses > 0) == (workload == "cli-scaled")
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9


def test_per_layer_names_are_wrapped_functions():
    for metric in SPEC["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] == "trace":
            continue
        layer, function, kind = parts
        assert layer in LAYERS
        module = importlib.import_module(f"wignerpf.{layer}")
        assert callable(getattr(module, function))
        assert kind in ("calls", "self_ms", "errors")


def test_failing_op_is_counted_not_raised():
    def op(arg):
        if arg == "raise":
            raise ZeroDivisionError(arg)
        return arg

    def check(case, output):
        return (None, 1e-12) if output == case.ref else ("wrong value", None)

    cases = [harness.Case("ok", "ok"), harness.Case("raise", None), harness.Case("bad", "ok")]
    workload = harness.Workload((1, 1), lambda rng, dim, workdir: cases, op, check)
    built, keys = harness.set_up(workload, 0, True, None)
    assert built == cases
    assert keys == [None, "ZeroDivisionError", "wrong value"]

    tally = harness.run_loop(workload, cases, 0.01, harness.SpeedProbe())
    attempted = len(tally.seconds)
    assert attempted >= 3
    assert tally.failures["ZeroDivisionError"] == len(range(1, attempted, 3))
    assert tally.failures["wrong value"] == tally.wrong == len(range(2, attempted, 3))
    metrics = harness.end_to_end(tally, 0.5, 1 / 3)
    assert metrics["case_ok_frac"] == 1 / 3
    assert metrics["accuracy_digits"] == pytest.approx(12.0)


def test_unreadable_cli_output_is_a_failure():
    case = harness.Case("m.mm", None)
    text = '{"pfaffian": [1e+154, 0], "cross_check_residual": inf}\n'
    assert harness._check_cli(case, (0, text)) == ("exit 0, unreadable output", None)
    assert harness._check_cli(case, (5, "")) == ("exit 5", None)


def test_command_line_contract(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "cli-scaled",
         "--seed", "5", "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_result(result, SPEC["end_to_end"], proc.stdout)

    # without the package source next to it the benchmark must fail, quietly
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "distinct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
