"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced and checks that each
metric BENCHMARK.json names is printed with its unit; checks that the
oracle counts a perturbed row as a failed item, so that a fail_frac of 0
is not vacuous; and checks that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_and_layer_table_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == inputs.WORKLOADS
    table = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for row in table["layers"]:
        assert set(row["metrics"]) <= per_layer
        assert set(row["moves_norm_wall_s_of"]) <= set(inputs.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, kind):
    done = _run(HERE / "run.py", "--workload", "all", "--seed", "7",
                "--seconds", "0", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in inputs.WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("column, delta", [("flux_ratio_sq", -1e-6),
                                           ("s_tilde", 1e-6)])
def test_oracle_counts_a_perturbed_row(tmp_path, column, delta):
    seed = 5
    done = _run(HERE / "worker.py", "--workload", "mc_qubit", "--seed", str(seed),
                "--workdir", str(tmp_path), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text())

    def tally():
        return oracle.check("mc_qubit", inputs.TINY, seed, tmp_path,
                            result["status"], result["rerun_status"])

    clean = tally()
    assert clean.failed == 0
    assert clean.attempted == len(result["status"]) * inputs.TINY.mc_draws
    # perturb one row of a pass other than the first, which the rerun
    # comparison would catch on its own; the reported chain still holds
    path = tmp_path / "1.montecarlo.csv"
    rows = oracle.read_csv(path)
    target = max(range(len(rows)), key=lambda i: rows[i]["flux_ratio_sq"])
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[target + 1].split(",")
    fields[header.index(column)] = repr(rows[target][column] + delta)
    lines[target + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert tally().failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path / HERE.name / "run.py", "--workload", "mc_qubit",
                "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
