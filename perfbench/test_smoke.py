"""The benchmark's own test: every workload's jobs and checks on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int) -> tuple[dict, str]:
    proc = run(HERE.parent, "--smoke", "--workload", workload, "--seed", "3",
               "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "outputs sha256" in line)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_workload(workload):
    plain, plain_digest = smoke(workload, 0)
    traced, traced_digest = smoke(workload, 1)
    again, again_digest = smoke(workload, 0)
    for result in (plain, traced, again):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    # Byte-identical outputs with and without tracing, and across runs.
    assert plain_digest == traced_digest == again_digest
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for spec in BENCH["end_to_end"]:
        assert plain["metrics"][spec["name"]]["value"] > 0
        assert plain["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "search", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
