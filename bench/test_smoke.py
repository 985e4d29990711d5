"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload once with tracing off and once with tracing on, one
cycle of invocation shapes each, and checks that the result line is
correct and carries every metric named in BENCHMARK.json with its unit.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--calls", str(workloads.CYCLES[workload])]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] == workloads.CYCLES[workload] * (1 + trace)
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in names}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_without_sources():
    """In a tree holding only BENCHMARK.json and the benchmark, the
    benchmark fails and prints no result."""
    work = ROOT / "bench" / "_work"
    work.mkdir(exist_ok=True)
    tree = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copytree(ROOT / "bench", tree / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=tree, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(tree)
        if not any(work.iterdir()):
            work.rmdir()
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
