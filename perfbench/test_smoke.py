"""Smoke tests for the benchmark: every workload, untraced and traced,
on the tiny --smoke inputs, against the metric schema in BENCHMARK.json.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from run import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(directory, *args):
    return subprocess.run(
        [sys.executable, str(directory / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_outputs_and_prints_schema(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    assert info["provenance"]["lacuna_file"].startswith(str(ROOT / "src"))


def test_refuses_to_run_without_the_sources():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(scratch, "--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(scratch)


def test_tail_needs_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    samples = [float(i) for i in range(1, 101)]
    value, percentile, n = tail(samples)
    assert (percentile, n) == (90, 100)
    assert sum(s > value for s in samples) == 10
