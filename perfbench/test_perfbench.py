"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run passes its oracle checks and prints every metric that
BENCHMARK.json names, with the declared unit, and that the benchmark
refuses to run where there are no sources to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# anneal runs on demand only, but reports the same metrics
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["anneal"]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], (int, float)), m["name"]
        if not trace:
            assert reported["value"] > 0, m["name"]
    assert "env {" in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run("dense", 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_units_scale_by_their_nearest_probes():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import hostspeed
    import workloads

    nominal = hostspeed.INTERPRETER.nominal_s
    clock = hostspeed.HostClock(hostspeed.INTERPRETER)
    clock.bucket = [nominal] * 5 + [2 * nominal] * 5  # the host halves its speed
    assert clock.speed(2) == 1.0
    assert clock.speed(8) == 0.5
    assert clock.speed() == pytest.approx(1 / 1.5)

    def result(wall, unit_s, speed, scale=None):
        data = {"unit_s": unit_s, "speed": speed}
        if scale is not None:
            data["scale"] = scale
        return workloads.PassResult(wall, 1, 0, [], data)

    # a unit at its median over the passes; the rest of a pass by its factor
    passes = [result(10.0, [2.0, 4.0], 0.5, [1.0, 0.25]),
              result(10.0, [2.0, 4.0], 1.0, [1.0, 1.0]),
              result(12.0, [4.0, 4.0], 1.0, [0.5, 0.5])]
    assert workloads.median_pass(passes, "unit_s") == ([2.0, 2.0], 4.0)
    # units not marked one by one take the pass's factor
    assert workloads.median_pass([result(10.0, [2.0, 4.0], 0.5)], "unit_s") == ([1.0, 2.0], 2.0)
    assert hostspeed.HostClock(None).speed() == 1.0
