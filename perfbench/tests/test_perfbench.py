"""Tests of the benchmark itself.

Run from the repository root (they are not part of the tier-1 suite)::

    python -m pytest perfbench/tests -q

- every workload, untraced and traced, emits exactly the metrics
  ``BENCHMARK.json`` names, at smoke-test sizes;
- the benchmark refuses to run without the program's sources;
- layer self times add up;
- the ``run_for`` runaway under windowed policy checks is pinned as an
  expected failure until the engine is fixed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import layertrace  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "--workload", "ondemand", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_account_for_root_spans():
    # root [0, 10] > child [2, 5] > grandchild [3, 4]; sibling [6, 7]
    names = ["cloud.step", "network.call", "event:xen", "crypto.sign"]
    snapshot = {
        "names": names,
        "start": array("d", [0.0, 2.0, 3.0, 6.0]),
        "end": array("d", [10.0, 5.0, 4.0, 7.0]),
        "parent": array("q", [-1, 0, 1, 0]),
        "name": array("i", [0, 1, 2, 3]),
    }
    summary = layertrace.summarize(snapshot)
    assert summary["root_s"] == 10.0
    assert summary["by_layer"]["cloud"] == 6.0
    assert summary["by_layer"]["network"] == 2.0
    assert summary["by_layer"]["xen"] == 1.0
    assert summary["by_layer"]["crypto"] == 1.0
    assert sum(summary["by_layer"].values()) == summary["root_s"]


#: single controller, 16 VMs on 4 servers, runtime check every 8 s and
#: CPU availability every 16 s with a 200 ms window; prints the simulated
#: ms one run_for(32 s) advanced and the host seconds it took
RUNAWAY = """
import sys, time
sys.path.insert(0, "src")
from repro import CloudMonatt, SecurityProperty
cloud = CloudMonatt(num_servers=4, seed=7, telemetry_enabled=True)
customer = cloud.register_customer("operator")
props = [SecurityProperty.RUNTIME_INTEGRITY, SecurityProperty.CPU_AVAILABILITY]
vids = [str(customer.launch_vm("small", "cirros", properties=props,
                               workload={"name": "idle"}).vid)
        for _ in range(16)]
customer.register_policy({
    "name": "runaway", "version": 1, "entities": vids,
    "checks": [
        {"name": "runtime", "property": "runtime_integrity",
         "period_ms": 8000.0, "staleness_budget_ms": 32000.0},
        {"name": "availability", "property": "cpu_availability",
         "period_ms": 16000.0, "staleness_budget_ms": 64000.0,
         "window_ms": 200.0},
    ],
})
print("ready", flush=True)
start, t0 = cloud.now, time.perf_counter()
cloud.run_for(32000.0)
print(cloud.now - start, time.perf_counter() - t0, flush=True)
"""

#: host seconds run_for(32 s) may take once the runaway is fixed
RUNAWAY_GUARD_S = 20.0


@pytest.mark.xfail(
    strict=True,
    reason="known defect: windowed measurements re-enter run_until from "
           "inside policy-fired events, and each nested window lets more "
           "firings start, so run_for overshoots its horizon without bound",
)
def test_run_for_stays_near_its_horizon_under_windowed_policy():
    proc = subprocess.Popen(
        [sys.executable, "-c", RUNAWAY], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        try:
            out, _ = proc.communicate(timeout=RUNAWAY_GUARD_S)
        except subprocess.TimeoutExpired:
            pytest.fail(f"run_for(32000) still running after "
                        f"{RUNAWAY_GUARD_S:.0f} s of host time")
    finally:
        proc.kill()
        proc.wait()
    advanced_ms, host_s = (float(x) for x in out.split())
    assert host_s <= RUNAWAY_GUARD_S
    assert advanced_ms <= 2 * 32000.0
