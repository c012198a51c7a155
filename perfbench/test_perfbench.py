"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

Each test runs perfbench/run.py as its own process, as the benchmark is
run, with one-second runs; the whole file takes a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, trace=0, seed=3, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_run_py():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench_run
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == \
        list(perfbench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        list(perfbench_run.PER_LAYER)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


def test_host_clock_scales_each_piece_by_the_kernel_runs_around_it():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench_run
    ref = perfbench_run.REFERENCE_S
    clock = perfbench_run.HostClock()
    # kernel runs of ref, 3 * ref and ref: both gaps between them average
    # 2 * ref, so the host ran at half the reference speed
    clock.samples = [(0.0, ref), (1.0, 1.0 + 3 * ref), (2.0, 2.0 + ref)]
    raw, scaled = clock.seconds(0.5, 1.5)
    assert raw == pytest.approx(0.5 + (0.5 - 3 * ref))
    assert scaled == pytest.approx(raw / 2)
    # the kernel runs themselves are left out
    assert clock.seconds(0.0, 2.0 + ref)[0] == pytest.approx(2.0 - 4 * ref)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_gate(workload):
    res = result(run(workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_fails_the_gate(workload):
    res = result(run(workload, 0, 3, "--inject-fault"))
    assert not res["correct"] and res["failed"] > 0


COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


@pytest.mark.parametrize("workload", ["bounds-minimize", "pair-gain-corpus"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(run(workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = first["metrics"]
    if workload == "bounds-minimize":
        # one op minimizes two surfaces; the scan is 256 x 256 points each
        assert m["bounds.scan_evals"]["value"] == 2 * 65_536
        assert m["ranking.run_ranking.calls"]["value"] == 0
    else:
        assert m["analysis.PairSweep.run.lanes"]["value"] == \
            m["analysis.PairSweep.run.calls"]["value"] * 200 ** 2
        assert m["bounds.scan_evals"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("simulate-ut100", 0, 3, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
