"""Tiny-seed smoke run of every workload through the real command."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.metric_units("per_layer" if trace == "1" else "end_to_end")
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        for name in ("setup_s", "wall_s", "peak_rss_mb", "latency_s.p50", "jobs_per_s"):
            assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in run.metric_units("end_to_end")


def test_refuses_to_run_without_library_sources(tmp_path):
    # A checkout holding only BENCHMARK.json and the benchmark's own files.
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (copy / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as handle:
        (tmp_path / "BENCHMARK.json").write_bytes(handle.read())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "resyn-cegis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_schedule_spreads_short_goal_repetitions_over_the_pass():
    import inproc

    goals = [(tag, None, None) for tag in ("a", "replicate/resyn", "b", "take/resyn")]
    order = [tag for tag, _, _ in inproc.schedule(goals)]
    assert order.count("a") == order.count("b") == workloads.REPEATS
    assert order.count("replicate/resyn") == order.count("take/resyn") == 1
    # Short-goal rounds come before, between and after the long goals.
    first, second = order.index("replicate/resyn"), order.index("take/resyn")
    assert {"a", "b"} <= set(order[:first])
    assert {"a", "b"} <= set(order[first + 1:second])
    assert {"a", "b"} <= set(order[second + 1:])
