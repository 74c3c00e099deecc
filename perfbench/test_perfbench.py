"""The benchmark's own checks: determinism, digests and output contract.

Run alone from the repository root (it installs the layer wrappers
process-wide)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC_COUNTS = ("cpu.step.calls", "casu.observe.calls",
                        "isa.decode.calls", "faults.run_faulted.calls",
                        "faults.steps_per_fault")


@pytest.fixture(scope="module")
def tracer():
    active = tracing.Tracer()
    tracing.install(active)
    return active


def _short(name, seed, work_root):
    if name == "table4_run":
        return workloads.table4_run(seed,
                                    apps=("light_sensor", "ultrasonic_ranger"))
    if name == "fault_sweep":
        return workloads.fault_sweep(seed, sweeps=2, per_sweep=2)
    return workloads.control_plane(seed, str(work_root), devices=24,
                                   requests=12)


def _traced(tracer, name, seed, work_root):
    tracer.reset()
    result = _short(name, seed, work_root)
    counts = {key: metric["value"]
              for key, metric in tracer.metrics(1.0).items()
              if key in DETERMINISTIC_COUNTS}
    return result, counts


@pytest.mark.parametrize("name", ("table4_run", "fault_sweep",
                                  "control_plane"))
def test_same_seed_repeats_digest_and_counts(tracer, tmp_path, name):
    first, first_counts = _traced(tracer, name, 5, tmp_path)
    second, second_counts = _traced(tracer, name, 5, tmp_path)
    assert first.correct, first.gate_failures
    assert second.correct, second.gate_failures
    assert first.attempted >= 1
    assert first.digest_sha256 == second.digest_sha256
    assert first.digest_counts == second.digest_counts
    assert first_counts == second_counts
    assert first_counts["cpu.step.calls"] > 0


@pytest.mark.parametrize("name", ("fault_sweep", "control_plane"))
def test_other_seed_changes_digest(tracer, tmp_path, name):
    first, _ = _traced(tracer, name, 5, tmp_path)
    other, _ = _traced(tracer, name, 6, tmp_path)
    assert first.digest_sha256 != other.digest_sha256


def test_table4_digest_ignores_seed(tracer, tmp_path):
    # The seed only orders the runs; the apps' stimuli are fixed.
    first, _ = _traced(tracer, "table4_run", 5, tmp_path)
    other, _ = _traced(tracer, "table4_run", 6, tmp_path)
    assert first.digest_sha256 == other.digest_sha256


def test_median_rate_seconds_discounts_a_slowed_window():
    # Nine windows at 100 counts/s and one the host slowed tenfold.
    windows = [(10, 0.1, 0)] * 9 + [(10, 1.0, 0)]
    assert workloads.median_rate_seconds(windows) == pytest.approx(1.0)
    # Each CPU at its own median: 100 counts/s on one, 50 on the other.
    windows = [(10, 0.1, 0)] * 5 + [(10, 0.2, 1)] * 5
    assert workloads.median_rate_seconds(windows) == pytest.approx(1.5)
    # Too few windows to rate: their summed time.
    assert workloads.median_rate_seconds([(5, 0.2, 0), (5, 0.3, 0)]) \
        == pytest.approx(0.5)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


@pytest.mark.parametrize("trace", ("0", "1"))
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "end_to_end" if trace == "0" else "per_layer"
    proc = _run(["--workload", "fault_sweep", "--seed", "3", "--seconds", "1",
                 "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in spec[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "table4_run", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
