"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

A tiny-size run of each workload must print every metric that
BENCHMARK.json names, with its unit, and the checkers must count an op
with a wrong expected value, or one that raises, as failed.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(WORKLOADS)


@pytest.mark.parametrize("section, trace", [("end_to_end", 0),
                                            ("per_layer", 1)])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, section, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    report = "\n".join(lines[:-1])
    for name in expected:
        assert name in report
    if trace == 0:
        assert "fail_ratio" in report and "ops failed" in report
    else:
        assert "self-time partition" in report and "(ok)" in report


def one_op(name):
    wl = WORKLOADS[name]("tiny")
    records, _ = worker.measure(wl, seed=5, ops=1)
    return wl, records


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrong_expected_value_fails_the_op(name):
    wl, records = one_op(name)
    assert worker.check_all(wl, records) == [True]
    if name == "certify":
        mid = next(iter(wl.expected[0]))
        wl.expected[0][mid] += 1
    elif name == "float_scale":
        wl.expected_checked += 1
    else:
        out = records[0][1]
        value, point = out[0]
        out[0] = (value + Fraction(1, 1000), point)
    assert worker.check_all(wl, records) == [False]


def test_raising_op_fails():
    wl = WORKLOADS["region_lp"]("tiny")
    wl.configs = wl.configs[:1]
    wl.op_input = lambda seed, k: [[-1] * wl.configs[0].num_messages]
    records, _ = worker.measure(wl, seed=5, ops=2)
    assert [r[2] is not None for r in records] == [True, True]
    assert worker.check_all(wl, records) == [False, False]


def test_self_time_subtracts_children():
    spans = [["op", None, 0, 0.0, 10.0, None],
             ["a", 0, 0, 1.0, 5.0, None],
             ["b", 1, 0, 2.0, 3.0, None],
             ["c", 0, 0, 6.0, 7.5, None]]
    selfs = tracing.self_times(spans)
    assert selfs == [4.5, 3.0, 1.0, 1.5]
    assert tracing.partition_error(spans, selfs) == 0.0


def test_tracer_restores_the_library():
    from sigma_align import numerics, verify

    before = (numerics.matmul, verify.run_certified)
    tracer = tracing.Tracer()
    tracer.install()
    assert numerics.matmul is not before[0]
    tracer.uninstall()
    assert (numerics.matmul, verify.run_certified) == before


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_metrics_are_per_op_with_ratios_over_calls():
    spans = [["op", None, 0, 0.0, 4.0, None],
             ["verify.run_certified", 0, 0, 0.0, 1.0, {"fallback": True}],
             ["verify.run_certified", 0, 0, 1.0, 2.0, {"fallback": False}],
             ["op", None, 1, 4.0, 5.0, None]]
    layers = tracing.layer_metrics(spans, tracing.self_times(spans), 2)
    assert layers["verify.run_certified.calls"] == 1.0
    assert layers["verify.run_certified.fallback_ratio"] == 0.5
    assert layers["numerics.matmul.useful_ratio"] == 0.0
    assert set(layers) == {name for name, _, _ in tracing.PER_LAYER} \
        - {"trace.overhead_ratio"}


def test_measure_continues_the_op_sequence():
    wl = WORKLOADS["certify"]("tiny")
    records, _ = worker.measure(wl, seed=5, ops=2, first_op=3)
    assert [r[0] for r in records] == [wl.op_input(5, 3), wl.op_input(5, 4)]


def test_tail_has_ten_samples_beyond_it():
    walls = [float(x) for x in range(1, 26)]
    assert run.tail(walls) == (15.0, 60.0)
    assert run.tail(walls[:11]) == (1.0, 100.0 / 11)
    assert run.tail(walls[:4]) == (1.0, 25.0)
