"""Tiny-size runs of every workload, in-process and through the CLI."""

import json
import shutil
import subprocess
import sys

import pytest

import campaigns
import layers
import run
from spanlog import Shims

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(campaigns.WORKLOADS))
def test_tiny_units_match_their_reference(name, tmp_path):
    workload = campaigns.make(name, 3, "tiny", tmp_path)
    units = [workload.run_unit(), workload.run_unit()]
    assert all(u.trials > 0 and u.seconds > 0 for u in units)
    reference = workload.reference()
    assert reference
    tally = run.count_failures(workload.op_keys(), units, reference)
    assert tally == {"attempted": 2 * len(workload.op_keys()), "failed": 0}


def test_a_wrong_output_counts_as_failed(tmp_path):
    workload = campaigns.make("service-spool", 3, "tiny", tmp_path)
    unit = workload.run_unit()
    reference = workload.reference()
    key = workload.op_keys()[0]
    reference[key] = ["not-the-digest", reference[key][1]]
    tally = run.count_failures(workload.op_keys(), [unit], reference)
    assert tally["failed"] == 1


def test_same_seed_same_inputs(tmp_path):
    for name in campaigns.WORKLOADS:
        a = campaigns.make(name, 5, "paper", tmp_path).describe()
        b = campaigns.make(name, 5, "paper", tmp_path).describe()
        c = campaigns.make(name, 6, "paper", tmp_path).describe()
        assert a == b and a != c


@pytest.mark.parametrize("name", sorted(campaigns.WORKLOADS))
def test_traced_unit_reports_every_layer_metric(name, tmp_path):
    workload = campaigns.make(name, 3, "tiny", tmp_path)
    recorder = layers.new_recorder()
    before = run.counters()
    with Shims(recorder) as shims:
        layers.install(shims)
        unit = workload.run_unit(recorder)
    metrics = layers.per_layer_metrics(
        recorder.spans, before, run.counters(),
        [unit.compile_info], [unit.store_stats], 1.0,
    )
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    shares = layers.self_time_shares(recorder.spans)
    assert sum(r["share"] for r in shares) == pytest.approx(1.0, abs=0.02)
    if name == "fig4-manycore":
        assert metrics["kernels.summarize_calls"] > 0
        assert metrics["calibration.assess_calls"] == 0
    else:
        assert metrics["service.shards"] > 0
        assert metrics["store.puts"] > 0
    if name == "loopback-sweep":
        assert metrics["transport.calls"] > 0
        assert metrics["coordinator.handle_s"] > 0
        assert metrics["randomizer.compile_hit_ratio"] > 0


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_and_checks_outputs(trace):
    proc = _cli(
        run.ROOT, "--workload", "loopback-sweep", "--seed", "2",
        "--seconds", "1", "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _cli(
        tmp_path, "--workload", "fig4-manycore", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
