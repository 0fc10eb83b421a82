"""Reduced-size runs of every workload, timed and traced, and the benchmark's
own contract: metric names, workload list and refusal outside a checkout."""

import shutil
import subprocess
import sys

import pytest

from harness import SETUP_REPEATS, timed_run
from tracing import Tracer, traced_run
from workloads import WORKLOADS

NAMES = sorted(WORKLOADS)


def test_benchmark_json_lists_the_workloads(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    for w in benchmark_json["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200


@pytest.mark.parametrize("workload", NAMES)
def test_timed_smoke(root, benchmark_json, workload):
    result = timed_run(workload, seed=3, seconds=0, root=root, size="smoke")
    assert result["problems"] == []
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == SETUP_REPEATS + len(WORKLOADS[workload].smoke.measured)
    assert result["summaries"]["setup_s"]["n"] == SETUP_REPEATS
    assert sorted(result["metrics"]) == sorted(m["name"] for m in benchmark_json["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert not (root / ".bench_work").exists()


@pytest.fixture(scope="module")
def traced(root):
    return {name: traced_run(name, seed=5, root=root, size="smoke") for name in NAMES}


def test_traced_metric_names(traced, benchmark_json):
    names = sorted(m["name"] for m in benchmark_json["per_layer"])
    for workload, result in traced.items():
        assert result["problems"] == [], workload
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == names


def value(traced, workload, name):
    return traced[workload]["metrics"][name]["value"]


def test_traced_analyze_counts(traced):
    for workload in ("analyze-d7", "analyze-wide", "build-d8"):
        assert value(traced, workload, "analyzer.count_s") > 0
        raw = value(traced, workload, "analyzer.codes_raw")
        assert raw >= value(traced, workload, "analyzer.codes_distinct") > 0
        # dim_series, check_nonperiodicity and entropy_partial each recount every n.
        assert value(traced, workload, "analyzer.count_calls") > \
            2 * value(traced, workload, "analyzer.count_distinct_n")
        scanned = value(traced, workload, "analyzer.recurrence_scanned")
        assert 0 < scanned <= value(traced, workload, "analyzer.recurrence_total")
        assert value(traced, workload, "persist.load_s") > 0
        assert value(traced, workload, "construction.members") > 0
    # n = 65 is the one wide n, counted by each of the three passes.
    assert value(traced, "analyze-wide", "analyzer.count_wide_calls") == 3
    assert value(traced, "analyze-d7", "analyzer.count_wide_calls") == 0


def test_traced_free_counts(traced):
    # products of length 1..4 over two generators: 2 + 4 + 8 + 16
    assert value(traced, "free-e1", "freesub.products_checked") == 30
    assert value(traced, "free-e1", "analyzer.factor_strings") > 0
    assert value(traced, "free-e1", "freesub.bounds_s") > 0
    assert value(traced, "free-e1", "persist.digest_calls") == 0
    assert value(traced, "analyze-d7", "freesub.products_checked") == 0


def test_traced_build_counts(traced):
    assert value(traced, "build-d8", "persist.file_bytes") > 0
    # save digests once; analyze digests on load and again for the report
    assert value(traced, "build-d8", "persist.digest_calls") == 3
    assert value(traced, "build-d8", "growth.compute_mu_calls") > 0
    assert value(traced, "build-d8", "construction.captures") == 2


def test_tracer_restores_every_function(root):
    sys.path.insert(0, str(root / "src"))
    from growthforge import analyzer, cli, construction

    before = (analyzer.dim_series, cli.analyzer.dim_series, construction.LevelSystem.expand,
              cli.build_uniformly_recurrent)
    tracer = Tracer()
    tracer.install()
    try:
        assert analyzer.dim_series is not before[0]
        assert cli.build_uniformly_recurrent is not before[3]
    finally:
        tracer.uninstall()
    after = (analyzer.dim_series, cli.analyzer.dim_series, construction.LevelSystem.expand,
             cli.build_uniformly_recurrent)
    assert after == before


def test_refuses_without_the_program(root, tmp_path):
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "free-e1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/growthforge" in proc.stderr
