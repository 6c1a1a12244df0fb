"""Tests of the benchmark itself: generators, oracle checks, smoke runs.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from gen import chung_lu, gnm, write_edge_list  # noqa: E402
from oracle import (SIGMAS, check_exact, check_sampled,  # noqa: E402
                    graph_facts)

from motifcensus import (exact_census, load_graph,  # noqa: E402
                         run_sampled_census)


@pytest.mark.parametrize("make", [
    lambda s: gnm(300, 900, s),
    lambda s: gnm(300, 900, s, directed=True),
    lambda s: chung_lu(400, 1500, 2.5, s),
], ids=["gnm", "gnm-directed", "chung-lu"])
def test_generators_give_identical_files_per_seed(tmp_path, make):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_edge_list(make(7), a)
    write_edge_list(make(7), b)
    write_edge_list(make(8), c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gnm_is_simple_with_exactly_m_edges():
    pairs = gnm(300, 900, 3)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    assert np.unique(lo * 300 + hi).size == 900


def _graph(tmp_path, pairs, directed=False):
    path = tmp_path / "g.txt"
    write_edge_list(pairs, path)
    return load_graph(path, directed=directed), graph_facts(pairs)


@pytest.fixture
def size4(tmp_path):
    g, facts = _graph(tmp_path, chung_lu(400, 2000, 2.5, 3))
    step = {"mode": "sample", "size": 4, "budget": 20_000}
    report = run_sampled_census(g, 4, budget=step["budget"], seed=1)
    return report.to_dict(), facts, step


def test_clean_sampled_reports_pass(size4, tmp_path):
    assert check_sampled(*size4) == []
    g, facts = _graph(tmp_path, gnm(300, 1500, 4, directed=True), True)
    step = {"mode": "sample", "size": 3, "budget": 20_000}
    report = run_sampled_census(g, 3, budget=step["budget"], seed=2)
    assert check_sampled(report.to_dict(), facts, step) == []


def test_frame_total_off_by_one_fails(size4):
    report, facts, step = size4
    report = copy.deepcopy(report)
    report["frame_totals"]["chain"] += 1
    fails = check_sampled(report, facts, step)
    assert len(fails) == 1 and fails[0].startswith("frame_totals")


def test_degenerate_shifted_by_ten_sigma_fails(size4):
    report, facts, step = size4
    report = copy.deepcopy(report)
    chain = report["experiments"]["chain"]
    p = 3 * facts["triangles"] / facts["chain"]
    shift = math.ceil(10 * math.sqrt(chain["n_experiments"] * p * (1 - p)))
    chain["degenerate"] += shift
    # keep the accounting balanced so only the binomial check can fire
    for m in report["motifs"]:
        take = min(shift, m["detections"]["chain"])
        m["detections"]["chain"] -= take
        shift -= take
    assert shift == 0
    fails = check_sampled(report, facts, step)
    assert len(fails) == 1
    assert fails[0].startswith("chain degenerate")
    assert f"{SIGMAS} sd" in fails[0]


def test_budget_short_by_one_fails(size4):
    report, facts, step = size4
    report = copy.deepcopy(report)
    report["experiments"]["trident"]["n_experiments"] -= 1
    hit = next(m for m in report["motifs"] if m["detections"]["trident"])
    hit["detections"]["trident"] -= 1
    fails = check_sampled(report, facts, step)
    assert fails == [f"experiments {step['budget'] - 1} != budget "
                     f"{step['budget']}"]


def test_unbalanced_accounting_fails(size4):
    report, facts, step = size4
    report = copy.deepcopy(report)
    report["motifs"][0]["detections"]["chain"] += 1
    fails = check_sampled(report, facts, step)
    assert len(fails) == 1 and fails[0].startswith("chain: detections")


def _exact_report(g, size):
    from motifcensus import arrcode_table
    census = exact_census(g, size)
    table = arrcode_table(size, g.directed)
    return {"size": size, "directed": g.directed,
            "motifs": [{"class_id": c.class_id,
                        "canonical_code": c.canonical_code,
                        "count": census.counts[c.class_id]}
                       for c in table.classes if c.connected]}


@pytest.mark.parametrize("size", [3, 4])
def test_exact_checks_pass_then_fail_on_a_miscount(tmp_path, size):
    g, facts = _graph(tmp_path, gnm(200, 1200, 5))
    report = _exact_report(g, size)
    assert check_exact(report, facts) == []
    report["motifs"][-1]["count"] += 1
    assert check_exact(report, facts)


def test_self_times_and_trace_check():
    spans = [["estimator.census", 0.0, 10.0, -1],
             ["frames.draw", 1.0, 3.0, 0],
             ["classify.codes", 4.0, 9.0, 0]]
    assert bench.self_times(spans) == {"estimator.census": 3.0,
                                       "frames.draw": 2.0,
                                       "classify.codes": 5.0}
    assert bench.trace_failures(spans) == []
    spans[2][2] = 11.0
    assert bench.trace_failures(spans)


def test_typical_is_the_mean_over_graphs_of_interquartile_means():
    assert bench.interquartile_mean([9.0, 1.0, 2.0, 3.0]) == 2.5
    assert bench.interquartile_mean([1.0, 2.0, 6.0]) == 3.0
    runs = [[{"t": 100.0}, {"t": 2.0}, {"t": 1.0}, {"t": 3.0}],
            [{"t": 5.0}], []]
    assert bench.typical(runs, ["t"]) == {"t": 3.75}
    assert bench.typical([[]], ["t"]) == {"t": 0.0}


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    out = _run(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "0.02"], ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(names)
    table = "\n".join(lines[:-1])
    for name in names:
        assert name in table


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "gnm-u34-exact", "--seed", "1", "--seconds",
                "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()
