"""Acceptance gate: one test per claim the package stands on.

Each test prints a PASS/FAIL line through the terminal-summary hook so a
run leaves one line per criterion.  Statistical checks use fixed seeds and
are deterministic.
"""

import functools
import math
import time

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from motifcensus import (FrameKind, Graph, arrcode_table, build_arrcode,
                         exact_census, frame_sampler, frame_totals,
                         koef_table, kinds_for_size, run_sampled_census)
from conftest import record_criterion
from oracles import (common_neighbor_pairs, frame_keys, frames_brute,
                     isomorphism_class_counts, random_graph)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except Exception:
                record_criterion(f"FAIL criterion {num}: {label}")
                raise
            suffix = f" [{detail}]" if detail else ""
            record_criterion(f"PASS criterion {num}: {label}{suffix}")
        return wrapper
    return deco


def _gnm(n, m, seed):
    gx = nx.gnm_random_graph(n, m, seed=seed)
    return Graph.from_edges(n, list(gx.edges()))


# -- criterion 1 ------------------------------------------------------------


@criterion(1, "class catalog counts across all four families")
def test_criterion_1_catalog_counts():
    t0 = time.perf_counter()
    fresh = {fam: build_arrcode(*fam)
             for fam in [(3, False), (3, True), (4, False), (4, True)]}
    counts = {fam: (t.n_classes, t.n_connected) for fam, t in fresh.items()}
    build_elapsed = time.perf_counter() - t0

    oracle = isomorphism_class_counts(4, True)
    assert counts[(3, False)] == (4, 2)
    assert counts[(3, True)] == (16, 13)
    assert counts[(4, False)] == (11, 6)
    assert counts[(4, True)] == (218, oracle[1])
    assert counts[(4, True)] == oracle
    assert build_elapsed < 1.0
    return (f"directed-4: 218 classes, {oracle[1]} weakly connected by "
            f"two independent builds; 198 is the commonly circulated "
            f"figure; built in {build_elapsed:.3f}s")


# -- criterion 2 ------------------------------------------------------------


@criterion(2, "arrcode table fidelity")
def test_criterion_2_arrcode_fidelity():
    assert arrcode_table(3, False).entries.tolist() == \
        [0, 1, 1, 2, 1, 2, 2, 3]
    lengths = [arrcode_table(*fam).n_codes
               for fam in [(3, False), (3, True), (4, False), (4, True)]]
    assert lengths == [8, 64, 64, 4096]
    return "undirected-3 entries and table lengths 8/64/64/4096"


# -- criterion 3 ------------------------------------------------------------


@criterion(3, "frame totals and handshake identities on 200 random graphs")
def test_criterion_3_frame_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    for trial in range(200):
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.1, 0.8))
        directed = bool(trial % 2)
        g = random_graph(rng, n, p, directed)
        totals = frame_totals(g)
        for kind in (FrameKind.FORK, FrameKind.TRIDENT, FrameKind.CHAIN):
            assert totals.for_kind(kind) == len(frames_brute(g, kind))

        c3 = exact_census(g, 3).counts
        k3 = koef_table(3, directed)
        assert sum(c * k3.koef(cid, FrameKind.FORK)
                   for cid, c in c3.items()) == totals.n_fork

        c4 = exact_census(g, 4).counts
        k4 = koef_table(4, directed)
        assert sum(c * k4.koef(cid, FrameKind.TRIDENT)
                   for cid, c in c4.items()) == totals.n_trident
        open_chains = totals.n_chain - common_neighbor_pairs(g)
        assert sum(c * k4.koef(cid, FrameKind.CHAIN)
                   for cid, c in c4.items()) == open_chains
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    return f"200 graphs in {elapsed:.2f}s"


# -- criterion 4 ------------------------------------------------------------


@criterion(4, "equiprobable sampling (chi-square at 1e-3, 1e5 per kind)")
def test_criterion_4_equiprobability(k4):
    t0 = time.perf_counter()
    eight = _gnm(8, 14, seed=1)
    n_samples = 100_000
    worst = 1.0
    for g, seed0 in ((k4, 400), (eight, 500)):
        for offset, kind in enumerate(
                (FrameKind.FORK, FrameKind.TRIDENT, FrameKind.CHAIN)):
            expected = sorted(frame_keys(g, kind, np.array(
                [v for v, _ in frames_brute(g, kind)]).T).tolist())
            rng = np.random.default_rng(seed0 + offset)
            batch = frame_sampler(g, kind).sample_batch(rng, n_samples)
            got = frame_keys(g, kind, batch.vertices)
            uniq, obs = np.unique(got, return_counts=True)
            assert uniq.tolist() == expected
            p = stats.chisquare(obs).pvalue
            worst = min(worst, p)
            assert p > 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    return f"6 graph/kind pairs, min p={worst:.4f}, {elapsed:.2f}s"


# -- criteria 5 and 6 share one set of runs ---------------------------------


@pytest.fixture(scope="module")
def fixture_runs():
    g = _gnm(200, 1000, seed=0)
    exact = exact_census(g, 4)
    t0 = time.perf_counter()
    reports = [run_sampled_census(g, 4, budget=200_000, seed=s)
               for s in range(1, 51)]
    elapsed = time.perf_counter() - t0
    return g, exact, reports, elapsed


@criterion(5, "unbiased size-4 estimates on G(200, 1000)")
def test_criterion_5_unbiasedness(fixture_runs):
    g, exact, reports, elapsed = fixture_runs
    assert elapsed < 300.0
    checked = []
    for cid, true_count in exact.counts.items():
        if true_count <= 50:
            continue
        values = np.array([
            next(m["n_hat"] for m in rep.motifs if m["class_id"] == cid)
            for rep in reports])
        mean = values.mean()
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(mean - true_count) < 3 * se, \
            f"class {cid}: mean {mean:.1f} vs exact {true_count} (se {se:.2f})"
        checked.append((cid, true_count, mean, se))
    assert len(checked) == 5
    spread = max(abs(m - t) / (3 * s) for _, t, m, s in checked)
    return (f"5 classes with exact count > 50, 50 runs of 2e5 samples in "
            f"{elapsed:.1f}s, worst |z|/3 = {spread:.2f}")


def _squared_cv(lam, n_a, d_a, n_b, d_b):
    with np.errstate(divide="ignore", invalid="ignore"):
        mix_n = n_a + lam * (n_b - n_a)
        mix_d = (1 - lam) ** 2 * d_a + lam ** 2 * d_b
        out = np.where(mix_n > 0, mix_d / np.where(mix_n > 0, mix_n, 1) ** 2,
                       np.inf)
    return out


@criterion(6, "reported lambda minimizes squared CV; mixing never hurts")
def test_criterion_6_mixing_optimality(fixture_runs):
    g, _, reports, _ = fixture_runs
    totals = frame_totals(g)
    koefs = koef_table(4, False)
    grid = np.linspace(0.0, 1.0, 1001)
    n_checked = 0
    for rep in reports:
        n_by_kind = {k: rep.experiments[k.value]["n_experiments"]
                     for k in kinds_for_size(4)}
        for m in rep.motifs:
            lam = m["lambda"]
            if lam is None:
                continue
            # rebuild both single estimates from raw tallies
            parts = {}
            for kind in kinds_for_size(4):
                c = m["detections"][kind.value]
                n_exp = n_by_kind[kind]
                kf = koefs.koef(m["class_id"], kind)
                scale = totals.for_kind(kind) / (kf * n_exp)
                n_hat = c * scale
                var = scale * scale * c * (1 - c / n_exp)
                parts[kind] = (n_hat, var)
            (n_a, d_a) = parts[FrameKind.CHAIN]
            (n_b, d_b) = parts[FrameKind.TRIDENT]
            at_lam = float(_squared_cv(np.array(lam), n_a, d_a, n_b, d_b))
            best = float(_squared_cv(grid, n_a, d_a, n_b, d_b).min())
            assert at_lam <= best + 1e-12
            mixed_var = (1 - lam) ** 2 * d_a + lam ** 2 * d_b
            assert mixed_var <= min(d_a, d_b) + 1e-12
            assert mixed_var == pytest.approx(m["variance"], rel=1e-9)
            n_checked += 1
    assert n_checked >= 50  # paw and diamond mix in every run
    return f"{n_checked} mixed estimates grid-checked"


# -- criterion 7 ------------------------------------------------------------


@criterion(7, "degenerate chains consume budget without detecting")
def test_criterion_7_degenerate_chains(k3):
    batch = frame_sampler(k3, FrameKind.CHAIN).sample_batch(
        np.random.default_rng(700), 5000)
    assert bool(batch.degenerate.all())

    report = run_sampled_census(k3, 4, budget=5000, seed=701)
    chain = report.experiments["chain"]
    assert chain["n_experiments"] == 5000
    assert chain["degenerate"] == 5000
    assert all(m["n_hat"] == 0.0 for m in report.motifs)
    assert all(v == 0 for m in report.motifs
               for v in m["detections"].values())
    return "5000 triangle chain samples, all degenerate, all estimates 0"


# -- criterion 8 ------------------------------------------------------------


@criterion(8, "directed feed-forward triangle, exact and sampled")
def test_criterion_8_directed_pipeline(ffl):
    exact = exact_census(ffl, 3)
    nonzero = exact.nonzero()
    assert len(nonzero) == 1
    assert list(nonzero.values()) == [1]
    (cid,) = nonzero

    means = []
    for seed in range(1, 21):
        rep = run_sampled_census(ffl, 3, budget=2000, seed=seed)
        hits = [m for m in rep.motifs if m["n_hat"] > 0]
        assert len(hits) == 1
        assert hits[0]["class_id"] == cid
        assert hits[0]["cv"] == 0.0
        means.append(hits[0]["n_hat"])
    assert float(np.mean(means)) == 1.0
    return "count 1 of 1 class; 20 sampled runs all estimate 1.0 at cv 0"


# -- criterion 9 ------------------------------------------------------------


@criterion(9, "per-sample cost versus graph size (reported, not gated)")
def test_criterion_9_scaling():
    budget = 300_000
    latencies = {}
    for n, m in ((2_000, 10_000), (20_000, 100_000)):
        g = _gnm(n, m, seed=9)
        t0 = time.perf_counter()
        run_sampled_census(g, 4, budget=budget, seed=90)
        latencies[m] = (time.perf_counter() - t0) / budget
    ratio = latencies[100_000] / latencies[10_000]
    within = "within" if ratio < 2.0 else "OUTSIDE"
    return (f"10x edges changes per-sample latency {ratio:.2f}x, "
            f"{within} the 2x soft bound; "
            f"{1e9 * latencies[100_000]:.0f} ns/sample at 1e5 edges")
