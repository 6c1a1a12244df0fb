import json
import math
from fractions import Fraction

import numpy as np
import pytest

import motifcensus
from motifcensus import (FrameKind, FrameTotals, arrcode_table, estimator,
                         exact_census, frame_sampler, frame_totals,
                         kinds_for_size, koef_table, loads_graph,
                         optimal_lambda, run_sampled_census)
from oracles import estimate_rows, random_graph


def _estimates(size, totals, n, hits):
    """_build_estimates on a crafted tally: n and hits give experiments
    and {class_id: detections} for the kinds that drew."""
    kinds = kinds_for_size(size)
    n_classes = arrcode_table(size, False).n_classes
    arrays = {k: np.zeros(n_classes, dtype=np.int64) for k in kinds}
    for kind, by_class in hits.items():
        for cid, c in by_class.items():
            arrays[kind][cid] = c
    return estimator._build_estimates(
        koef_table(size, False), totals,
        {k: n.get(k, 0) for k in kinds}, arrays)


def test_single_estimate_formula(k3):
    tri = arrcode_table(3, False).entries[0b111]
    n_hat, variance, cv, lam, parts = _estimates(
        3, frame_totals(k3), {FrameKind.FORK: 100},
        {FrameKind.FORK: {tri: 40}})
    # n_hat = (40/100) * 3 / 3, var = 9/(9*100^2) * 40 * 0.6
    assert n_hat[tri] == pytest.approx(0.4)
    assert variance[tri] == pytest.approx(40 * 0.6 / 100 ** 2)
    assert cv[tri] == pytest.approx(math.sqrt(variance[tri]) / n_hat[tri])
    assert parts[:, tri].tolist() == [True]   # sources: fork
    assert math.isnan(lam[tri])


def test_single_estimate_edge_cases(k3):
    totals = frame_totals(k3)
    table = arrcode_table(3, False)
    tri = table.entries[0b111]
    path = table.entries[0b011]

    n_hat, variance, cv, _, parts = _estimates(
        3, totals, {FrameKind.FORK: 50}, {})
    assert n_hat[tri] == 0 and variance[tri] == 0 and math.isnan(cv[tri])
    # the empty class has koef 0: forks cannot see it, so it has no row
    assert not parts[:, 0].any()
    assert parts[:, path].all()

    n_hat, variance, cv, _, _ = _estimates(
        3, totals, {FrameKind.FORK: 50}, {FrameKind.FORK: {tri: 50}})
    assert n_hat[tri] == pytest.approx(1.0)  # 3 forks / koef 3
    assert variance[tri] == 0 and cv[tri] == 0

    # no experiments recorded: no class is estimated
    assert not _estimates(3, totals, {}, {})[4].any()


def test_optimal_lambda_worked_example():
    lam = optimal_lambda(90.0, 25.0, 110.0, 100.0)
    assert lam == pytest.approx(2750 / 11750)
    assert lam == pytest.approx(0.23404, abs=5e-6)


def test_optimal_lambda_corner_cases():
    assert optimal_lambda(50, 10, 80, 10) == pytest.approx(
        80 * 10 / (50 * 10 + 80 * 10))
    assert optimal_lambda(50, 0, 80, 10) == 0.0   # A is variance-free
    assert optimal_lambda(50, 10, 80, 0) == 1.0   # B is variance-free
    assert optimal_lambda(50, 0, 80, 0) == 0.5    # both variance-free ties
    assert optimal_lambda(0, 0, 80, 10) == 1.0    # A saw nothing
    assert optimal_lambda(50, 10, 0, 0) == 0.0    # B saw nothing
    with pytest.raises(ValueError):
        optimal_lambda(0, 0, 0, 0)
    with pytest.raises(ValueError):
        optimal_lambda(-1, 1, 1, 1)


def _squared_cv(lam, n_a, d_a, n_b, d_b):
    mix_n = n_a + lam * (n_b - n_a)
    mix_d = (1 - lam) ** 2 * d_a + lam ** 2 * d_b
    return mix_d / mix_n ** 2


def test_optimal_lambda_minimizes_squared_cv_on_a_grid():
    rng = np.random.default_rng(41)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(200):
        n_a, n_b = rng.uniform(0.1, 100, size=2)
        d_a, d_b = rng.uniform(0.0, 50, size=2)
        lam = optimal_lambda(n_a, d_a, n_b, d_b)
        best = _squared_cv(grid, n_a, d_a, n_b, d_b).min()
        at_lam = _squared_cv(lam, n_a, d_a, n_b, d_b)
        assert at_lam <= best + 1e-12 + 1e-9 * best


def test_optimal_lambda_takes_arrays():
    rng = np.random.default_rng(42)
    n_a, n_b = rng.uniform(0.0, 100, size=(2, 50)).round(0)
    d_a, d_b = rng.uniform(0.0, 50, size=(2, 50)).round(0)
    n_b[n_a == 0] = 1.0
    n_a[:4], d_a[:4], n_b[:4], d_b[:4] = [50, 50, 0, 50], 0, [80, 80, 80, 0], \
        [0, 10, 0, 0]
    lam = optimal_lambda(n_a, d_a, n_b, d_b)
    assert lam.shape == (50,)
    assert lam.tolist() == [optimal_lambda(*x) for x in
                            zip(n_a.tolist(), d_a.tolist(), n_b.tolist(),
                                d_b.tolist())]
    assert lam[:4].tolist() == [0.5, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        optimal_lambda(np.array([1.0, 0.0]), 1.0, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        optimal_lambda(n_a, d_a, n_b, np.where(d_b > 0, -d_b, 0.0))


# a size-4 clique has koef 12 (chains) and 4 (tridents); frame totals and
# tallies below are chosen so that its chain and trident estimates come
# out at prescribed (n_hat, variance)
CLIQUE = arrcode_table(4, False).entries[0b111111]


def _clique(chain, trident):
    """Mixed clique estimate from (frame total, experiments, detections)
    per kind."""
    totals = FrameTotals(n_fork=0, n_trident=trident[0], n_chain=chain[0])
    n_hat, variance, cv, lam, parts = _estimates(
        4, totals, {FrameKind.CHAIN: chain[1], FrameKind.TRIDENT: trident[1]},
        {FrameKind.CHAIN: {CLIQUE: chain[2]},
         FrameKind.TRIDENT: {CLIQUE: trident[2]}})
    return n_hat[CLIQUE], variance[CLIQUE], lam[CLIQUE], parts[:, CLIQUE]


def test_mixed_estimate_worked_example():
    # chain (90, 25): 162 of 324 over 180 * 12 frames;
    # trident (110, 100): 110 of 1210 over 1210 * 4 frames
    n_hat, variance, mixed_lam, parts = _clique((2160, 324, 162),
                                                (4840, 1210, 110))
    lam = Fraction(2750, 11750)
    assert mixed_lam == pytest.approx(float(lam))
    assert n_hat == pytest.approx(float(90 + lam * 20))
    expected_var = float((1 - lam) ** 2 * 25 + lam ** 2 * 100)
    assert variance == pytest.approx(expected_var)
    assert n_hat == pytest.approx(94.681, abs=5e-4)
    assert variance == pytest.approx(20.145, abs=5e-4)
    assert parts.tolist() == [True, True]   # sources: chain, trident


def test_mixed_estimate_identical_inputs_halve_variance():
    # both (50, 8): 250 of 1250 over 250 * koef frames
    n_hat, variance, lam, _ = _clique((3000, 1250, 250), (1000, 1250, 250))
    assert lam == 0.5
    assert n_hat == 50.0
    assert variance == pytest.approx(4.0)


def test_mixed_estimate_prefers_variance_free_side():
    # chain (50, 8) as above; trident (47, 0): 10 of 10 over 47 * 4 frames
    n_hat, variance, lam, _ = _clique((3000, 1250, 250), (188, 10, 10))
    assert lam == 1.0
    assert n_hat == 47.0
    assert variance == 0.0


def test_run_requires_a_stopping_rule(k4):
    with pytest.raises(ValueError):
        run_sampled_census(k4, 4, seed=1)
    with pytest.raises(ValueError):
        run_sampled_census(k4, 4, budget=-1, seed=1)
    with pytest.raises(ValueError):
        run_sampled_census(k4, 5, budget=10, seed=1)
    for target in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            run_sampled_census(k4, 4, budget=10, target_cv=target, seed=1)


def test_run_with_zero_budget_reports_nothing(k4):
    report = run_sampled_census(k4, 4, budget=0, seed=3)
    assert report.motifs == []
    assert report.stop_reason == "budget"
    for entry in report.experiments.values():
        assert entry["n_experiments"] == 0


def test_run_on_clique_detects_it_exactly(k4):
    report = run_sampled_census(k4, 4, budget=4000, seed=5)
    rows = {m["canonical_code"]: m for m in report.motifs}
    clique = rows[0b111111]
    assert clique["n_hat"] == 1.0
    assert clique["variance"] == 0.0
    assert clique["cv"] == 0.0
    # trident is variance-free here, so it takes all the weight
    assert clique["lambda"] == 1.0
    others = [m for m in report.motifs if m["canonical_code"] != 0b111111]
    assert all(m["n_hat"] == 0.0 for m in others)


def test_run_spends_the_budget(k4):
    report = run_sampled_census(k4, 4, budget=4001, seed=6)
    spent = sum(e["n_experiments"] for e in report.experiments.values())
    assert spent == 4001
    split = sorted(e["n_experiments"] for e in report.experiments.values())
    assert split == [2000, 2001]


def test_chain_share_controls_the_split(k4):
    report = run_sampled_census(k4, 4, budget=1000, seed=6, chain_share=0.25)
    assert report.experiments["chain"]["n_experiments"] == 250
    assert report.experiments["trident"]["n_experiments"] == 750


def test_run_without_tridents_gives_chains_the_budget(k3):
    # a triangle has chains (all degenerate) but no tridents
    report = run_sampled_census(k3, 4, budget=5000, seed=7)
    assert report.experiments["chain"]["n_experiments"] == 5000
    assert report.experiments["chain"]["degenerate"] == 5000
    assert report.experiments["trident"]["n_experiments"] == 0
    assert all(m["n_hat"] == 0.0 for m in report.motifs)


def test_run_errors_when_no_frames_exist():
    single = loads_graph("0 1\n")
    with pytest.raises(ValueError, match="no size-4 frames"):
        run_sampled_census(single, 4, budget=10, seed=1)


def test_run_is_deterministic(k4):
    a = run_sampled_census(k4, 4, budget=3000, seed=11)
    b = run_sampled_census(k4, 4, budget=3000, seed=11)
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed")
    db.pop("elapsed")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    c = run_sampled_census(k4, 4, budget=3000, seed=12)
    assert c.to_json() != a.to_json()


def test_budget_report_does_not_depend_on_the_batch_size():
    # batch_size only spaces the stop rule's checks; a round bigger than
    # DEFAULT_BATCH_SIZE is drawn in slices, from the same stream
    g = random_graph(np.random.default_rng(66), 40, 0.2, directed=False)
    drawn = []
    for kind in kinds_for_size(4):
        sampler = frame_sampler(g, kind)

        def draw(rng, m, real=sampler.sample_batch):
            drawn.append(m)
            return real(rng, m)
        sampler.sample_batch = draw
    reports = []
    for batch_size in (7, 400, estimator.DEFAULT_BATCH_SIZE, 10 ** 9):
        run = run_sampled_census(g, 4, budget=50_001, seed=8,
                                 batch_size=batch_size).to_dict()
        del run["elapsed"], run["batch_size"]
        reports.append(run)
    assert all(run == reports[0] for run in reports)
    assert max(drawn) == estimator.DEFAULT_BATCH_SIZE


def test_target_cv_stops_early(k3):
    # on a triangle every fork detects the triangle: cv hits 0 immediately
    report = run_sampled_census(k3, 3, budget=100_000, target_cv=0.05,
                                seed=17, batch_size=1000)
    assert report.stop_reason == "target_cv"
    assert report.experiments["fork"]["n_experiments"] == 1000


def test_unreachable_target_exhausts_the_budget():
    rng = np.random.default_rng(19)
    g = random_graph(rng, 30, 0.2, directed=False)
    report = run_sampled_census(g, 3, budget=3000, target_cv=1e-9, seed=19,
                                batch_size=1000)
    assert report.stop_reason == "budget"
    assert report.experiments["fork"]["n_experiments"] == 3000


def test_stop_rule_holds_classes_detected_five_times():
    cv = np.array([np.nan, 0.5, 0.01, 0.04])
    hits = {FrameKind.CHAIN: np.array([0, 4, 9, 2]),
            FrameKind.TRIDENT: np.array([0, 0, 0, 5])}
    # class 1 has 4 detections and is not held to the target; class 3 is,
    # through its 5 trident detections
    assert estimator._target_met(cv, hits, 0.05)
    assert not estimator._target_met(cv, hits, 0.03)
    hits[FrameKind.CHAIN][1] = 5
    assert not estimator._target_met(cv, hits, 0.05)


def test_target_without_a_budget_stops_at_the_frame_totals():
    rng = np.random.default_rng(19)
    g = random_graph(rng, 30, 0.2, directed=False)
    assert frame_totals(g).n_fork == 539
    # one round of forks reaches the frame total: an exact census costs
    # no more, so the run refuses instead of sampling on
    with pytest.raises(ValueError, match=r"target CV 1e-06 not reached "
                       r"after 539 experiments.*motif-census exact"):
        run_sampled_census(g, 3, target_cv=1e-6, seed=1)


@pytest.mark.parametrize("size", [3, 4])
def test_target_met_before_the_frame_totals_draws_as_unbounded(size):
    g = random_graph(np.random.default_rng(63), 60, 0.15, directed=False)
    runs = [run_sampled_census(g, size, budget, target_cv=0.3, seed=4,
                               batch_size=200).to_dict()
            for budget in (None, 10 ** 9)]
    for run in runs:
        del run["elapsed"], run["budget"]
    assert runs[0]["stop_reason"] == "target_cv"
    assert all(e["n_experiments"] < e["frame_total"]
               for e in runs[0]["experiments"].values())
    assert runs[0] == runs[1]


ORACLE_GRAPHS = {
    "undirected": lambda: random_graph(np.random.default_rng(64), 25, 0.2,
                                       directed=False),
    "directed": lambda: random_graph(np.random.default_rng(65), 20, 0.25,
                                     directed=True),
    "k3": lambda: loads_graph("0 1\n1 2\n0 2\n"),
}
ORACLE_RUNS = [
    (name, size, run) for name in ORACLE_GRAPHS for size in (3, 4)
    for run in ({"budget": 3_001},
                {"budget": 40_000, "target_cv": 0.1, "batch_size": 500},
                {"budget": 4_000, "chain_share": 0.0},
                {"budget": 4_000, "chain_share": 1.0})
    if size == 4 or "chain_share" not in run]


@pytest.mark.parametrize("name,size,run", ORACLE_RUNS)
def test_report_rows_match_the_scalar_oracle(name, size, run):
    report = run_sampled_census(ORACLE_GRAPHS[name](), size, seed=9, **run)
    rows = [{key: m[key] for key in ("class_id", "n_hat", "variance", "cv",
                                      "lambda", "sources")}
            for m in report.motifs]
    assert rows == estimate_rows(report.to_dict())
    assert rows


def test_public_api_is_pinned():
    names = [
        "ArrcodeTable", "CensusReport", "EdgeListError", "ExactCensus",
        "FrameBatch", "FrameKind", "FrameTotals", "Graph", "KoefTable",
        "LoadReport", "MotifClass", "arrcode_table", "exact_census",
        "frame_sampler", "frame_totals", "induced_subgraph_codes",
        "kinds_for_size", "koef_table", "load_graph", "loads_graph",
        "optimal_lambda", "pair_slots", "run_sampled_census"]
    assert sorted(motifcensus.__all__) == names
    assert all(hasattr(motifcensus, name) for name in names)


def test_estimates_are_unbiased_on_a_random_graph():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 30, 0.15, directed=False)
    for size in (3, 4):
        exact = exact_census(g, size).counts
        table = arrcode_table(size, False)
        sums = {cid: 0.0 for cid in exact}
        squares = {cid: 0.0 for cid in exact}
        runs = 40
        for s in range(runs):
            rep = run_sampled_census(g, size, budget=20_000, seed=1000 + s)
            for m in rep.motifs:
                sums[m["class_id"]] += m["n_hat"]
                squares[m["class_id"]] += m["n_hat"] ** 2
        for cid, true_count in exact.items():
            mean = sums[cid] / runs
            var = squares[cid] / runs - mean ** 2
            se = math.sqrt(max(var, 1e-12) / runs)
            assert abs(mean - true_count) <= max(4 * se, 0.02 * true_count,
                                                 1e-9), \
                f"size {size} class {cid}: mean {mean} vs exact {true_count}"


def test_variance_estimate_tracks_spread(k4):
    # chain experiment on K4: detection probability 1/2, known variance
    reps = [run_sampled_census(k4, 4, budget=2000, seed=100 + s,
                               chain_share=1.0) for s in range(30)]
    clique = arrcode_table(4, False).entries[0b111111]
    values = []
    predicted = []
    for rep in reps:
        row = next(m for m in rep.motifs if m["class_id"] == clique)
        values.append(row["n_hat"])
        predicted.append(row["variance"])
    empirical = float(np.var(values))
    assert np.mean(predicted) == pytest.approx(empirical, rel=0.5)


def test_streams_are_built_only_where_they_draw(monkeypatch):
    g = random_graph(np.random.default_rng(60), 20, 0.3, directed=False)
    made = []
    real = np.random.default_rng

    def counting(seed=None):
        made.append(seed)
        return real(seed)
    monkeypatch.setattr(np.random, "default_rng", counting)
    report = run_sampled_census(g, 4, budget=1000, seed=3, batch_size=100)
    # 500 experiments per kind in 5 rounds of 100: each kind keeps its one
    # stream from round to round
    assert report.experiments["chain"]["n_experiments"] == 500
    assert report.experiments["trident"]["n_experiments"] == 500
    assert len(made) == 2
    # a kind with no share of the budget gets no stream
    made.clear()
    run_sampled_census(g, 4, budget=1000, seed=3, chain_share=0.0)
    assert len(made) == 1


@pytest.mark.parametrize("size,directed", [(3, True), (4, False)])
def test_traced_entry_points_see_every_frame(monkeypatch, size, directed):
    # a per-layer trace wraps estimator.induced_subgraph_codes and the
    # sample_batch of each sampler in frame_sampler's per-graph cache; a
    # census that went round either would read zero in those layers
    g = random_graph(np.random.default_rng(62), 20, 0.3, directed)
    classified = []
    real_codes = estimator.induced_subgraph_codes

    def codes(graph, vertices):
        classified.append(vertices.shape[1])
        return real_codes(graph, vertices)
    monkeypatch.setattr(estimator, "induced_subgraph_codes", codes)
    drawn = dict.fromkeys(kinds_for_size(size), 0)
    for kind in drawn:
        sampler = frame_sampler(g, kind)

        def draw(rng, m, kind=kind, real=sampler.sample_batch):
            drawn[kind] += m
            return real(rng, m)
        sampler.sample_batch = draw
    report = run_sampled_census(g, size, budget=3_001, seed=5,
                                batch_size=400)
    spent = {FrameKind(k): e["n_experiments"]
             for k, e in report.experiments.items()}
    assert drawn == {k: spent[k] for k in drawn}
    assert all(drawn.values())
    degenerate = sum(e.get("degenerate", 0)
                     for e in report.experiments.values())
    assert sum(classified) == sum(drawn.values()) - degenerate
    assert degenerate > 0 or size == 3


# (chain degenerate, {class_id: (chain, trident) detections}) of one seeded
# run.  Kind i of the size (chain 0, trident 1) draws from the stream of
# SeedSequence(seed, spawn_key=(0, i)), child i of the first child of
# SeedSequence(seed) as spawn() makes them, and each draw unranks one
# uniform integer rank per frame; neither the stream layout nor the
# unranking may drift, so earlier reports stay reproducible
SEEDED_RUN = (100, {3: (0, 417), 6: (479, 0), 7: (332, 602), 8: (149, 0),
                    9: (156, 187), 10: (34, 45)})


def test_seeded_streams_are_unchanged():
    g = random_graph(np.random.default_rng(61), 14, 0.35, directed=False)
    report = run_sampled_census(g, 4, budget=2_501, seed=17, batch_size=400)
    degenerate, detections = SEEDED_RUN
    assert report.experiments["chain"]["degenerate"] == degenerate
    assert {m["class_id"]: (m["detections"]["chain"],
                            m["detections"]["trident"])
            for m in report.motifs} == detections
