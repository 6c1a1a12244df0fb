import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifcensus
from motifcensus import (FrameKind, FrameTotals, Graph, arrcode_table,
                         estimator, exact_census, frame_sampler, frame_totals,
                         kinds_for_size, koef_table, loads_graph,
                         optimal_lambda, run_sampled_census)
from motifcensus.frames import CHUNK
from oracles import (are_open_frames, estimate_rows, random_graph,
                     single_estimate, small_graphs)


def _hit_arrays(size, hits):
    """Per-kind detection arrays from {kind: {class_id: detections}}."""
    n_classes = arrcode_table(size, False).n_classes
    arrays = {k: np.zeros(n_classes, dtype=np.int64)
              for k in kinds_for_size(size)}
    for kind, by_class in hits.items():
        for cid, c in by_class.items():
            arrays[kind][cid] = c
    return arrays


def _estimates(size, totals, n, hits):
    """_build_estimates on a crafted tally: n and hits give experiments
    and {class_id: detections} for the kinds that drew."""
    return estimator._build_estimates(
        koef_table(size, False), totals,
        {k: n.get(k, 0) for k in kinds_for_size(size)},
        _hit_arrays(size, hits))


def test_single_estimate_formula(k3):
    tri = arrcode_table(3, False).entries[0b111]
    n_hat, variance, cv, lam, parts, _ = _estimates(
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

    n_hat, variance, cv, _, parts, _ = _estimates(
        3, totals, {FrameKind.FORK: 50}, {})
    assert n_hat[tri] == 0 and variance[tri] == 0 and math.isnan(cv[tri])
    # the empty class has koef 0: forks cannot see it, so it has no row
    assert not parts[:, 0].any()
    assert parts[:, path].all()

    n_hat, variance, cv, _, _, _ = _estimates(
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
    n_hat, variance, cv, lam, parts, _ = _estimates(
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


STAR = arrcode_table(4, False).entries[0b000111]


def _chain_share(chain, trident):
    """Chains' share of the next round after a crafted size-4 tally:
    (frame total, experiments, {class_id: detections}) per kind."""
    totals = FrameTotals(n_fork=0, n_trident=trident[0], n_chain=chain[0])
    n = {FrameKind.CHAIN: chain[1], FrameKind.TRIDENT: trident[1]}
    hits = {FrameKind.CHAIN: chain[2], FrameKind.TRIDENT: trident[2]}
    _, _, cv, lam, parts, kind_var = _estimates(4, totals, n, hits)
    return estimator._chain_share(cv, lam, parts, kind_var,
                                  _hit_arrays(4, hits), n)


def _unclamped_share(n_a, d_a, big_n_a, n_b, d_b, big_n_b):
    # with w = (1 - lam, lam) at the optimal lam, the cut w_k^2 D_k / N_k
    # of chains (A) over that of tridents (B) is n_a^2 d_b N_b over
    # n_b^2 d_a N_a
    return Fraction(1) / (1 + Fraction(n_b ** 2 * d_a * big_n_a,
                                       n_a ** 2 * d_b * big_n_b))


def test_chain_share_follows_lambda():
    # chain (100, 100) from 50 of 100 over 200 * 12 frames; trident
    # (20, 16) from 20 of 100 over 100 * 4 frames; lam = 5/9
    assert _unclamped_share(100, 100, 100, 20, 16, 100) == Fraction(4, 5)
    assert _chain_share((2400, 100, {CLIQUE: 50}),
                        (400, 100, {CLIQUE: 20})) == pytest.approx(0.8)
    # identical tallies cut alike
    assert _chain_share((3000, 1250, {CLIQUE: 250}),
                        (1000, 1250, {CLIQUE: 250})) == pytest.approx(0.5)


def test_chain_share_is_clamped_on_both_sides():
    # the mixed-estimate worked example: chains would get 10/11
    assert _unclamped_share(90, 25, 324, 110, 100, 1210) == Fraction(10, 11)
    assert _chain_share((2160, 324, {CLIQUE: 162}),
                        (4840, 1210, {CLIQUE: 110})) == 0.9
    # chain (16, 29.44) from 8 of 100 over 200 * 12 frames; trident
    # (50, 25) from 50 of 100 over 100 * 4: chains would get 0.08
    assert float(_unclamped_share(16, Fraction(2944, 100), 100,
                                  50, 25, 100)) == pytest.approx(0.08)
    assert _chain_share((2400, 100, {CLIQUE: 8}),
                        (400, 100, {CLIQUE: 50})) == estimator.MIN_SHARE


def test_a_kind_blind_to_the_binding_class_gets_the_floor():
    # both kinds span the clique, but one has not detected it: lam gives
    # that kind no weight, so its experiments cut nothing
    assert _chain_share((2400, 100, {}),
                        (400, 100, {CLIQUE: 20})) == estimator.MIN_SHARE
    assert _chain_share((2400, 100, {CLIQUE: 20}),
                        (400, 100, {})) == 1 - estimator.MIN_SHARE


def test_a_class_only_tridents_see_sends_them_the_most():
    # the 3-star has chain koef 0; it binds with cv 0.22 against the
    # clique's 0.1 or less, so tridents get 1 - MIN_SHARE
    share = _chain_share((2400, 1000, {CLIQUE: 100}),
                         (400, 1000, {CLIQUE: 100, STAR: 20}))
    assert share == estimator.MIN_SHARE == 0.1


def test_chain_share_is_even_without_a_tracked_class_or_a_cut():
    # 4 detections track no class
    assert _chain_share((2400, 100, {CLIQUE: 4}),
                        (400, 100, {CLIQUE: 4, STAR: 4})) == 0.5
    # every experiment detects the clique: no variance to cut
    assert _chain_share((1200, 100, {CLIQUE: 100}),
                        (400, 100, {CLIQUE: 100})) == 0.5


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


@pytest.mark.parametrize("size", [3, 4])
def test_run_refuses_a_budget_above_int64(k4, size):
    for budget in (2 ** 63, 2 ** 70, 10 ** 400):
        with pytest.raises(ValueError, match=r"^budget must be between 0 "
                           r"and 2\*\*63 - 1$"):
            run_sampled_census(k4, size, budget=budget, seed=1)
    # the largest budget splits in integers and runs until the target
    report = run_sampled_census(k4, size, budget=2 ** 63 - 1, target_cv=0.5,
                                seed=1)
    assert report.stop_reason == "target_cv"
    assert report.budget == 2 ** 63 - 1


def test_run_refuses_a_seed_that_is_not_a_nonnegative_integer(k4):
    for seed in (-5, 1.5, "7"):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative "
                           f"integer, got {seed}$"):
            run_sampled_census(k4, 4, budget=10, seed=seed)


def test_run_takes_numpy_integers_and_refuses_floats(k4):
    # numpy integers are plain ints in the report, which JSON takes
    runs = [run_sampled_census(k4, 4, budget=budget, seed=seed).to_dict()
            for budget, seed in ((3000, 11), (np.int64(3000), np.uint32(11)))]
    for run in runs:
        del run["elapsed"]
    assert type(runs[1]["budget"]) is int and type(runs[1]["seed"]) is int
    assert json.dumps(runs[1]) == json.dumps(runs[0])
    for budget in (2.0, 20_000.0, np.float64(3000), "3000"):
        with pytest.raises(ValueError, match="^budget must be an integer, "):
            run_sampled_census(k4, 4, budget=budget, seed=1)


def test_census_size_must_be_the_integer_3_or_4(k4):
    # 4.0 passed the size check; what it did then depended on whether an
    # integer-size run had filled the table caches before
    for size in (3, 4):
        run_sampled_census(k4, size, budget=100, seed=1)
        exact_census(k4, size)
    for size in (4.0, 3.0, True, "4"):
        with pytest.raises(ValueError, match="^motif size must be 3 or 4"):
            run_sampled_census(k4, size, budget=100, seed=1)
        with pytest.raises(ValueError, match="^motif size must be 3 or 4"):
            exact_census(k4, size)
    report = run_sampled_census(k4, np.int64(4), budget=100, seed=1)
    assert type(report.size) is int
    assert json.loads(json.dumps(report.to_dict()))["size"] == 4
    assert type(exact_census(k4, np.int64(3)).size) is int


def test_run_stores_a_numpy_target_as_a_float(k4):
    # a float32 target ran, then broke json.dumps of the report
    report = run_sampled_census(k4, 4, budget=3000, seed=11,
                                target_cv=np.float32(0.5))
    assert type(report.target_cv) is float and report.target_cv == 0.5
    assert json.loads(json.dumps(report.to_dict()))["target_cv"] == 0.5
    assert run_sampled_census(k4, 4, budget=3000, seed=11,
                              target_cv=1).target_cv == 1.0


def test_run_refuses_a_target_that_is_not_a_real_number(k4):
    for target in ("0.5", b"0.5", 0.5j):
        with pytest.raises(ValueError, match="^target CV must be positive "
                           "and finite, got "):
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
    # chains get half the budget rounded half to even, tridents the rest
    for budget, chains in ((4001, 2000), (4003, 2002)):
        report = run_sampled_census(k4, 4, budget=budget, seed=6)
        spent = {k: e["n_experiments"] for k, e in report.experiments.items()}
        assert spent == {"chain": chains, "trident": budget - chains}


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
    c = run_sampled_census(k4, 4, budget=3000, seed=12).to_dict()
    c.pop("elapsed")
    assert json.dumps(c, sort_keys=True) != json.dumps(da, sort_keys=True)


def test_target_cv_stops_early(k3):
    # on a triangle every fork detects the triangle: cv hits 0 after the
    # first round
    report = run_sampled_census(k3, 3, budget=100_000, target_cv=0.05,
                                seed=17)
    assert report.stop_reason == "target_cv"
    assert report.experiments["fork"]["n_experiments"] == CHUNK == 10_000


def test_unreachable_target_exhausts_the_budget():
    rng = np.random.default_rng(19)
    g = random_graph(rng, 30, 0.2, directed=False)
    report = run_sampled_census(g, 3, budget=25_000, target_cv=1e-9,
                                seed=19)
    assert report.stop_reason == "budget"
    assert report.experiments["fork"]["n_experiments"] == 25_000


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


# (vertices, edge probability, target CV) of a graph on which a run of the
# size meets the target in its second round, short of every frame total
UNBOUNDED_RUNS = {3: (400, 0.03, 0.05), 4: (100, 0.15, 0.1)}


@pytest.mark.parametrize("size", [3, 4])
def test_target_met_before_the_frame_totals_draws_as_unbounded(size):
    n_vertices, p, target = UNBOUNDED_RUNS[size]
    g = random_graph(np.random.default_rng(63), n_vertices, p,
                     directed=False)
    runs = [run_sampled_census(g, size, budget, target_cv=target,
                               seed=4).to_dict()
            for budget in (None, 10 ** 9)]
    for run in runs:
        del run["elapsed"], run["budget"]
    assert runs[0]["stop_reason"] == "target_cv"
    # two rounds of CHUNK forks, or of 2 * CHUNK chains and tridents
    # together, which split by the tallies in the second round
    spent = runs[0]["experiments"].values()
    assert sum(e["n_experiments"] for e in spent) == 2 * CHUNK * len(spent)
    assert all(e["n_experiments"] < e["frame_total"] for e in spent)
    assert runs[0] == runs[1]


def _hub_graph():
    """A hub-heavy Chung-Lu graph, weights i^(-1/1.5), 5000 lines over
    2000 vertices: K4 binds a size-4 target run, and chains carry it."""
    n_vertices, lines = 2000, 5000
    rng = np.random.default_rng(5)
    weight = np.cumsum(np.arange(1, n_vertices + 1) ** (-1 / 1.5))
    ends = np.searchsorted(weight / weight[-1], rng.random(2 * lines))
    return Graph.from_edges(n_vertices,
                            np.minimum(ends, n_vertices - 1).reshape(-1, 2))


def test_round_parts_hands_a_shortfall_to_the_other_kind():
    chain, trident = FrameKind.CHAIN, FrameKind.TRIDENT
    plenty = {chain: 10 ** 6, trident: 10 ** 6}
    assert estimator._round_parts(0.9, plenty, 10 ** 6) == {
        chain: 18_000, trident: 2_000}
    # chains have 5,000 left of their 18,000: tridents take the rest
    assert estimator._round_parts(0.9, {chain: 5_000, trident: 10 ** 6},
                                  10 ** 6) == {chain: 5_000, trident: 15_000}
    # tridents have 1,000 left of their 18,000: chains take the rest
    assert estimator._round_parts(0.1, {chain: 10 ** 6, trident: 1_000},
                                  10 ** 6) == {chain: 19_000, trident: 1_000}
    # the last of a budget; at share 0.5 chains' half rounds half to even
    assert estimator._round_parts(0.5, plenty, 4_003) == {
        chain: 2_002, trident: 2_001}
    assert estimator._round_parts(0.5, plenty, 5_001) == {
        chain: 2_500, trident: 2_501}
    parts = estimator._round_parts(0.37, plenty, 10 ** 6)
    assert all(type(m) is int for m in parts.values())


def test_round_parts_gives_one_kind_the_whole_round():
    fork, chain = FrameKind.FORK, FrameKind.CHAIN
    assert estimator._round_parts(0.5, {fork: 10 ** 6}, 10 ** 6) == {
        fork: 10_000}
    assert estimator._round_parts(0.5, {fork: 4_003}, 4_003) == {
        fork: 4_003}
    # a size-4 graph with no tridents: the share does not apply
    assert estimator._round_parts(0.9, {chain: 10 ** 6}, 10 ** 6) == {
        chain: 10_000}


def test_a_budget_with_a_target_caps_the_total():
    # the target is out of reach, so the run spends its odd budget: an
    # even first round of 2 * CHUNK, then 5,001 split by the tallies
    report = run_sampled_census(_hub_graph(), 4, budget=25_001,
                                target_cv=1e-6, seed=0)
    assert report.stop_reason == "budget"
    spent = [e["n_experiments"] for e in report.experiments.values()]
    assert sum(spent) == 25_001
    assert min(spent) >= CHUNK and max(spent) - min(spent) > 1


def test_a_target_run_spends_its_rounds_where_the_binding_class_is_seen():
    # past the even first round tridents draw little more than their floor
    g = _hub_graph()
    runs = [run_sampled_census(g, 4, target_cv=0.05, seed=0).to_dict()
            for _ in range(2)]
    for run in runs:
        del run["elapsed"]
    assert runs[0]["stop_reason"] == "target_cv"
    spent = {k: e["n_experiments"] for k, e in runs[0]["experiments"].items()}
    total = sum(spent.values())
    assert total % (2 * CHUNK) == 0 and total >= 6 * CHUNK
    assert spent["trident"] <= 0.3 * total
    assert runs[0] == runs[1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_graphs(), st.sampled_from([3, 4]),
       st.sampled_from(["budget", "target", "both"]),
       st.integers(0, 50_000), st.floats(0.02, 1.0), st.integers(0, 2 ** 32))
def test_reports_survive_json(g, size, mode, budget, target, seed):
    # a numpy integer in a report, say from the round split, fails dumps
    try:
        report = run_sampled_census(
            g, size, None if mode == "target" else budget,
            None if mode == "budget" else target, seed=seed)
    except ValueError as e:
        # no frames of the size, or a target unmet at the frame totals
        assert "frames" in str(e)
        return
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d


def test_cv_is_at_most_one_over_the_root_of_the_detections():
    # one kind alone gives cv^2 = (1 - C/N) / C <= 1/C, and the mixture's
    # cv is no larger than either kind's: so a class its best kind detected
    # C times has cv <= 1/sqrt(C), and a stop rule that tracked only
    # classes with 1/target^2 detections would hold none to the target
    rng = np.random.default_rng(67)
    checked = 0
    for directed in (False, True):
        for seed in range(6):
            g = random_graph(rng, int(rng.integers(12, 30)),
                             float(rng.uniform(0.15, 0.4)), directed)
            for size in (3, 4):
                report = run_sampled_census(
                    g, size, budget=int(rng.integers(20, 5_000)), seed=seed)
                for m in report.motifs:
                    if m["cv"] is not None:
                        c = max(m["detections"].values())
                        assert m["cv"] * math.sqrt(c) <= 1 + 1e-12
                        checked += 1
    assert checked > 100


ORACLE_GRAPHS = {
    "undirected": lambda: random_graph(np.random.default_rng(64), 25, 0.2,
                                       directed=False),
    "directed": lambda: random_graph(np.random.default_rng(65), 20, 0.25,
                                     directed=True),
    "k3": lambda: loads_graph("0 1\n1 2\n0 2\n"),
}
ORACLE_RUNS = [
    (name, size, run) for name in ORACLE_GRAPHS for size in (3, 4)
    for run in ({"budget": 3_001}, {"budget": 40_000, "target_cv": 0.1})
    # chains get no experiments of a budget of 1; a budget above two
    # chunks per kind takes three draws of each
    + (({"budget": 1}, {"budget": 40_003}) if size == 4 else ())]


@pytest.mark.parametrize("name,size,run", ORACLE_RUNS)
def test_report_rows_match_the_scalar_oracle(name, size, run):
    report = run_sampled_census(ORACLE_GRAPHS[name](), size, seed=9, **run)
    rows = [{key: m[key] for key in ("class_id", "n_hat", "variance", "cv",
                                      "lambda", "sources")}
            for m in report.motifs]
    assert rows == estimate_rows(report.to_dict())
    assert rows


def test_public_api_is_pinned():
    # a sampled run is set by its budget, its target and its seed
    params = inspect.signature(run_sampled_census).parameters
    assert list(params) == ["g", "size", "budget", "target_cv", "seed"]
    assert params["seed"].kind is inspect.Parameter.KEYWORD_ONLY
    # a graph built from pairs is labelled by its dense ids
    assert list(inspect.signature(Graph.from_edges).parameters) == [
        "n_vertices", "pairs", "directed"]
    names = [
        "ArrcodeTable", "CensusReport", "EdgeListError", "ExactCensus",
        "FrameBatch", "FrameKind", "FrameTotals", "Graph", "LoadReport",
        "MotifClass", "arrcode_table", "exact_census",
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
    # chain experiment on K4: detection probability 1/2, known variance;
    # the chain-only estimate is rebuilt from each run's chain tally
    reps = [run_sampled_census(k4, 4, budget=4000, seed=100 + s)
            for s in range(30)]
    clique = arrcode_table(4, False).entries[0b111111]
    values = []
    predicted = []
    for rep in reps:
        row = next(m for m in rep.motifs if m["class_id"] == clique)
        n_hat, variance = single_estimate(
            row["detections"]["chain"],
            rep.experiments["chain"]["n_experiments"],
            rep.frame_totals.n_chain, row["koef"]["chain"])
        values.append(n_hat)
        predicted.append(variance)
    empirical = float(np.var(values))
    assert np.mean(predicted) == pytest.approx(empirical, rel=0.5)


def test_each_active_kind_makes_one_stream(monkeypatch):
    g = random_graph(np.random.default_rng(60), 20, 0.3, directed=False)
    made = []
    real = np.random.default_rng

    def counting(seed=None):
        made.append(seed.spawn_key)
        return real(seed)
    monkeypatch.setattr(np.random, "default_rng", counting)
    report = run_sampled_census(g, 4, budget=50_000, seed=3)
    # 25,000 experiments per kind in 3 rounds: each kind keeps its one
    # stream from round to round
    assert report.experiments["chain"]["n_experiments"] == 25_000
    assert report.experiments["trident"]["n_experiments"] == 25_000
    assert made == [(0, 0), (0, 1)]
    # streams are made before round 1, so a kind with no share of the
    # budget gets one too: of a budget of 1, the chains' half rounds to 0
    made.clear()
    report = run_sampled_census(g, 4, budget=1, seed=3)
    assert report.experiments["chain"]["n_experiments"] == 0
    assert made == [(0, 0), (0, 1)]
    # a kind the graph has no frames of gets none, and the other keeps
    # its slot: the path 0-1-2-3 holds one chain and no trident, and the
    # star around 0 tridents and no chain
    for pairs, key in (([(0, 1), (1, 2), (2, 3)], (0, 0)),
                       ([(0, 1), (0, 2), (0, 3)], (0, 1))):
        made.clear()
        run_sampled_census(Graph.from_edges(4, pairs), 4, budget=10, seed=3)
        assert made == [key]


@pytest.mark.parametrize("size,directed", [(3, True), (4, False)])
def test_traced_entry_points_see_every_frame(monkeypatch, size, directed):
    # a per-layer trace wraps estimator.induced_subgraph_codes and the
    # sample_batch of each sampler in frame_sampler's per-graph cache; a
    # census that went round either would read zero in those layers
    g = random_graph(np.random.default_rng(62), 20, 0.3, directed)
    classified = dict.fromkeys(kinds_for_size(size), 0)
    real_codes = estimator.induced_subgraph_codes

    def codes(graph, vertices, *, kind, half_edges=None):
        assert are_open_frames(graph, kind, vertices)
        assert (half_edges is not None) == graph.directed
        classified[kind] += vertices.shape[1]
        return real_codes(graph, vertices, kind=kind, half_edges=half_edges)
    monkeypatch.setattr(estimator, "induced_subgraph_codes", codes)
    draws = {kind: [] for kind in kinds_for_size(size)}
    for kind in draws:
        sampler = frame_sampler(g, kind)

        def draw(rng, m, kind=kind, real=sampler.sample_batch):
            draws[kind].append(m)
            return real(rng, m)
        sampler.sample_batch = draw
    report = run_sampled_census(g, size, budget=40_001, seed=5)
    spent = {FrameKind(k): e["n_experiments"]
             for k, e in report.experiments.items()}
    # one draw of at most a chunk per kind and round; at size 4 the
    # chains' 20,000 are spent a round before the tridents' 20,001
    for kind, calls in draws.items():
        whole, rest = divmod(spent[kind], CHUNK)
        assert whole >= 2
        assert calls == [CHUNK] * whole + [rest] * (rest > 0)
    degenerate = {FrameKind(k): e.get("degenerate", 0)
                  for k, e in report.experiments.items()}
    assert classified == {kind: spent[kind] - degenerate[kind]
                          for kind in classified}
    assert size == 3 or degenerate[FrameKind.CHAIN] > 0


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
    report = run_sampled_census(g, 4, budget=2_501, seed=17)
    degenerate, detections = SEEDED_RUN
    assert report.experiments["chain"]["degenerate"] == degenerate
    assert {m["class_id"]: (m["detections"]["chain"],
                            m["detections"]["trident"])
            for m in report.motifs} == detections


# the same for a seeded directed run, per size: (chain degenerate,
# {class_id: detections per kind}) of the classes detected at all.  The
# graph has 10 edges, 4 of them reciprocal, so the classifier reads both
# arcs of its tree pairs from the frames' half-edges
SEEDED_DIRECTED_RUN = {
    3: (None, {2: (65,), 4: (42,), 5: (132,), 6: (45,), 8: (138,),
               10: (181,), 12: (125,), 14: (273,)}),
    4: (104, {12: (10, 0), 13: (9, 0), 18: (21, 36), 38: (24, 22),
              41: (13, 0), 46: (26, 0), 50: (42, 80), 94: (0, 25),
              101: (20, 38), 108: (44, 79), 118: (58, 71), 147: (64, 67),
              161: (65, 83)}),
}


@pytest.mark.parametrize("size", [3, 4])
def test_seeded_directed_streams_are_unchanged(size):
    g = random_graph(np.random.default_rng(68), 7, 0.3, directed=True)
    assert (g.n_edges, g.load_report.n_arcs) == (10, 14)
    report = run_sampled_census(g, size, budget=1_001, seed=19)
    degenerate, detections = SEEDED_DIRECTED_RUN[size]
    assert report.experiments.get("chain", {}).get("degenerate") == degenerate
    assert {m["class_id"]: tuple(m["detections"].values())
            for m in report.motifs if any(m["detections"].values())} == \
        detections


# (experiments, chain degenerate, {class_id: (chain, trident) detections})
# of a seeded size-4 target run on the hub graph whose tridents sit on
# their floor from round 2, so chains draw 18,000 frames a round
SEEDED_TARGET_RUN = ({"chain": 82_000, "trident": 18_000}, 120,
                     {3: (0, 17117), 6: (62454, 0), 7: (16768, 827),
                      8: (992, 0), 9: (1561, 55), 10: (105, 1)})


def test_seeded_target_run_draws_each_kind_once_a_round(monkeypatch):
    g = _hub_graph()
    classified = []
    real_codes = estimator.induced_subgraph_codes

    def codes(graph, vertices, *, kind, half_edges=None):
        classified.append(kind)
        return real_codes(graph, vertices, kind=kind, half_edges=half_edges)
    monkeypatch.setattr(estimator, "induced_subgraph_codes", codes)
    draws = {kind: [] for kind in kinds_for_size(4)}
    for kind in draws:
        sampler = frame_sampler(g, kind)

        def draw(rng, m, kind=kind, real=sampler.sample_batch):
            draws[kind].append(m)
            return real(rng, m)
        sampler.sample_batch = draw
    report = run_sampled_census(g, 4, target_cv=0.1, seed=2)
    spent, degenerate, detections = SEEDED_TARGET_RUN
    assert report.stop_reason == "target_cv"
    assert {k: e["n_experiments"]
            for k, e in report.experiments.items()} == spent
    assert report.experiments["chain"]["degenerate"] == degenerate
    assert {m["class_id"]: (m["detections"]["chain"],
                            m["detections"]["trident"])
            for m in report.motifs} == detections
    # one draw and one classification per kind and round of 2 * CHUNK
    rounds = -(-sum(spent.values()) // (2 * CHUNK))
    assert rounds == 5
    for kind, parts in draws.items():
        assert len(parts) == rounds and sum(parts) == spent[kind.value]
        assert classified.count(kind) == rounds
    assert max(draws[FrameKind.CHAIN]) == 18_000 > CHUNK
