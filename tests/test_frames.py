import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from motifcensus import (FrameKind, Graph, arrcode_table, frame_sampler,
                         frame_totals, koef_table, loads_graph,
                         kinds_for_size, pair_slots)
from motifcensus.frames import FrameSet, _choose2, _choose3, _colex_triple
from oracles import (frame_keys, frames_brute, neighbor_sets, random_graph,
                     spanning_path_count)

ALL_KINDS = (FrameKind.FORK, FrameKind.TRIDENT, FrameKind.CHAIN)


def test_kind_sizes_and_order():
    assert kinds_for_size(3) == (FrameKind.FORK,)
    assert kinds_for_size(4) == (FrameKind.CHAIN, FrameKind.TRIDENT)
    assert FrameKind.FORK.size == 3
    assert FrameKind.CHAIN.size == 4
    with pytest.raises(ValueError):
        kinds_for_size(5)


def test_totals_on_small_graphs(k3, k4, path3):
    assert frame_totals(k4).to_dict() == {"fork": 12, "trident": 4,
                                          "chain": 24}
    assert frame_totals(k3).to_dict() == {"fork": 3, "trident": 0,
                                          "chain": 3}
    assert frame_totals(path3).to_dict() == {"fork": 2, "trident": 0,
                                             "chain": 1}
    single = loads_graph("0 1\n")
    assert frame_totals(single).to_dict() == {"fork": 0, "trident": 0,
                                              "chain": 0}


def test_totals_match_enumeration_on_random_graphs():
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.1, 0.9))
        directed = bool(trial % 2)
        g = random_graph(rng, n, p, directed)
        totals = frame_totals(g)
        for kind in ALL_KINDS:
            assert totals.for_kind(kind) == len(frames_brute(g, kind))


def test_enumerated_instances_are_unique():
    rng = np.random.default_rng(32)
    g = random_graph(rng, 10, 0.5, directed=False)
    for kind in ALL_KINDS:
        verts = np.array([v for v, _ in frames_brute(g, kind)]).T
        keys = frame_keys(g, kind, verts).tolist()
        assert len(keys) == len(set(keys))


def _degrees_only(degrees):
    # just what the totals and the center-weighted frame sets read
    k = np.array(degrees, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    return SimpleNamespace(degrees=k, edge_u=none, edge_v=none)


def test_totals_and_weights_do_not_wrap():
    # k(k-1)(k-2)/6 at k = 3e6 fits int64, but k(k-1)(k-2) does not
    k = 3_000_000
    hub = k * (k - 1) * (k - 2) // 6
    assert hub == 4_499_995_500_001_000_000
    assert frame_totals(_degrees_only([k])).n_trident == hub
    assert FrameSet(_degrees_only([k]), FrameKind.TRIDENT).total == hub
    three = _degrees_only([k] * 3)
    assert frame_totals(three).n_trident == 3 * hub  # past 2**63, exact
    with pytest.raises(ValueError, match="64-bit"):
        FrameSet(three, FrameKind.TRIDENT)
    with pytest.raises(ValueError, match="64-bit"):
        # one C(k, 3) > 2**63
        FrameSet(_degrees_only([5_000_000]), FrameKind.TRIDENT)


def test_trident_weights_stop_at_the_64_bit_boundary():
    # C(3,810,779, 3) is the largest trident weight int64 holds
    top = 3_810_779
    hub = _degrees_only([0, 2, top, 1])
    assert FrameSet(hub, FrameKind.TRIDENT).total == 9_223_371_416_043_870_029
    assert frame_totals(hub).n_trident == 9_223_371_416_043_870_029
    with pytest.raises(ValueError, match="64-bit"):
        FrameSet(_degrees_only([0, top + 1]), FrameKind.TRIDENT)


def test_chain_totals_do_not_wrap():
    # four edges of weight (3e9 - 1)**2 ~ 9e18 each sum past 2**63
    k = np.array([3_000_000_000] * 8, dtype=np.int64)
    g = SimpleNamespace(degrees=k, edge_u=np.arange(0, 8, 2),
                        edge_v=np.arange(1, 8, 2))
    assert frame_totals(g).n_chain == 4 * (3_000_000_000 - 1) ** 2
    with pytest.raises(ValueError, match="64-bit"):
        FrameSet(g, FrameKind.CHAIN)


def test_colex_helpers_do_not_wrap():
    # x (x - 1) (x - 2) wraps int64 past x ~ 2.1e6; C(x, 3) itself fits
    # up to x ~ 3.8e6, the largest degree a trident total can hold
    x = np.array([0, 1, 2, 3, 4, 5, 2_097_152, 2_097_153, 3_000_000,
                  3_800_000], dtype=np.int64)
    assert _choose3(x).tolist() == [math.comb(v, 3) for v in x.tolist()]
    assert _choose2(x).tolist() == [math.comb(v, 2) for v in x.tolist()]


def test_triple_decode_at_every_boundary():
    # rank C(x, 3) opens the block of triples topped by position x, and
    # C(x, 3) - 1 closes the block below; the float cube root must land
    # on the right top position at every one of them
    for start in range(3, 3_800_001, 400_000):
        x = np.arange(start, min(start + 400_000, 3_800_001),
                      dtype=np.int64)
        first = _choose3(x)
        for r, top in ((first, x), (first - 1, x - 1)):
            lo, mid, hi = _colex_triple(r)
            assert np.array_equal(hi, top)
            assert np.array_equal(
                _choose3(hi) + _choose2(mid) + lo, r)
            assert ((0 <= lo) & (lo < mid) & (mid < hi)).all()


def test_samplers_refuse_empty_frame_sets():
    single = loads_graph("0 1\n")
    with pytest.raises(ValueError, match="no forks"):
        frame_sampler(single, FrameKind.FORK)
    with pytest.raises(ValueError, match="no tridents"):
        frame_sampler(single, FrameKind.TRIDENT)
    with pytest.raises(ValueError, match="no chains"):
        frame_sampler(single, FrameKind.CHAIN)
    # max degree 2: forks exist, tridents do not
    with pytest.raises(ValueError, match="no tridents"):
        frame_sampler(loads_graph("0 1\n1 2\n"), FrameKind.TRIDENT)


def _one(g, kind, rng):
    batch = frame_sampler(g, kind).sample_batch(rng, 1)
    return batch.vertices[:, 0].tolist(), bool(batch.degenerate[0])


def test_sampled_frames_are_real_frames():
    rng = np.random.default_rng(33)
    g = random_graph(rng, 15, 0.3, directed=False)
    adj = neighbor_sets(g)
    for _ in range(50):
        (a, c, b), _ = _one(g, FrameKind.FORK, rng)
        assert a != b and a in adj[c] and b in adj[c]
        (c2, x, y, z), _ = _one(g, FrameKind.TRIDENT, rng)
        assert len({x, y, z}) == 3
        assert {x, y, z} <= adj[c2]
        (ca, u, v, cb), degenerate = _one(g, FrameKind.CHAIN, rng)
        assert v in adj[u] and ca in adj[u] and cb in adj[v]
        assert ca != v and cb != u
        assert degenerate == (ca == cb)


def test_chain_on_triangle_is_always_degenerate(k3):
    rng = np.random.default_rng(34)
    for _ in range(30):
        assert _one(k3, FrameKind.CHAIN, rng)[1]


def test_chain_on_path3_is_the_single_path(path3):
    rng = np.random.default_rng(35)
    verts, degenerate = _one(path3, FrameKind.CHAIN, rng)
    assert not degenerate
    assert frame_keys(path3, FrameKind.CHAIN, verts).tolist() == \
        frame_keys(path3, FrameKind.CHAIN, [0, 1, 2, 3]).tolist()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_draw_unranks_uniform_ranks(kind):
    # a draw of n frames consumes exactly n uniform integer ranks, and
    # unranks them in increasing order
    g = random_graph(np.random.default_rng(36), 14, 0.4, directed=False)
    frames = frame_sampler(g, kind)
    drawn = frames.sample_batch(np.random.default_rng(7), 500)
    ranks = np.random.default_rng(7).integers(0, frames.total, size=500,
                                              dtype=np.int64)
    unranked = frames.unrank(np.sort(ranks))
    assert np.array_equal(drawn.vertices, unranked.vertices)
    assert np.array_equal(drawn.degenerate, unranked.degenerate)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_half_edges_name_the_tree_pairs(kind):
    # on a directed graph, tree pair (r, c) of every frame is the half-edge
    # that sits in r's CSR row and holds c; open_frames keeps the columns
    # of both arrays together
    for directed in (False, True):
        g = random_graph(np.random.default_rng(37), 14, 0.4, directed)
        frames = FrameSet(g, kind)
        batch = frames.unrank(np.arange(frames.total, dtype=np.int64))
        verts, half = batch.open_frames
        if not directed:
            assert batch.half_edges is None and half is None
            continue
        assert batch.half_edges.shape == (len(kind.tree_pairs), batch.size)
        assert half.shape == (len(kind.tree_pairs), verts.shape[1])
        for t, (r, c) in enumerate(kind.tree_pairs):
            assert np.array_equal(g.adj_flat[half[t]], verts[c])
            assert (g.adj_offsets[verts[r]] <= half[t]).all()
            assert (half[t] < g.adj_offsets[verts[r] + 1]).all()


def test_sampling_is_deterministic(k4):
    sampler = frame_sampler(k4, FrameKind.CHAIN)
    a = sampler.sample_batch(np.random.default_rng(99), 64)
    b = sampler.sample_batch(np.random.default_rng(99), 64)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.degenerate, b.degenerate)


def _instance_counts(g, kind, n_samples, seed):
    sampler = frame_sampler(g, kind)
    batch = sampler.sample_batch(np.random.default_rng(seed), n_samples)
    keys, counts = np.unique(frame_keys(g, kind, batch.vertices),
                             return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def _brute_keys(g, kind):
    verts = np.array([v for v, _ in frames_brute(g, kind)]).T
    return set(frame_keys(g, kind, verts).tolist())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_equiprobable_sampling_chi_square(k4, kind):
    # all instances enumerable: uniformity must survive a chi-square test
    expected_keys = _brute_keys(k4, kind)
    n_samples = 40_000
    counts = _instance_counts(k4, kind, n_samples, seed=101)
    assert set(counts) == expected_keys
    observed = [counts[k] for k in sorted(expected_keys)]
    p = stats.chisquare(observed).pvalue
    assert p > 1e-3


def test_equiprobable_on_irregular_graph():
    # star plus pendant path stresses the weighted center/edge choice
    g = loads_graph("0 1\n0 2\n0 3\n3 4\n4 5\n")
    expected = _brute_keys(g, FrameKind.FORK)
    counts = _instance_counts(g, FrameKind.FORK, 40_000, seed=103)
    assert set(counts) == expected
    p = stats.chisquare([counts[k] for k in sorted(expected)]).pvalue
    assert p > 1e-3


# -- containment coefficients ----------------------------------------------


def test_koef_fork_values():
    kt = koef_table(3, False)
    table = arrcode_table(3, False)
    by_code = {c.canonical_code: c.class_id for c in table.classes}
    assert kt[FrameKind.FORK][by_code[0b011]] == 1   # 2-path
    assert kt[FrameKind.FORK][by_code[0b111]] == 3   # triangle
    assert kt[FrameKind.FORK][by_code[0]] == 0       # empty


def test_koef_quad_values():
    kt = koef_table(4, False)
    table = arrcode_table(4, False)
    by_code = {c.canonical_code: c.class_id for c in table.classes}
    expected = {
        0b000111: (1, 0),   # 3-star
        0b001101: (0, 1),   # 3-path
        0b001111: (1, 2),   # triangle with a tail
        0b011110: (0, 4),   # 4-cycle
        0b011111: (2, 6),   # diamond
        0b111111: (4, 12),  # clique
    }
    for code, (trident, chain) in expected.items():
        cid = by_code[code]
        assert kt[FrameKind.TRIDENT][cid] == trident
        assert kt[FrameKind.CHAIN][cid] == chain


def test_koef_coverage_split():
    # among connected quads: chains see 5 classes, tridents see 4,
    # and every class is seen by at least one kind
    kt = koef_table(4, False)
    table = arrcode_table(4, False)
    chain_cover = trident_cover = 0
    for cid in (c.class_id for c in table.classes if c.connected):
        ch = kt[FrameKind.CHAIN][cid]
        tr = kt[FrameKind.TRIDENT][cid]
        assert ch + tr > 0
        chain_cover += ch > 0
        trident_cover += tr > 0
    assert chain_cover == 5
    assert trident_cover == 4


def test_every_connected_class_is_coverable():
    for size, directed in [(3, False), (3, True), (4, False), (4, True)]:
        kt = koef_table(size, directed)
        table = arrcode_table(size, directed)
        for cid in (c.class_id for c in table.classes if c.connected):
            assert any(kt[k][cid] > 0 for k in kinds_for_size(size))


def test_koef_chain_matches_spanning_path_oracle():
    kt = koef_table(4, False)
    table = arrcode_table(4, False)
    for cls in table.classes:
        adj = [set() for _ in range(4)]
        for s, (i, j) in enumerate(pair_slots(4, False)):
            if cls.canonical_code >> s & 1:
                adj[i].add(j)
                adj[j].add(i)
        assert kt[FrameKind.CHAIN][cls.class_id] == \
            spanning_path_count(adj)


@pytest.mark.parametrize("size,directed",
                         [(3, False), (3, True), (4, False), (4, True)])
def test_koef_matches_the_frame_loop_oracle(size, directed):
    # frames of a class's representative, enumerated by plain loops on its
    # undirected view; degenerate chains lie in no 4-vertex instance
    kt = koef_table(size, directed)
    for cls in arrcode_table(size, directed).classes:
        pairs = [p for s, p in enumerate(pair_slots(size, directed))
                 if cls.canonical_code >> s & 1]
        rep = Graph.from_edges(size, pairs, directed=False)
        for kind in kinds_for_size(size):
            spanning = sum(1 for _, degenerate in frames_brute(rep, kind)
                           if not degenerate)
            assert kt[kind][cls.class_id] == spanning


def test_directed_koef_follows_undirected_view():
    # koef of a directed class equals koef of its undirected collapse
    und = koef_table(4, False)
    dkt = koef_table(4, True)
    dtab = arrcode_table(4, True)
    utab = arrcode_table(4, False)
    uslots = pair_slots(4, False)
    uindex = {p: s for s, p in enumerate(uslots)}
    for cls in dtab.classes:
        ucode = 0
        for s, (i, j) in enumerate(pair_slots(4, True)):
            if cls.canonical_code >> s & 1:
                ucode |= 1 << uindex[(min(i, j), max(i, j))]
        ucid = utab.entries[ucode]
        for kind in (FrameKind.CHAIN, FrameKind.TRIDENT):
            assert dkt[kind][cls.class_id] == und[kind][ucid]


def test_koef_size_mismatch_rejected():
    # a size-3 table holds forks only
    assert list(koef_table(3, False)) == [FrameKind.FORK]
    with pytest.raises(KeyError):
        koef_table(3, False)[FrameKind.CHAIN]
    # the cached map is shared by every caller, so it is read-only
    with pytest.raises(TypeError):
        koef_table(3, False)[FrameKind.CHAIN] = None
