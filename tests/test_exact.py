from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from motifcensus import (FrameKind, Graph, arrcode_table, exact,
                         exact_census, frame_totals, koef_table, loads_graph)
from motifcensus.frames import CHUNK, FrameSet
from oracles import (are_open_frames, brute_force_census,
                     common_neighbor_pairs, frame_keys, frames_brute,
                     random_graph, small_graphs)

ALL_KINDS = (FrameKind.FORK, FrameKind.TRIDENT, FrameKind.CHAIN)


def nonzero(census):
    return {cid: c for cid, c in census.counts.items() if c}


def test_k4_censuses(k4):
    c3 = exact_census(k4, 3)
    assert nonzero(c3) == {arrcode_table(3, False).entries[0b111]: 4}
    c4 = exact_census(k4, 4)
    assert nonzero(c4) == {arrcode_table(4, False).entries[0b111111]: 1}
    assert set(c4.counts) == {
        c.class_id for c in arrcode_table(4, False).classes if c.connected}
    assert c4.elapsed >= 0


def test_path_census(path3):
    table = arrcode_table(4, False)
    c4 = exact_census(path3, 4)
    assert nonzero(c4) == {table.entries[0b101001]: 1}


def test_directed_census(ffl):
    c3 = exact_census(ffl, 3)
    table = arrcode_table(3, True)
    assert nonzero(c3) == {table.entries[0b001011]: 1}


def test_census_matches_brute_force():
    rng = np.random.default_rng(52)
    for trial in range(40):
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.1, 0.9))
        directed = bool(trial % 2)
        g = random_graph(rng, n, p, directed)
        for size in (3, 4):
            assert exact_census(g, size).counts == \
                brute_force_census(g, size)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_graphs())
def test_small_graph_censuses_match_brute_force(g):
    # self-loops, duplicate and reciprocal arcs, and graphs under 4 vertices
    for size in (3, 4):
        assert exact_census(g, size).counts == brute_force_census(g, size)


def test_census_is_relabel_invariant():
    rng = np.random.default_rng(53)
    g = random_graph(rng, 12, 0.4, False)
    perm = rng.permutation(12)
    pairs = [(int(perm[u]), int(perm[v]))
             for u, v in zip(g.edge_u, g.edge_v)]
    h = Graph.from_edges(12, pairs)
    for size in (3, 4):
        assert exact_census(g, size).counts == exact_census(h, size).counts


def test_frame_handshakes():
    # every frame instance lives in exactly one connected induced motif,
    # so koef-weighted counts must reproduce the frame totals
    rng = np.random.default_rng(54)
    for trial in range(20):
        n = int(rng.integers(5, 13))
        p = float(rng.uniform(0.2, 0.8))
        directed = bool(trial % 2)
        g = random_graph(rng, n, p, directed)
        totals = frame_totals(g)

        c3 = exact_census(g, 3).counts
        k3t = koef_table(3, directed)
        assert sum(cnt * k3t.counts[FrameKind.FORK][cid]
                   for cid, cnt in c3.items()) == totals.n_fork

        c4 = exact_census(g, 4).counts
        k4t = koef_table(4, directed)
        assert sum(cnt * k4t.counts[FrameKind.TRIDENT][cid]
                   for cid, cnt in c4.items()) == totals.n_trident
        open_chains = totals.n_chain - common_neighbor_pairs(g)
        assert sum(cnt * k4t.counts[FrameKind.CHAIN][cid]
                   for cid, cnt in c4.items()) == open_chains


def _walk(g, kind):
    frames = FrameSet(g, kind)
    batch = frames.unrank(np.arange(frames.total, dtype=np.int64))
    return batch.vertices, batch.degenerate


def test_frame_walk_matches_the_loop_oracle():
    # each frame once, the same instances as the plain-loop enumeration
    rng = np.random.default_rng(56)
    for trial in range(20):
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.15, 0.8))
        g = random_graph(rng, n, p, bool(trial % 2))
        totals = frame_totals(g)
        for kind in ALL_KINDS:
            verts, degenerate = _walk(g, kind)
            expected = frames_brute(g, kind)
            assert verts.shape[1] == totals.for_kind(kind) == len(expected)
            got = frame_keys(g, kind, verts)
            assert len(set(got.tolist())) == got.size
            want = frame_keys(g, kind, np.array(
                [v for v, _ in expected], dtype=np.int64).T)
            assert sorted(got.tolist()) == sorted(want.tolist())
            flagged = dict(zip(want.tolist(), (d for _, d in expected)))
            assert [flagged[k] for k in got.tolist()] == degenerate.tolist()


def test_degenerate_chain_flags_match_the_oracle():
    rng = np.random.default_rng(55)
    g = random_graph(rng, 10, 0.5, False)
    _, degenerate = _walk(g, FrameKind.CHAIN)
    assert int(degenerate.sum()) == common_neighbor_pairs(g)


def test_enumerated_frame_counts(k3, k4):
    assert _walk(k3, FrameKind.FORK)[0].shape[1] == 3
    assert _walk(k4, FrameKind.CHAIN)[0].shape[1] == 24
    star = loads_graph("0 1\n0 2\n0 3\n")
    assert _walk(star, FrameKind.TRIDENT)[0].shape[1] == 1


def _count_classify_calls(monkeypatch):
    # (kind passed, frames classified) per call
    calls = []
    real = exact.induced_subgraph_codes

    def counted(g, verts, *, kind):
        calls.append((kind, verts.shape[1]))
        return real(g, verts, kind=kind)
    monkeypatch.setattr(exact, "induced_subgraph_codes", counted)
    return calls


def test_clique_chains_span_three_chunks(monkeypatch):
    # K_16: 120 edges x 14 x 14 = 23,520 chains, 3 chunks; 1,680 of them
    # are closed triangles, and the other 21,840 are 12 per K4
    k16 = Graph.from_edges(16, combinations(range(16), 2))
    calls = _count_classify_calls(monkeypatch)
    table = arrcode_table(4, False)
    assert nonzero(exact_census(k16, 4)) == {table.entries[0b111111]: 1820}
    assert frame_totals(k16).n_chain == 23_520 > 2 * CHUNK
    # chain chunks, then one trident chunk
    assert [kind for kind, _ in calls] == [FrameKind.CHAIN] * 3 + \
        [FrameKind.TRIDENT]
    assert sum(width for _, width in calls[:3]) == 23_520 - 1_680
    assert nonzero(exact_census(k16, 3)) == \
        {arrcode_table(3, False).entries[0b111]: 560}


def test_star_tridents_span_two_chunks(monkeypatch):
    # K_{1,41}: C(41, 3) = 10,660 tridents and no chains; only tridents
    # see the star class
    star = Graph.from_edges(42, [(0, i) for i in range(1, 42)])
    calls = _count_classify_calls(monkeypatch)
    table = arrcode_table(4, False)
    assert nonzero(exact_census(star, 4)) == \
        {table.entries[0b000111]: 10_660}
    assert calls == [(FrameKind.TRIDENT, CHUNK),
                     (FrameKind.TRIDENT, 10_660 - CHUNK)]
    assert CHUNK == 10_000


def test_inconsistent_hits_raise(monkeypatch):
    # a classifier that calls every frame a clique breaks divisibility
    rng = np.random.default_rng(57)
    g = random_graph(rng, 9, 0.5, False)
    kinds = []

    def clique(g, v, *, kind):
        kinds.append(kind)
        return np.full(v.shape[1], 0b111111)
    monkeypatch.setattr(exact, "induced_subgraph_codes", clique)
    with pytest.raises(RuntimeError):
        exact_census(g, 4)
    # the chains, walked first, already break it
    assert kinds == [FrameKind.CHAIN]


def test_traced_classification_sees_every_frame(monkeypatch):
    # a per-layer trace wraps exact.induced_subgraph_codes: every
    # non-degenerate frame of the walk must pass through it, with its kind
    g = random_graph(np.random.default_rng(63), 25, 0.25, directed=False)
    classified = dict.fromkeys(ALL_KINDS, 0)
    real_codes = exact.induced_subgraph_codes

    def codes(graph, vertices, *, kind):
        assert are_open_frames(graph, kind, vertices)
        classified[kind] += vertices.shape[1]
        return real_codes(graph, vertices, kind=kind)
    monkeypatch.setattr(exact, "induced_subgraph_codes", codes)
    totals = frame_totals(g)
    exact_census(g, 3)
    exact_census(g, 4)
    assert classified == {
        FrameKind.FORK: totals.n_fork,
        FrameKind.CHAIN: totals.n_chain - common_neighbor_pairs(g),
        FrameKind.TRIDENT: totals.n_trident}


def test_census_size_validation(k4):
    with pytest.raises(ValueError):
        exact_census(k4, 5)


def test_disconnected_components_do_not_mix():
    g = loads_graph("0 1\n1 2\n3 4\n4 5\n")
    c3 = exact_census(g, 3)
    table = arrcode_table(3, False)
    assert nonzero(c3) == {table.entries[0b101]: 2}
    assert nonzero(exact_census(g, 4)) == {}
