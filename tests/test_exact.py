import os
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import motifcensus
from conftest import (assert_no_child_left, count_forks, force_split,
                      open_fds)
from motifcensus import (FrameKind, Graph, arrcode_table, exact,
                         exact_census, frame_totals, frames, koef_table,
                         loads_graph)
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
        assert sum(cnt * k3t[FrameKind.FORK][cid]
                   for cid, cnt in c3.items()) == totals.n_fork

        c4 = exact_census(g, 4).counts
        k4t = koef_table(4, directed)
        assert sum(cnt * k4t[FrameKind.TRIDENT][cid]
                   for cid, cnt in c4.items()) == totals.n_trident
        open_chains = totals.n_chain - common_neighbor_pairs(g)
        assert sum(cnt * k4t[FrameKind.CHAIN][cid]
                   for cid, cnt in c4.items()) == open_chains


def _walk(g, kind):
    frames = FrameSet(g, kind)
    batch = frames.unrank(np.arange(frames.total, dtype=np.int64))
    return batch.vertices, batch.degenerate


def _chain_skip_graphs():
    """Graphs whose chain middle edges (u, v) all have u first in v's row,
    then graphs where they all have it last; each one undirected, then
    directed with an arc reversed and a reciprocal arc."""
    # a tree numbered from its root down: the parent is each vertex's only
    # smaller neighbor
    first = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7)]
    # two joined stars with their leaves numbered below both hubs: every
    # chain's middle edge is (6, 7)
    last = [(0, 6), (1, 6), (2, 6), (3, 7), (4, 7), (5, 7), (6, 7)]
    for at, pairs in (("first", first), ("last", last)):
        pairs = [pairs[0][::-1], *pairs, pairs[-1][::-1]]
        for directed in (False, True):
            g = Graph.from_edges(8, pairs, directed)
            for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
                row = g.adj_flat[g.adj_offsets[v]:g.adj_offsets[v + 1]]
                if g.degrees[u] > 1 and row.size > 1:
                    assert row[0 if at == "first" else -1] == u
            yield g


def test_frame_walk_matches_the_loop_oracle():
    # each frame once, the same instances as the plain-loop enumeration
    rng = np.random.default_rng(56)
    graphs = [random_graph(rng, int(rng.integers(4, 13)),
                           float(rng.uniform(0.15, 0.8)), bool(trial % 2))
              for trial in range(20)]
    for g in [*graphs, *_chain_skip_graphs()]:
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

    def counted(g, verts, *, kind, arcs=None):
        calls.append((kind, verts.shape[1]))
        return real(g, verts, kind=kind, arcs=arcs)
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

    def clique(g, v, *, kind, arcs=None):
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

    def codes(graph, vertices, *, kind, arcs=None):
        assert are_open_frames(graph, kind, vertices)
        assert (arcs is not None) == graph.directed
        classified[kind] += vertices.shape[1]
        return real_codes(graph, vertices, kind=kind, arcs=arcs)
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


# -- the walk shared with a forked helper --------------------------------


def _force_split(mp, chunk=None):
    # a small chunk gives both processes several chunks on small graphs
    force_split(mp)
    if chunk is not None:
        mp.setattr(exact, "CHUNK", chunk)


@pytest.mark.parametrize("directed", [False, True])
def test_split_counts_equal_one_process(monkeypatch, directed):
    rng = np.random.default_rng(58)
    graphs = [random_graph(rng, int(rng.integers(6, 14)),
                           float(rng.uniform(0.2, 0.7)), directed)
              for _ in range(4)]
    want = [[exact_census(g, size).counts for size in (3, 4)]
            for g in graphs]
    _force_split(monkeypatch, chunk=7)
    forks = count_forks(monkeypatch)
    got = [[exact_census(g, size).counts for size in (3, 4)]
           for g in graphs]
    assert got == want
    # one helper per kind: forks at size 3, chains and tridents at size 4
    assert len(forks) == 3 * len(graphs)
    assert_no_child_left()


def test_split_walks_every_chunk_once(monkeypatch, tmp_path):
    # K_16's 23,520 chains and 7,280 tridents in chunks of 100, so the
    # two processes claim hundreds of times: each appends the chunks it
    # walks to one file, and each chunk is there once.  The parent walks
    # chunk 0, claimed before the fork
    k16 = Graph.from_edges(16, combinations(range(16), 2))
    want = exact_census(k16, 4).counts
    _force_split(monkeypatch, chunk=100)
    log = tmp_path / "chunks"
    real = exact._walk

    def walk(frame_set, table, lo, hi):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {frame_set.kind.value} {lo} {hi}\n")
        return real(frame_set, table, lo, hi)
    monkeypatch.setattr(exact, "_walk", walk)
    assert exact_census(k16, 4).counts == want
    assert_no_child_left()
    walked = [line.split() for line in log.read_text().splitlines()]
    for kind, total in (("chain", 23_520), ("trident", 7_280)):
        chunks = sorted((int(lo), int(hi)) for _, k, lo, hi in walked
                        if k == kind)
        assert chunks == [(lo, min(lo + 100, total))
                          for lo in range(0, total, 100)]
        assert [str(os.getpid()), kind, "0", "100"] in walked


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(small_graphs())
def test_split_censuses_match_brute_force(g):
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, chunk=3)
        for size in (3, 4):
            assert exact_census(g, size).counts == \
                brute_force_census(g, size)


@pytest.mark.parametrize("where", ["helper", "parent"])
def test_a_failing_walk_leaves_no_child(monkeypatch, where):
    rng = np.random.default_rng(59)
    g = random_graph(rng, 10, 0.5, False)
    _force_split(monkeypatch, chunk=5)
    parent = os.getpid()
    real = exact.induced_subgraph_codes

    def codes(graph, verts, *, kind, arcs=None):
        if (os.getpid() == parent) == (where == "parent"):
            raise KeyError("classifier fails")
        if os.getpid() == parent:
            time.sleep(0.1)   # so that the helper claims a chunk
        return real(graph, verts, kind=kind, arcs=arcs)
    monkeypatch.setattr(exact, "induced_subgraph_codes", codes)
    fds = open_fds()
    # the helper's failure reaches the parent as its exit status
    error = RuntimeError if where == "helper" else KeyError
    with pytest.raises(error):
        exact_census(g, 4)
    assert_no_child_left()
    assert open_fds() == fds


def test_helper_hits_that_do_not_fit_raise(monkeypatch):
    # the helper's short hits do not fit its sum: ValueError there, exit
    # status 1, RuntimeError here
    g = random_graph(np.random.default_rng(60), 10, 0.5, False)
    _force_split(monkeypatch, chunk=5)
    parent = os.getpid()
    real = exact._walk

    def walk(*args):
        hits = real(*args)
        if os.getpid() != parent:
            return hits[:-1]
        time.sleep(0.1)   # so that the helper claims a chunk
        return hits
    monkeypatch.setattr(exact, "_walk", walk)
    with pytest.raises(RuntimeError, match="exit code 1"):
        exact_census(g, 3)
    assert_no_child_left()


def test_a_helper_exit_status_raises(monkeypatch):
    # the helper writes all of its hits, then exits 3
    g = random_graph(np.random.default_rng(60), 10, 0.5, False)
    _force_split(monkeypatch, chunk=5)
    real_exit = os._exit
    monkeypatch.setattr(frames.os, "_exit", lambda status: real_exit(3))
    with pytest.raises(RuntimeError, match="exit code 3"):
        exact_census(g, 3)
    assert_no_child_left()


def test_no_fork_below_the_threshold_on_one_cpu_or_with_threads(monkeypatch):
    g = random_graph(np.random.default_rng(61), 12, 0.5, True)
    want = exact_census(g, 4).counts

    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(frames.os, "fork", fork)
    monkeypatch.setattr(frames.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert frame_totals(g).n_chain < frames._SPLIT_FROM
    assert exact_census(g, 4).counts == want
    monkeypatch.setattr(frames, "_SPLIT_FROM", 1)
    # a helper would inherit the locks another thread holds
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert exact_census(g, 4).counts == want
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    monkeypatch.setattr(frames.os, "sched_getaffinity", lambda pid: {3})
    assert exact_census(g, 4).counts == want
    # where the OS cannot say, one CPU is assumed
    monkeypatch.delattr(frames.os, "sched_getaffinity")
    assert exact_census(g, 4).counts == want


def test_a_failed_fork_walks_every_rank_here(monkeypatch):
    g = random_graph(np.random.default_rng(62), 12, 0.5, False)
    want = exact_census(g, 4).counts
    _force_split(monkeypatch, chunk=7)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(frames.os, "fork", fork)
    fds = open_fds()
    assert exact_census(g, 4).counts == want
    assert open_fds() == fds


# every table, the totals and an exact census, in a fresh process
_NO_MASKED_ARRAYS = """
import sys
from motifcensus import (Graph, arrcode_table, exact_census, frame_totals,
                         koef_table)
for size in (3, 4):
    for directed in (False, True):
        arrcode_table(size, directed)
        koef_table(size, directed)
        g = Graph.from_edges(5, [(0, 1), (2, 1), (2, 3), (3, 4), (0, 2)],
                             directed)
        frame_totals(g)
        exact_census(g, size)
print("numpy.ma" in sys.modules)
"""


def test_census_does_not_import_masked_arrays():
    # np.unique imports numpy.ma, about 10 ms of a process's first table
    src = str(Path(motifcensus.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
