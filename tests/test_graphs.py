import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifcensus import (EdgeListError, FrameKind, Graph, exact_census,
                         induced_subgraph_codes, load_graph, loads_graph,
                         pair_slots, run_sampled_census)
from motifcensus.frames import FrameSet
from motifcensus.graphs import _blocks, _mix, _PairTable
from oracles import (arcs, dumps_graph, induced_code, parse_edge_list,
                     random_graph, small_graphs)


def _row(g, v):
    return g.adj_flat[g.adj_offsets[v]:g.adj_offsets[v + 1]]


def test_triangle_basics(k3):
    assert k3.n_vertices == 3
    assert k3.n_edges == 3
    assert k3.degrees.tolist() == [2, 2, 2]
    assert not k3.directed
    assert _row(k3, 0).tolist() == [1, 2]


def test_duplicate_edges_collapse():
    g = loads_graph("0 1\n0 1\n1 0\n")
    assert g.n_edges == 1
    assert g.load_report.duplicates_dropped == 2


def test_reciprocal_arcs_are_one_edge():
    g = loads_graph("0 1\n1 0\n", directed=True)
    assert g.load_report.n_arcs == 2
    assert g.n_edges == 1
    assert g.degrees.tolist() == [1, 1]
    assert arcs(g).tolist() == [[0, 1], [1, 0]]


def test_directed_duplicates_counted_on_arcs():
    g = loads_graph("0 1\n0 1\n1 0\n", directed=True)
    assert g.load_report.n_arcs == 2
    assert g.load_report.duplicates_dropped == 1


def test_self_loops_dropped_but_vertex_kept():
    g = loads_graph("0 0\n0 1\n")
    assert g.n_vertices == 2
    assert g.n_edges == 1
    assert g.load_report.self_loops_dropped == 1


def test_self_loop_only_input_is_an_edgeless_graph():
    g = loads_graph("5 5\n")
    assert g.n_vertices == 1
    assert g.n_edges == 0


def test_comments_and_blank_lines_skipped():
    g = loads_graph("# header\n\n0 1\n  \n# trailing\n1 2\n")
    assert g.n_edges == 2


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError) as exc:
        loads_graph("0 1\n0 1 2\n")
    assert "line 2" in str(exc.value)
    assert exc.value.line_no == 2


def test_empty_input_is_an_error():
    with pytest.raises(EdgeListError):
        loads_graph("")
    with pytest.raises(EdgeListError):
        loads_graph("# only a comment\n")


def test_labels_remap_and_invert():
    g = loads_graph("alpha beta\nbeta gamma\n")
    assert g.labels == ("alpha", "beta", "gamma")
    alpha, beta, gamma = (g.labels.index(lab)
                          for lab in ("alpha", "beta", "gamma"))
    assert gamma == 2
    assert beta in _row(g, alpha)


def test_adjacency_rows_sorted():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 30, 0.2, directed=False)
    for v in range(g.n_vertices):
        row = _row(g, v).tolist()
        assert row == sorted(row)
        assert len(row) == g.degrees[v]


def test_edge_positions_point_back():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 25, 0.3, directed=False)
    for e in range(g.n_edges):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        assert int(_row(g, u)[g.edge_pos_in_u[e]]) == v


def _label_pairs(g):
    if g.directed:
        return {(g.labels[int(a)], g.labels[int(b)]) for a, b in arcs(g)}
    return {frozenset((g.labels[int(u)], g.labels[int(v)]))
            for u, v in zip(g.edge_u, g.edge_v)}


def test_dump_load_round_trip():
    rng = np.random.default_rng(13)
    for directed in (False, True):
        g = random_graph(rng, 20, 0.25, directed=directed)
        h = loads_graph(dumps_graph(g), directed=directed)
        assert h.n_edges == g.n_edges
        assert _label_pairs(h) == _label_pairs(g)


# labels drawn from a few characters, so that they repeat, and with '#'
# among them: a '#' starts a comment only as a line's first non-blank
# character, and elsewhere it is part of a label
TOKENS = st.text(alphabet="01ab#_\u00e9", min_size=1, max_size=3)
# canonical decimal integers, near 0 and near the ends of int64, and
# integer-like tokens that are kept as written, not as the integer they
# parse to (or fail to, past int64)
INTEGERS = (st.integers(-3, 12) | st.integers(-2**63, -2**63 + 2)
            | st.integers(2**63 - 3, 2**63 - 1)).map(str)
ODD_INTEGERS = st.sampled_from(["007", "-0", "00", "+7", "1#2",
                                str(2**63), str(-2**63 - 1)])
GAP = st.sampled_from([" ", "\t", "  ", " \t "])
MARGIN = st.sampled_from(["", " ", "\t"])
# a comment ends at any line break str.splitlines knows, as \x85 is
HEADER = st.sampled_from(["", "# Directed graph: g.txt\n# Nodes: 9 Edges: 9\n",
                          "#\n\n", " # FromNodeId\tToNodeId\r\n\t\n",
                          "# 1\x85 2 3\n"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text with self-loops, repeats, reciprocal pairs, comments,
    blank lines, tabs, CRLF and the odd 1- or 3-token line.  On a drawn
    flag the labels are canonical integers, the lines end in "\n", and
    comments come only in a header, as in a SNAP file."""
    integers = draw(st.booleans())
    tokens = INTEGERS if integers else TOKENS | INTEGERS | ODD_INTEGERS
    label = st.sampled_from(draw(st.lists(tokens, min_size=1, max_size=6)))
    pairs = draw(st.lists(st.tuples(label, label), min_size=1, max_size=12))
    pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs),
                                                 max_size=4))]
    lines = [draw(MARGIN) + u + draw(GAP) + v + draw(MARGIN)
             for u, v in pairs]
    lines += draw(st.lists(MARGIN if integers else
                           MARGIN.map(lambda m: m + "#") | MARGIN,
                           max_size=3))
    if not integers:
        lines += [draw(MARGIN) + "#" + draw(GAP).join(words) for words in
                  draw(st.lists(st.lists(TOKENS, max_size=3), max_size=2))]
    lines += [draw(GAP).join(words) for words in draw(st.lists(
        st.lists(tokens, min_size=1, max_size=3).filter(
            lambda words: len(words) != 2), max_size=1))]
    lines = draw(st.permutations(lines))
    ends = [draw(st.sampled_from(["\n"] if integers else ["\n", "\r\n"]))
            for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    head = draw(HEADER) if integers else ""
    return head + "".join(line + end for line, end in zip(lines, ends))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(edge_list_texts())
def test_loader_matches_the_reference_parser(text):
    for directed in (False, True):
        want = parse_edge_list(text, directed)
        if "line_no" in want:
            with pytest.raises(EdgeListError) as exc:
                loads_graph(text, directed)
            assert exc.value.line_no == want["line_no"]
            continue
        g = loads_graph(text, directed)
        n = len(want["labels"])
        pairs = sorted((u, v) for u, vs in want["pairs"].items() for v in vs)
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        assert g.labels == want["labels"]
        assert g.n_vertices == n
        if directed:
            assert arcs(g).tolist() == [list(p) for p in pairs]
        assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == edges
        neighbors = [set() for _ in range(n)]
        for u, v in edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        for v in range(n):
            assert _row(g, v).tolist() == sorted(neighbors[v])
            # bit 0: the arc v -> w, bit 1: the arc w -> v
            bits = g.adj_bits[g.adj_offsets[v]:g.adj_offsets[v + 1]]
            assert bits.tolist() == [
                (w in want["pairs"][v]) | (v in want["pairs"][w]) << 1
                if directed else 3 for w in sorted(neighbors[v])]
        assert g.degrees.tolist() == [len(s) for s in neighbors]
        for e, (u, v) in enumerate(edges):
            assert _row(g, u)[g.edge_pos_in_u[e]] == v
        assert g.load_report.to_dict() == {
            "n_vertices": n, "n_edges": len(edges),
            "n_arcs": len(pairs) if directed else None,
            "self_loops_dropped": want["self_loops"],
            "duplicates_dropped": want["duplicates"]}


# every line break str.splitlines knows, among a few other characters
LINE_TEXTS = st.lists(st.sampled_from(
    ["\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
     "\u2028", "\u2029", "a", " "]), max_size=30).map("".join)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(LINE_TEXTS)
def test_line_blocks_split_like_splitlines(text):
    for block in range(len(text) + 2):
        lines = [line for piece in _blocks(text, 0, block)
                 for line in piece.splitlines()]
        assert lines == text.splitlines()


def _assert_same_graph(g, h):
    assert g.labels == h.labels
    assert g.load_report == h.load_report
    for name in ("degrees", "adj_offsets", "adj_flat", "adj_bits", "edge_u",
                 "edge_v", "edge_pos_in_u"):
        assert np.array_equal(getattr(g, name), getattr(h, name)), name


def test_loader_reads_past_a_block(monkeypatch):
    # 20,000 lines are about 220 KB, several blocks of lines; CRLF text is
    # read a line at a time, "\n" text by np.loadtxt
    lines = [f"{i} {i + 1}" for i in range(20_000)]
    crlf = "".join(line + "\r\n" for line in lines)
    lf = "".join(line + "\n" for line in lines)
    header = "# Undirected graph: chain.txt\n# FromNodeId\tToNodeId\n"
    g = loads_graph(crlf)
    assert g.n_edges == 20_000
    for text, skipped in ((crlf, 0), (lf, 0), (header + lf, 2)):
        _assert_same_graph(loads_graph(text), g)
        with pytest.raises(EdgeListError) as exc:
            loads_graph(text + "1 2 3\n")
        assert exc.value.line_no == 20_001 + skipped
    # a label that is not a canonical integer is kept as it is written
    lines[18_999] = "18999 007"
    h = loads_graph("".join(line + "\n" for line in lines))
    assert h.labels[19_000] == "007"
    assert h.labels.index("19000") == 19_001

    def no_lines(*args):
        raise AssertionError("read a line at a time")
    monkeypatch.setattr("motifcensus.graphs._read_tokens", no_lines)
    _assert_same_graph(loads_graph(header + lf), g)
    # ids are made a slice of keys at a time; runs of equal values cross
    # the ends of slices that do not divide the key count
    monkeypatch.setattr("motifcensus.graphs._SLICE", 7)
    _assert_same_graph(loads_graph(lf), g)


def test_integers_past_int64_are_labels():
    # np.loadtxt refuses them, so the text is read a line at a time
    text = f"{2**63 - 1} {2**63}\n{-2**63} {-2**63 - 1}\n"
    assert loads_graph(text).labels == tuple(text.split())


def test_binary_input_is_refused():
    with pytest.raises(TypeError, match="open the file in text mode"):
        loads_graph(b"1 2\n")
    with pytest.raises(TypeError, match="open the file in text mode"):
        load_graph(io.BytesIO(b"1 2\n"))


def test_a_leading_byte_order_mark_labels_no_vertex(tmp_path, monkeypatch):
    # a UTF-8 byte-order mark, then a triangle of integer labels
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeff1 2\n2 3\n3 1\n".encode("utf-8"))

    def no_lines(text):
        raise AssertionError("read a line at a time")
    monkeypatch.setattr("motifcensus.graphs._read_tokens", no_lines)
    with open(path, encoding="utf-8") as fh:
        graphs = [load_graph(path), load_graph(fh),
                  loads_graph(path.read_text(encoding="utf-8"))]
    for g in graphs:
        assert g.labels == ("1", "2", "3")
        # no open path, one triangle
        assert exact_census(g, 3).counts == {2: 0, 3: 1}


def test_from_edges_keeps_isolated_vertices():
    g = Graph.from_edges(5, [(0, 1)])
    assert g.n_vertices == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]


def test_from_edges_validates():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    # ragged pairs get this message, not numpy's inhomogeneous-shape one
    with pytest.raises(ValueError, match=r"^pairs must be \(u, v\) tuples$"):
        Graph.from_edges(3, [[0, 1], [1]])


def test_from_edges_refuses_non_integer_ids():
    # 1.7 and 2.9 would otherwise truncate to the edges (0, 1) and (1, 2)
    with pytest.raises(ValueError, match="must be integers, got float64"):
        Graph.from_edges(3, [(0, 1.7), (1, 2.9)])
    with pytest.raises(ValueError, match="must be integers"):
        Graph.from_edges(3, [("0", "1")])


@pytest.mark.parametrize("n", [(1 << 30) + 1, 1 << 62, -1, 2.0])
def test_from_edges_refuses_a_bad_vertex_count(n):
    # refused before one label per vertex is built
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        Graph.from_edges(n, [(0, 1)])


def test_directed_must_be_a_bool():
    # "no" is truthy: it built a directed graph that reported "no"
    for directed in ("no", 1, None):
        with pytest.raises(TypeError, match="directed must be a bool"):
            loads_graph("0 1\n1 2\n", directed=directed)
        with pytest.raises(TypeError, match="directed must be a bool"):
            Graph.from_edges(3, [(0, 1)], directed=directed)
    # a numpy bool is stored as a bool, so a sampled report dumps to JSON
    g = loads_graph("0 1\n1 2\n", directed=np.True_)
    assert g.directed is True
    report = run_sampled_census(g, 3, budget=100, seed=1)
    assert json.loads(json.dumps(report.to_dict()))["directed"] is True


def test_pair_slot_order():
    assert pair_slots(3, False) == ((0, 1), (0, 2), (1, 2))
    assert pair_slots(3, True) == ((0, 1), (0, 2), (1, 0), (1, 2),
                                   (2, 0), (2, 1))
    assert len(pair_slots(4, False)) == 6
    assert len(pair_slots(4, True)) == 12


def test_induced_code_examples(k3, path3):
    # a fork is (leaf, center, leaf); bit 0 = pair (0,1), bit 1 = (0,2),
    # bit 2 = (1,2)
    fork = np.array([[0], [1], [2]])
    assert induced_subgraph_codes(k3, fork, kind="fork").tolist() == [0b111]
    assert induced_subgraph_codes(path3, fork, kind="fork").tolist() == \
        [0b101]
    # a chain is (end, middle, middle, end): edges (0,1), (1,2), (2,3) sit
    # at slots 0, 3, 5 of the quad order
    chain = np.array([[0], [1], [2], [3]])
    assert induced_subgraph_codes(path3, chain, kind="chain").tolist() == \
        [0b101001]


def test_induced_code_directed(ffl):
    # arcs 0->1, 0->2, 1->2 against slots (01,02,10,12,20,21); the fork
    # (0, 1, 2), centred on 1, is rank 1 (center 0's fork comes first)
    verts, half = FrameSet(ffl, FrameKind.FORK).unrank(
        np.array([1])).open_frames
    assert verts[:, 0].tolist() == [0, 1, 2]
    assert induced_subgraph_codes(ffl, verts, kind="fork",
                                  half_edges=half).tolist() == [0b001011]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_graphs())
def test_frame_codes_match_the_oracle(g):
    # a frame's tree pairs are not looked up: their bits are known on an
    # undirected graph, and read through the frame's half-edges on a
    # directed one; the codes must still be those of the oracle, which
    # looks up every pair
    for kind in (FrameKind.FORK, FrameKind.CHAIN, FrameKind.TRIDENT):
        frames = FrameSet(g, kind)
        verts, half = frames.unrank(
            np.arange(frames.total, dtype=np.int64)).open_frames
        assert (half is not None) == g.directed
        codes = induced_subgraph_codes(g, verts, kind=kind, half_edges=half)
        assert codes.tolist() == [induced_code(g, col) for col in verts.T]
        if verts.shape[1]:
            one = None if half is None else half[:, :1]
            assert induced_subgraph_codes(
                g, verts[:, :1], kind=kind,
                half_edges=one).tolist() == codes[:1].tolist()


@pytest.mark.parametrize("kind,closing",
                         [(FrameKind.FORK, 1), (FrameKind.CHAIN, 3),
                          (FrameKind.TRIDENT, 3)])
def test_directed_frames_look_up_only_their_closing_pairs(
        monkeypatch, kind, closing):
    # keys sent to the pair table per frame: the closing pairs only, since
    # the tree pairs' arcs come from the half-edges; a directed frame
    # without its half-edges is refused
    g = random_graph(np.random.default_rng(23), 16, 0.4, directed=True)
    sent = []
    real = _PairTable.lookup

    def lookup(table, keys):
        sent.append(keys.size)
        return real(table, keys)
    monkeypatch.setattr(_PairTable, "lookup", lookup)
    frames = FrameSet(g, kind)
    verts, half = frames.unrank(
        np.arange(frames.total, dtype=np.int64)).open_frames
    frames_in = verts.shape[1]
    assert frames_in > 0
    induced_subgraph_codes(g, verts, kind=kind, half_edges=half)
    assert sum(sent) == closing * frames_in
    with pytest.raises(ValueError,
                       match="directed frames need their half_edges"):
        induced_subgraph_codes(g, verts, kind=kind)


@pytest.mark.parametrize("bad", [5, 3, -1])
def test_codes_refuse_vertex_ids_out_of_range(bad):
    # on the path 0-1-2, key 0 * 3 + 5 of the fork's closing pair (0, 5)
    # is key 1 * 3 + 2 of the edge (1, 2)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"vertex ids must be in 0 \.\. 2"):
        induced_subgraph_codes(g, np.array([[0], [1], [bad]]), kind="fork")


def test_kind_must_match_the_rows(k4):
    with pytest.raises(ValueError, match="chains have 4 vertices"):
        induced_subgraph_codes(k4, np.array([[0], [1], [2]]),
                               kind=FrameKind.CHAIN)


def test_codes_refuse_non_integer_vertices(path3):
    # truncated, the columns would read (0, 1, 2)
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        induced_subgraph_codes(path3, [[0.9], [1.5], [2.2]], kind="fork")
    assert induced_subgraph_codes(path3, [[0], [1], [2]],
                                  kind="fork").tolist() == [0b101]


@pytest.mark.parametrize("shape", [(3,), (3, 1, 1)])
def test_codes_refuse_vertices_that_are_not_2d(path3, shape):
    # on the path 0-1-2-3, a 1-D or 3-D array is refused before any lookup
    verts = np.arange(3).reshape(shape)
    with pytest.raises(ValueError, match=r"shape \(k, batch\), got "
                       + re.escape(str(shape))):
        induced_subgraph_codes(path3, verts, kind="fork")


def test_codes_take_a_kind_by_name(path3):
    verts = np.array([[0], [1], [2]])
    assert induced_subgraph_codes(path3, verts, kind="fork").tolist() == \
        [0b101]
    with pytest.raises(ValueError, match="'spoon' is not a valid FrameKind"):
        induced_subgraph_codes(path3, verts, kind="spoon")


def _directed_forks():
    # the directed path 0 -> 1 -> 2 holds one fork, (0, 1, 2), centred on 1
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    verts, half = FrameSet(g, FrameKind.FORK).unrank(
        np.arange(1, dtype=np.int64)).open_frames
    return g, verts, half


def test_half_edges_need_the_kind():
    # the classifier takes frames only: without their kind, with or
    # without half-edges, the call is refused
    g, verts, half = _directed_forks()
    assert induced_subgraph_codes(g, verts, kind="fork",
                                  half_edges=half).tolist() == \
        [induced_code(g, verts[:, 0])]
    for half_edges in (half, None):
        with pytest.raises(TypeError, match="'kind'"):
            induced_subgraph_codes(g, verts, half_edges=half_edges)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2,), (3, 1)])
def test_half_edges_must_have_a_row_per_tree_pair(shape):
    g, verts, _ = _directed_forks()
    with pytest.raises(ValueError, match=r"must have shape \(2, 1\)"):
        induced_subgraph_codes(g, verts, kind=FrameKind.FORK,
                               half_edges=np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("bad", [4, -1, -4])
def test_half_edges_must_lie_in_the_adjacency(bad):
    # 4 half-edges; -1 would wrap to the last of them
    g, verts, half = _directed_forks()
    assert g.adj_flat.size == 4
    with pytest.raises(ValueError, match=r"half-edges must be in 0 \.\. 3"):
        induced_subgraph_codes(g, verts, kind=FrameKind.FORK,
                               half_edges=np.array([[half[0, 0]], [bad]]))
    with pytest.raises(ValueError, match="half-edges must be integers"):
        induced_subgraph_codes(g, verts, kind=FrameKind.FORK,
                               half_edges=half.astype(float))


def test_pair_table_spills_past_its_last_home_slot():
    # 8 keys sharing the last of 16 home slots fill it and the 7 slots
    # after it; a probe for an absent key with that home reads all 8
    home = _mix(np.arange(2_000, dtype=np.int64)) >> 60 == 15
    keys = np.flatnonzero(home)[:9].astype(np.int64)
    table = _PairTable(keys[:8], np.arange(8) % 3 + 1)
    assert table.reach == 7
    assert table.slots.size == 16 + 7
    assert table.lookup(keys).tolist() == [1, 2, 3, 1, 2, 3, 1, 2, 0]
    assert table.lookup(keys[:0]).size == 0
