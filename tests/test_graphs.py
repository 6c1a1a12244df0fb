import numpy as np
import pytest

from motifcensus import (EdgeListError, Graph, induced_subgraph_codes,
                         loads_graph, pair_slots)
from oracles import dumps_graph, induced_code, random_graph


def _row(g, v):
    return g.adj_flat[g.adj_offsets[v]:g.adj_offsets[v + 1]]


def _code(g, vertices):
    return int(induced_subgraph_codes(g, np.array(vertices)[:, None])[0])


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
    assert g.n_arcs == 2
    assert g.n_edges == 1
    assert g.degrees.tolist() == [1, 1]
    assert g.arcs().tolist() == [[0, 1], [1, 0]]


def test_directed_duplicates_counted_on_arcs():
    g = loads_graph("0 1\n0 1\n1 0\n", directed=True)
    assert g.n_arcs == 2
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
        assert int(_row(g, v)[g.edge_pos_in_v[e]]) == u


def _label_pairs(g):
    if g.directed:
        return {(g.labels[int(a)], g.labels[int(b)]) for a, b in g.arcs()}
    return {frozenset((g.labels[int(u)], g.labels[int(v)]))
            for u, v in zip(g.edge_u, g.edge_v)}


def test_dump_load_round_trip():
    rng = np.random.default_rng(13)
    for directed in (False, True):
        g = random_graph(rng, 20, 0.25, directed=directed)
        h = loads_graph(dumps_graph(g), directed=directed)
        assert h.n_edges == g.n_edges
        assert _label_pairs(h) == _label_pairs(g)


def test_from_edges_keeps_isolated_vertices():
    g = Graph.from_edges(5, [(0, 1)])
    assert g.n_vertices == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]


def test_from_edges_validates():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_pair_slot_order():
    assert pair_slots(3, False) == ((0, 1), (0, 2), (1, 2))
    assert pair_slots(3, True) == ((0, 1), (0, 2), (1, 0), (1, 2),
                                   (2, 0), (2, 1))
    assert len(pair_slots(4, False)) == 6
    assert len(pair_slots(4, True)) == 12


def test_induced_code_examples(k3, path3):
    # bit 0 = pair (0,1), bit 1 = (0,2), bit 2 = (1,2)
    assert _code(k3, (0, 1, 2)) == 0b111
    assert _code(path3, (0, 1, 2)) == 0b101
    assert _code(path3, (0, 1, 3)) == 0b001
    # edges (0,1), (1,2), (2,3) sit at slots 0, 3, 5 of the quad order
    assert _code(path3, (0, 1, 2, 3)) == 0b101001


def test_induced_code_directed(ffl):
    # arcs 0->1, 0->2, 1->2 against slots (01,02,10,12,20,21)
    assert _code(ffl, (0, 1, 2)) == 0b001011


def test_vectorized_codes_match_scalar():
    rng = np.random.default_rng(21)
    for directed in (False, True):
        g = random_graph(rng, 18, 0.3, directed=directed)
        for k in (3, 4):
            cols = np.stack([
                np.array(sorted(rng.choice(18, size=k, replace=False)))
                for _ in range(200)
            ]).T
            batch = induced_subgraph_codes(g, cols)
            for t in range(cols.shape[1]):
                assert batch[t] == induced_code(g, cols[:, t])


def test_code_respects_vertex_order():
    # permuting the query tuple permutes the bits, not the edge content
    rng = np.random.default_rng(22)
    g = random_graph(rng, 12, 0.4, directed=False)
    from itertools import permutations
    vs = (1, 5, 8)
    codes = {_code(g, p) for p in permutations(vs)}
    ones = {bin(c).count("1") for c in codes}
    assert len(ones) == 1  # edge count is order-free even when bits move
