"""Simple-graph loading, normalization, and induced-subgraph bitmask codes.

Vertices are remapped to dense ids 0..n-1 in order of first appearance; the
original labels are kept so the mapping is invertible.  Each edge {u, v}
of the undirected view is two half-edges, keyed u * n + v and v * n + u;
the sorted, distinct half-edge keys are the CSR adjacency, whose rows are
then sorted by neighbor.  Directed graphs additionally keep their arc set,
and a pair of reciprocal arcs collapses to a single undirected edge;
degrees always refer to the collapsed view.

A set of 3 or 4 vertices maps to an integer code, one bit per vertex pair
(ordered pairs for directed graphs).  Pairs are enumerated in lexicographic
order and bit 0, the least significant bit, belongs to the first pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable

import numpy as np


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class LoadReport:
    """What normalization did to the raw pair list."""

    n_vertices: int
    n_edges: int
    n_arcs: int | None
    self_loops_dropped: int
    duplicates_dropped: int

    def to_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "n_arcs": self.n_arcs,
            "self_loops_dropped": self.self_loops_dropped,
            "duplicates_dropped": self.duplicates_dropped,
        }


@lru_cache(maxsize=None)
def pair_slots(size: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """Vertex-pair order behind the subgraph bitmask: slot s <-> bit s."""
    if size < 2:
        raise ValueError(f"subgraph size must be at least 2, got {size}")
    if directed:
        return tuple((i, j) for i in range(size) for j in range(size) if i != j)
    return tuple((i, j) for i in range(size) for j in range(i + 1, size))


class Graph:
    """Immutable simple graph, directed or undirected.

    Attributes:
        directed: whether arcs are kept (True) or only edges (False).
        n_vertices: number of vertices after remapping.
        labels: original vertex labels, indexed by dense id.
        degrees: per-vertex degree on the undirected view, int64.
        adj_offsets, adj_flat: CSR adjacency of the undirected view,
            neighbors sorted within each row.
        edge_u, edge_v: undirected edges with edge_u < edge_v,
            lexicographically sorted.
    """

    def __init__(self, *, directed, labels, degrees, adj_offsets, adj_flat,
                 edge_u, edge_v, edge_keys, edge_pos_in_u, edge_pos_in_v,
                 arc_keys, load_report):
        self.directed = directed
        self.labels = labels
        self.n_vertices = len(labels)
        self.degrees = degrees
        self.adj_offsets = adj_offsets
        self.adj_flat = adj_flat
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_keys = edge_keys
        # position of v inside u's adjacency row (and vice versa), per edge;
        # chain frames need these to skip the co-endpoint in O(1)
        self.edge_pos_in_u = edge_pos_in_u
        self.edge_pos_in_v = edge_pos_in_v
        self.arc_keys = arc_keys
        self.load_report = load_report
        self._samplers = {}

    @classmethod
    def from_edges(cls, n_vertices: int, pairs: Iterable[tuple[int, int]],
                   directed: bool = False) -> "Graph":
        """Build a graph from integer vertex pairs, labelled "0" .. "n-1".

        Self-loops are dropped and duplicate pairs are deduplicated; for
        undirected graphs (u, v) and (v, u) are the same pair.
        """
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be (u, v) tuples")
        if arr.size and (arr.min() < 0 or arr.max() >= n_vertices):
            raise ValueError("vertex id out of range")
        return _build(arr, tuple(str(i) for i in range(n_vertices)), directed)

    # -- basic queries ----------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.size)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _build(arr: np.ndarray, labels: tuple, directed: bool) -> Graph:
    n = len(labels)
    loops = arr[:, 0] == arr[:, 1]
    pairs = arr[~loops]
    u, v = pairs.T
    arc_keys = np.empty(0, dtype=np.int64)
    if directed:
        arc_keys = _distinct(u * n + v)
        u, v = np.divmod(arc_keys, n)

    half = _distinct(np.concatenate([u * n + v, v * n + u]))
    row, adj_flat = np.divmod(half, n)
    degrees = np.bincount(row, minlength=n).astype(np.int64)
    adj_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=adj_offsets[1:])

    forward = row < adj_flat
    edge_keys = half[forward]
    edge_u, edge_v = row[forward], adj_flat[forward]
    edge_pos_in_u = np.flatnonzero(forward) - adj_offsets[edge_u]
    # the half-edges (v, u), put in the order of their edges (u, v)
    back = np.flatnonzero(~forward)
    back = back[np.argsort(adj_flat[back] * n + row[back])]
    edge_pos_in_v = back - adj_offsets[edge_v]

    kept = arc_keys.size if directed else edge_keys.size
    report = LoadReport(
        n_vertices=n,
        n_edges=int(edge_keys.size),
        n_arcs=int(arc_keys.size) if directed else None,
        self_loops_dropped=int(loops.sum()),
        duplicates_dropped=int(len(pairs) - kept),
    )
    return Graph(directed=directed, labels=labels, degrees=degrees,
                 adj_offsets=adj_offsets, adj_flat=adj_flat,
                 edge_u=edge_u, edge_v=edge_v, edge_keys=edge_keys,
                 edge_pos_in_u=edge_pos_in_u, edge_pos_in_v=edge_pos_in_v,
                 arc_keys=arc_keys, load_report=report)


def loads_graph(text: str, directed: bool = False) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    One pair of vertex labels per line; blank lines and lines starting
    with '#' are skipped.  Labels may be arbitrary tokens, not only ints.
    """
    ids: dict[str, int] = {}
    flat: list[int] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2:
            raise EdgeListError(
                f"expected two vertex labels, got {len(tokens)}", line_no)
        u, v = tokens
        flat.append(ids.setdefault(u, len(ids)))
        flat.append(ids.setdefault(v, len(ids)))
    if not flat:
        raise EdgeListError("empty edge list")
    arr = np.array(flat, dtype=np.int64).reshape(-1, 2)
    return _build(arr, tuple(ids), directed)


def load_graph(source: str | Path | IO[str], directed: bool = False) -> Graph:
    """Read an edge list from a path or an open text file."""
    if hasattr(source, "read"):
        return loads_graph(source.read(), directed)
    return loads_graph(Path(source).read_text(), directed)


def _in_sorted(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of each query in a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    idx = np.searchsorted(sorted_keys, queries)
    idx_c = np.minimum(idx, sorted_keys.size - 1)
    return (sorted_keys[idx_c] == queries) & (idx < sorted_keys.size)


def induced_subgraph_codes(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """Induced-subgraph bitmask of each column of a (k, batch) array.

    Each column holds 3 or 4 distinct vertices.  Bit s is set when the pair
    at slot s (see pair_slots) is an edge, or an arc for directed graphs.
    A code depends on the vertex order; use the class tables to get an
    order-free identity.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    k = verts.shape[0]
    n = g.n_vertices
    slots = pair_slots(k, g.directed)
    keys = g.arc_keys if g.directed else g.edge_keys
    codes = np.zeros(verts.shape[1], dtype=np.int64)
    for s, (i, j) in enumerate(slots):
        a = verts[i]
        b = verts[j]
        if g.directed:
            q = a * n + b
        else:
            q = np.minimum(a, b) * n + np.maximum(a, b)
        codes |= _in_sorted(keys, q).astype(np.int64) << s
    return codes
