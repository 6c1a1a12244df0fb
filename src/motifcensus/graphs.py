"""Simple-graph loading, normalization, and induced-subgraph bitmask codes.

Vertices are remapped to dense ids 0..n-1 in order of first appearance; the
original labels are kept so the mapping is invertible.  Adjacency lives in a
sorted CSR layout over the undirected view.  Directed graphs additionally
keep their arc set, and a pair of reciprocal arcs collapses to a single
undirected edge; degrees always refer to the collapsed view.

A set of 3 or 4 vertices maps to an integer code, one bit per vertex pair
(ordered pairs for directed graphs).  Pairs are enumerated in lexicographic
order and bit 0, the least significant bit, belongs to the first pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Sequence

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
                   directed: bool = False,
                   labels: Sequence[str] | None = None) -> "Graph":
        """Build a graph from integer vertex pairs.

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
        if labels is None:
            labels = tuple(str(i) for i in range(n_vertices))
        else:
            labels = tuple(labels)
            if len(labels) != n_vertices:
                raise ValueError("labels length must match vertex count")
        return _build(arr, labels, directed)

    # -- basic queries ----------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.size)

    @property
    def n_arcs(self) -> int | None:
        return int(self.arc_keys.size) if self.directed else None

    def arcs(self) -> np.ndarray:
        """Directed arcs as an (m, 2) array of dense ids."""
        if not self.directed:
            raise ValueError("undirected graph has no arcs")
        n = self.n_vertices
        return np.stack([self.arc_keys // n, self.arc_keys % n], axis=1)


def _build(arr: np.ndarray, labels: tuple, directed: bool) -> Graph:
    n = len(labels)
    loops = arr[:, 0] == arr[:, 1]
    self_loops = int(loops.sum())
    arr = arr[~loops]

    arc_keys = np.empty(0, dtype=np.int64)
    if directed:
        raw = arr[:, 0] * n + arr[:, 1]
        arc_keys = np.unique(raw)
        duplicates = int(raw.size - arc_keys.size)
        lo = np.minimum(arc_keys // n, arc_keys % n)
        hi = np.maximum(arc_keys // n, arc_keys % n)
        edge_keys = np.unique(lo * n + hi)
    else:
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        raw = lo * n + hi
        edge_keys = np.unique(raw)
        duplicates = int(raw.size - edge_keys.size)

    edge_u = edge_keys // n
    edge_v = edge_keys % n
    m = edge_u.size

    # doubled half-edges, sorted by (vertex, neighbor): CSR with sorted rows
    du = np.concatenate([edge_u, edge_v])
    dv = np.concatenate([edge_v, edge_u])
    order = np.argsort(du * n + dv) if m else np.empty(0, dtype=np.int64)
    adj_flat = dv[order]
    degrees = np.bincount(du, minlength=n).astype(np.int64)
    adj_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=adj_offsets[1:])

    pos = np.empty(2 * m, dtype=np.int64)
    pos[order] = np.arange(2 * m, dtype=np.int64)
    pos_in_row = pos - adj_offsets[du]
    edge_pos_in_u = pos_in_row[:m]
    edge_pos_in_v = pos_in_row[m:]

    report = LoadReport(
        n_vertices=n,
        n_edges=int(m),
        n_arcs=int(arc_keys.size) if directed else None,
        self_loops_dropped=self_loops,
        duplicates_dropped=duplicates,
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
    labels: list[str] = []
    us: list[int] = []
    vs: list[int] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListError(
                f"expected two vertex labels, got {len(tokens)}", line_no)
        pair = []
        for tok in tokens:
            if tok not in ids:
                ids[tok] = len(labels)
                labels.append(tok)
            pair.append(ids[tok])
        us.append(pair[0])
        vs.append(pair[1])
    if not us:
        raise EdgeListError("empty edge list")
    arr = np.stack([np.asarray(us, dtype=np.int64),
                    np.asarray(vs, dtype=np.int64)], axis=1)
    return _build(arr, tuple(labels), directed)


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
