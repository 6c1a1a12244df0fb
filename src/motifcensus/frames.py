"""Spanning frames: exact totals, equiprobable sampling, containment counts.

A frame is a small spanning tree drawn around a vertex or an edge:

  fork     2-edge path on 3 vertices, centered on its middle vertex
  trident  3-star on 4 vertices, centered on its hub
  chain    3-edge path on 4 vertices, built around its middle edge

Totals follow from degrees alone, and one ranking numbers every frame of a
kind 0 .. total - 1 (see FrameSet).  Exact census unranks every index once;
sampling unranks uniform random indices, so every instance is equally
likely.  A chain around edge (i, j) has one extra neighbor on each side;
when both coincide the frame is degenerate: a sampled one still consumes
one experiment but cannot detect any motif.

Frames live on the undirected view: a frame's tree pairs are edges, each
picked as a half-edge, one entry of a CSR row (see Graph).  The classifier
takes frames of one kind and gives each its induced-subgraph code (bit
order: canon.pair_slots).  A frame's tree pairs are edges by
construction, so only its closing pairs are looked up in the graph's pair
table: on an undirected graph the tree pairs' bits are known, and on a
directed one the unranker returns their arcs, read from adj_bits at the
half-edges it picks.  Containment coefficients (how many frames
of a kind lie inside one motif instance) are counted by the same ranking,
run on one graph that holds every class representative: koef_table
returns them as a map from each kind to its per-class counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .canon import _family, arrcode_table, pair_slots
from .graphs import Graph, _pair_table

# frames per vectorized unrank and classification: a chunk of the exact
# walk, and a sampled round, one batch per kind, 2 * CHUNK at size 4
CHUNK = 10_000


class FrameKind(str, Enum):
    FORK = "fork"
    TRIDENT = "trident"
    CHAIN = "chain"

    @property
    def size(self) -> int:
        return 3 if self is FrameKind.FORK else 4

    @property
    def tree_pairs(self) -> tuple[tuple[int, int], ...]:
        """Rows (r, c) of a FrameBatch column that every frame joins, in the
        order of FrameBatch.arcs: the frame picks each as a half-edge in
        row r's CSR row.  On a directed graph the classifier takes each
        tree pair's two arcs from the frame, so a directed frame must
        bring its arcs."""
        if self is FrameKind.FORK:
            return ((1, 0), (1, 2))
        if self is FrameKind.TRIDENT:
            return ((0, 1), (0, 2), (0, 3))
        return ((1, 0), (1, 2), (2, 3))


_SPANNING = {3: (FrameKind.FORK,), 4: (FrameKind.CHAIN, FrameKind.TRIDENT)}


def kinds_for_size(size: int) -> tuple[FrameKind, ...]:
    """Frame kinds that span motifs of the given size, in experiment order;
    the size is checked as the class tables check it."""
    return _SPANNING[_family(size, False)[0]]


@dataclass(frozen=True)
class FrameTotals:
    """Exact instance counts; chains include degenerate closed ones."""

    n_fork: int
    n_trident: int
    n_chain: int

    def for_kind(self, kind: FrameKind) -> int:
        return {FrameKind.FORK: self.n_fork,
                FrameKind.TRIDENT: self.n_trident,
                FrameKind.CHAIN: self.n_chain}[kind]

    def to_dict(self) -> dict:
        return {kind.value: self.for_kind(kind) for kind in FrameKind}


def frame_totals(g: Graph) -> FrameTotals:
    """Closed-form totals from the degree sequence and edge list, exact."""
    k = np.sort(g.degrees)
    # where each run of equal degrees starts, and how long it is
    first = np.flatnonzero(np.diff(k, prepend=-1))
    per_degree = list(zip(k[first].tolist(),
                          np.diff(first, append=k.size).tolist()))
    fork = sum(math.comb(d, 2) * c for d, c in per_degree)
    trident = sum(math.comb(d, 3) * c for d, c in per_degree)
    chain = _exact_sum((g.degrees[g.edge_u] - 1) * (g.degrees[g.edge_v] - 1))
    return FrameTotals(fork, trident, chain)


@dataclass(frozen=True)
class FrameBatch:
    """Frames, one column each.  Vertex layout by kind:

    fork     (leaf, center, leaf)
    trident  (hub, leaf, leaf, leaf)
    chain    (end, middle, middle, end); degenerate when the ends coincide

    On a directed graph, arcs holds one int8 row per tree pair (r, c) of
    the kind's tree_pairs: the arc from vertex r to vertex c in bit 0 and
    the arc c -> r in bit 1, as Graph.adj_bits holds them.  None on an
    undirected graph, where every tree pair is an edge.
    """

    vertices: np.ndarray
    arcs: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def degenerate(self) -> np.ndarray:
        """Whether each frame is degenerate: a fork or trident never
        repeats its first vertex in its last row, a closed chain does."""
        return self.vertices[0] == self.vertices[-1]

    @property
    def open_frames(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The vertices and arcs of the frames that are not degenerate; no
        copy when none is."""
        degenerate = self.degenerate
        if not degenerate.any():
            return self.vertices, self.arcs
        keep = ~degenerate
        return (self.vertices[:, keep],
                None if self.arcs is None else self.arcs[:, keep])


_INT64_MAX = np.iinfo(np.int64).max


def _exact_sum(weights: np.ndarray) -> int:
    """Sum of nonnegative int64 weights as a Python int, never wrapping."""
    # each 32-bit half sums within int64 for fewer than 2**31 terms
    return ((int((weights >> 32).sum()) << 32)
            + int((weights & 0xFFFFFFFF).sum()))


def _choose2(x: np.ndarray) -> np.ndarray:
    """C(x, 2), halving the even factor first so nothing wraps."""
    return (x >> 1) * ((x - 1) | 1)


def _choose3(x: np.ndarray) -> np.ndarray:
    """C(x, 3) = C(x, 2) (x - 2) / 3, with no product above the result."""
    q, s = np.divmod(_choose2(x), 3)
    return q * (x - 2) + s * (x - 2) // 3


def _colex_top(r: np.ndarray, top: np.ndarray, choose) -> tuple:
    """Largest top with choose(top) <= r, from a float estimate off by at
    most one, and the rank left below it."""
    top -= choose(top) > r
    top += choose(top + 1) <= r
    return top, r - choose(top)


def _colex_pair(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions lo < hi of colex rank r = C(hi, 2) + lo."""
    hi = ((1 + np.sqrt(1 + 8.0 * r)) / 2).astype(np.int64)
    hi, lo = _colex_top(r, hi, _choose2)
    return lo, hi


def _colex_triple(r: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positions lo < mid < hi of colex rank C(hi, 3) + C(mid, 2) + lo."""
    # 6 C(hi, 3) = (hi - 1)^3 - (hi - 1), so hi - 1 is about cbrt(6 r)
    hi = np.cbrt(6.0 * r).astype(np.int64) + 1
    hi, r = _colex_top(r, hi, _choose3)
    return (*_colex_pair(r), hi)


class FrameSet:
    """Every frame of one kind, ranked 0 .. total - 1.

    A fork or trident ranks as its center, weighted C(k, 2) or C(k, 3),
    then the colex rank of its leaf positions in the center's CSR row.
    A chain ranks as its middle edge (u, v), weighted (k_u - 1)(k_v - 1),
    then the row positions of its two ends, each skipping the other middle
    vertex: rows are sorted, so a position in u's row skips v when the
    entry there is v or above, and one in v's row skips u likewise.  Rank t
    belongs to the center or edge whose cumulative weight range holds it.
    The exact census unranks every index once; sampling unranks uniform
    random ones.
    """

    def __init__(self, g: Graph, kind: FrameKind):
        self.kind = FrameKind(kind)
        self.graph = g
        if self.kind is FrameKind.CHAIN:
            weights = (g.degrees[g.edge_u] - 1) * (g.degrees[g.edge_v] - 1)
        else:
            # C(k, r) at the largest degree bounds every product below
            hub = math.comb(int(g.degrees.max(initial=0)), self.kind.size - 1)
            if hub > _INT64_MAX:
                raise ValueError(f"{hub} frames around one vertex exceed "
                                 f"the 64-bit range")
            choose = _choose2 if self.kind is FrameKind.FORK else _choose3
            weights = choose(g.degrees)
        self.total = _exact_sum(weights)
        if self.total > _INT64_MAX:
            raise ValueError(f"{self.total} frames exceed the 64-bit range")
        # cum[i] is the weight of the items before item i
        self._cum = np.zeros(weights.size + 1, dtype=np.int64)
        np.cumsum(weights, out=self._cum[1:])

    def unrank(self, t: np.ndarray) -> FrameBatch:
        """The frames of ranks t, one column each, with their tree pairs'
        arcs on a directed graph."""
        g = self.graph
        i = np.searchsorted(self._cum, t, side="right")
        i -= 1
        r = t - self._cum[i]
        if self.kind is FrameKind.CHAIN:
            u = g.edge_u[i]
            v = g.edge_v[i]
            ia, ib = np.divmod(r, g.degrees[v] - 1)
            # row positions become half-edges that skip the other middle
            # vertex: rows are sorted, so the entries from its position
            # on are it and above
            ia += g.adj_offsets[u]
            ia += g.adj_flat[ia] >= v
            ib += g.adj_offsets[v]
            ib += g.adj_flat[ib] >= u
            a = g.adj_flat[ia]
            b = g.adj_flat[ib]
            arcs = None
            if g.directed:
                arcs = np.stack([g.adj_bits[ia], g.edge_bits[i],
                                 g.adj_bits[ib]])
            # free the indices before the vertices are stacked
            del ia, ib
            return FrameBatch(np.stack([a, u, v, b]), arcs)
        colex = _colex_pair if self.kind is FrameKind.FORK else _colex_triple
        half = g.adj_offsets[i] + np.stack(colex(r))
        leaves = g.adj_flat[half]
        arcs = g.adj_bits[half] if g.directed else None
        del half    # freed before the vertices are stacked
        if self.kind is FrameKind.FORK:
            verts = np.stack([leaves[0], i, leaves[1]])
        else:
            verts = np.vstack([i, leaves])
        return FrameBatch(verts, arcs)

    def sample_batch(self, rng: np.random.Generator, size: int) -> FrameBatch:
        """Uniform frames: integer ranks keep every frame equally likely.

        The ranks are unranked in increasing order, so the lookups into the
        cumulative weights and the CSR rows run forward through memory.
        Reports do not change: a round tallies its codes with bincount,
        which does not depend on their order.
        """
        t = rng.integers(0, self.total, size=size, dtype=np.int64)
        t.sort()
        return self.unrank(t)


def frame_sampler(g: Graph, kind: FrameKind) -> FrameSet:
    """Frame set of one kind to sample from, cached per graph; refuses a
    kind the graph has no frames of."""
    kind = FrameKind(kind)
    if kind not in g._samplers:
        frames = FrameSet(g, kind)
        if frames.total == 0:
            raise ValueError(f"graph has no {kind.value}s")
        g._samplers[kind] = frames
    return g._samplers[kind]


# -- classification -------------------------------------------------------


@lru_cache(maxsize=None)
def _lookup_plan(kind: FrameKind, directed: bool) -> tuple:
    """How a frame's code is built: tree_slots, base and lookups.

    On a directed graph tree_slots holds the slots of (r, c) and (c, r) for
    each tree pair, in kind.tree_pairs order, to be filled from the frames'
    arcs; on an undirected graph base is the tree pairs' code.  lookups
    holds the rows i < j of every closing pair, each with the slots of
    (i, j) and (j, i).
    """
    slot = {pair: s for s, pair in enumerate(pair_slots(kind.size, directed))}
    tree = kind.tree_pairs
    tree_slots = (tuple((slot[r, c], slot[c, r]) for r, c in tree)
                  if directed else ())
    base = 0 if directed else sum(1 << slot[min(p), max(p)] for p in tree)
    settled = {(min(p), max(p)) for p in tree}
    lookups = tuple((i, j, slot[i, j], slot.get((j, i)))
                    for i, j in pair_slots(kind.size, False)
                    if (i, j) not in settled)
    return tree_slots, base, lookups


def induced_subgraph_codes(g: Graph, vertices: np.ndarray, *,
                           kind: FrameKind | str,
                           arcs: np.ndarray | None = None) -> np.ndarray:
    """Induced-subgraph bitmask of each frame, one column of a (k, batch)
    array of integer vertex ids.

    Every column is an open frame of kind, a FrameKind or its name, in the
    FrameBatch layout, and is trusted to be one.  Bit s is set when the
    pair at slot s (see pair_slots) is an edge, or an arc for directed
    graphs.  A code depends on the vertex order; use the class tables to
    get an order-free identity.

    On a directed graph the frames must bring their arcs, the
    FrameBatch.arcs: integers 0 .. 3, one row per tree pair of
    kind.tree_pairs, bit 0 the arc r -> c and bit 1 the arc c -> r.  Any
    such value is an arc pattern, so they are checked completely and then
    read as they are; only the closing pairs are looked up.
    """
    verts = np.asarray(vertices)
    if verts.size and verts.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {verts.dtype}")
    verts = verts.astype(np.int64, copy=False)
    if verts.ndim != 2:
        raise ValueError(f"vertices must have shape (k, batch), got "
                         f"{verts.shape}")
    kind = FrameKind(kind)
    if kind.size != verts.shape[0]:
        raise ValueError(f"{kind.value}s have {kind.size} vertices, "
                         f"got {verts.shape[0]} rows")
    if arcs is not None:
        arcs = np.asarray(arcs)
        if arcs.dtype.kind not in "iu":
            raise ValueError(f"arcs must be integers, got {arcs.dtype}")
        shape = (len(kind.tree_pairs), verts.shape[1])
        if arcs.shape != shape:
            raise ValueError(f"{kind.value} arcs must have shape {shape}, "
                             f"got {arcs.shape}")
        if arcs.size and (arcs.min() < 0 or arcs.max() > 3):
            raise ValueError("arcs must be in 0 .. 3")
    elif g.directed:
        raise ValueError("directed frames need their arcs")
    # a negative id wraps past every valid one, so one max checks both ends
    if verts.size and verts.view(np.uint64).max() >= g.n_vertices:
        raise ValueError(f"vertex ids must be in 0 .. {g.n_vertices - 1}")
    tree_slots, base, lookups = _lookup_plan(kind, g.directed)
    codes = np.full(verts.shape[1], base, dtype=np.int64)
    for t, (forward, backward) in enumerate(tree_slots):
        # int8 bits would overflow at the higher slots
        bits = arcs[t].astype(np.int64)
        codes |= (bits & 1) << forward
        bits >>= 1
        codes |= bits << backward
    table = _pair_table(g)
    # one pair at a time: one lookup of all pairs stacked ran 10-20 %
    # faster, but its arrays raised peak memory by more than the table
    for i, j, forward, backward in lookups:
        a = verts[i]
        b = verts[j]
        keys = np.minimum(a, b)
        keys *= g.n_vertices
        keys += np.maximum(a, b)
        bits = table.lookup(keys)
        # bit 0 is the arc min -> max, bit 1 the arc max -> min
        flip = a > b
        codes |= (bits >> flip & 1) << forward
        if g.directed:
            codes |= (bits >> ~flip & 1) << backward
    return codes


# -- containment coefficients ---------------------------------------------


@lru_cache(maxsize=None, typed=True)
def koef_table(size: int,
               directed: bool) -> MappingProxyType[FrameKind, np.ndarray]:
    """Frames of each kind inside each class representative: a read-only
    map from each kind of kinds_for_size(size), in that order, to its
    read-only per-class counts.

    One graph holds every representative as its own component, class c on
    vertices size * c .. size * c + size - 1.  Every frame lies inside one
    component and a non-degenerate one spans it, so unranking all frames
    and tallying them by component counts each class's frames.  No frame
    is classified, so the exact census's whole-multiple check still tests
    the classifier against an independent count.
    """
    table = arrcode_table(size, directed)   # checks size and directed
    size, directed = table.size, table.directed
    slots = pair_slots(size, directed)
    pairs = [(size * c + i, size * c + j)
             for c, cls in enumerate(table.classes)
             for s, (i, j) in enumerate(slots)
             if cls.canonical_code >> s & 1]
    reps = Graph.from_edges(size * table.n_classes, pairs, directed)
    counts = {}
    for kind in kinds_for_size(size):
        frames = FrameSet(reps, kind)
        verts, _ = frames.unrank(
            np.arange(frames.total, dtype=np.int64)).open_frames
        vals = np.bincount(verts[0] // size,
                           minlength=table.n_classes)
        vals.setflags(write=False)
        counts[kind] = vals
    return MappingProxyType(counts)
