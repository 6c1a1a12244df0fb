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

Frames live on the undirected view; directed graphs are classified
afterwards from their arcs.  Containment coefficients (how many frames of
a kind lie inside one motif instance) are counted by the same ranking, run
on one graph that holds every class representative (see koef_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .canon import arrcode_table
from .graphs import Graph, pair_slots


class FrameKind(str, Enum):
    FORK = "fork"
    TRIDENT = "trident"
    CHAIN = "chain"

    @property
    def size(self) -> int:
        return 3 if self is FrameKind.FORK else 4


def kinds_for_size(size: int) -> tuple[FrameKind, ...]:
    """Frame kinds that span motifs of the given size, in experiment order."""
    if size == 3:
        return (FrameKind.FORK,)
    if size == 4:
        return (FrameKind.CHAIN, FrameKind.TRIDENT)
    raise ValueError(f"motif size must be 3 or 4, got {size}")


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
        return {"fork": self.n_fork, "trident": self.n_trident,
                "chain": self.n_chain}


def frame_totals(g: Graph) -> FrameTotals:
    """Closed-form totals from the degree sequence and edge list, exact."""
    k, count = np.unique(g.degrees, return_counts=True)
    per_degree = list(zip(k.tolist(), count.tolist()))
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
    """

    kind: FrameKind
    vertices: np.ndarray
    degenerate: np.ndarray

    @property
    def size(self) -> int:
        return int(self.vertices.shape[1])


_INT64_MAX = np.iinfo(np.int64).max


def _exact_sum(weights: np.ndarray) -> int:
    """Sum of nonnegative int64 weights as a Python int, never wrapping."""
    # each 32-bit half sums within int64 for fewer than 2**31 terms
    return ((int((weights >> 32).sum()) << 32)
            + int((weights & 0xFFFFFFFF).sum()))


def _comb(k: np.ndarray, r: int) -> np.ndarray:
    """C(k, r) per entry as int64, exact; one evaluation per distinct k."""
    distinct, inverse = np.unique(k, return_inverse=True)
    values = [math.comb(d, r) for d in distinct.tolist()]
    if values and values[-1] > _INT64_MAX:
        raise ValueError(f"{values[-1]} frames around one vertex exceed the "
                         f"64-bit range")
    return np.array(values, dtype=np.int64)[inverse]


class _CumulativeWeights:
    """Integer cumulative weights: unit t of the total belongs to the item
    whose cumulative range holds it."""

    def __init__(self, weights: np.ndarray):
        self.total = _exact_sum(weights)
        if self.total > _INT64_MAX:
            raise ValueError(f"{self.total} frames exceed the 64-bit range")
        self.cum = np.cumsum(weights)

    def locate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Item holding each unit index, and the unit's offset inside it."""
        i = np.searchsorted(self.cum, t, side="right")
        return i, t - np.where(i > 0, self.cum[i - 1], 0)


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
    A chain ranks as its middle edge, weighted (k_u - 1)(k_v - 1), then
    the row positions of its two ends, each skipping the other middle
    vertex.  The exact census unranks every index once; sampling unranks
    uniform random ones.
    """

    def __init__(self, g: Graph, kind: FrameKind):
        self.kind = FrameKind(kind)
        self._g = g
        if self.kind is FrameKind.CHAIN:
            ku = g.degrees[g.edge_u]
            kv = g.degrees[g.edge_v]
            weights = (ku - 1) * (kv - 1)
        else:
            weights = _comb(g.degrees, self.kind.size - 1)
        self._pick = _CumulativeWeights(weights)

    @property
    def total(self) -> int:
        return self._pick.total

    def unrank(self, t: np.ndarray) -> FrameBatch:
        """The frames of ranks t, one column each."""
        g = self._g
        i, r = self._pick.locate(t)
        if self.kind is FrameKind.CHAIN:
            u = g.edge_u[i]
            v = g.edge_v[i]
            ia, ib = np.divmod(r, g.degrees[v] - 1)
            ia += ia >= g.edge_pos_in_u[i]  # skip v in u's row
            ib += ib >= g.edge_pos_in_v[i]  # skip u in v's row
            a = g.adj_flat[g.adj_offsets[u] + ia]
            b = g.adj_flat[g.adj_offsets[v] + ib]
            return FrameBatch(self.kind, np.stack([a, u, v, b]), a == b)
        row = g.adj_offsets[i]
        if self.kind is FrameKind.FORK:
            a, b = g.adj_flat[row + np.stack(_colex_pair(r))]
            verts = np.stack([a, i, b])
        else:
            leaves = g.adj_flat[row + np.stack(_colex_triple(r))]
            verts = np.vstack([i, leaves])
        return FrameBatch(self.kind, verts, np.zeros(t.size, dtype=bool))

    def sample_batch(self, rng: np.random.Generator, size: int) -> FrameBatch:
        """Uniform frames: integer ranks keep every frame equally likely."""
        return self.unrank(rng.integers(0, self.total, size=size,
                                        dtype=np.int64))


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


# -- containment coefficients ---------------------------------------------


@dataclass(frozen=True)
class KoefTable:
    """Frame instances contained in one motif instance, per class."""

    size: int
    directed: bool
    counts: MappingProxyType = field(repr=False)

    @property
    def kinds(self) -> tuple[FrameKind, ...]:
        return kinds_for_size(self.size)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "directed": self.directed,
            "koef": {kind.value: self.counts[kind].tolist()
                     for kind in self.kinds},
        }


@lru_cache(maxsize=None)
def koef_table(size: int, directed: bool = False) -> KoefTable:
    """Frames of each kind inside each class representative.

    One graph holds every representative as its own component, class c on
    vertices size * c .. size * c + size - 1.  Every frame lies inside one
    component and a non-degenerate one spans it, so unranking all frames
    and tallying them by component counts each class's frames.  No frame
    is classified, so the exact census's whole-multiple check still tests
    the classifier against an independent count.
    """
    table = arrcode_table(size, directed)
    slots = pair_slots(size, directed)
    pairs = [(size * c + i, size * c + j)
             for c, cls in enumerate(table.classes)
             for s, (i, j) in enumerate(slots)
             if cls.canonical_code >> s & 1]
    reps = Graph.from_edges(size * table.n_classes, pairs, directed)
    counts = {}
    for kind in kinds_for_size(size):
        frames = FrameSet(reps, kind)
        batch = frames.unrank(np.arange(frames.total, dtype=np.int64))
        vals = np.bincount(batch.vertices[0, ~batch.degenerate] // size,
                           minlength=table.n_classes)
        vals.setflags(write=False)
        counts[kind] = vals
    return KoefTable(size, directed, MappingProxyType(counts))
