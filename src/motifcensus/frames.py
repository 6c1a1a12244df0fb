"""Spanning frames: exact totals, equiprobable sampling, containment counts.

A frame is a small spanning tree drawn around a vertex or an edge:

  fork     2-edge path on 3 vertices, centered on its middle vertex
  trident  3-star on 4 vertices, centered on its hub
  chain    3-edge path on 4 vertices, built around its middle edge

Totals follow from degrees alone, so each kind can be sampled with every
instance equally likely.  A chain drawn around edge (i, j) picks one extra
neighbor on each side; when both picks coincide the outcome is degenerate:
it still consumes one experiment but cannot detect any motif.

Sampling happens on the undirected view; directed graphs are classified
afterwards from their arcs.  Containment coefficients (how many frame
instances live inside one motif instance) are likewise computed on the
motif's undirected view.
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
    whose cumulative range holds it.  Used to draw and to unrank frames."""

    def __init__(self, weights: np.ndarray):
        self.total = _exact_sum(weights)
        if self.total > _INT64_MAX:
            raise ValueError(f"{self.total} frames exceed the 64-bit range")
        self.cum = np.cumsum(weights)

    def locate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Item holding each unit index, and the unit's offset inside it."""
        i = np.searchsorted(self.cum, t, side="right")
        return i, t - np.where(i > 0, self.cum[i - 1], 0)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # integer draws keep every unit of weight exactly equally likely
        r = rng.integers(0, self.total, size=size, dtype=np.int64)
        return np.searchsorted(self.cum, r, side="right")


class ForkSampler:
    kind = FrameKind.FORK

    def __init__(self, g: Graph):
        k = g.degrees
        self._pick = _CumulativeWeights(k * (k - 1) // 2)
        if self._pick.total == 0:
            raise ValueError("graph has no forks")
        self._g = g

    @property
    def total(self) -> int:
        return self._pick.total

    def sample_batch(self, rng: np.random.Generator, size: int) -> FrameBatch:
        g = self._g
        c = self._pick.draw(rng, size)
        k = g.degrees[c]
        u = rng.integers(0, k, dtype=np.int64)
        w = rng.integers(0, k - 1, dtype=np.int64)
        w += w >= u  # distinct second leaf, still uniform
        base = g.adj_offsets[c]
        verts = np.stack([g.adj_flat[base + u], c, g.adj_flat[base + w]])
        return FrameBatch(self.kind, verts, np.zeros(size, dtype=bool))


class TridentSampler:
    kind = FrameKind.TRIDENT

    def __init__(self, g: Graph):
        k = g.degrees
        self._pick = _CumulativeWeights(_comb(k, 3))
        if self._pick.total == 0:
            raise ValueError("graph has no tridents")
        self._g = g

    @property
    def total(self) -> int:
        return self._pick.total

    def sample_batch(self, rng: np.random.Generator, size: int) -> FrameBatch:
        g = self._g
        c = self._pick.draw(rng, size)
        k = g.degrees[c]
        u1 = rng.integers(0, k, dtype=np.int64)
        u2 = rng.integers(0, k - 1, dtype=np.int64)
        u2 += u2 >= u1
        lo = np.minimum(u1, u2)
        hi = np.maximum(u1, u2)
        u3 = rng.integers(0, k - 2, dtype=np.int64)
        u3 += u3 >= lo
        u3 += u3 >= hi  # ordered skips keep the third leaf uniform
        base = g.adj_offsets[c]
        verts = np.stack([c, g.adj_flat[base + u1], g.adj_flat[base + u2],
                          g.adj_flat[base + u3]])
        return FrameBatch(self.kind, verts, np.zeros(size, dtype=bool))


class ChainSampler:
    kind = FrameKind.CHAIN

    def __init__(self, g: Graph):
        ku = g.degrees[g.edge_u]
        kv = g.degrees[g.edge_v]
        self._pick = _CumulativeWeights((ku - 1) * (kv - 1))
        if self._pick.total == 0:
            raise ValueError("graph has no chains")
        self._g = g

    @property
    def total(self) -> int:
        return self._pick.total

    def sample_batch(self, rng: np.random.Generator, size: int) -> FrameBatch:
        g = self._g
        e = self._pick.draw(rng, size)
        u = g.edge_u[e]
        v = g.edge_v[e]
        ia = rng.integers(0, g.degrees[u] - 1, dtype=np.int64)
        ia += ia >= g.edge_pos_in_u[e]  # skip v in u's row
        ib = rng.integers(0, g.degrees[v] - 1, dtype=np.int64)
        ib += ib >= g.edge_pos_in_v[e]  # skip u in v's row
        a = g.adj_flat[g.adj_offsets[u] + ia]
        b = g.adj_flat[g.adj_offsets[v] + ib]
        verts = np.stack([a, u, v, b])
        return FrameBatch(self.kind, verts, a == b)


_SAMPLER_TYPES = {FrameKind.FORK: ForkSampler,
                  FrameKind.TRIDENT: TridentSampler,
                  FrameKind.CHAIN: ChainSampler}


def frame_sampler(g: Graph, kind: FrameKind):
    """Sampler for one frame kind, cached per graph."""
    kind = FrameKind(kind)
    if kind not in g._samplers:
        g._samplers[kind] = _SAMPLER_TYPES[kind](g)
    return g._samplers[kind]


# -- containment coefficients ---------------------------------------------


def _undirected_view(code: int, size: int, directed: bool) -> list[set]:
    adj: list[set] = [set() for _ in range(size)]
    for s, (i, j) in enumerate(pair_slots(size, directed)):
        if code >> s & 1:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def _count_forks(adj: list[set]) -> int:
    return sum(len(adj[c]) * (len(adj[c]) - 1) // 2 for c in range(len(adj)))


def _count_tridents(adj: list[set]) -> int:
    total = 0
    for c in range(len(adj)):
        d = len(adj[c])
        total += d * (d - 1) * (d - 2) // 6
    return total


def _count_chains(adj: list[set]) -> int:
    # 3-edge paths on 4 distinct vertices, each counted once per middle edge
    total = 0
    for i in range(len(adj)):
        for j in adj[i]:
            if j <= i:
                continue
            for a in adj[i] - {j}:
                for b in adj[j] - {i}:
                    if a != b:
                        total += 1
    return total


_FRAME_COUNTERS = {FrameKind.FORK: _count_forks,
                   FrameKind.TRIDENT: _count_tridents,
                   FrameKind.CHAIN: _count_chains}


@dataclass(frozen=True)
class KoefTable:
    """Frame instances contained in one motif instance, per class."""

    size: int
    directed: bool
    counts: MappingProxyType = field(repr=False)

    @property
    def kinds(self) -> tuple[FrameKind, ...]:
        return kinds_for_size(self.size)

    def koef(self, class_id: int, kind: FrameKind) -> int:
        kind = FrameKind(kind)
        if kind.size != self.size:
            raise ValueError(f"{kind.value} frames span size {kind.size}, "
                             f"table is for size {self.size}")
        return int(self.counts[kind][class_id])

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "directed": self.directed,
            "koef": {kind.value: self.counts[kind].tolist()
                     for kind in self.kinds},
        }


@lru_cache(maxsize=None)
def koef_table(size: int, directed: bool = False) -> KoefTable:
    """Enumerate frames inside each class representative."""
    table = arrcode_table(size, directed)
    counts = {}
    for kind in kinds_for_size(size):
        counter = _FRAME_COUNTERS[kind]
        vals = np.array(
            [counter(_undirected_view(c.canonical_code, size, directed))
             for c in table.classes], dtype=np.int64)
        vals.setflags(write=False)
        counts[kind] = vals
    return KoefTable(size, directed, MappingProxyType(counts))
