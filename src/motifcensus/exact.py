"""Exact motif census by visiting every frame once.

Every connected motif instance contains at least one spanning frame, and a
class with containment coefficient koef holds exactly koef frames of a kind.
So walking every frame of the kinds for a size, classifying the subgraph
each one induces, and dividing the per-class hits by koef gives the exact
counts.  Degenerate chains (closed triangles) induce no 4-vertex set and
are skipped.

Frames are walked in vectorized chunks of instance indices, unranked through
the same cumulative weights the samplers draw from.  The division doubles as
a check: hits must be whole multiples of koef, and chains and tridents must
agree on every class both of them see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .canon import arrcode_table
from .frames import (FrameBatch, FrameKind, _CumulativeWeights,
                     kinds_for_size, koef_table)
from .graphs import Graph, induced_subgraph_codes

_FLUSH = 8192


@dataclass
class ExactCensus:
    """Exact counts for every connected class of one size."""

    size: int
    directed: bool
    counts: dict[int, int]
    elapsed: float

    def nonzero(self) -> dict[int, int]:
        return {cid: c for cid, c in self.counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "directed": self.directed,
            "counts": {str(cid): c for cid, c in self.counts.items()},
            "elapsed": self.elapsed,
        }


def _frame_batches(g: Graph, kind: FrameKind) -> Iterator[FrameBatch]:
    """Every frame of one kind once, in batches of at most _FLUSH.

    A chain is unranked as its middle edge, weighted (k_u - 1)(k_v - 1),
    then the skip-adjusted row positions of its two ends, as the chain
    sampler draws them.  A fork or trident is unranked as a CSR half-edge,
    whose target is the first leaf, plus one or two later neighbors in the
    same row, so each leaf set is reached once, in row order.
    """
    kind = FrameKind(kind)
    if kind is FrameKind.CHAIN:
        ku = g.degrees[g.edge_u]
        kv = g.degrees[g.edge_v]
        pick = _CumulativeWeights((ku - 1) * (kv - 1))
    else:
        hub = np.repeat(np.arange(g.n_vertices, dtype=np.int64), g.degrees)
        later = g.adj_offsets[hub + 1] - np.arange(hub.size) - 1
        pick = _CumulativeWeights(
            later if kind is FrameKind.FORK else later * (later - 1) // 2)
    flat = g.adj_flat
    for start in range(0, pick.total, _FLUSH):
        t = np.arange(start, min(start + _FLUSH, pick.total), dtype=np.int64)
        i, r = pick.locate(t)
        if kind is FrameKind.CHAIN:
            u = g.edge_u[i]
            v = g.edge_v[i]
            ia, ib = np.divmod(r, g.degrees[v] - 1)
            ia += ia >= g.edge_pos_in_u[i]  # skip v in u's row
            ib += ib >= g.edge_pos_in_v[i]  # skip u in v's row
            a = flat[g.adj_offsets[u] + ia]
            b = flat[g.adj_offsets[v] + ib]
            yield FrameBatch(kind, np.stack([a, u, v, b]), a == b)
            continue
        no_degenerate = np.zeros(t.size, dtype=bool)
        if kind is FrameKind.FORK:
            verts = np.stack([flat[i], hub[i], flat[i + 1 + r]])
        else:
            # r ranks the later pair lo < hi in colex order:
            # r = hi (hi - 1) / 2 + lo; the float root is off by at most one
            hi = ((1 + np.sqrt(1 + 8 * r)) / 2).astype(np.int64)
            hi -= hi * (hi - 1) // 2 > r
            hi += hi * (hi + 1) // 2 <= r
            lo = r - hi * (hi - 1) // 2
            verts = np.stack([hub[i], flat[i], flat[i + 1 + lo],
                              flat[i + 1 + hi]])
        yield FrameBatch(kind, verts, no_degenerate)


def exact_census(g: Graph, size: int) -> ExactCensus:
    """Count every connected motif class of one size exactly."""
    t0 = time.perf_counter()
    kinds = kinds_for_size(size)
    table = arrcode_table(size, g.directed)
    koefs = koef_table(size, g.directed)
    counts = np.zeros(table.n_classes, dtype=np.int64)
    counted = np.zeros(table.n_classes, dtype=bool)
    for kind in kinds:
        hits = np.zeros(table.n_classes, dtype=np.int64)
        for batch in _frame_batches(g, kind):
            codes = induced_subgraph_codes(
                g, batch.vertices[:, ~batch.degenerate])
            hits += np.bincount(table.entries[codes],
                                minlength=table.n_classes)
        koef = koefs.counts[kind]
        sees = koef > 0
        found, rest = np.divmod(hits, np.where(sees, koef, 1))
        if rest.any() or hits[~sees].any():
            raise RuntimeError(
                f"{kind.value} hits are not whole multiples of koef")
        both = sees & counted
        if (found[both] != counts[both]).any():
            raise RuntimeError("chain and trident counts disagree")
        counts[sees] = found[sees]
        counted |= sees

    by_class = {cls.class_id: int(counts[cls.class_id])
                for cls in table.classes if cls.connected}
    return ExactCensus(size, g.directed, by_class,
                       time.perf_counter() - t0)
