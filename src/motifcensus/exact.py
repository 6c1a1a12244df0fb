"""Exact motif census by visiting every frame once.

Every connected motif instance contains at least one spanning frame, and a
class with containment coefficient koef holds exactly koef frames of a kind.
So walking every frame of the kinds for a size, classifying the subgraph
each one induces, and dividing the per-class hits by koef gives the exact
counts.  Degenerate chains (closed triangles) induce no 4-vertex set and
are skipped.

Frames are walked in vectorized chunks of ranks 0 .. total - 1, unranked by
the same FrameSet that sampling draws random ranks from.  The division
doubles as a check: hits must be whole multiples of koef, and chains and
tridents must agree on every class both of them see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .canon import arrcode_table
from .frames import FrameSet, kinds_for_size, koef_table
from .graphs import Graph, induced_subgraph_codes

_FLUSH = 8192


@dataclass
class ExactCensus:
    """Exact counts for every connected class of one size."""

    size: int
    directed: bool
    counts: dict[int, int]
    elapsed: float

    def total(self) -> int:
        return sum(self.counts.values())


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
        frames = FrameSet(g, kind)
        for start in range(0, frames.total, _FLUSH):
            batch = frames.unrank(np.arange(
                start, min(start + _FLUSH, frames.total), dtype=np.int64))
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
