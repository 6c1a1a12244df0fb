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

On Linux, where os.sched_getaffinity exists, a process that may run on
two CPUs or more and runs no other Python thread walks a kind with at
least frames._SPLIT_FROM frames in two processes, this one and a helper
forked for that kind.  The kind's chunks are the items the two claim one
at a time, through frames._tally_in_two, the protocol the sampled census
shares.  Hits are bincount sums, so the counts do not depend on who
walked which chunk.  No helper outlives the call.  `taskset -c 0` keeps
a run on one CPU, and so in one process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .canon import arrcode_table
from .frames import (CHUNK, FrameSet, _tally_in_two, induced_subgraph_codes,
                     koef_table)
from .graphs import Graph


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
    # the table checks the size: 3 or 4, and a numpy integer becomes an int
    table = arrcode_table(size, g.directed)
    size = table.size
    koefs = koef_table(size, g.directed)
    counts = np.zeros(table.n_classes, dtype=np.int64)
    counted = np.zeros(table.n_classes, dtype=bool)
    for kind, koef in koefs.items():
        frames = FrameSet(g, kind)

        def work(claims, frames=frames):
            """Hits of the chunks claimed."""
            hits = np.zeros(table.n_classes, dtype=np.int64)
            for lo in (CHUNK * item for item in claims):
                if lo >= frames.total:
                    return hits
                hits += _walk(frames, table, lo, min(lo + CHUNK, frames.total))
        hits = _tally_in_two(work, (table.n_classes,), frames.total)
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


def _walk(frames: FrameSet, table, lo: int, hi: int) -> np.ndarray:
    """Per-class hits of the frames of ranks lo .. hi - 1, one chunk,
    classified on their own graph."""
    verts, arcs = frames.unrank(np.arange(lo, hi, dtype=np.int64)).open_frames
    codes = induced_subgraph_codes(frames.graph, verts, kind=frames.kind,
                                   arcs=arcs)
    # no name keeps a chunk's frames alive into the next unrank
    del verts, arcs
    return np.bincount(table.entries[codes], minlength=table.n_classes)
