"""Exact motif census by visiting every frame once.

Every connected motif instance contains at least one spanning frame, and a
class with containment coefficient koef holds exactly koef frames of a kind.
So walking every frame of the kinds for a size, classifying the subgraph
each one induces, and dividing the per-class hits by koef gives the exact
counts.  Degenerate chains (closed triangles) induce no 4-vertex set and
are skipped.

Frames are walked in vectorized chunks of ranks 0 .. total - 1, unranked by
the same FrameSet that sampling draws random ranks from, once every
kind's FrameSet has checked its total.  The division doubles as a check:
hits must be whole multiples of koef, and chains and tridents must agree
on every class both of them see.

On Linux, where os.sched_getaffinity exists, a process that may run on
two CPUs or more and runs no other Python thread walks a census of at
least frames._SPLIT_FROM frames, all kinds together, in two processes:
this one and one helper forked for the census.  Every kind's chunks,
kind after kind, are the items the two claim one at a time, through
frames._tally_in_two, the protocol the sampled census shares.  Hits are
bincount sums, so the counts do not depend on who walked which chunk.
No helper outlives the call, and under `taskset -c 0` none is forked.
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
    sets = [FrameSet(g, kind) for kind in koefs]
    hits = _tally_in_two(
        ((row, (frames, table, lo, min(lo + CHUNK, frames.total)))
         for row, frames in enumerate(sets)
         for lo in range(0, frames.total, CHUNK)),
        _walk, (len(sets), table.n_classes), sum(f.total for f in sets))
    koef = np.stack(list(koefs.values()))
    found, rest = np.divmod(hits, np.maximum(koef, 1))
    wrong = (rest + hits * (koef == 0)).any(axis=1)
    if wrong.any():
        raise RuntimeError(f"{sets[wrong.argmax()].kind.value} hits are "
                           f"not whole multiples of koef")
    # a kind finds no class it does not see, so each class's count is
    # the largest any kind finds
    counts = found.max(axis=0)
    if ((koef > 0) & (found != counts)).any():
        raise RuntimeError("chain and trident counts disagree")

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
