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
least _SPLIT_FROM frames in two processes: a helper forked for that kind
walks the upper half of the ranks and writes its hits to a shared map,
and this process walks the lower half.  Hits are bincount sums, so the
counts do not depend on the split.  No helper outlives the call.
`taskset -c 0` keeps a run on one CPU, and so in one process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from .canon import arrcode_table
from .frames import CHUNK, FrameSet, induced_subgraph_codes, koef_table
from .graphs import Graph

# frames of one kind from which a helper walks half of them: about where
# the fork and its copy-on-write faults cost as much as the chunks saved
_SPLIT_FROM = 8 * CHUNK


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
        if frames.total >= _SPLIT_FROM and _helper_allowed():
            hits = _walk_split(g, frames, table)
        else:
            hits = _walk(g, frames, table, 0, frames.total)
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


def _helper_allowed() -> bool:
    """Whether a forked helper may share a walk: this process may run on
    two CPUs or more, and runs no other Python thread, whose locks the
    helper would inherit held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return False
    return len(os.sched_getaffinity(0)) >= 2


def _walk(g: Graph, frames: FrameSet, table, start: int,
          stop: int) -> np.ndarray:
    """Per-class hits of the frames of ranks start .. stop - 1."""
    hits = np.zeros(table.n_classes, dtype=np.int64)
    for lo in range(start, stop, CHUNK):
        verts, half = frames.unrank(np.arange(
            lo, min(lo + CHUNK, stop), dtype=np.int64)).open_frames
        codes = induced_subgraph_codes(g, verts, kind=frames.kind,
                                       half_edges=half)
        # no name keeps a chunk's frames alive into the next unrank
        del verts, half
        hits += np.bincount(table.entries[codes], minlength=table.n_classes)
    return hits


def _walk_split(g: Graph, frames: FrameSet, table) -> np.ndarray:
    """_walk over every rank, the upper half in a forked helper.

    The helper walks from the chunk boundary nearest total / 2, writes its
    int64 hits into an anonymous shared map and exits: status 0 once they
    are written, 1 on any exception.  This process walks the rest and
    reaps the helper; on any exception here, it kills and reaps it first.
    When no process can be forked, this one walks every rank.
    """
    # imported here: mmap's shared library adds about 0.04 MB to every
    # process that imports the package, and only split walks need it
    import mmap
    total = frames.total
    mid = (total + CHUNK) // (2 * CHUNK) * CHUNK
    shared = np.frombuffer(mmap.mmap(-1, 8 * table.n_classes), dtype=np.int64)
    try:
        pid = os.fork()
    except OSError:
        # no process to spare: one process gives the same counts
        return _walk(g, frames, table, 0, total)
    if pid == 0:
        status = 1
        try:
            shared[:] = _walk(g, frames, table, mid, total)
            status = 0
        except Exception:
            import traceback
            traceback.print_exc()
        finally:
            os._exit(status)
    reaped = False
    try:
        hits = _walk(g, frames, table, 0, mid)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if code:
        raise RuntimeError(
            f"the helper walking {frames.kind.value} ranks {mid} .. "
            f"{total - 1} failed (exit code {code})")
    return hits + shared
