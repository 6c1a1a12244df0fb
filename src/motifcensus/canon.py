"""Isomorphism classes of 3- and 4-vertex subgraphs via lookup tables.

Every raw adjacency bitmask (see graphs.pair_slots for the bit order) maps
to a class id through a table built once by brute force: the canonical form
of a code is the minimum over all vertex permutations of the relabeled
bitmask, and class ids are assigned in ascending order of canonical code.
Connectivity of directed classes means weak connectivity, i.e. connectivity
of the underlying undirected view.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .graphs import pair_slots


@dataclass(frozen=True)
class MotifClass:
    class_id: int
    canonical_code: int
    connected: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ArrcodeTable:
    """Constant-time classifier for one (size, directed) family.

    entries[code] holds the class id of every raw code; classes holds one
    MotifClass per id, sorted by ascending canonical code.  Tables compare
    by identity, since entries is an array.
    """

    size: int
    directed: bool
    entries: np.ndarray
    classes: tuple[MotifClass, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_connected(self) -> int:
        return sum(1 for c in self.classes if c.connected)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "directed": self.directed,
            "bit_order": [list(p) for p in pair_slots(self.size, self.directed)],
            "n_classes": self.n_classes,
            "n_connected": self.n_connected,
            "entries": self.entries.tolist(),
            "classes": [c.to_dict() for c in self.classes],
        }


def _is_connected(code: int, size: int,
                  slots: tuple[tuple[int, int], ...]) -> bool:
    """Union-find over the undirected view; isolated vertices count."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, (i, j) in enumerate(slots):
        if code >> s & 1:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return len({find(v) for v in range(size)}) == 1


def _build_arrcode(size: int, directed: bool) -> ArrcodeTable:
    """Brute-force the full code -> class table for one family."""
    if size not in (3, 4):
        raise ValueError(f"subgraph size must be 3 or 4, got {size}")
    slots = pair_slots(size, directed)
    slot_index = {p: s for s, p in enumerate(slots)}
    n_bits = len(slots)
    codes = np.arange(1 << n_bits, dtype=np.int32)
    canon = codes.copy()
    for perm in itertools.permutations(range(size)):
        # bit s of the original lands at slot of the relabeled pair
        target = []
        for i, j in slots:
            pair = (perm[i], perm[j])
            if not directed:
                pair = (min(pair), max(pair))
            target.append(slot_index[pair])
        relabeled = np.zeros_like(codes)
        for s in range(n_bits):
            relabeled |= ((codes >> s) & 1) << target[s]
        np.minimum(canon, relabeled, out=canon)
    # codes are below 4096, so a bincount finds the canonical ones; a
    # code's class id is how many of them lie below its own
    seen = np.bincount(canon, minlength=codes.size) > 0
    canonical = np.flatnonzero(seen)
    entries = (np.cumsum(seen) - 1)[canon].astype(np.int16)
    entries.setflags(write=False)
    classes = tuple(
        MotifClass(cid, int(c), _is_connected(int(c), size, slots))
        for cid, c in enumerate(canonical))
    return ArrcodeTable(size, directed, entries, classes)


@lru_cache(maxsize=None)
def arrcode_table(size: int, directed: bool) -> ArrcodeTable:
    """Class table of one family, built once by brute force."""
    return _build_arrcode(size, directed)
