"""Subgraph codes and their isomorphism classes, via lookup tables.

A set of 3 or 4 vertices maps to an integer code, one bit per vertex pair
(ordered pairs for directed graphs).  Pairs are enumerated in
lexicographic order and bit 0, the least significant bit, belongs to the
first pair (see pair_slots).  This module owns that bit order; the
classifier in frames reads it from here.

Every code maps to a class id through a table built once by brute force:
the canonical form of a code is the minimum over all vertex permutations
of the relabeled bitmask, and class ids are assigned in ascending order of
canonical code.  Connectivity of directed classes means weak connectivity,
i.e. connectivity of the underlying undirected view.  Slots and tables are
cached by argument type, and each builder checks its arguments, so a call
never depends on what an earlier call with 4.0 or 1 left in a cache.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np


def _family(size, directed) -> tuple[int, bool]:
    """A family's size, the integer 3 or 4, as an int, and its directed
    flag, which must be a bool."""
    if not isinstance(size, (int, np.integer)) or size not in (3, 4):
        raise ValueError(f"motif size must be 3 or 4, got {size!r}")
    if not isinstance(directed, (bool, np.bool_)):
        raise TypeError(f"directed must be a bool, got {directed!r}")
    return int(size), bool(directed)


@lru_cache(maxsize=None, typed=True)
def pair_slots(size: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """Vertex-pair order behind the subgraph bitmask: slot s <-> bit s."""
    size, directed = _family(size, directed)
    if directed:
        return tuple((i, j) for i in range(size) for j in range(size) if i != j)
    return tuple((i, j) for i in range(size) for j in range(i + 1, size))


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
    """Whether the undirected view of code reaches every vertex from
    vertex 0; isolated vertices count.  Each pass over the slots reaches
    at least one edge further along every path, and no path needs more
    than size - 1 edges."""
    reach = 1
    for _ in range(size - 1):
        for s, (i, j) in enumerate(slots):
            if code >> s & 1 and (reach >> i | reach >> j) & 1:
                reach |= 1 << i | 1 << j
    return reach == (1 << size) - 1


@lru_cache(maxsize=None, typed=True)
def arrcode_table(size: int, directed: bool) -> ArrcodeTable:
    """Class table of one family, built once by brute force."""
    size, directed = _family(size, directed)
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
