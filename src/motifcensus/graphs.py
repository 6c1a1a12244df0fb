"""Simple-graph loading, normalization, CSR adjacency and pair table.

Vertices are remapped to dense ids 0..n-1 in order of first appearance; the
original labels are kept so the mapping is invertible.  An edge {u, v} has
two half-edges, one in each end's CSR row: the entry v in row u and the
entry u in row v, each named by its index into adj_flat.  The loader keys
them u * n + v and v * n + u, tagged in 2 low bits: 1 at row u and 2 at
row v for the arc u -> v, 3 at both for an edge.  One sort of the tagged
keys gives the CSR adjacency, rows sorted by neighbor, with the OR of each
half-edge's tags as its direction bits, adj_bits.  So reciprocal arcs
collapse to a single undirected edge; degrees always refer to the
collapsed view.  This module knows nothing of subgraph codes: their bit
order lives in canon, and the classifier in frames.

The classifier reads pairs from a pair table, built on a graph's first
classification and kept on it: an open-addressing hash set of the edge
keys u * n + v, u < v, with linear probing and at least two slots per
edge.  Each entry carries 2 direction bits, arc u -> v and arc v -> u
(both set on an undirected graph), so one lookup per vertex pair answers
both ordered pairs of a directed graph.
Home slots come from the splitmix64 finalizer, which scatters the
regular keys u * n + v: a lookup may read as far past a home slot as the
table's largest displacement, and with multiply-shift hashing that was 33
slots against splitmix64's 7 on a G(n=3000, m=15000) graph.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class LoadReport:
    """What normalization did to the raw pair list."""

    n_vertices: int
    n_edges: int
    n_arcs: int | None
    self_loops_dropped: int
    duplicates_dropped: int

    def to_dict(self) -> dict:
        return asdict(self)


class Graph:
    """Immutable simple graph, directed or undirected.

    Attributes:
        directed: whether arcs are kept (True) or only edges (False).
        n_vertices: number of vertices after remapping.
        labels: original vertex labels, indexed by dense id.
        degrees: per-vertex degree on the undirected view, int64.
        adj_offsets, adj_flat: CSR adjacency of the undirected view,
            neighbors sorted within each row.
        adj_bits: int8, aligned with adj_flat: bit 0 is the arc row ->
            neighbor and bit 1 the arc back, mirrored on the edge's other
            half-edge; all 3 on an undirected graph.
        edge_u, edge_v: undirected edges with edge_u < edge_v,
            lexicographically sorted.
        edge_pos_in_u: per edge, where edge_v sits in edge_u's row.  No
            array holds where edge_u sits in edge_v's: rows are sorted, so
            a chain reads it off the row (see frames.FrameSet).
    """

    def __init__(self, *, directed, labels, degrees, adj_offsets, adj_flat,
                 adj_bits, edge_u, edge_v, edge_pos_in_u, load_report):
        self.directed = directed
        self.labels = labels
        self.n_vertices = len(labels)
        self.degrees = degrees
        self.adj_offsets = adj_offsets
        self.adj_flat = adj_flat
        self.adj_bits = adj_bits
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_pos_in_u = edge_pos_in_u
        self.load_report = load_report
        self._samplers = {}
        self._pair_table = None

    @classmethod
    def from_edges(cls, n_vertices: int, pairs: Iterable[tuple[int, int]],
                   directed: bool = False) -> "Graph":
        """Build a graph from integer vertex pairs, labelled "0" .. "n-1".

        Self-loops are dropped and duplicate pairs are deduplicated; for
        undirected graphs (u, v) and (v, u) are the same pair.  Vertex ids
        must be integers, n_vertices at most 2**30, and directed a bool.
        """
        # a tagged half-edge key, (n * n - 1) << 2, must fit in int64
        if (not isinstance(n_vertices, (int, np.integer))
                or not 0 <= n_vertices <= 1 << 30):
            raise ValueError(f"vertex count must be an integer from 0 to "
                             f"2**30, got {n_vertices!r}")
        try:
            arr = np.asarray(list(pairs) or np.empty((0, 2), dtype=np.int64))
        except ValueError:   # ragged pairs
            arr = np.empty(0)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be (u, v) tuples")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= n_vertices):
            raise ValueError("vertex id out of range")
        return _build(arr.astype(np.int64),
                      tuple(str(i) for i in range(n_vertices)), directed)

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.size)


def _build(arr: np.ndarray, labels: tuple, directed: bool) -> Graph:
    # any other value would pick a branch by its truth and reach the reports
    if not isinstance(directed, (bool, np.bool_)):
        raise TypeError(f"directed must be a bool, got {directed!r}")
    directed = bool(directed)
    n = len(labels)
    loops = arr[:, 0] == arr[:, 1]
    u, v = arr[~loops].T
    out, into = (1, 2) if directed else (3, 3)
    half = np.concatenate([(u * n + v) << 2 | out, (v * n + u) << 2 | into])
    half.sort()
    tags = (half & 3).astype(np.int8)
    half >>= 2
    # a half-edge's entries sit together, tags ascending, so its first and
    # last entry hold every tag it has
    last = np.empty(half.size, dtype=bool)
    last[-1:] = True
    np.not_equal(half[:-1], half[1:], out=last[:-1])
    adj_bits = tags[np.roll(last, 1)] | tags[last]
    row, adj_flat = np.divmod(half[last], n)
    degrees = np.bincount(row, minlength=n).astype(np.int64)
    adj_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=adj_offsets[1:])

    forward = row < adj_flat
    edge_u, edge_v = row[forward], adj_flat[forward]
    edge_pos_in_u = np.flatnonzero(forward) - adj_offsets[edge_u]

    # each arc sets bit 0 on its tail's half-edge
    n_arcs = int((adj_bits & 1).sum()) if directed else None
    report = LoadReport(
        n_vertices=n,
        n_edges=int(edge_u.size),
        n_arcs=n_arcs,
        self_loops_dropped=int(loops.sum()),
        duplicates_dropped=int(u.size - (n_arcs if directed else edge_u.size)),
    )
    return Graph(directed=directed, labels=labels, degrees=degrees,
                 adj_offsets=adj_offsets, adj_flat=adj_flat,
                 adj_bits=adj_bits, edge_u=edge_u, edge_v=edge_v,
                 edge_pos_in_u=edge_pos_in_u, load_report=report)


def _blocks(text: str, start: int = 0, block: int = 1 << 16) -> Iterator[str]:
    """text[start:] in pieces of about block characters, each ending just
    after a "\n" (the last one at the text's end), so no line and no
    "\r\n" is cut."""
    while start < len(text):
        end = text.find("\n", start + block) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_tokens(text: str) -> tuple[np.ndarray, tuple]:
    """Pairs of dense ids and the labels behind them, from any edge-list
    text, one line at a time."""
    ids: dict[str, int] = {}
    flat: list[int] = []
    # text.splitlines(), split one block at a time, so only one block's
    # lines are held at once
    lines = chain.from_iterable(map(str.splitlines, _blocks(text)))
    for line_no, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2:
            raise EdgeListError(
                f"expected two vertex labels, got {len(tokens)}", line_no)
        u, v = tokens
        flat.append(ids.setdefault(u, len(ids)))
        flat.append(ids.setdefault(v, len(ids)))
    if not flat:
        raise EdgeListError("empty edge list")
    return np.array(flat, dtype=np.int64).reshape(-1, 2), tuple(ids)


# the leading blank and '#' lines, a SNAP header; a comment ends at the
# first line break str.splitlines knows
_HEADER = re.compile(
    r"(?:[ \t]*(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)?\r?\n)*")
_POWERS_OF_TEN = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)


def _decimal_length(values: np.ndarray) -> int:
    """Characters of all the values written in canonical decimal."""
    # |-2**63| wraps back to -2**63, which reads as 2**63 in uint64
    magnitude = np.abs(values).view(np.uint64)
    top = magnitude.max()
    # a magnitude has one digit, and one more for each power of ten it reaches
    return (values.size + np.count_nonzero(values < 0)
            + sum(np.count_nonzero(magnitude >= p)
                  for p in _POWERS_OF_TEN if p <= top))


def _read_integers(text: str) -> tuple[np.ndarray, tuple] | None:
    """What _read_tokens gives, for text whose lines past a header hold
    two canonical decimal integers each, with "\n" ends; else None.

    np.loadtxt parses a block at a time.  A token such as 007 or -0 parses
    to an integer with a shorter canonical form, so a block holding one has
    more non-blank characters than its values' decimal length.
    """
    start = _HEADER.match(text).end()
    # at most one pair a line
    pairs = np.empty((text.count("\n", start) + 1, 2), dtype=np.int64)
    rows = 0
    for block in _blocks(text, start):
        if not block.isascii():
            return None
        # the block's non-blank characters, which may be digits and '-'
        chars = block.encode().translate(None, b" \t\n")
        if chars.translate(None, b"-0123456789"):
            return None
        if not chars:        # loadtxt warns on a block with no data
            continue
        try:
            part = np.loadtxt(block.splitlines(), dtype=np.int64,
                              comments=None, ndmin=2)
        except ValueError:   # ragged lines, a stray '-', past int64
            return None
        if part.shape[1] != 2 or len(chars) != _decimal_length(part):
            return None
        pairs[rows:rows + len(part)] = part
        rows += len(part)
    if rows == 0:
        return None
    pairs = pairs[:rows]
    values = _to_dense_ids(pairs.reshape(-1))
    if values is None:
        return None
    return pairs, tuple(map(str, values.tolist()))


# the id pass works through its keys this many at a time, so that no
# temporary is more than a small part of the keys
_SLICE = 1 << 16


def _to_dense_ids(flat: np.ndarray) -> np.ndarray | None:
    """Replace each value by its rank in order of first appearance, in
    place, and return the distinct values in that order; None, with flat
    untouched, when the values span too wide a range.

    A sort of the keys (value - min) << b | position, where b bits hold
    any position, puts each value's first appearance first among its keys.
    Each key is then rewritten as position << b | rank, and a second sort
    puts the ranks back in input order.  Temporaries as large as flat,
    once freed, stayed on the heap and raised the peak memory of the
    census that follows.
    """
    n = flat.size
    lo, hi = int(flat.min()), int(flat.max())
    b = n.bit_length()
    if hi - lo >= 1 << (63 - b) or 2 * b > 63:
        return None
    low = (1 << b) - 1
    slices = range(0, n, _SLICE)
    flat -= lo
    flat <<= b
    for s in slices:
        flat[s:s + _SLICE] |= np.arange(s, min(s + _SLICE, n))
    flat.sort()
    # a key whose value bits differ from the key before it starts a run
    runs = [np.zeros(1, dtype=np.int64)]
    for s in slices:
        keys = flat[s:s + _SLICE + 1]
        runs.append(np.flatnonzero(keys[1:] ^ keys[:-1] > low) + s + 1)
    runs = np.concatenate(runs)
    starts = flat[runs]
    order = np.argsort(starts & low)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    for s in slices:
        keys = flat[s:s + _SLICE]
        # runs[a:z] start in this slice, after a runs
        a, z = np.searchsorted(runs, (s, s + keys.size))
        group = np.zeros(keys.size, dtype=np.int64)
        group[runs[a:z] - s] = 1
        np.cumsum(group, out=group)
        group += a - 1
        keys &= low
        keys <<= b
        keys |= rank[group]
    flat.sort()
    flat &= low
    values = starts[order]
    values >>= b
    values += lo
    return values


def loads_graph(text: str, directed: bool = False) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    One pair of vertex labels per line; blank lines and lines starting
    with '#' are skipped.  Labels may be arbitrary tokens, not only ints.
    Text of canonical decimal integers with "\n" ends, past a header of
    blank and '#' lines, is parsed by np.loadtxt; any other text, one line
    at a time.  Both give the same graph; errors name the line.  One
    leading byte-order mark is dropped, so it labels no vertex.
    """
    if not isinstance(text, str):
        raise TypeError(f"edge-list text must be str, got "
                        f"{type(text).__name__}: open the file in text mode")
    text = text.removeprefix("\ufeff")
    return _build(*(_read_integers(text) or _read_tokens(text)), directed)


def load_graph(source: str | Path | IO[str], directed: bool = False) -> Graph:
    """Read an edge list from a path or an open text file."""
    if hasattr(source, "read"):
        return loads_graph(source.read(), directed)
    return loads_graph(Path(source).read_text(), directed)


def _mix(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of each key, as uint64.

    uint64 arrays wrap silently, which the mixing relies on; the constants
    are Python ints, since a numpy scalar that overflows warns.
    """
    z = keys.astype(np.uint64)
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


class _PairTable:
    """Linear-probing hash set of edge keys, each holding 2 direction bits.

    An entry is key << 2 | bits; a key is below n * n, and n is at most
    2**30 (Graph.from_edges checks it), so an entry fits in int64.  Empty
    slots hold -1.  Entries are placed in order of their home slot, so no
    run wraps: it may spill into a tail past the last home slot, as long
    as the farthest any entry sits from its home (reach).  A lookup reads
    a key's home slot and, unless that settles it, the reach slots after
    it.
    """

    def __init__(self, keys: np.ndarray, bits: np.ndarray | int):
        log_cap = max(2 * keys.size - 1, 1).bit_length()
        self._shift = 64 - log_cap
        # a stable sort on the home slot: the key's index breaks ties, in
        # the low bits (a home and an index fit in 63 bits up to 2**31 keys)
        ramp = np.arange(keys.size)
        order = np.sort(self._home(keys) << (log_cap - 1) | ramp)
        home = order >> (log_cap - 1)
        order &= (1 << (log_cap - 1)) - 1
        # an entry lands on its home slot, or just past the entry before
        # it when that one already reaches there
        pos = np.maximum.accumulate(home - ramp) + ramp
        # the slots are the build's largest array: free what they do not
        # need first, since the build sets the census's peak memory
        del ramp
        self.reach = int((pos - home).max(initial=0))
        del home
        entries = keys << 2
        entries |= bits
        self.slots = np.full((1 << log_cap) + self.reach, -1, dtype=np.int64)
        self.slots[pos] = entries[order]

    def _home(self, keys: np.ndarray) -> np.ndarray:
        z = _mix(keys)
        z >>= self._shift
        return z.view(np.int64)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Direction bits stored with each of a 1-d array of keys; 0 for a
        key not present."""
        slot = self._home(keys)
        found = self.slots[slot]
        hit = found >> 2 == keys
        # a key found, or met by an empty slot, is settled
        todo = np.flatnonzero((found >= 0) & ~hit)
        found &= 3
        found *= hit
        keys, slot = keys[todo], slot[todo]
        # the rest read every slot within reach; a run has no gap before
        # its key, so no slot past a gap matches.  Dropping the settled
        # keys once more, then no more: shrinking copies in every round
        # fragment the heap, and peak memory grows with them
        for step in range(self.reach):
            slot += 1
            entry = self.slots[slot]
            hit = entry >> 2 == keys
            found[todo[hit]] = entry[hit] & 3
            if step == 0:
                more = np.flatnonzero((entry >= 0) & ~hit)
                todo, keys, slot = todo[more], keys[more], slot[more]
        return found


def _pair_table(g: Graph) -> _PairTable:
    """The graph's table of pair keys, built on first use.

    An edge u < v holds the direction bits of its half-edge in u's row:
    bit 0 is the arc u -> v and bit 1 the arc v -> u.
    """
    if g._pair_table is None:
        # an undirected edge holds both arcs: its bits are 3
        bits = (g.adj_bits[g.adj_offsets[g.edge_u] + g.edge_pos_in_u]
                if g.directed else 3)
        keys = g.edge_u * g.n_vertices
        keys += g.edge_v
        g._pair_table = _PairTable(keys, bits)
    return g._pair_table
