"""Deterministic numpy-only graph generators for the benchmark.

Every generator takes a seed and returns an (m, 2) int64 array of vertex
pairs; `write_edge_list` turns it into the text file the library loads.
Vertex ids are shuffled so that hubs are not the low ids the library's
first-appearance remapping would otherwise favour.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def gnm(n: int, m: int, seed: int, directed: bool = False) -> np.ndarray:
    """Uniform G(n, m): m distinct edges (or arcs), no self-loops."""
    if not 0 < m <= n * (n - 1) // (1 if directed else 2):
        raise ValueError(f"G({n}, {m}) is not a simple graph")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u = rng.integers(0, n, size=2 * m, dtype=np.int64)
        v = rng.integers(0, n, size=2 * m, dtype=np.int64)
        ok = u != v
        u, v = u[ok], v[ok]
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        keys = np.unique(np.concatenate([keys, u * n + v]))
    keys = rng.choice(keys, size=m, replace=False)
    return np.stack([keys // n, keys % n], axis=1)


def chung_lu(n: int, lines: int, gamma: float, seed: int) -> np.ndarray:
    """Chung-Lu power-law graph: `lines` pairs with endpoints drawn in
    proportion to weights w_i ~ i^(-1/(gamma-1)), ids shuffled.

    Self-loops and repeated pairs are kept in the output on purpose: the
    library drops and deduplicates them, and the load path pays for that.
    """
    if gamma <= 2.0:
        raise ValueError("gamma must exceed 2")
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
    cum = np.cumsum(w)
    cum /= cum[-1]
    ends = np.searchsorted(cum, rng.random(2 * lines), side="right")
    ends = np.minimum(ends, n - 1)
    perm = rng.permutation(n)
    return perm[ends].reshape(lines, 2)


def write_edge_list(pairs: np.ndarray, path: Path) -> None:
    """One `u v` line per pair; same pairs give byte-identical files."""
    text = "\n".join(f"{u} {v}" for u, v in pairs.tolist()) + "\n"
    path.write_text(text)
