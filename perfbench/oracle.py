"""Facts about a generated graph, computed without the library, and the
checks every census report must pass against them.

Frame totals use Python integers, so they cannot wrap.  The bit order of
class codes is the documented one: vertex pairs in lexicographic order,
ordered pairs for directed graphs, bit 0 for the first pair.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SIGMAS = 6.0


def undirected_view(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated edges (u < v) of the pair list, self-loops dropped."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    n = int(pairs.max()) + 1
    keys = np.unique(lo[keep] * n + hi[keep])
    return keys // n, keys % n


def count_triangles(u: np.ndarray, v: np.ndarray) -> int:
    """Triangles of a simple undirected graph, by degree-ordered wedges."""
    n = int(max(u.max(), v.max())) + 1
    deg = np.bincount(np.concatenate([u, v]), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    # orient each edge from lower to higher rank; a triangle a<b<c (by
    # rank) is then found exactly once, as a->b, b->c closed by a->c
    a = np.where(rank[u] < rank[v], rank[u], rank[v])
    b = np.where(rank[u] < rank[v], rank[v], rank[u])
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keys = a * n + b
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=out_off[1:])
    total = 0
    chunk = 1 << 16
    for s in range(0, a.size, chunk):
        ea, eb = a[s:s + chunk], b[s:s + chunk]
        lens = out_off[eb + 1] - out_off[eb]
        if not lens.sum():
            continue
        starts = np.repeat(out_off[eb] - np.cumsum(lens) + lens, lens)
        c = b[starts + np.arange(lens.sum())]
        q = np.repeat(ea, lens) * n + c
        idx = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        total += int((keys[idx] == q).sum())
    return total


def graph_facts(pairs: np.ndarray) -> dict:
    """Frame totals and triangle count of the undirected view."""
    u, v = undirected_view(pairs)
    n = int(max(u.max(), v.max())) + 1
    deg = np.bincount(np.concatenate([u, v]), minlength=n).tolist()
    d_u = [deg[x] for x in u.tolist()]
    d_v = [deg[x] for x in v.tolist()]
    return {
        "lines": int(pairs.shape[0]),
        "fork": sum(d * (d - 1) // 2 for d in deg),
        "trident": sum(d * (d - 1) * (d - 2) // 6 for d in deg),
        "chain": sum((x - 1) * (y - 1) for x, y in zip(d_u, d_v)),
        "triangles": count_triangles(u, v),
    }


def _code_view(code: int, size: int, directed: bool) -> list[set]:
    if directed:
        slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    else:
        slots = list(itertools.combinations(range(size), 2))
    adj = [set() for _ in range(size)]
    for s, (i, j) in enumerate(slots):
        if code >> s & 1:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def code_frames(code: int, size: int, directed: bool) -> dict:
    """Forks, tridents, chains and triangles inside one class code."""
    adj = _code_view(code, size, directed)
    paths = sum(1 for p in itertools.permutations(range(size), 4)
                if p[1] in adj[p[0]] and p[2] in adj[p[1]]
                and p[3] in adj[p[2]]) // 2 if size == 4 else 0
    return {
        "fork": sum(math.comb(len(a), 2) for a in adj),
        "trident": sum(math.comb(len(a), 3) for a in adj),
        "chain": paths,
        "triangles": sum(1 for t in itertools.combinations(range(size), 3)
                         if t[1] in adj[t[0]] and t[2] in adj[t[0]]
                         and t[2] in adj[t[1]]),
    }


def _within(observed: int, trials: int, p: float) -> bool:
    """Binomial count within SIGMAS standard deviations of its mean."""
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(observed - trials * p) <= SIGMAS * sd


def check_sampled(report: dict, facts: dict, step: dict) -> list[str]:
    """Failed checks of one sampled census report; empty when it passes."""
    fails = []
    want = {k: facts[k] for k in ("fork", "trident", "chain")}
    if report["frame_totals"] != want:
        fails.append(f"frame_totals {report['frame_totals']} != {want}")
    size, directed = report["size"], report["directed"]
    experiments = report["experiments"]
    for kind, entry in experiments.items():
        detected = sum(m["detections"][kind] for m in report["motifs"])
        if detected + entry.get("degenerate", 0) != entry["n_experiments"]:
            fails.append(f"{kind}: detections {detected} + degenerate "
                         f"{entry.get('degenerate', 0)} != experiments "
                         f"{entry['n_experiments']}")
    total = sum(e["n_experiments"] for e in experiments.values())
    if step.get("target_cv") is None:
        if total != step["budget"]:
            fails.append(f"experiments {total} != budget {step['budget']}")
    else:
        if report["stop_reason"] != "target_cv":
            fails.append(f"stop_reason {report['stop_reason']!r}, "
                         "expected 'target_cv'")
        if total > step["budget"]:
            fails.append(f"experiments {total} > budget {step['budget']}")
    three_t = 3 * facts["triangles"]
    if size == 4:
        chain = experiments["chain"]
        p = three_t / facts["chain"]
        if not _within(chain["degenerate"], chain["n_experiments"], p):
            fails.append(f"chain degenerate {chain['degenerate']} not within "
                         f"{SIGMAS} sd of {chain['n_experiments'] * p:.1f}")
    else:
        fork = experiments["fork"]["n_experiments"]
        hit = sum(m["detections"]["fork"] for m in report["motifs"]
                  if code_frames(m["canonical_code"], 3, directed)["triangles"])
        p = three_t / facts["fork"]
        if not _within(hit, fork, p):
            fails.append(f"fork triangle detections {hit} not within "
                         f"{SIGMAS} sd of {fork * p:.1f}")
    return fails


def check_exact(report: dict, facts: dict) -> list[str]:
    """Failed checks of one exact census report; empty when it passes."""
    fails = []
    size, directed = report["size"], report["directed"]
    t = facts["triangles"]
    sums = {"fork": 0, "trident": 0, "chain": 0}
    triangles = 0
    for m in report["motifs"]:
        inside = code_frames(m["canonical_code"], size, directed)
        for kind in sums:
            sums[kind] += inside[kind] * m["count"]
        if size == 3 and inside["triangles"]:
            triangles += m["count"]
    if size == 3:
        if triangles != t:
            fails.append(f"triangle classes count {triangles} != {t}")
        # each triangle holds 3 forks, each open wedge 1
        if sums["fork"] != facts["fork"]:
            fails.append(f"wedges + 3 triangles {sums['fork']} != "
                         f"forks {facts['fork']}")
    else:
        if sums["trident"] != facts["trident"]:
            fails.append(f"sum koef_trident * count {sums['trident']} != "
                         f"{facts['trident']}")
        if sums["chain"] != facts["chain"] - 3 * t:
            fails.append(f"sum koef_chain * count {sums['chain']} != "
                         f"{facts['chain'] - 3 * t}")
    return fails
