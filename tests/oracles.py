"""Independent slow-path oracles the tests compare the package against.

Nothing here reuses the package's enumeration or classification logic:
adjacency, pair codes, frames, connectivity and counting are rebuilt from
the raw edge and arc arrays the straightforward way, and estimates one
class at a time from a report's tallies.  Only the class and containment
tables come from the package, to name the classes and weigh their frames.
"""

import math
from itertools import combinations, permutations

import networkx as nx
import numpy as np

from motifcensus import (FrameKind, Graph, arrcode_table, kinds_for_size,
                         koef_table, pair_slots)


def arcs(g: Graph) -> np.ndarray:
    """Directed arcs of g as an (m, 2) array of dense ids."""
    n = g.n_vertices
    return np.stack([g.arc_keys // n, g.arc_keys % n], axis=1)


def to_nx(g: Graph):
    gx = nx.DiGraph() if g.directed else nx.Graph()
    gx.add_nodes_from(range(g.n_vertices))
    if g.directed:
        gx.add_edges_from(map(tuple, arcs(g)))
    else:
        gx.add_edges_from(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    return gx


def dumps_graph(g: Graph) -> str:
    """Edge-list text of g in its original labels, one pair per line."""
    pairs = arcs(g) if g.directed else zip(g.edge_u, g.edge_v)
    return "".join(f"{g.labels[int(a)]} {g.labels[int(b)]}\n"
                   for a, b in pairs)


def parse_edge_list(text: str, directed: bool) -> dict:
    """Edge-list text parsed line by line into Python sets.

    A line is skipped when blank or when it starts with '#' after leading
    whitespace; every other line must hold two labels.  Returns
    {"line_no": k} for the first line that does not ({"line_no": None} for
    input with no pair at all), else labels in order of first appearance,
    "pairs" as a dict of dense id -> set of out-neighbors (directed) or of
    higher neighbors (undirected), and the self-loop and duplicate counts.
    """
    ids = {}
    pairs = {}
    loops = duplicates = 0
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line == "" or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            return {"line_no": line_no}
        for tok in tokens:
            if tok not in ids:
                ids[tok] = len(ids)
                pairs[ids[tok]] = set()
        u, v = ids[tokens[0]], ids[tokens[1]]
        if u == v:
            loops += 1
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        if v in pairs[u]:
            duplicates += 1
        pairs[u].add(v)
    if not ids:
        return {"line_no": None}
    return {"labels": tuple(ids), "pairs": pairs, "self_loops": loops,
            "duplicates": duplicates}


def random_graph(rng: np.random.Generator, n: int, p: float,
                 directed: bool) -> Graph:
    """Dense-id G(n, p); keeps isolated vertices."""
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j <= i):
                continue
            if rng.random() < p:
                pairs.append((i, j))
    return Graph.from_edges(n, pairs, directed=directed)


def neighbor_sets(g: Graph) -> list:
    """Undirected neighbor set of every vertex."""
    adj = [set() for _ in range(g.n_vertices)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def induced_code(g: Graph, vertices) -> int:
    """Pair bitmask of the subgraph induced by 3 or 4 distinct vertices,
    one set lookup per slot (see pair_slots)."""
    vs = [int(v) for v in vertices]
    if g.directed:
        present = set(map(tuple, arcs(g).tolist()))
    else:
        present = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    code = 0
    for s, (i, j) in enumerate(pair_slots(len(vs), g.directed)):
        a, b = vs[i], vs[j]
        if not g.directed:
            a, b = min(a, b), max(a, b)
        if (a, b) in present:
            code |= 1 << s
    return code


def frames_brute(g: Graph, kind: FrameKind) -> list:
    """Every frame instance by plain loops, as (vertices, degenerate) with
    the FrameBatch column layout; chains include the degenerate ones."""
    adj = neighbor_sets(g)
    out = []
    if kind is FrameKind.FORK:
        for c in range(g.n_vertices):
            for a, b in combinations(sorted(adj[c]), 2):
                out.append(((a, c, b), False))
    elif kind is FrameKind.TRIDENT:
        for c in range(g.n_vertices):
            for leaves in combinations(sorted(adj[c]), 3):
                out.append(((c,) + leaves, False))
    else:
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            for a in sorted(adj[u] - {v}):
                for b in sorted(adj[v] - {u}):
                    out.append(((a, u, v, b), a == b))
    return out


def frame_keys(g: Graph, kind: FrameKind, vertices) -> np.ndarray:
    """Order-free instance identity of each frame column, packed in int64."""
    n = g.n_vertices
    v = np.asarray(vertices, dtype=np.int64).reshape(kind.size, -1)
    if kind is FrameKind.FORK:
        lo = np.minimum(v[0], v[2])
        hi = np.maximum(v[0], v[2])
        return (v[1] * n + lo) * n + hi
    if kind is FrameKind.TRIDENT:
        leaves = np.sort(v[1:], axis=0)
        return ((v[0] * n + leaves[0]) * n + leaves[1]) * n + leaves[2]
    # chains come out with the stored edge orientation u < v
    return ((v[1] * n + v[2]) * n + v[0]) * n + v[3]


def are_open_frames(g: Graph, kind: FrameKind, vertices) -> bool:
    """Whether every column is a non-degenerate frame of kind, in the
    FrameBatch layout, by its key among the plain-loop frames."""
    real = [v for v, degenerate in frames_brute(g, kind) if not degenerate]
    want = frame_keys(g, kind, np.array(real, dtype=np.int64).T)
    return set(frame_keys(g, kind, vertices).tolist()) <= set(want.tolist())


def connected_sets_brute(g: Graph, size: int) -> list:
    """All connected vertex sets of one size, by checking every subset."""
    adj = neighbor_sets(g)
    out = []
    for combo in combinations(range(g.n_vertices), size):
        inside = set(combo)
        seen = {combo[0]}
        stack = [combo[0]]
        while stack:
            v = stack.pop()
            for u in adj[v] & inside:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == size:
            out.append(combo)
    return out


def brute_force_census(g: Graph, size: int) -> dict:
    """Exact class counts via the all-subsets sweep."""
    table = arrcode_table(size, g.directed)
    counts = {cls.class_id: 0 for cls in table.classes if cls.connected}
    for combo in connected_sets_brute(g, size):
        counts[int(table.entries[induced_code(g, combo)])] += 1
    return counts


def isomorphism_class_counts(size: int, directed: bool) -> tuple[int, int]:
    """(classes, weakly connected classes) by pairwise isomorphism tests."""
    make = nx.DiGraph if directed else nx.Graph
    if directed:
        slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    else:
        slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
    buckets: dict = {}
    for code in range(1 << len(slots)):
        gx = make()
        gx.add_nodes_from(range(size))
        for s, (i, j) in enumerate(slots):
            if code >> s & 1:
                gx.add_edge(i, j)
        degs = tuple(sorted((gx.degree(v) if not directed else
                             (gx.in_degree(v), gx.out_degree(v)))
                            for v in range(size)))
        reps = buckets.setdefault(degs, [])
        for rep in reps:
            if nx.is_isomorphic(rep, gx):
                break
        else:
            reps.append(gx)
    classes = [rep for reps in buckets.values() for rep in reps]
    connected = sum(
        1 for rep in classes
        if nx.is_connected(rep.to_undirected() if directed else rep))
    return len(classes), connected


def spanning_path_count(adj: list) -> int:
    """3-edge paths through all 4 vertices, one per traversal direction pair."""
    n = len(adj)
    total = 0
    for order in permutations(range(n)):
        if all(order[i + 1] in adj[order[i]] for i in range(n - 1)):
            total += 1
    return total // 2  # a path and its reversal are the same instance


def common_neighbor_pairs(g: Graph) -> int:
    """Sum over edges of shared-neighbor counts (degenerate chain count)."""
    adj = neighbor_sets(g)
    return sum(len(adj[int(u)] & adj[int(v)])
               for u, v in zip(g.edge_u, g.edge_v))


def single_estimate(c: int, n: int, n_f: int, koef: int) -> tuple:
    """(n_hat, variance) of one class from one kind's tally: c detections
    in n experiments, n_f frames in the graph, koef frames per instance."""
    scale = n_f / (koef * n)
    return c * scale, scale * scale * c * (1.0 - c / n)


def mixed_estimate(a: tuple, b: tuple) -> tuple:
    """(n_hat, variance, lam) of the convex mixture a + lam (b - a) of two
    independent (n_hat, variance) estimates with the least squared CV."""
    (n_a, d_a), (n_b, d_b) = a, b
    denom = n_a * d_b + n_b * d_a
    if denom == 0:
        lam = 1.0 if n_a == 0 else 0.0 if n_b == 0 else 0.5
    else:
        lam = min(1.0, max(0.0, n_b * d_a / denom))
    return (n_a + lam * (n_b - n_a),
            (1.0 - lam) ** 2 * d_a + lam ** 2 * d_b, lam)


def estimate_rows(report: dict) -> list:
    """The rows a sampled report should carry, rebuilt one connected class
    at a time from its tallies, as {class_id, n_hat, variance, cv, lambda,
    sources}.

    A kind estimates a class it spans once it has experiments; when the
    graph has no frames of that kind the class count is exactly 0.  Two
    estimates mix unless both are 0; lambda is None for one estimate or
    none mixed.  A class no kind estimates gets no row.
    """
    size, directed = report["size"], report["directed"]
    koefs = koef_table(size, directed)
    detections = {m["class_id"]: m["detections"] for m in report["motifs"]}
    rows = []
    for cls in arrcode_table(size, directed).classes:
        if not cls.connected:
            continue
        parts = []
        for kind in kinds_for_size(size):
            koef = koefs.counts[kind][cls.class_id]
            n_f = report["frame_totals"][kind.value]
            n = report["experiments"][kind.value]["n_experiments"]
            if koef == 0:
                continue
            if n_f == 0:
                parts.append((kind, (0.0, 0.0)))
            elif n > 0:
                c = detections.get(cls.class_id, {}).get(kind.value, 0)
                parts.append((kind, single_estimate(c, n, n_f, koef)))
        if not parts:
            continue
        lam = None
        if len(parts) == 1:
            n_hat, variance = parts[0][1]
        elif parts[0][1][0] == 0 and parts[1][1][0] == 0:
            n_hat, variance = 0.0, 0.0
        else:
            n_hat, variance, lam = mixed_estimate(parts[0][1], parts[1][1])
        rows.append({
            "class_id": cls.class_id,
            "n_hat": n_hat,
            "variance": variance,
            "cv": math.sqrt(variance) / n_hat if n_hat > 0 else None,
            "lambda": lam,
            "sources": [kind.value for kind, _ in parts],
        })
    return rows
