"""Unbiased motif-count estimates from frame-sampling tallies.

One experiment draws one frame uniformly and classifies the subgraph induced
by its vertices.  With N experiments, C detections of a class, N_F frame
instances in total and koef frame instances per motif instance, the
estimate and its variance are

    n_hat = (C / N) * N_F / koef
    var   = N_F^2 / (koef^2 N^2) * C * (1 - C / N)

Motifs of size 4 are covered by two independent experiments, chains (A) and
tridents (B).  The convex mixture n_A + lam * (n_B - n_A) carries variance
D(lam) = (1 - lam)^2 D_A + lam^2 D_B, and

    lam = n_B * D_A / (n_A * D_B + n_B * D_A), clamped to [0, 1]

minimizes the squared coefficient of variation D(lam) / n(lam)^2 under the
observed plug-in values.  Every class is estimated at once, in arrays over
the class table.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .canon import arrcode_table
from .frames import (FrameKind, FrameTotals, KoefTable, frame_sampler,
                     frame_totals, kinds_for_size, koef_table)
from .graphs import Graph, induced_subgraph_codes

DEFAULT_BATCH_SIZE = 10_000
# classes detected fewer times than this are not held to the CV target
MIN_DETECTIONS_FOR_CV = 5


def optimal_lambda(n_a, d_a, n_b, d_b):
    """Mixing weight minimizing the squared CV of the mixture, element-wise.

    When the denominator vanishes the objective is flat in lam; ties break
    to 1/2, and a side that detected nothing (zero count, zero variance)
    gets no weight since the other side carries all the information.
    Scalars give a float, arrays an array.
    """
    stacked = np.array(np.broadcast_arrays(n_a, d_a, n_b, d_b), dtype=float)
    if (stacked < 0).any():
        raise ValueError("counts and variances must be nonnegative")
    n_a, d_a, n_b, d_b = stacked
    if ((n_a == 0) & (n_b == 0)).any():
        raise ValueError("both experiments report zero; nothing to weight")
    denom = n_a * d_b + n_b * d_a
    flat = denom == 0
    tie = np.where(n_a == 0, 1.0, np.where(n_b == 0, 0.0, 0.5))
    lam = np.where(flat, tie, np.clip(
        n_b * d_a / np.where(flat, 1.0, denom), 0.0, 1.0))
    return float(lam) if lam.ndim == 0 else lam


@dataclass
class CensusReport:
    """Sampled census result with everything needed to rebuild estimates."""

    size: int
    directed: bool
    seed: int
    budget: int | None
    target_cv: float | None
    batch_size: int
    chain_share: float
    n_vertices: int
    n_edges: int
    frame_totals: FrameTotals
    experiments: dict
    motifs: list
    stop_reason: str
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "directed": self.directed,
            "seed": self.seed,
            "budget": self.budget,
            "target_cv": self.target_cv,
            "batch_size": self.batch_size,
            "chain_share": self.chain_share,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "frame_totals": self.frame_totals.to_dict(),
            "experiments": self.experiments,
            "motifs": self.motifs,
            "stop_reason": self.stop_reason,
            "elapsed": self.elapsed,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _build_estimates(koefs: KoefTable, totals: FrameTotals, n: dict,
                     hits: dict) -> tuple:
    """Estimates of every class at once from the per-kind tallies: n[kind]
    experiments and the detection array hits[kind].

    Returns per-class arrays (n_hat, variance, cv, lam, parts).  parts has
    one row per kind of koefs.kinds and marks the classes that kind
    estimates: those it spans (koef > 0, so connected ones only), once it
    has experiments, or at once when the graph has no frames of the kind,
    since the count is then exactly zero.  A class no kind estimates is
    not reported.  cv is NaN where n_hat is 0; lam is NaN unless both
    kinds estimate the class and one of them is nonzero.
    """
    kinds = koefs.kinds
    shape = (len(kinds), len(hits[kinds[0]]))
    n_hat, var = np.zeros(shape), np.zeros(shape)
    parts = np.zeros(shape, dtype=bool)
    for i, kind in enumerate(kinds):
        koef, n_f, n_k = koefs.counts[kind], totals.for_kind(kind), n[kind]
        if n_f == 0 or n_k > 0:
            parts[i] = koef > 0
        if n_f > 0 and n_k > 0:
            # n_f / (koef * n_k) rounded once from Python ints, per koef
            scale = np.array([n_f / (k * n_k) if k else 0.0
                              for k in range(int(koef.max()) + 1)])[koef]
            c = hits[kind]
            n_hat[i] = c * scale
            var[i] = scale * scale * c * (1.0 - c / n_k)
    # outside the mixture at most one kind's estimate is nonzero
    est, variance = n_hat.sum(axis=0), var.sum(axis=0)
    lam = np.full(est.shape, np.nan)
    if len(kinds) == 2:
        mix = parts.all(axis=0) & (n_hat != 0).any(axis=0)
        (n_a, n_b), (d_a, d_b) = n_hat[:, mix], var[:, mix]
        w = optimal_lambda(n_a, d_a, n_b, d_b)
        lam[mix] = w
        est[mix] = n_a + w * (n_b - n_a)
        variance[mix] = (1.0 - w) ** 2 * d_a + w ** 2 * d_b
    cv = np.divide(np.sqrt(variance), est, out=np.full(est.shape, np.nan),
                   where=est > 0)
    return est, variance, cv, lam, parts


def _target_met(cv: np.ndarray, hits: dict, target: float) -> bool:
    """Every class some kind detected MIN_DETECTIONS_FOR_CV times or more
    has a cv at or below target (a NaN cv is above it)."""
    tracked = np.maximum.reduce(list(hits.values())) >= MIN_DETECTIONS_FOR_CV
    return bool((cv[tracked] <= target).all())


def run_sampled_census(g: Graph, size: int, budget: int | None = None,
                       target_cv: float | None = None, *, seed: int,
                       batch_size: int = DEFAULT_BATCH_SIZE,
                       chain_share: float = 0.5) -> CensusReport:
    """Sampled census of all connected motif classes of one size.

    Args:
        g: input graph.
        size: motif size, 3 or 4.
        budget: total number of experiments across frame kinds; for size 4
            it is split chain/trident by chain_share.  May be omitted when
            target_cv is given.
        target_cv: stop early once every class detected at least 5 times
            has cv at or below this value, which must be positive and
            finite.  Without a budget, each kind draws at most its frame
            total; a target still unmet there raises ValueError.
        seed: root seed; each frame kind draws from its own stream of it,
            so a run is reproducible given the same arguments.
        batch_size: experiments per kind between two checks of the stop
            rule; a report without target_cv does not depend on it.

    Returns:
        CensusReport with per-class estimates and per-experiment tallies.
    """
    t0 = time.perf_counter()
    if size not in (3, 4):
        raise ValueError(f"motif size must be 3 or 4, got {size}")
    if budget is None and target_cv is None:
        raise ValueError("need a sample budget or a target CV")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if target_cv is not None and not 0 < target_cv < math.inf:
        raise ValueError(f"target CV must be positive and finite, "
                         f"got {target_cv}")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    if not 0.0 <= chain_share <= 1.0:
        raise ValueError("chain share must lie in [0, 1]")

    totals = frame_totals(g)
    kinds = kinds_for_size(size)
    active = tuple(k for k in kinds if totals.for_kind(k) > 0)
    if not active:
        raise ValueError(f"graph has no size-{size} frames to sample")
    table = arrcode_table(size, g.directed)
    koefs = koef_table(size, g.directed)
    samplers = {k: frame_sampler(g, k) for k in active}
    # the tally: experiments and per-class detections, per kind
    n = dict.fromkeys(kinds, 0)
    hits = {k: np.zeros(table.n_classes, dtype=np.int64) for k in kinds}

    # experiments left per kind; without a budget a kind stops at its frame
    # total, where an exact census costs no more
    if budget is None:
        remaining = {k: totals.for_kind(k) for k in active}
    elif len(active) == 1:
        remaining = {active[0]: budget}
    else:
        chain_budget = int(round(budget * chain_share))
        remaining = {FrameKind.CHAIN: chain_budget,
                     FrameKind.TRIDENT: budget - chain_budget}

    # one stream per kind that draws: spawn key (0, i) is child i of child
    # 0 of SeedSequence(seed), as spawn() would make it.  Kind slots are
    # fixed by size so streams do not shift when a kind is inactive
    rngs = {k: np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(0, kinds.index(k))))
            for k in active if remaining[k] > 0}

    stop_reason = "budget"
    while any(remaining.values()):
        for kind, rng in rngs.items():
            chunk = min(batch_size, remaining[kind])
            remaining[kind] -= chunk
            n[kind] += chunk
            # slices keep a round's memory independent of batch_size; the
            # ranks drawn are the same as in one call
            for start in range(0, chunk, DEFAULT_BATCH_SIZE):
                batch = samplers[kind].sample_batch(
                    rng, min(DEFAULT_BATCH_SIZE, chunk - start))
                codes = induced_subgraph_codes(
                    g, batch.vertices[:, ~batch.degenerate])
                hits[kind] += np.bincount(table.entries[codes],
                                          minlength=table.n_classes)
        if target_cv is not None:
            cv = _build_estimates(koefs, totals, n, hits)[2]
            if _target_met(cv, hits, target_cv):
                stop_reason = "target_cv"
                break
    if budget is None and stop_reason == "budget":
        raise ValueError(
            f"target CV {target_cv} not reached after {sum(n.values())} "
            f"experiments, as many as the graph has frames; count exactly "
            f"instead (motif-census exact)")

    n_hat, variance, cv, lam, parts = _build_estimates(koefs, totals, n, hits)
    experiments = {}
    for kind in kinds:
        entry = {"n_experiments": n[kind],
                 "frame_total": totals.for_kind(kind)}
        if kind is FrameKind.CHAIN:
            entry["degenerate"] = n[kind] - int(hits[kind].sum())
        experiments[kind.value] = entry

    n_hat, variance, cv, lam = (a.tolist() for a in (n_hat, variance, cv, lam))
    motifs = [{
        "class_id": cid,
        "canonical_code": table.classes[cid].canonical_code,
        "n_hat": n_hat[cid],
        "variance": variance[cid],
        "cv": None if math.isnan(cv[cid]) else cv[cid],
        "lambda": None if math.isnan(lam[cid]) else lam[cid],
        "sources": [k.value for k, p in zip(kinds, parts[:, cid]) if p],
        "detections": {k.value: int(hits[k][cid]) for k in kinds},
        "koef": {k.value: int(koefs.counts[k][cid]) for k in kinds},
    } for cid in np.flatnonzero(parts.any(axis=0)).tolist()]

    return CensusReport(
        size=size, directed=g.directed, seed=seed,
        budget=budget, target_cv=target_cv, batch_size=batch_size,
        chain_share=chain_share, n_vertices=g.n_vertices, n_edges=g.n_edges,
        frame_totals=totals, experiments=experiments, motifs=motifs,
        stop_reason=stop_reason, elapsed=time.perf_counter() - t0)
