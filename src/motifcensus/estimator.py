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

The paper's method "minimizes the value of the coefficient of variation",
and a size-4 run with a target CV does so twice over.  Besides lam, from
its second round on it splits each round between the kinds where the CV
of the binding class b, the tracked class with the largest cv, falls
most.  After N_k experiments of kind k, one more cuts the mixture's
variance by about w_k^2 D_k / N_k, with w = (1 - lam_b, lam_b).  Chains
get their part of the two cuts of the next round, held within
[MIN_SHARE, 1 - MIN_SHARE].  Runs without a target split evenly, so
their seeded reports stay as they were: there the rule would cost an
estimate pass a round, and its binding class, with a handful of
detections, is mostly noise.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .canon import arrcode_table
from .frames import (_INT64_MAX, CHUNK, FrameKind, FrameTotals,
                     frame_sampler, frame_totals, induced_subgraph_codes,
                     kinds_for_size, koef_table)
from .graphs import Graph, _pair_table

# classes detected fewer times than this are not held to the CV target
MIN_DETECTIONS_FOR_CV = 5

# the least share of a target run's round each size-4 frame kind draws:
# the other kind must keep estimating its variance, and every class only
# it spans, such as the 3-star, whose chain koef is 0
MIN_SHARE = 0.1


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
    n_vertices: int
    n_edges: int
    frame_totals: FrameTotals
    experiments: dict
    motifs: list
    stop_reason: str
    elapsed: float

    def to_dict(self) -> dict:
        # shallow, unlike dataclasses.asdict: the motif rows are not copied
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["frame_totals"] = self.frame_totals.to_dict()
        return out


def _build_estimates(koefs: Mapping, totals: FrameTotals, n: dict,
                     hits: dict) -> tuple:
    """Estimates of every class at once from the per-kind tallies: n[kind]
    experiments and the detection array hits[kind].

    Returns per-class arrays (n_hat, variance, cv, lam, parts, kind_var).
    parts and kind_var have one row per kind of koefs, the map koef_table
    returns, in its order: kind_var holds each kind's own variance, and
    parts marks the classes that kind estimates: those it spans (koef > 0,
    so connected ones only), once it has experiments, or at once when the
    graph has no frames of the kind, since the count is then exactly zero.
    A class no kind estimates is not reported.  cv is NaN where n_hat is
    0; lam is NaN unless both kinds estimate the class and one of them is
    nonzero.
    """
    kinds = tuple(koefs)
    shape = (len(kinds), len(hits[kinds[0]]))
    n_hat, kind_var = np.zeros(shape), np.zeros(shape)
    parts = np.zeros(shape, dtype=bool)
    for i, kind in enumerate(kinds):
        koef, n_f, n_k = koefs[kind], totals.for_kind(kind), n[kind]
        if n_f == 0 or n_k > 0:
            parts[i] = koef > 0
        if n_f > 0 and n_k > 0:
            # n_f / (koef * n_k) rounded once from Python ints, per koef
            scale = np.array([n_f / (k * n_k) if k else 0.0
                              for k in range(int(koef.max()) + 1)])[koef]
            c = hits[kind]
            n_hat[i] = c * scale
            kind_var[i] = scale * scale * c * (1.0 - c / n_k)
    # outside the mixture at most one kind's estimate is nonzero
    est, variance = n_hat.sum(axis=0), kind_var.sum(axis=0)
    lam = np.full(est.shape, np.nan)
    if len(kinds) == 2:
        mix = parts.all(axis=0) & (n_hat != 0).any(axis=0)
        (n_a, n_b), (d_a, d_b) = n_hat[:, mix], kind_var[:, mix]
        w = optimal_lambda(n_a, d_a, n_b, d_b)
        lam[mix] = w
        est[mix] = n_a + w * (n_b - n_a)
        variance[mix] = (1.0 - w) ** 2 * d_a + w ** 2 * d_b
    cv = np.divide(np.sqrt(variance), est, out=np.full(est.shape, np.nan),
                   where=est > 0)
    return est, variance, cv, lam, parts, kind_var


def _tracked(hits: dict) -> np.ndarray:
    """Classes some kind detected MIN_DETECTIONS_FOR_CV times or more."""
    return np.maximum.reduce(list(hits.values())) >= MIN_DETECTIONS_FOR_CV


def _target_met(cv: np.ndarray, hits: dict, target: float) -> bool:
    """Every tracked class has a cv at or below target (a NaN cv is above
    it)."""
    return bool((cv[_tracked(hits)] <= target).all())


def _chain_share(cv: np.ndarray, lam: np.ndarray, parts: np.ndarray,
                 kind_var: np.ndarray, hits: dict, n: dict) -> float:
    """Share of the next size-4 round for chains, the rest for tridents.

    The binding class b is the tracked class with the largest cv.  Kind k
    weighs w_k = (1 - lam_b, lam_b)[k]; where lam_b is undefined, 1 if
    the kind estimates b and 0 if not.  Each of its next experiments cuts
    b's variance by w_k^2 kind_var[k, b] / N_k.  Chains get their part of
    the two cuts, clamped to [MIN_SHARE, 1 - MIN_SHARE]; with no cut, or
    no class tracked, the round splits evenly.  parts and kind_var rows
    are chain, trident.
    """
    tracked = _tracked(hits)
    if not tracked.any():
        return 0.5
    b = int(np.argmax(np.where(tracked, cv, -np.inf)))
    w = parts[:, b] if math.isnan(lam[b]) else np.array([1 - lam[b], lam[b]])
    cut = w * w * kind_var[:, b] / [n[FrameKind.CHAIN], n[FrameKind.TRIDENT]]
    if not cut.any():
        return 0.5
    return float(min(max(cut[0] / cut.sum(), MIN_SHARE), 1 - MIN_SHARE))


def _round_parts(share: float, remaining: dict, left: int) -> dict:
    """Experiments of each drawing kind, the keys of remaining, in a round:
    CHUNK per kind, or what is left in all.  One kind draws all of it.
    Chains and tridents split it, with round(total * share) for chains; a
    kind takes at most what it has left, and the other kind takes up its
    shortfall.  At share 0.5 the rounds of a budget add up to its even
    split, rounded half to even."""
    total = min(CHUNK * len(remaining), left)
    if len(remaining) == 1:
        return dict.fromkeys(remaining, total)
    chain = min(round(total * share), remaining[FrameKind.CHAIN])
    trident = min(total - chain, remaining[FrameKind.TRIDENT])
    chain = min(total - trident, remaining[FrameKind.CHAIN])
    return {FrameKind.CHAIN: chain, FrameKind.TRIDENT: trident}


def run_sampled_census(g: Graph, size: int, budget: int | None = None,
                       target_cv: float | None = None, *,
                       seed: int) -> CensusReport:
    """Sampled census of all connected motif classes of one size.

    The run goes in rounds, each followed by the stop rule.  _round_parts
    plans every round: CHUNK (10,000) experiments per drawing kind, or what
    is left in all.  Two kinds split it evenly, except from round 2 of a
    run with a target on: there chains get the share _chain_share gives
    them, at least MIN_SHARE (0.1) and at most 1 - MIN_SHARE, in
    proportion to how much each kind cuts the squared CV of the class
    furthest from the target.  So, beyond the mixing weight lam, the split
    too "minimizes the value of the coefficient of variation", as the
    paper puts it.  The split depends only on the tallies, so a seeded run
    still reproduces.  A kind draws its part of a round, at most 2 * CHUNK
    frames, as one batch.

    Args:
        g: input graph.
        size: motif size, 3 or 4.
        budget: total number of experiments across frame kinds, at most
            2**63 - 1.  Without a target, size 4 gives chains half of it,
            rounded half to even, and tridents the rest; with a target it
            caps the two kinds' total.  May be omitted when target_cv is
            given.
        target_cv: stop after the first round in which every class
            detected at least 5 times has cv at or below this value, a
            positive and finite real number, reported as a float.  Without
            a budget, each kind draws at most its frame total; a target
            still unmet there raises ValueError.
        seed: nonnegative root seed; each frame kind draws from its own
            stream of it, so a run is reproducible given the same arguments.

    Returns:
        CensusReport with per-class estimates and per-experiment tallies.
    """
    t0 = time.perf_counter()
    # the table checks the size: 3 or 4, and a numpy integer becomes an int
    table = arrcode_table(size, g.directed)
    size = table.size
    # numpy integers become ints, which JSON takes; a budget of 2.0 is refused
    try:
        seed = operator.index(seed)
        budget = budget if budget is None else operator.index(budget)
    except TypeError:
        pass  # refused below
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if budget is None and target_cv is None:
        raise ValueError("need a sample budget or a target CV")
    if budget is not None and not isinstance(budget, int):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget is not None and not 0 <= budget <= _INT64_MAX:
        raise ValueError("budget must be between 0 and 2**63 - 1")
    if target_cv is not None:
        # a numpy float becomes a float, which JSON takes
        if (not isinstance(target_cv, numbers.Real)
                or not 0 < target_cv < math.inf):
            raise ValueError(f"target CV must be positive and finite, "
                             f"got {target_cv!r}")
        target_cv = float(target_cv)

    totals = frame_totals(g)
    kinds = kinds_for_size(size)
    active = tuple(k for k in kinds if totals.for_kind(k) > 0)
    if not active:
        raise ValueError(f"graph has no size-{size} frames to sample")
    koefs = koef_table(size, g.directed)
    samplers = {k: frame_sampler(g, k) for k in active}
    # the pair table's build sets the census's peak memory: build it
    # before the first draw, so no batch is alive meanwhile
    _pair_table(g)
    # the tally: experiments and per-class detections, per kind
    n = dict.fromkeys(kinds, 0)
    hits = {k: np.zeros(table.n_classes, dtype=np.int64) for k in kinds}

    # experiments left per kind, and in all; without a budget a kind stops
    # at its frame total, where an exact census costs no more.  Two kinds
    # split each round, so a budget caps only the total
    if budget is None:
        remaining = {k: totals.for_kind(k) for k in active}
    else:
        remaining = dict.fromkeys(active, budget)
    left = sum(remaining.values()) if budget is None else budget

    # one stream per kind: spawn key (0, i) is child i of child 0 of
    # SeedSequence(seed), as spawn() would make it.  Kind slots are fixed
    # by size so streams do not shift when a kind is inactive
    rngs = {k: np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(0, kinds.index(k)))) for k in active}
    stop_reason = "budget"
    share = 0.5
    while left:
        for kind, m in _round_parts(share, remaining, left).items():
            if not m:
                continue
            remaining[kind] -= m
            left -= m
            n[kind] += m
            verts, arcs = samplers[kind].sample_batch(
                rngs[kind], m).open_frames
            codes = induced_subgraph_codes(g, verts, kind=kind, arcs=arcs)
            # no name keeps a batch's frames alive into the next draw
            del verts, arcs
            hits[kind] += np.bincount(table.entries[codes],
                                      minlength=table.n_classes)
        if target_cv is not None:
            _, _, cv, lam, kind_parts, kind_var = _build_estimates(
                koefs, totals, n, hits)
            if _target_met(cv, hits, target_cv):
                stop_reason = "target_cv"
                break
            if len(active) == 2 and left:
                share = _chain_share(cv, lam, kind_parts, kind_var, hits, n)
    if budget is None and stop_reason == "budget":
        raise ValueError(
            f"target CV {target_cv} not reached after {sum(n.values())} "
            f"experiments, as many as the graph has frames; count exactly "
            f"instead (motif-census exact)")

    n_hat, variance, cv, lam, parts, _ = _build_estimates(koefs, totals, n,
                                                          hits)
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
        "koef": {k.value: int(koefs[k][cid]) for k in kinds},
    } for cid in np.flatnonzero(parts.any(axis=0)).tolist()]

    return CensusReport(
        size=size, directed=g.directed, seed=seed, budget=budget,
        target_cv=target_cv, n_vertices=g.n_vertices, n_edges=g.n_edges,
        frame_totals=totals, experiments=experiments, motifs=motifs,
        stop_reason=stop_reason, elapsed=time.perf_counter() - t0)
