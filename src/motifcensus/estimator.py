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
observed plug-in values.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .canon import ArrcodeTable, arrcode_table
from .frames import (FrameKind, FrameTotals, KoefTable, frame_sampler,
                     frame_totals, kinds_for_size, koef_table)
from .graphs import Graph, induced_subgraph_codes

DEFAULT_BATCH_SIZE = 10_000
# classes detected fewer times than this are not held to the CV target
MIN_DETECTIONS_FOR_CV = 5


@dataclass
class SampleAccumulator:
    """Tally of one sampling experiment; merging sums component-wise."""

    frame_kind: FrameKind
    n_experiments: int
    detections: np.ndarray

    @classmethod
    def empty(cls, kind: FrameKind, n_classes: int) -> "SampleAccumulator":
        return cls(FrameKind(kind), 0, np.zeros(n_classes, dtype=np.int64))

    @property
    def degenerate(self) -> int:
        """Experiments that detected nothing (closed chains)."""
        return self.n_experiments - int(self.detections.sum())

    def merge(self, other: "SampleAccumulator") -> "SampleAccumulator":
        if other.frame_kind is not self.frame_kind:
            raise ValueError("cannot merge tallies of different frame kinds")
        if other.detections.size != self.detections.size:
            raise ValueError("cannot merge tallies over different tables")
        return SampleAccumulator(self.frame_kind,
                                 self.n_experiments + other.n_experiments,
                                 self.detections + other.detections)


@dataclass(frozen=True)
class MotifEstimate:
    class_id: int
    n_hat: float
    variance: float
    cv: float | None
    lam: float | None = None
    sources: tuple[FrameKind, ...] = ()


def _cv(n_hat: float, variance: float) -> float | None:
    if n_hat <= 0:
        return None
    return math.sqrt(variance) / n_hat


def single_estimate(acc: SampleAccumulator, totals: FrameTotals,
                    koefs: KoefTable, class_id: int) -> MotifEstimate:
    """Estimate one class from one experiment's tally."""
    kind = acc.frame_kind
    n_f = totals.for_kind(kind)
    k = koefs.koef(class_id, kind)
    if k == 0:
        raise ValueError(
            f"{kind.value} frames cannot detect class {class_id}")
    if acc.n_experiments == 0:
        raise ValueError("no experiments recorded")
    c = int(acc.detections[class_id])
    scale = n_f / (k * acc.n_experiments)
    n_hat = c * scale
    variance = scale * scale * c * (1.0 - c / acc.n_experiments)
    return MotifEstimate(class_id, float(n_hat), float(variance),
                         _cv(n_hat, variance), sources=(kind,))


def optimal_lambda(n_a: float, d_a: float, n_b: float, d_b: float) -> float:
    """Mixing weight minimizing the squared CV of the mixture.

    When the denominator vanishes the objective is flat in lam; ties break
    to 1/2, and a side that detected nothing (zero count, zero variance)
    gets no weight since the other side carries all the information.
    """
    if min(n_a, d_a, n_b, d_b) < 0:
        raise ValueError("counts and variances must be nonnegative")
    if n_a == 0 and n_b == 0:
        raise ValueError("both experiments report zero; nothing to weight")
    denom = n_a * d_b + n_b * d_a
    if denom == 0:
        if n_a == 0:
            return 1.0
        if n_b == 0:
            return 0.0
        return 0.5
    return min(1.0, max(0.0, n_b * d_a / denom))


def mixed_estimate(est_a: MotifEstimate, est_b: MotifEstimate) -> MotifEstimate:
    """Variance-optimal convex combination of two independent estimates."""
    if est_a.class_id != est_b.class_id:
        raise ValueError("estimates describe different classes")
    lam = optimal_lambda(est_a.n_hat, est_a.variance,
                         est_b.n_hat, est_b.variance)
    n_hat = est_a.n_hat + lam * (est_b.n_hat - est_a.n_hat)
    variance = (1.0 - lam) ** 2 * est_a.variance + lam ** 2 * est_b.variance
    return MotifEstimate(est_a.class_id, float(n_hat), float(variance),
                         _cv(n_hat, variance), lam=lam,
                         sources=est_a.sources + est_b.sources)


@dataclass
class CensusReport:
    """Sampled census result with everything needed to rebuild estimates."""

    size: int
    directed: bool
    seed: int
    workers: int
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
            "workers": self.workers,
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


def _build_estimates(size: int, table: ArrcodeTable, koefs: KoefTable,
                     totals: FrameTotals, accs: dict) -> list[MotifEstimate]:
    """Per connected class, combine whatever experiments can see it."""
    rows = []
    kinds = kinds_for_size(size)
    for cls in table.classes:
        if not cls.connected:
            continue
        parts = []
        for kind in kinds:
            if koefs.koef(cls.class_id, kind) == 0:
                continue
            if totals.for_kind(kind) == 0:
                # no frames of a kind that must span every instance:
                # the exact count is zero
                parts.append(MotifEstimate(cls.class_id, 0.0, 0.0, None,
                                           sources=(kind,)))
            elif kind in accs and accs[kind].n_experiments > 0:
                parts.append(single_estimate(accs[kind], totals, koefs,
                                             cls.class_id))
        if not parts:
            continue
        if len(parts) == 1:
            rows.append(parts[0])
            continue
        a, b = parts
        if a.n_hat == 0 and b.n_hat == 0:
            rows.append(MotifEstimate(cls.class_id, 0.0, 0.0, None,
                                      sources=a.sources + b.sources))
        else:
            rows.append(mixed_estimate(a, b))
    return rows


def _target_met(rows: list[MotifEstimate], accs: dict, target: float) -> bool:
    for est in rows:
        c_max = max((int(accs[k].detections[est.class_id])
                     for k in accs), default=0)
        if c_max >= MIN_DETECTIONS_FOR_CV:
            if est.cv is None or est.cv > target:
                return False
    return True


def run_sampled_census(g: Graph, size: int, budget: int | None = None,
                       target_cv: float | None = None, *, seed: int,
                       workers: int = 1,
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
            has cv at or below this value.
        seed: root seed; runs are reproducible given the same seed,
            workers and batch_size.
        workers: number of independent sample streams, merged
            deterministically.

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
    if target_cv is not None and target_cv <= 0:
        raise ValueError("target CV must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
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
    accs = {k: SampleAccumulator.empty(k, table.n_classes) for k in active}
    samplers = {k: frame_sampler(g, k) for k in active}

    # experiments left per kind; a target-CV run without a budget has no end
    if budget is None:
        remaining = dict.fromkeys(active, math.inf)
    elif len(active) == 1:
        remaining = {active[0]: budget}
    else:
        chain_budget = int(round(budget * chain_share))
        remaining = {FrameKind.CHAIN: chain_budget,
                     FrameKind.TRIDENT: budget - chain_budget}

    # one stream per (worker, kind), built on first use: spawn key (w, i)
    # is child i of child w of SeedSequence(seed), as spawn() would make
    # it.  Kind slots are fixed by size so streams do not shift when a
    # kind is inactive
    rngs = {}

    def stream(kind: FrameKind, w: int) -> np.random.Generator:
        if (kind, w) not in rngs:
            seq = np.random.SeedSequence(seed,
                                         spawn_key=(w, kinds.index(kind)))
            rngs[(kind, w)] = np.random.default_rng(seq)
        return rngs[(kind, w)]

    stop_reason = "budget"
    while True:
        drew_any = False
        for kind in active:
            chunk = min(batch_size, remaining[kind])
            if chunk <= 0:
                continue
            drew_any = True
            remaining[kind] -= chunk
            base, extra = divmod(chunk, workers)
            acc = accs[kind]
            for w in range(min(workers, chunk)):
                m = base + (1 if w < extra else 0)
                batch = samplers[kind].sample_batch(stream(kind, w), m)
                acc.n_experiments += m
                codes = induced_subgraph_codes(
                    g, batch.vertices[:, ~batch.degenerate])
                acc.detections += np.bincount(table.entries[codes],
                                              minlength=table.n_classes)
        if not drew_any:
            break
        if target_cv is not None:
            rows = _build_estimates(size, table, koefs, totals, accs)
            if _target_met(rows, accs, target_cv):
                stop_reason = "target_cv"
                break

    rows = _build_estimates(size, table, koefs, totals, accs)

    experiments = {}
    for kind in kinds:
        acc = accs.get(kind)
        entry = {"n_experiments": acc.n_experiments if acc else 0,
                 "frame_total": totals.for_kind(kind)}
        if kind is FrameKind.CHAIN:
            entry["degenerate"] = acc.degenerate if acc else 0
        experiments[kind.value] = entry

    motifs = []
    for est in rows:
        cls = table.classes[est.class_id]
        detections = {}
        koef_row = {}
        for kind in kinds:
            koef_row[kind.value] = koefs.koef(est.class_id, kind)
            acc = accs.get(kind)
            detections[kind.value] = (int(acc.detections[est.class_id])
                                      if acc else 0)
        motifs.append({
            "class_id": est.class_id,
            "canonical_code": cls.canonical_code,
            "n_hat": est.n_hat,
            "variance": est.variance,
            "cv": est.cv,
            "lambda": est.lam,
            "sources": [k.value for k in est.sources],
            "detections": detections,
            "koef": koef_row,
        })

    return CensusReport(
        size=size, directed=g.directed, seed=seed, workers=workers,
        budget=budget, target_cv=target_cv, batch_size=batch_size,
        chain_share=chain_share, n_vertices=g.n_vertices, n_edges=g.n_edges,
        frame_totals=totals, experiments=experiments, motifs=motifs,
        stop_reason=stop_reason, elapsed=time.perf_counter() - t0)
