"""One benchmark census, in a fresh process, the way the CLI runs it.

    python3 child.py SPEC.json

SPEC names the edge-list file, the census steps, the seed and where to
write.  The child calls only public library functions: load_graph, then
run_sampled_census or exact_census per step, then writes each report as
the CLI would.  Before the first experiment it warms what the census
would otherwise build lazily (frame totals, samplers, class and
containment tables), so set-up and census time separate cleanly.

Spans around the child's own calls are always recorded; they cost a few
clock reads.  With "trace" set, the child also wraps the library entry
points the census loop calls, so per-layer self times can be computed.
Spans are kept in memory and written once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import motifcensus
from motifcensus import (arrcode_table, estimator, exact, exact_census,
                         frame_sampler, frame_totals, kinds_for_size,
                         koef_table, load_graph, pair_slots,
                         run_sampled_census)


class Tracer:
    """Spans as [name, start, end, parent index], plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced


def install_wrappers(tracer: Tracer, samplers: dict) -> None:
    """Wrap the calls the census loops make into the library's layers."""

    def classified(tag):
        def on_result(args, codes):
            verts = args[1]
            k, frames = verts.shape
            tracer.count(f"{tag}.frames", frames)
            tracer.count(f"{tag}.probes",
                         frames * len(pair_slots(k, args[0].directed)))
        return on_result

    estimator.induced_subgraph_codes = tracer.wrap(
        "classify.codes", estimator.induced_subgraph_codes,
        classified("sampled"))
    exact.induced_subgraph_codes = tracer.wrap(
        "classify.codes", exact.induced_subgraph_codes, classified("exact"))

    for name in ("_build_estimates", "_target_met"):
        if hasattr(estimator, name):
            setattr(estimator, name, tracer.wrap(
                "estimator.estimate", getattr(estimator, name)))

    for (size, kind), sampler in samplers.items():
        def on_batch(args, batch, kind=kind):
            tracer.count("frames.drawn", batch.size)
            tracer.count("frames.degenerate", int(batch.degenerate.sum()))
            tracer.count(f"batches.{kind.value}", 1)
        # an instance attribute shadows the method for every caller that
        # gets this sampler from frame_sampler's per-graph cache
        sampler.sample_batch = tracer.wrap(
            "frames.draw", sampler.sample_batch, on_batch)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    directed = spec["directed"]
    steps = spec["steps"]
    sampled = [s for s in steps if s["mode"] == "sample"]

    samplers = {}
    with tracer.span("setup"):
        with tracer.span("graphs.load"):
            g = load_graph(spec["graph"], directed=directed)
        with tracer.span("canon.tables"):
            for step in steps:
                arrcode_table(step["size"], directed)
            for step in sampled:
                koef_table(step["size"], directed)
        if sampled:
            with tracer.span("frames.setup"):
                totals = frame_totals(g)
                for step in sampled:
                    for kind in kinds_for_size(step["size"]):
                        if totals.for_kind(kind) > 0:
                            samplers[(step["size"], kind)] = frame_sampler(
                                g, kind)

    if spec["trace"]:
        install_wrappers(tracer, samplers)

    rounds = 0
    for i, step in enumerate(steps):
        if step["mode"] == "sample":
            before = dict(tracer.counters)
            with tracer.span("estimator.census"):
                report = run_sampled_census(
                    g, step["size"], budget=step["budget"],
                    target_cv=step.get("target_cv"), seed=spec["seed"])
            rounds += max((v - before.get(k, 0)
                           for k, v in tracer.counters.items()
                           if k.startswith("batches.")), default=0)
            with tracer.span("estimator.emit"):
                payload = {"graph": g.load_report.to_dict()}
                payload.update(report.to_dict())
                _write_json(payload, f"{spec['report']}.{i}.json")
        else:
            with tracer.span("exact.census"):
                census = exact_census(g, step["size"])
            with tracer.span("estimator.emit"):
                table = arrcode_table(step["size"], directed)
                payload = {
                    "graph": g.load_report.to_dict(),
                    "size": step["size"],
                    "directed": g.directed,
                    "total": census.total(),
                    "motifs": [{"class_id": c.class_id,
                                "canonical_code": c.canonical_code,
                                "count": census.counts[c.class_id]}
                               for c in table.classes if c.connected],
                    "elapsed": census.elapsed,
                }
                _write_json(payload, f"{spec['report']}.{i}.json")
    tracer.count("estimator.rounds", rounds)

    with open(spec["timing"], "w") as fh:
        json.dump({"library": motifcensus.__file__, "spans": tracer.spans,
                   "counters": tracer.counters,
                   "peak_rss_kb": peak_rss_kb()}, fh)
    return 0


def peak_rss_kb() -> int:
    """High-water resident set of this process since its exec.

    getrusage's ru_maxrss would not do: Linux carries the parent's peak
    across fork and exec into it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
