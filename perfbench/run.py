"""Motif-census benchmark: time to a target CV, directed sampled
classification and exact enumeration, each checked against an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  A run generates its graphs from SEED, each with its own census
seed, and computes their oracle facts.  Then it censuses the graphs in
turn, again and again, until S seconds are used: each repeat runs in a
fresh child process (perfbench/child.py), and the parent checks the
reports it writes.  Generation and checks are outside every timed
region.  Children run one at a time.

With --trace 0 the last stdout line carries the end-to-end metrics, each
the interquartile mean over a graph's repeats, averaged over the run's
graphs.  With --trace 1 each repeat runs once untraced and once traced,
and the line carries the per-layer metrics (the same statistic over the
traced repeats) plus the tracing overhead.
Every metric is listed in BENCHMARK.json and described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from gen import chung_lu, gnm, write_edge_list
from oracle import check_exact, check_sampled, graph_facts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# "graphs" is how many graphs, each with its own census seed, a run
# censuses in turn; see typical() for how their repeats are summarised
WORKLOADS = {
    # time to a target CV on a hub-heavy graph: the only workload with
    # per-round estimate passes and the stop rule.  The experiments needed
    # vary by about 10 % from one graph and seed to the next, so a run
    # averages over four
    "plaw-u4-cv": {
        "graph": {"kind": "chung_lu", "n": 50_000, "lines": 250_000,
                  "gamma": 2.5},
        "graphs": 4,
        "directed": False,
        "steps": [{"mode": "sample", "size": 4, "target_cv": 0.05,
                   "budget": 10_000_000}],
    },
    # fixed budgets, no hubs: directed classification dominates, and it
    # is the only workload that draws forks
    "gnm-d34-budget": {
        "graph": {"kind": "gnm", "n": 50_000, "m": 250_000},
        "graphs": 1,
        "directed": True,
        "steps": [{"mode": "sample", "size": 3, "budget": 500_000},
                  {"mode": "sample", "size": 4, "budget": 500_000}],
    },
    # recursive enumeration with parse and samplers near zero; no hubs,
    # since a hub-heavy graph of this size takes minutes
    "gnm-u34-exact": {
        "graph": {"kind": "gnm", "n": 3_000, "m": 15_000},
        "graphs": 1,
        "directed": False,
        "steps": [{"mode": "exact", "size": 3}, {"mode": "exact", "size": 4}],
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "census_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    "graphs.load_s": "s", "graphs.load_ns_per_line": "ns",
    "canon.tables_s": "s",
    "frames.setup_s": "s", "frames.draw_s": "s",
    "frames.draw_ns_per_frame": "ns", "frames.drawn": "count",
    "frames.degenerate": "count", "frames.useful_ratio": "ratio",
    "classify.codes_s": "s", "classify.ns_per_frame": "ns",
    "classify.frames": "count", "classify.probes": "count",
    "estimator.estimate_s": "s", "estimator.tally_self_s": "s",
    "estimator.rounds": "count", "estimator.experiments": "count",
    "estimator.emit_s": "s",
    "exact.enumerate_self_s": "s", "exact.sets": "count",
    "exact.ns_per_set": "ns",
    "cli.startup_s": "s", "trace.overhead_frac": "ratio",
}
CENSUS_SPANS = ("estimator.census", "exact.census")
CHILD_TIMEOUT_S = 90.0


def scaled(workload: dict, scale: float) -> dict:
    """The workload with graph sizes and budgets multiplied by scale."""
    out = json.loads(json.dumps(workload))
    for key in ("n", "m", "lines"):
        if key in out["graph"]:
            out["graph"][key] = max(8, int(out["graph"][key] * scale))
    for step in out["steps"]:
        if "budget" in step and "target_cv" not in step:
            step["budget"] = max(1, int(step["budget"] * scale))
    return out


def graph_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_pairs(graph: dict, directed: bool, seed: int) -> np.ndarray:
    if graph["kind"] == "chung_lu":
        return chung_lu(graph["n"], graph["lines"], graph["gamma"], seed)
    return gnm(graph["n"], graph["m"], seed, directed)


def spawn(spec: dict, work: Path, tag: str) -> tuple[int, float]:
    """Run one child to its end; return (exit code, wall seconds)."""
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    with open(work / f"{tag}.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # a blocking wait keeps the clock exact; the timer ends a hung child
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    if code != 0:
        tail = (work / f"{tag}.stderr").read_text()[-2000:]
        print(f"child {tag} exited {code}:\n{tail}", file=sys.stderr)
    return code, wall


def own_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans: list) -> dict:
    """Total self time per span name."""
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own_times(spans)):
        out[name] = out.get(name, 0.0) + t
    return out


def durations(spans: list) -> dict:
    out: dict[str, float] = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def trace_failures(spans: list) -> list[str]:
    """Spans must nest, and the self times under each census span must
    add up to that span's duration."""
    fails = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                fails.append(f"span {i} {name} escapes its parent")
    own = own_times(spans)
    for name, start, end, _ in spans:
        if name not in CENSUS_SPANS:
            continue
        # spans nest, so the ones inside this interval are its subtree
        under = sum(t for (_, s, e, _), t in zip(spans, own)
                    if start <= s and e <= end)
        if abs(under - (end - start)) > 1e-6 * max(1.0, end - start):
            fails.append(f"self times under {name} sum to {under}, "
                         f"span is {end - start}")
    return fails


def run_child(workload: dict, facts: dict, graph_path: Path, seed: int,
              work: Path, tag: str, trace: bool) -> dict:
    """One child run, checked; returns its timings, or its failures."""
    spec = {"graph": str(graph_path), "directed": workload["directed"],
            "steps": workload["steps"], "seed": seed, "trace": trace,
            "report": str(work / f"{tag}.report"),
            "timing": str(work / f"{tag}.timing.json")}
    code, wall = spawn(spec, work, tag)
    steps = workload["steps"]
    out = {"attempted": len(steps), "failed": len(steps), "wall_s": wall,
           "fails": []}
    if code != 0:
        out["fails"].append(f"exit code {code}")
        return out
    timing = json.loads(Path(spec["timing"]).read_text())
    if not Path(timing["library"]).resolve().is_relative_to(ROOT / "src"):
        out["fails"].append(f"child imported {timing['library']}, "
                            f"not the library under {ROOT / 'src'}")
        return out
    failed = 0
    experiments = 0
    for i, step in enumerate(steps):
        report = json.loads(Path(f"{spec['report']}.{i}.json").read_text())
        if step["mode"] == "sample":
            fails = check_sampled(report, facts, step)
            experiments += sum(e["n_experiments"]
                               for e in report["experiments"].values())
        else:
            fails = check_exact(report, facts)
        out["fails"] += [f"step {i}: {f}" for f in fails]
        failed += bool(fails)
    spans = timing["spans"]
    if trace:
        fails = trace_failures(spans)
        out["fails"] += fails
        failed = len(steps) if fails else failed
    total = durations(spans)
    out.update(failed=failed, spans=spans, counters=timing["counters"],
               experiments=experiments,
               peak_rss_mb=timing["peak_rss_kb"] / 1024.0,
               setup_s=total["setup"],
               census_s=sum(total.get(n, 0.0) for n in CENSUS_SPANS),
               emit_s=total.get("estimator.emit", 0.0))
    return out


def layer_metrics(run: dict, lines: int) -> dict:
    """Per-layer metrics of one traced child run."""
    own = self_times(run["spans"])
    total = durations(run["spans"])
    c = run["counters"]

    def per(num, den, unit=1e9):
        return num * unit / den if den else 0.0

    drawn = c.get("frames.drawn", 0)
    frames = c.get("sampled.frames", 0) + c.get("exact.frames", 0)
    sets = c.get("exact.frames", 0)
    return {
        "graphs.load_s": own.get("graphs.load", 0.0),
        "graphs.load_ns_per_line": per(own.get("graphs.load", 0.0), lines),
        "canon.tables_s": own.get("canon.tables", 0.0),
        "frames.setup_s": own.get("frames.setup", 0.0),
        "frames.draw_s": own.get("frames.draw", 0.0),
        "frames.draw_ns_per_frame": per(own.get("frames.draw", 0.0), drawn),
        "frames.drawn": drawn,
        "frames.degenerate": c.get("frames.degenerate", 0),
        "frames.useful_ratio": per(drawn - c.get("frames.degenerate", 0),
                                   drawn, 1.0),
        "classify.codes_s": own.get("classify.codes", 0.0),
        "classify.ns_per_frame": per(own.get("classify.codes", 0.0), frames),
        "classify.frames": frames,
        "classify.probes": (c.get("sampled.probes", 0)
                            + c.get("exact.probes", 0)),
        "estimator.estimate_s": own.get("estimator.estimate", 0.0),
        "estimator.tally_self_s": own.get("estimator.census", 0.0),
        "estimator.rounds": c.get("estimator.rounds", 0),
        "estimator.experiments": run["experiments"],
        "estimator.emit_s": run["emit_s"],
        "exact.enumerate_self_s": own.get("exact.census", 0.0),
        "exact.sets": sets,
        "exact.ns_per_set": per(total.get("exact.census", 0.0), sets),
        "cli.startup_s": (run["wall_s"] - run["setup_s"] - run["census_s"]
                          - run["emit_s"]),
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of what is left after dropping the lowest and the highest
    quarter of the values (nothing is dropped from fewer than four)."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def typical(runs_per_graph: list[list[dict]], names) -> dict:
    """Mean over graphs of each metric's interquartile mean over that
    graph's repeats.

    Repeats of one graph do the same work; what differs between them is
    interference from the rest of the machine, whose speed on a shared
    host swings by tens of percent over seconds to minutes.  The
    interquartile mean drops the repeats caught at either extreme of
    those swings and averages the rest.  The mean over graphs smooths
    what differs from one graph and census seed to the next.
    """
    per_graph = [{k: interquartile_mean([r[k] for r in runs]) for k in names}
                 for runs in runs_per_graph if runs]
    return {k: (float(statistics.fmean(g[k] for g in per_graph))
                if per_graph else 0.0) for k in names}


def run_workload(name: str, args, work: Path) -> dict:
    workload = scaled(WORKLOADS[name], args.scale)
    started = time.perf_counter()
    graphs = []
    for j in range(workload["graphs"]):
        seed = graph_seed(args.seed, j)
        pairs = make_pairs(workload["graph"], workload["directed"], seed)
        path = work / f"{name}.{j}.txt"
        write_edge_list(pairs, path)
        graphs.append({"seed": seed, "path": path,
                       "facts": graph_facts(pairs), "plain": [],
                       "traced": []})
        del pairs
    attempted = failed = 0
    longest = 0.0
    index = 0
    while True:
        t_iter = time.perf_counter()
        graph = graphs[index % len(graphs)]
        facts = graph["facts"]
        # alternate which side runs first, so drift does not bias overhead
        order = [False, True] if index % 2 == 0 else [True, False]
        for trace in (order if args.trace else [False]):
            tag = f"{name}.{index}.{'traced' if trace else 'plain'}"
            run = run_child(workload, facts, graph["path"], graph["seed"],
                               work, tag, trace)
            attempted += run["attempted"]
            failed += run["failed"]
            for f in run["fails"]:
                print(f"FAIL {tag}: {f}", file=sys.stderr)
            if run["failed"]:
                continue
            if trace:
                row = layer_metrics(run, facts["lines"])
                row["census_s"] = run["census_s"]
                graph["traced"].append(row)
            else:
                graph["plain"].append(run)
                print(f"repeat {index} (graph {index % len(graphs)}): "
                      + " ".join(f"{k} {run[k]:.4f}" for k in
                                 ("wall_s", "setup_s", "census_s",
                                  "peak_rss_mb")),
                      file=sys.stderr)
        index += 1
        longest = max(longest, time.perf_counter() - t_iter)
        # every graph runs at least once, then no repeat may overrun
        if (index >= len(graphs)
                and time.perf_counter() - started + longest > args.seconds):
            break
    for graph in graphs:
        graph["path"].unlink()

    plain = [g["plain"] for g in graphs]
    e2e = typical(plain, [k for k in END_TO_END if k != "ok_frac"])
    e2e["ok_frac"] = (attempted - failed) / attempted
    result = {"workload": name, "graphs": len(graphs), "repeats": index,
              "attempted": attempted, "failed": failed, "end_to_end": e2e}
    if args.trace:
        layers = typical([g["traced"] for g in graphs],
                         [k for k in PER_LAYER if k != "trace.overhead_frac"]
                         + ["census_s"])
        traced_census = layers.pop("census_s")
        layers["trace.overhead_frac"] = (
            traced_census / e2e["census_s"] - 1.0
            if traced_census and e2e["census_s"] else 0.0)
        result["per_layer"] = layers
    return result


def print_table(result: dict) -> None:
    print(f"# {result['workload']}: {result['repeats']} repeats "
          f"over {result['graphs']} graphs, "
          f"{result['attempted']} census operations, "
          f"{result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f})")
    for group, units in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        for key, value in result.get(group, {}).items():
            print(f"{key:28s} {value:16.6f} {units[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply graph sizes and budgets (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "motifcensus" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'motifcensus'}; run "
              "from the root of a motifcensus checkout", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        names = list(WORKLOADS) if args.workload == "all" else [
            args.workload]
        results = [run_workload(name, args, work) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for result in results:
        print_table(result)
    group, units = (("per_layer", PER_LAYER) if args.trace
                    else ("end_to_end", END_TO_END))
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}/{k}" if prefix else k):
               {"value": v, "unit": units[k]}
               for r in results for k, v in r[group].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
