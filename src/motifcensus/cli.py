"""Command-line interface for exact and sampled motif censuses.

Four subcommands: exact (census over every frame), sample (frame-sampling
census), frames (exact frame totals), tables (dump the class and
containment tables).  Reports go to stdout or --output as JSON or CSV,
and every report echoes the full run configuration.  JSON carries the
whole report.  CSV carries the configuration and the command's scalars
(stop reason, experiments and frame totals per kind) as "# key=value"
lines, then one row per class, or per kind for frames.  It leaves out the
load report (graph), the sampled census's vertex and edge counts and the
totals of kinds it does not draw, each class's sources, the exact total
and elapsed.  tables writes JSON only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .canon import arrcode_table
from .estimator import run_sampled_census
from .exact import exact_census
from .frames import frame_totals, kinds_for_size, koef_table
from .graphs import load_graph

DEFAULT_SEED = 1729


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motif-census",
        description="Count 3- and 4-vertex motifs, exactly or by frame "
                    "sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_format=True):
        p.add_argument("--input", "-i", required=True,
                       help="edge-list file, one vertex pair per line")
        p.add_argument("--directed", action="store_true",
                       help="treat pairs as arcs")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json", help="report format")
        p.add_argument("--output", "-o", default=None,
                       help="write the report here instead of stdout")

    p_exact = sub.add_parser("exact", help="exact census over every frame")
    add_io(p_exact)
    p_exact.add_argument("--size", type=int, choices=(3, 4), required=True)
    p_exact.set_defaults(func=_cmd_exact)

    p_sample = sub.add_parser("sample", help="frame-sampling census")
    add_io(p_sample)
    p_sample.add_argument("--size", type=int, choices=(3, 4), required=True)
    p_sample.add_argument("--samples", type=int, default=None,
                          help="total experiment budget, at most 2**63 - 1; "
                               "without --target-cv, size 4 splits it "
                               "evenly between chains and tridents; with "
                               "it, the rounds split by where the CV falls "
                               "most, and the budget caps their total")
    p_sample.add_argument("--target-cv", type=float, default=None,
                          help="stop once well-observed classes reach this "
                               "coefficient of variation (positive and "
                               "finite); without --samples, "
                               "each frame kind draws at most its frame "
                               "total and a target unmet there fails")
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED,
                          help=f"nonnegative RNG seed "
                               f"(default {DEFAULT_SEED})")
    p_sample.set_defaults(func=_cmd_sample)

    p_frames = sub.add_parser("frames", help="exact frame totals")
    add_io(p_frames)
    p_frames.set_defaults(func=_cmd_frames)

    p_tables = sub.add_parser("tables",
                              help="dump class and containment tables")
    p_tables.add_argument("--output", "-o", default=None)
    p_tables.set_defaults(func=_cmd_tables)

    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    def get(name, default=None):
        return getattr(args, name, default)

    return {
        "command": args.command,
        "input": get("input"),
        "directed": bool(get("directed", False)),
        "size": get("size"),
        "samples": get("samples"),
        "target_cv": get("target_cv"),
        "seed": get("seed"),
        "format": get("format", "json"),
        "output": get("output"),
    }


def _emit(args: argparse.Namespace, payload: dict, header=(), rows=(),
          comments=None) -> int:
    """Write one report to stdout or --output.  JSON holds the config and
    the payload; CSV holds the flattened config and the comments as sorted
    "# key=value" lines, then the header and rows."""
    config = _config_dict(args)
    if getattr(args, "format", "json") == "json":
        text = json.dumps({"config": config, **payload}, sort_keys=True,
                          indent=2) + "\n"
    else:
        lines = {k: ("" if v is None else v) for k, v in config.items()}
        lines.update(comments or {})
        buf = io.StringIO()
        for key in sorted(lines):
            buf.write(f"# {key}={lines[key]}\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row]
                         for row in rows)
        text = buf.getvalue()
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = load_graph(args.input, directed=args.directed)
    totals = frame_totals(g)
    walked = {kind.value: totals.for_kind(kind)
              for kind in kinds_for_size(args.size)}
    # one classification per frame: say the cost before paying it
    print("exact census walks " + ", ".join(
        f"{n} {kind} frames" for kind, n in walked.items()), file=sys.stderr)
    census = exact_census(g, args.size)
    table = arrcode_table(args.size, g.directed)
    header = ["class_id", "canonical_code", "count"]
    motifs = [{"class_id": cls.class_id,
               "canonical_code": cls.canonical_code,
               "count": census.counts[cls.class_id]}
              for cls in table.classes if cls.connected]
    payload = {
        "graph": g.load_report.to_dict(),
        "size": args.size,
        "directed": g.directed,
        "total": census.total(),
        "frame_totals": walked,
        "motifs": motifs,
        "elapsed": census.elapsed,
    }
    return _emit(args, payload, header,
                 [[m[key] for key in header] for m in motifs],
                 {f"frame_total_{kind}": n for kind, n in walked.items()})


def _cmd_sample(args: argparse.Namespace) -> int:
    g = load_graph(args.input, directed=args.directed)
    report = run_sampled_census(
        g, args.size, budget=args.samples, target_cv=args.target_cv,
        seed=args.seed)
    kinds = [k.value for k in kinds_for_size(args.size)]
    columns = ["class_id", "canonical_code", "n_hat", "variance", "cv",
               "lambda"]
    rows = [[m[key] for key in columns]
            + [m["detections"][k] for k in kinds]
            + [m["koef"][k] for k in kinds] for m in report.motifs]
    header = (columns + [f"detections_{k}" for k in kinds]
              + [f"koef_{k}" for k in kinds])
    comments = {f"{name}_{kind}": value
                for kind, entry in report.experiments.items()
                for name, value in entry.items()}
    comments["stop_reason"] = report.stop_reason
    return _emit(args, {"graph": g.load_report.to_dict(), **report.to_dict()},
                 header, rows, comments)


def _cmd_frames(args: argparse.Namespace) -> int:
    g = load_graph(args.input, directed=args.directed)
    totals = frame_totals(g).to_dict()
    return _emit(args, {"graph": g.load_report.to_dict(),
                        "frame_totals": totals},
                 ["kind", "count"], list(totals.items()))


def _cmd_tables(args: argparse.Namespace) -> int:
    families = [(3, False), (3, True), (4, False), (4, True)]
    return _emit(args, {
        "arrcode_tables": [arrcode_table(s, d).to_dict() for s, d in families],
        "koef_tables": [koef_table(s, d).to_dict() for s, d in families],
    })


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
