"""Command-line interface for exact and sampled motif censuses.

Four subcommands: exact (census over every frame), sample (frame-sampling
census), frames (exact frame totals), tables (dump the class and
containment tables).  Reports go to stdout or --output as JSON or CSV;
both formats carry the same numbers, and every report echoes the full run
configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .canon import arrcode_table
from .estimator import DEFAULT_BATCH_SIZE, run_sampled_census
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
                          help="total experiment budget")
    p_sample.add_argument("--target-cv", type=float, default=None,
                          help="stop once well-observed classes reach this "
                               "coefficient of variation (positive and "
                               "finite); without --samples, "
                               "each frame kind draws at most its frame "
                               "total and a target unmet there fails")
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED,
                          help=f"RNG seed (default {DEFAULT_SEED})")
    p_sample.add_argument("--batch", type=int, default=DEFAULT_BATCH_SIZE,
                          help="experiments per frame kind between two "
                               "checks of --target-cv")
    p_sample.add_argument("--chain-share", type=float, default=0.5,
                          help="fraction of the budget spent on chains "
                               "(size 4 only)")
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
        "batch": get("batch"),
        "chain_share": get("chain_share"),
        "format": get("format", "json"),
        "output": get("output"),
    }


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _emit_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(payload, sort_keys=True, indent=2), path)


def _emit_csv(comments: dict, header: list, rows: list,
              path: str | None) -> None:
    buf = io.StringIO()
    for key in sorted(comments):
        buf.write(f"# {key}={comments[key]}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    _write_text(buf.getvalue(), path)


def _flat_config(config: dict) -> dict:
    return {k: ("" if v is None else v) for k, v in config.items()}


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
    config = _config_dict(args)
    motifs = [{"class_id": cls.class_id,
               "canonical_code": cls.canonical_code,
               "count": census.counts[cls.class_id]}
              for cls in table.classes if cls.connected]
    if args.format == "json":
        payload = {
            "config": config,
            "graph": g.load_report.to_dict(),
            "size": args.size,
            "directed": g.directed,
            "total": census.total(),
            "frame_totals": walked,
            "motifs": motifs,
            "elapsed": census.elapsed,
        }
        _emit_json(payload, args.output)
    else:
        rows = [[m["class_id"], m["canonical_code"], m["count"]]
                for m in motifs]
        comments = _flat_config(config)
        for kind, n in walked.items():
            comments[f"frame_total_{kind}"] = n
        _emit_csv(comments, ["class_id", "canonical_code", "count"], rows,
                  args.output)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    g = load_graph(args.input, directed=args.directed)
    report = run_sampled_census(
        g, args.size, budget=args.samples, target_cv=args.target_cv,
        seed=args.seed, batch_size=args.batch, chain_share=args.chain_share)
    config = _config_dict(args)
    if args.format == "json":
        payload = {"config": config, "graph": g.load_report.to_dict()}
        payload.update(report.to_dict())
        _emit_json(payload, args.output)
    else:
        kinds = [k.value for k in kinds_for_size(args.size)]
        header = ["class_id", "canonical_code", "n_hat", "variance", "cv",
                  "lambda"]
        header += [f"detections_{k}" for k in kinds]
        header += [f"koef_{k}" for k in kinds]
        rows = []
        for m in report.motifs:
            row = [m["class_id"], m["canonical_code"], m["n_hat"],
                   m["variance"], m["cv"], m["lambda"]]
            row += [m["detections"][k] for k in kinds]
            row += [m["koef"][k] for k in kinds]
            rows.append(row)
        comments = _flat_config(config)
        comments["stop_reason"] = report.stop_reason
        for kind, entry in report.experiments.items():
            comments[f"n_experiments_{kind}"] = entry["n_experiments"]
            comments[f"frame_total_{kind}"] = entry["frame_total"]
            if "degenerate" in entry:
                comments[f"degenerate_{kind}"] = entry["degenerate"]
        _emit_csv(comments, header, rows, args.output)
    return 0


def _cmd_frames(args: argparse.Namespace) -> int:
    g = load_graph(args.input, directed=args.directed)
    totals = frame_totals(g)
    config = _config_dict(args)
    if args.format == "json":
        payload = {
            "config": config,
            "graph": g.load_report.to_dict(),
            "frame_totals": totals.to_dict(),
        }
        _emit_json(payload, args.output)
    else:
        rows = [[kind, count] for kind, count in totals.to_dict().items()]
        _emit_csv(_flat_config(config), ["kind", "count"], rows, args.output)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    families = [(3, False), (3, True), (4, False), (4, True)]
    payload = {
        "config": _config_dict(args),
        "arrcode_tables": [arrcode_table(s, d).to_dict() for s, d in families],
        "koef_tables": [koef_table(s, d).to_dict() for s, d in families],
    }
    _emit_json(payload, args.output)
    return 0


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
