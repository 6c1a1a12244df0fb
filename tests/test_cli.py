import csv
import io
import json

import numpy as np
import pytest

from motifcensus import cli
from motifcensus.cli import DEFAULT_SEED, build_parser, main
from conftest import data_path
from oracles import dumps_graph, random_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = {}
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            key, _, value = ln[1:].strip().partition("=")
            comments[key] = value
        else:
            body.append(ln)
    reader = csv.reader(io.StringIO("\n".join(body)))
    header = next(reader)
    for row in reader:
        rows.append(dict(zip(header, row)))
    return comments, rows


def test_exact_json(capsys):
    code, out, err = run_cli(capsys, "exact", "-i", str(data_path("k4.txt")),
                             "--size", "4")
    assert code == 0
    assert err == "exact census walks 24 chain frames, 4 trident frames\n"
    payload = json.loads(out)
    assert payload["config"]["command"] == "exact"
    assert payload["config"]["size"] == 4
    assert payload["total"] == 1
    counts = {m["canonical_code"]: m["count"] for m in payload["motifs"]}
    assert counts[63] == 1
    assert sum(counts.values()) == 1


def test_exact_directed_ffl(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "exact", "-i", str(data_path("ffl.txt")),
                           "--directed", "--size", "3",
                           "-o", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["directed"] is True
    nonzero = [m for m in payload["motifs"] if m["count"]]
    assert len(nonzero) == 1 and nonzero[0]["count"] == 1


def test_exact_csv_matches_json(capsys):
    _, json_out, _ = run_cli(capsys, "exact", "-i",
                             str(data_path("k4.txt")), "--size", "3")
    _, csv_out, _ = run_cli(capsys, "exact", "-i", str(data_path("k4.txt")),
                            "--size", "3", "--format", "csv")
    payload = json.loads(json_out)
    comments, rows = parse_csv(csv_out)
    assert comments["command"] == "exact"
    json_rows = {m["class_id"]: m for m in payload["motifs"]}
    assert len(rows) == len(json_rows)
    for row in rows:
        ref = json_rows[int(row["class_id"])]
        assert int(row["canonical_code"]) == ref["canonical_code"]
        assert int(row["count"]) == ref["count"]


def test_exact_reports_frame_totals_before_the_walk(capsys, monkeypatch):
    def interrupted(g, size):
        raise RuntimeError("walk started")
    monkeypatch.setattr(cli, "exact_census", interrupted)
    with pytest.raises(RuntimeError, match="walk started"):
        main(["exact", "-i", str(data_path("k4.txt")), "--size", "3"])
    assert capsys.readouterr().err == "exact census walks 12 fork frames\n"
    monkeypatch.undo()

    _, json_out, _ = run_cli(capsys, "exact", "-i",
                             str(data_path("path3.txt")), "--size", "4")
    assert json.loads(json_out)["frame_totals"] == {"chain": 1, "trident": 0}
    _, csv_out, err = run_cli(capsys, "exact", "-i",
                              str(data_path("path3.txt")), "--size", "4",
                              "--format", "csv")
    comments, _ = parse_csv(csv_out)
    assert comments["frame_total_chain"] == "1"
    assert comments["frame_total_trident"] == "0"
    assert err == "exact census walks 1 chain frames, 0 trident frames\n"


def test_frames_report(capsys):
    code, out, _ = run_cli(capsys, "frames", "-i",
                           str(data_path("path3.txt")))
    assert code == 0
    payload = json.loads(out)
    assert payload["frame_totals"] == {"fork": 2, "trident": 0, "chain": 1}

    code, out, _ = run_cli(capsys, "frames", "-i", str(data_path("k4.txt")),
                           "--format", "csv")
    _, rows = parse_csv(out)
    assert {r["kind"]: int(r["count"]) for r in rows} == \
        {"fork": 12, "trident": 4, "chain": 24}


def test_frames_edgeless_graph(capsys, tmp_path):
    # self-loops are dropped, leaving a loadable graph with no edges
    loops = tmp_path / "loops.txt"
    loops.write_text("0 0\n1 1\n")
    code, out, _ = run_cli(capsys, "frames", "-i", str(loops))
    assert code == 0
    payload = json.loads(out)
    assert payload["frame_totals"] == {"fork": 0, "trident": 0, "chain": 0}
    assert payload["graph"]["n_edges"] == 0
    assert payload["graph"]["self_loops_dropped"] == 2


def test_sample_report_and_determinism(capsys):
    argv = ("sample", "-i", str(data_path("k4.txt")), "--size", "4",
            "--samples", "2000", "--seed", "42")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed")
    p2.pop("elapsed")
    assert p1 == p2
    assert p1["config"]["seed"] == 42
    assert p1["stop_reason"] == "budget"
    spent = sum(e["n_experiments"] for e in p1["experiments"].values())
    assert spent == 2000
    clique = next(m for m in p1["motifs"] if m["canonical_code"] == 63)
    assert clique["n_hat"] == 1.0 and clique["cv"] == 0.0


def test_sample_seed_defaults(capsys):
    parser = build_parser()
    args = parser.parse_args(["sample", "-i", "x", "--size", "3",
                              "--samples", "10"])
    assert args.seed == DEFAULT_SEED


def test_sample_csv_matches_json(capsys):
    base = ("sample", "-i", str(data_path("k4.txt")), "--size", "4",
            "--samples", "3000", "--seed", "7")
    _, json_out, _ = run_cli(capsys, *base)
    _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
    payload = json.loads(json_out)
    comments, rows = parse_csv(csv_out)
    assert comments["stop_reason"] == payload["stop_reason"]
    assert int(comments["n_experiments_chain"]) == \
        payload["experiments"]["chain"]["n_experiments"]
    json_rows = {m["class_id"]: m for m in payload["motifs"]}
    assert len(rows) == len(json_rows)
    for row in rows:
        ref = json_rows[int(row["class_id"])]
        assert float(row["n_hat"]) == ref["n_hat"]
        assert float(row["variance"]) == ref["variance"]
        cv = None if row["cv"] == "" else float(row["cv"])
        assert cv == ref["cv"]
        lam = None if row["lambda"] == "" else float(row["lambda"])
        assert lam == ref["lambda"]
        assert int(row["detections_chain"]) == ref["detections"]["chain"]
        assert int(row["koef_trident"]) == ref["koef"]["trident"]


def test_sample_directed_triangle(capsys):
    code, out, _ = run_cli(capsys, "sample", "-i", str(data_path("ffl.txt")),
                           "--directed", "--size", "3", "--samples", "1000",
                           "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    hits = [m for m in payload["motifs"] if m["n_hat"] > 0]
    assert len(hits) == 1
    assert hits[0]["n_hat"] == 1.0
    assert hits[0]["cv"] == 0.0


def test_sample_needs_a_stopping_rule(capsys):
    code, _, err = run_cli(capsys, "sample", "-i",
                           str(data_path("k4.txt")), "--size", "4")
    assert code == 1
    assert "budget" in err or "CV" in err


@pytest.mark.parametrize("target", ["nan", "inf", "0"])
def test_sample_rejects_a_target_cv_that_is_not_positive_and_finite(
        capsys, target):
    code, out, err = run_cli(capsys, "sample", "-i",
                             str(data_path("k4.txt")), "--size", "4",
                             "--samples", "100", "--target-cv", target)
    assert code == 1
    assert out == ""
    assert err.startswith("error: target CV must be positive and finite")


def test_sample_has_no_workers_flag():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "-i", str(data_path("k4.txt")), "--size", "4",
              "--samples", "100", "--workers", "2"])
    assert exc.value.code == 2


def test_sample_target_cv_reports_reason(capsys):
    code, out, _ = run_cli(capsys, "sample", "-i", str(data_path("k3.txt")),
                           "--size", "3", "--target-cv", "0.05",
                           "--samples", "50000")
    payload = json.loads(out)
    assert payload["stop_reason"] == "target_cv"


def test_unreachable_target_without_samples_fails(capsys, tmp_path):
    g = random_graph(np.random.default_rng(19), 30, 0.2, directed=False)
    graph = tmp_path / "g30.txt"
    graph.write_text(dumps_graph(g))
    code, out, err = run_cli(capsys, "sample", "-i", str(graph), "--size",
                             "3", "--target-cv", "1e-6")
    assert code == 1
    assert out == ""
    assert err == ("error: target CV 1e-06 not reached after 539 "
                   "experiments, as many as the graph has frames; count "
                   "exactly instead (motif-census exact)\n")


def test_tables_dump(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    payload = json.loads(out)
    sizes = {(t["size"], t["directed"]): len(t["entries"])
             for t in payload["arrcode_tables"]}
    assert sizes == {(3, False): 8, (3, True): 64, (4, False): 64,
                     (4, True): 4096}
    und3 = next(t for t in payload["arrcode_tables"]
                if t["size"] == 3 and not t["directed"])
    assert und3["entries"] == [0, 1, 1, 2, 1, 2, 2, 3]
    assert und3["bit_order"] == [[0, 1], [0, 2], [1, 2]]
    und4_koef = next(t for t in payload["koef_tables"]
                     if t["size"] == 4 and not t["directed"])
    assert set(und4_koef["koef"]) == {"chain", "trident"}
    assert payload["config"]["command"] == "tables"


def test_missing_input_fails(capsys, tmp_path):
    code, _, err = run_cli(capsys, "exact", "-i",
                           str(tmp_path / "nope.txt"), "--size", "3")
    assert code == 1
    assert "error" in err


def test_malformed_input_fails_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n0 1 2\n")
    code, _, err = run_cli(capsys, "exact", "-i", str(bad), "--size", "3")
    assert code == 1
    assert "line 2" in err


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
