"""The CLI's exit-code contract: 0 success, 1 failure, 2 unproven incumbent,
3 usage error."""

import csv
import json
import time
from fractions import Fraction

import pytest

from isingcoupler import (
    Graph, OptResult, random_er_graph, sequence_from_json, serialize_edge_list, verify,
    weighted_edge_by_edge,
)
from isingcoupler import cli
from isingcoupler.exactopt import INCUMBENT_TIMEOUT, MAX_EXACT_N


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors exit from inside main
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_edge_list(g))
    return str(path)


def test_time_limit_exits_2_with_a_verified_incumbent(tmp_path, capsys):
    g = random_er_graph(6, 0.5, (), 1)
    out = tmp_path / "out.json"
    start = time.monotonic()
    code, stdout, _ = run(["optimize", write_graph(tmp_path, g), "--time-limit", "0.5",
                           "--out", str(out)], capsys)
    elapsed = time.monotonic() - start
    assert code == cli.EXIT_INCUMBENT
    assert elapsed < 0.5 + 1.5
    doc = json.loads(out.read_text())
    assert doc["status"] == "incumbent_timeout" and "status=incumbent_timeout" in stdout
    seq = sequence_from_json(json.dumps(doc["sequence"]))
    assert verify(seq, g) and seq.l0 == int(doc["objective"])
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["subcommand"] == "optimize" and manifest["seed"] is None


def test_too_large_for_exact_solve_exits_3_and_points_to_compile(tmp_path, capsys):
    path = write_graph(tmp_path, Graph.unweighted(MAX_EXACT_N + 1, [(0, 1)]))
    code, _, err = run(["optimize", path], capsys)
    assert code == cli.EXIT_USAGE
    assert f"limit of {MAX_EXACT_N}" in err and "compile" in err
    code, stdout, _ = run(["compile", path], capsys)
    assert code == cli.EXIT_OK and "verified=true" in stdout


def test_size_check_follows_max_exact_n(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EXACT_N", 3)
    code, _, err = run(["optimize", write_graph(tmp_path, Graph.complete(4))], capsys)
    assert code == cli.EXIT_USAGE and "limit of 3" in err


@pytest.mark.parametrize("option", [["--subsample", "64"], ["--seed", "1"], ["--big-m", "sum"]])
def test_removed_optimize_options_are_usage_errors(tmp_path, capsys, option):
    path = write_graph(tmp_path, Graph.complete(3))
    assert run(["optimize", path, *option], capsys)[0] == cli.EXIT_USAGE


@pytest.mark.parametrize("command, option, message", [
    ("optimize", ["--time-limit", "0"], "time limit must be positive"),
    ("optimize", ["--time-limit", "-1"], "time limit must be positive"),
    ("sweep", ["--time-limit", "0"], "time limit must be positive"),
    ("sweep", ["--grid-res", "7"], "grid resolution must be at least 8"),
    ("simulate", ["--grid-res", "7"], "grid resolution must be at least 8"),
])
def test_bad_option_values_are_usage_errors(tmp_path, capsys, command, option, message):
    argv = {"optimize": ["optimize", write_graph(tmp_path, Graph.complete(3))],
            "sweep": ["sweep", "fig_worstcase", "--out-dir", str(tmp_path)],
            "simulate": ["simulate", write_graph(tmp_path, Graph.complete(3)), "--optimize"]}
    code, _, err = run([*argv[command], *option], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not (tmp_path / "fig_worstcase.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("sweep.time_limit_s = 0", "time limit must be positive"),
    ("sweep.grid_res = 4", "grid resolution must be at least 8"),
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, line, message):
    config = tmp_path / "sweep.cfg"
    config.write_text(line + "\n")
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", "fig_worstcase", "--config", str(config),
                        "--out-dir", str(out_dir)], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not out_dir.exists()


def sweep_worstcase(tmp_path, capsys, n_max):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"sweep.n_max = {n_max}\n")
    code, _, _ = run(["sweep", "fig_worstcase", "--config", str(config),
                      "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    with (tmp_path / "fig_worstcase.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_worstcase_sweep_reports_proven_maxima(tmp_path, capsys):
    rows = sweep_worstcase(tmp_path, capsys, 4)
    assert [(r["n"], r["max_l0_opt"], r["num_unproven"]) for r in rows] == [
        ("3", "2", "0"), ("4", "5", "0")]


def test_worstcase_sweep_counts_unproven_classes(tmp_path, capsys, monkeypatch):
    def timed_out(g, time_limit):
        seq = weighted_edge_by_edge(g)
        return OptResult(seq, Fraction(seq.l0), "l0", INCUMBENT_TIMEOUT, 0, time_limit)

    monkeypatch.setattr(cli, "solve_l0", timed_out)
    rows = sweep_worstcase(tmp_path, capsys, 3)
    assert rows[0]["num_classes"] == rows[0]["num_unproven"] == "4"


def test_missing_graph_file_exits_1(tmp_path, capsys):
    code, _, err = run(["optimize", str(tmp_path / "missing.txt")], capsys)
    assert code == cli.EXIT_FAILURE and "not found" in err


def test_optimal_solve_exits_0(tmp_path, capsys):
    code, stdout, _ = run(["optimize", write_graph(tmp_path, Graph.complete(3))], capsys)
    assert code == cli.EXIT_OK and "status=optimal" in stdout
