"""The CLI's exit-code contract: 0 success, 1 failure, 2 unproven incumbent,
3 usage error."""

import json
import time

import pytest

from isingcoupler import Graph, random_er_graph, sequence_from_json, serialize_edge_list, verify
from isingcoupler import cli
from isingcoupler.exactopt import MAX_EXACT_N


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


@pytest.mark.parametrize("option", [["--subsample", "64"], ["--seed", "1"]])
def test_removed_optimize_options_are_usage_errors(tmp_path, capsys, option):
    path = write_graph(tmp_path, Graph.complete(3))
    assert run(["optimize", path, *option], capsys)[0] == cli.EXIT_USAGE


def test_missing_graph_file_exits_1(tmp_path, capsys):
    code, _, err = run(["optimize", str(tmp_path / "missing.txt")], capsys)
    assert code == cli.EXIT_FAILURE and "not found" in err


def test_optimal_solve_exits_0(tmp_path, capsys):
    code, stdout, _ = run(["optimize", write_graph(tmp_path, Graph.complete(3))], capsys)
    assert code == cli.EXIT_OK and "status=optimal" in stdout
