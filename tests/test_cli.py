"""The CLI's exit-code contract: 0 success, 1 failure, 2 unproven incumbent,
3 usage error."""

import csv
import json
import shlex
import time
from fractions import Fraction

import pytest

from isingcoupler import (
    Graph, NoiseSpec, OptResult, optimize_angles, parse_edge_list, random_er_graph,
    sequence_from_json, sequence_to_json, serialize_edge_list, union_of_stars, verify,
    weighted_edge_by_edge,
)
from isingcoupler import cli, qaoa
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


def test_removed_gen_json_option_is_a_usage_error(capsys):
    assert run(["gen", "3", "0.5", "--json"], capsys)[0] == cli.EXIT_USAGE


@pytest.mark.parametrize("command, option, message", [
    ("optimize", ["--time-limit", "0"], "time limit must be positive"),
    ("optimize", ["--time-limit", "-1"], "time limit must be positive"),
    ("sweep", ["--time-limit", "0"], "time limit must be positive"),
    ("sweep", ["--grid-res", "7"], "grid resolution must be at least 8"),
    ("simulate", ["--grid-res", "7"], "grid resolution must be at least 8"),
    ("simulate", ["--lambda", "1.5"], "major rate must be in [0, 1]"),
    ("simulate", ["--lambda", "nan"], "major rate must be in [0, 1]"),
    ("simulate", ["--gamma", "nan"], "angles must be finite"),
    ("simulate", ["--beta=-inf"], "angles must be finite"),
    ("gen", ["5", "1.5"], "edge probability 1.5 outside [0, 1]"),
    ("gen", ["0", "0.5"], "n must be at least 1"),
    ("gen", ["5", "0.5", "--weights", "1,0"], "weight_set must not contain zero"),
    ("gen", ["5", "0.5", "--weights", "1,x"], "--weights: not a number: 'x'"),
    ("gen", ["4", "0.5", "--seed", "18446744073709551617"],
     "seed 18446744073709551617 outside [0, 2^64)"),
    ("gen", ["4", "0.5", "--seed=-1"], "seed -1 outside [0, 2^64)"),
    ("sweep", ["--seed", "18446744073709551616"], "seed 18446744073709551616 outside [0, 2^64)"),
    ("sweep", ["--seed=-1"], "seed -1 outside [0, 2^64)"),
])
def test_bad_option_values_are_usage_errors(tmp_path, capsys, command, option, message):
    argv = {"gen": ["gen"],
            "optimize": ["optimize", write_graph(tmp_path, Graph.complete(3))],
            "sweep": ["sweep", "fig_worstcase", "--out-dir", str(tmp_path)],
            "simulate": ["simulate", write_graph(tmp_path, Graph.complete(3)), "--optimize"]}
    code, _, err = run([*argv[command], *option], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not (tmp_path / "fig_worstcase.csv").exists()


@pytest.mark.parametrize("line, message", [
    *[(f"{key} = seven", f"{key}: not a number") for key in (
        "sweep.n", "sweep.graphs_per_p", "sweep.p_count", "sweep.p_step", "sweep.n_max",
        "sweep.workers")],
    ("sweep.n = 7.5", "sweep.n: not a number"),
    ("sweep.weights = 1,two", "sweep.weights: not a number"),
    ("sweep.n_max = 6", "sweep.n_max=6 too large to enumerate (limit 5)"),
    ("sweep.n = 9", "sweep.n=9 outside [1, 8]"),
    ("sweep.n = 0", "sweep.n=0 outside [1, 8]"),
    ("sweep.p_step = 0.5\nsweep.p_count = 3", "edge probability 1.5 (sweep.p_step * 3)"),
    ("sweep.p_step = -0.1", "edge probability -0.1 (sweep.p_step * 1)"),
    ("sweep.p_step = nan", "edge probability nan"),
    ("sweep.weights = 1,0", "weight_set must not contain zero"),
    ("sweep.p_count = 0", "sweep.p_count=0 must be at least 1"),
    ("sweep.graphs_per_p = -2", "sweep.graphs_per_p=-2 must be at least 1"),
    ("sweep.n_max = 2", "sweep.n_max=2 below 3"),
    ("sweep.workers = -3", "sweep.workers=-3 must be at least 1"),
    ("sweep.workers = 0", "sweep.workers=0 must be at least 1"),
    # keys that only a flag sets (--time-limit, --grid-res, --seed,
    # --lambda-grid), and one that no sweep reads
    *[(line, f"unknown config key {line.split()[0]!r}") for line in (
        "sweep.time_limit_s = 0", "sweep.grid_res = 4", "sweep.seed = seven",
        "sweep.time_limit_s = seven", "sweep.grid_res = seven", "sweep.lambda_grid = 0.005,abc",
        "sweep.seed = -1", "sweep.seed = 18446744073709551616", "sweep.noise_graphs = k7",
        "sweep.noise_graphs = k6,k7")],
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, line, message):
    config = tmp_path / "sweep.cfg"
    config.write_text(line + "\n")
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", "fig_worstcase", "--config", str(config),
                        "--out-dir", str(out_dir)], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", [
    "fig_random_unweighted", "fig_random_weighted", "fig_worstcase", "fig_noise"])
@pytest.mark.parametrize("line, option, message", [
    ("sweep.workers = -3", [], "sweep.workers=-3 must be at least 1"),
    ("sweep.noise_graphs = k7", [], "unknown config key 'sweep.noise_graphs'"),
    ("", ["--seed=-1"], "seed -1 outside [0, 2^64)"),
])
def test_every_sweep_kind_refuses_bad_values_before_any_output(
        tmp_path, capsys, kind, line, option, message):
    config = tmp_path / "sweep.cfg"
    config.write_text(line + "\nsweep.n = 3\nsweep.p_count = 1\nsweep.graphs_per_p = 1\n"
                      "sweep.n_max = 3\n")
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", kind, "--config", str(config), "--grid-res", "8",
                        "--lambda-grid", "0.005", "--out-dir", str(out_dir), *option], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("rates", ["0.005,1.5", "-0.5"])
def test_bad_lambda_grid_is_a_usage_error_before_any_output(tmp_path, capsys, rates):
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", "fig_noise", "--grid-res", "8", f"--lambda-grid={rates}",
                        "--out-dir", str(out_dir)], capsys)
    assert code == cli.EXIT_USAGE and "major rate must be in [0, 1]" in err
    assert not out_dir.exists()


def test_non_numeric_lambda_grid_is_a_usage_error_before_any_output(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", "fig_noise", "--lambda-grid", "0.005,abc",
                        "--out-dir", str(out_dir)], capsys)
    assert code == cli.EXIT_USAGE and "lambda grid: not a number: 'abc'" in err
    assert not out_dir.exists()


def test_simulate_verifies_an_ms_sequence_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(seq, g):
        calls.append(seq)
        return verify(seq, g)

    monkeypatch.setattr(cli, "verify", counted)
    monkeypatch.setattr(qaoa, "verify", counted)
    code, _, _ = run(["simulate", write_graph(tmp_path, Graph.complete(4)), "--optimize",
                      "--grid-res", "8"], capsys)
    assert code == cli.EXIT_OK and len(calls) == 1


@pytest.mark.parametrize("extra", [[], ["--optimize", "--grid-res", "8"]])
def test_pulse_that_does_not_realize_the_graph_exits_1(tmp_path, capsys, extra):
    pulse = tmp_path / "pulse.json"
    pulse.write_text(sequence_to_json(union_of_stars(Graph.unweighted(3, [(0, 1)]))))
    code, _, err = run(["simulate", write_graph(tmp_path, Graph.complete(3)),
                        "--pulse", str(pulse), *extra], capsys)
    assert code == cli.EXIT_FAILURE and "realiz" in err


@pytest.mark.parametrize("objective", ["l0", "l1"])
def test_optimize_out_file_is_read_by_verify_cost_and_simulate(tmp_path, capsys, objective):
    graph = write_graph(tmp_path, random_er_graph(5, 0.5, (), 2))
    out = str(tmp_path / "o.json")
    code, stdout, _ = run(["optimize", graph, "--objective", objective, "--out", out], capsys)
    assert code == cli.EXIT_OK
    objective_value = stdout.split()[0].removeprefix("objective=")
    code, stdout, _ = run(["verify", out, graph], capsys)
    l1 = stdout.split()[-1].removeprefix("L1=")
    assert code == cli.EXIT_OK and stdout.startswith("verified=true")
    assert objective != "l1" or l1 == objective_value
    code, stdout, _ = run(["cost", out], capsys)
    assert code == cli.EXIT_OK and f"L1={l1}" in stdout
    code, _, _ = run(["simulate", graph, "--compilation", "ms", "--pulse", out], capsys)
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("text", [
    '{"n": 5, "ops": [{"mask": "+-+++", "w": "1/0"}]}',
    '[{"n": 5, "ops": []}]',
    '{"n": 5, "ops": [{"mask": 2, "w": "1"}]}',
    '{"n": "5", "ops": []}',
], ids=["zero-denominator", "top-level-list", "integer-mask", "string-n"])
def test_malformed_pulse_json_is_reported_as_bad_pulse_json(tmp_path, capsys, text):
    pulse = tmp_path / "p.json"
    pulse.write_text(text)
    code, _, err = run(["verify", str(pulse), write_graph(tmp_path, Graph.complete(5))], capsys)
    assert code == cli.EXIT_FAILURE and "bad pulse JSON" in err


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


def test_noise_sweep_writes_the_optimized_ratios(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep.workers = 1\n")
    code, _, _ = run(["sweep", "fig_noise", "--config", str(config), "--grid-res", "8",
                      "--lambda-grid", "0.005", "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    with (tmp_path / "fig_noise.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["graph_id"], r["compilation"], r["lambda"]) for r in rows] == [
        (name, compilation, "0.005") for name, _ in cli.noise_standin_graphs()
        for compilation in ("cx", "ms")]
    k6 = Graph.complete(6)
    k6_rows = [r for r in rows if r["graph_id"] == "k6"]
    for row, seq in zip(k6_rows, [None, union_of_stars(k6)]):
        gamma, beta, value, ratio = optimize_angles(
            k6, row["compilation"], seq, NoiseSpec(0.005), 8)
        assert (row["gamma"], row["beta"], row["expectation"], row["ratio"]) == (
            f"{gamma:.9f}", f"{beta:.9f}", f"{value:.9f}", f"{ratio:.9f}")
    manifest = json.loads((tmp_path / "fig_noise.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "sweep"
    assert manifest["config_overrides"] == {"sweep.workers": "1"}


def test_missing_graph_file_exits_1(tmp_path, capsys):
    code, _, err = run(["optimize", str(tmp_path / "missing.txt")], capsys)
    assert code == cli.EXIT_FAILURE and "not found" in err


@pytest.mark.parametrize("argv", [
    ["optimize", "{dir}"],
    ["cost", "{dir}"],
    ["verify", "{dir}", "{graph}"],
    ["verify", "{pulse}", "{dir}"],
], ids=["optimize", "cost", "verify-pulse", "verify-graph"])
def test_a_directory_for_an_input_file_exits_1_with_one_line(tmp_path, capsys, argv):
    paths = {"dir": str(tmp_path / "d"), "graph": write_graph(tmp_path, Graph.complete(3)),
             "pulse": str(tmp_path / "p.json")}
    (tmp_path / "d").mkdir()
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == cli.EXIT_FAILURE
    assert err.startswith("error: ") and err.count("\n") == 1 and paths["dir"] in err


@pytest.mark.parametrize("argv", [
    ["optimize", "{graph}"],
    ["simulate", "{graph}", "--compilation", "cx", "--optimize", "--grid-res", "8"],
    ["simulate", "{graph}", "--pulse", "{pulse}", "--gamma", "0.1"],
], ids=["optimize", "simulate-optimize", "simulate-gamma"])
def test_a_weight_beyond_float_range_exits_1_with_one_line(tmp_path, capsys, argv):
    """The L0 search and the simulator run in float64, which cannot hold a
    weight of 1e400; the exact L1 solve can, and its sequence is the pulse."""
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1 1e400\n1 2\n")
    paths = {"graph": str(graph), "pulse": str(tmp_path / "p.json")}
    code, stdout, _ = run(["optimize", paths["graph"], "--objective", "l1",
                           "--out", paths["pulse"]], capsys)
    assert code == cli.EXIT_OK
    assert stdout.startswith(f"objective={10**400} kind=l1 status=optimal ")
    code, stdout, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith("error: ") and "float64 range" in err and err.count("\n") == 1


def test_simulate_beyond_the_memory_cap_exits_1_with_one_line(tmp_path, capsys):
    """The ms scan of a 12-vertex path on the 8-point grid takes all 8 gammas
    (star strengths are not integers) and needs (8 + 8) * 16 * 4^12 bytes."""
    graph = write_graph(tmp_path, Graph.unweighted(12, [(i, i + 1) for i in range(11)]))
    code, stdout, err = run(["simulate", graph, "--optimize", "--grid-res", "8"], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith("error: n=12 with 8 gammas and 8 betas ") and err.count("\n") == 1


def test_max_cut_is_exact_beyond_int64(tmp_path, capsys):
    """Cut sums of 1e30 overflow int64; the Max-Cut value stays exact and
    the simulation runs."""
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1 1e30\n1 2\n")
    assert qaoa.maxcut_brute_force(parse_edge_list(graph.read_text())) == 10**30 + 1
    code, stdout, _ = run(["simulate", str(graph), "--compilation", "cx", "--optimize",
                           "--grid-res", "8"], capsys)
    assert code == cli.EXIT_OK and "ratio=" in stdout


@pytest.mark.parametrize("argv", [
    ["gen", "4", "0.5", "--out", "{missing}"],
    ["compile", "{graph}", "--out", "{missing}"],
    ["optimize", "{graph}", "--objective", "l1", "--out", "{missing}"],
    ["sweep", "fig_worstcase", "--out-dir", "{file}"],
], ids=["gen", "compile", "optimize", "sweep"])
def test_an_unwritable_output_path_exits_1_with_one_line(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "no" / "such" / "x.json"), "file": str(tmp_path / "afile"),
             "graph": write_graph(tmp_path, Graph.complete(4))}
    (tmp_path / "afile").write_text("")
    code, stdout, err = run([arg.format(**paths) for arg in argv], capsys)
    path = paths["file" if argv[0] == "sweep" else "missing"]
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("kind", [
    "fig_random_unweighted", "fig_random_weighted", "fig_worstcase", "fig_noise"])
def test_a_directory_at_a_sweep_csv_path_exits_1_with_one_line(tmp_path, capsys, kind):
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep.n = 3\nsweep.p_count = 1\nsweep.graphs_per_p = 1\n"
                      "sweep.n_max = 3\n")
    path = tmp_path / "out" / f"{kind}.csv"
    path.mkdir(parents=True)
    code, stdout, err = run(["sweep", kind, "--config", str(config), "--grid-res", "8",
                             "--lambda-grid", "0.005", "--out-dir", str(tmp_path / "out")],
                            capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not list(path.iterdir())


def test_a_directory_at_the_csv_path_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "solve_l0", lambda *args, **kwargs: calls.append(args))
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep.n = 3\nsweep.p_count = 1\nsweep.graphs_per_p = 1\n")
    (tmp_path / "out" / "fig_random_unweighted.csv").mkdir(parents=True)
    code, _, _ = run(["sweep", "fig_random_unweighted", "--config", str(config),
                      "--out-dir", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_FAILURE and calls == []


@pytest.mark.parametrize("kind, header", [
    ("fig_random_unweighted", "graph_id,seed,p,m,L0_stars,L1_stars,L0_opt,L1_opt,l0_status"),
    ("fig_random_weighted", "graph_id,seed,p,m,L0_stars,L1_stars,L0_opt,L1_opt,l0_status"),
    ("fig_worstcase", "n,num_classes,max_l0_opt,num_unproven,bound_3n_minus_2,n_plus_1"),
    ("fig_noise", "graph_id,compilation,lambda,gamma,beta,expectation,ratio"),
])
def test_each_sweep_csv_starts_with_its_header_line(tmp_path, capsys, kind, header):
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep.n = 3\nsweep.p_count = 1\nsweep.graphs_per_p = 1\n"
                      "sweep.n_max = 3\n")
    code, _, _ = run(["sweep", kind, "--config", str(config), "--grid-res", "8",
                      "--lambda-grid", "0.005", "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    lines = (tmp_path / f"{kind}.csv").read_bytes().splitlines(keepends=True)
    assert lines[0] == f"{header}\r\n".encode()


@pytest.mark.parametrize("command", ["cost", "sweep"])
@pytest.mark.parametrize("config", ["missing.cfg", "d"], ids=["missing", "directory"])
def test_an_unreadable_config_file_exits_1_with_one_line(tmp_path, capsys, command, config):
    (tmp_path / "d").mkdir()
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    out_dir = tmp_path / "out"
    argv = {"cost": ["cost", str(tmp_path / "p.json")],
            "sweep": ["sweep", "fig_noise", "--out-dir", str(out_dir)]}[command]
    path = str(tmp_path / config)
    code, stdout, err = run(argv + ["--config", path], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith(f"error: cannot read config file {path}: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command, key", [
    ("gen", "--weights"), ("sweep", "sweep.weights"), ("cost", "timing.t_pi_us")])
def test_a_zero_denominator_is_a_usage_error_with_one_line(tmp_path, capsys, command, key):
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    config = tmp_path / "c.cfg"
    config.write_text({"sweep": "sweep.weights = 1,1/0\n", "cost": "timing.t_pi_us = 1/0\n"}
                      .get(command, ""))
    out_dir = tmp_path / "out"
    argv = {"gen": ["gen", "3", "0.5", "--weights", "1/0"],
            "sweep": ["sweep", "fig_random_weighted", "--config", str(config),
                      "--out-dir", str(out_dir)],
            "cost": ["cost", str(tmp_path / "p.json"), "--config", str(config)]}[command]
    code, stdout, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == f"error: {key}: not a number: '1/0'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [
    "fig_random_unweighted", "fig_random_weighted", "fig_worstcase", "fig_noise", "cost"])
@pytest.mark.parametrize("case", ["unknown", "repeated", "removed"])
def test_a_config_key_its_command_does_not_read_exits_3_with_one_line(
        tmp_path, capsys, command, case):
    """A typo, a key given twice, and a key that only a flag sets now (for
    cost, the deleted timing.t_ms_us)."""
    reader = "cost" if command == "cost" else "sweep"
    key, text = {
        ("sweep", "unknown"): ("sweep.n_maxx", "sweep.n_maxx = 3\n"),
        ("sweep", "repeated"): ("sweep.n_max", "sweep.n_max = 3\nsweep.n_max = 4\n"),
        ("sweep", "removed"): ("sweep.grid_res", "sweep.grid_res = 8\n"),
        ("cost", "unknown"): ("timing.t_pi", "timing.t_pi = 100\n"),
        ("cost", "repeated"): ("timing.t_pi_us", "timing.t_pi_us = 7\ntiming.t_pi_us = 8\n"),
        ("cost", "removed"): ("timing.t_ms_us", "timing.t_ms_us = 10\n"),
    }[reader, case]
    known = {"cost": cli._TIMING_KEYS, "sweep": cli._SWEEP_KEYS}[reader]
    config = tmp_path / "c.cfg"
    config.write_text(text)
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    out_dir = tmp_path / "out"
    argv = (["cost", str(tmp_path / "p.json")] if command == "cost"
            else ["sweep", command, "--out-dir", str(out_dir)])
    code, stdout, err = run([*argv, "--config", str(config)], capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == (f"error: config key {key!r} given twice\n" if case == "repeated" else
                   f"error: unknown config key {key!r} (known: {', '.join(known)})\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("ops, estimate", [
    ('[{"mask": "+-+", "w": "1/7"}]', "estimate_us=220/7 estimate_ms=0.0314286"),
    ('[{"mask": "++-", "w": "1e400"}]', f"estimate_us={15 * 10**401 + 10} estimate_ms=1.5e+399"),
], ids=["float-range", "beyond-float-range"])
def test_cost_prints_the_estimate_in_microseconds_and_milliseconds(tmp_path, capsys, ops, estimate):
    """(L0 + 1) * 5 + L1 * 3 * 50 us; the first line was printed before
    milliseconds beyond float range were formatted exactly."""
    pulse = tmp_path / "p.json"
    pulse.write_text(f'{{"n": 3, "ops": {ops}}}')
    code, stdout, _ = run(["cost", str(pulse)], capsys)
    assert code == cli.EXIT_OK and stdout.splitlines()[-1] == estimate


def test_optimal_solve_exits_0(tmp_path, capsys):
    code, stdout, _ = run(["optimize", write_graph(tmp_path, Graph.complete(3))], capsys)
    assert code == cli.EXIT_OK and "status=optimal" in stdout


GRAPHS = {
    "unweighted": "n 5\n0 1\n0 2\n1 3\n2 3\n3 4\n",
    "weighted": "n 4\n0 1 1/2\n1 2 -3\n0 3 2\n2 3 2\n",
}
# compile --out texts from the sign-tuple row model, before rows became bit
# masks: the file format must not change with the in-memory one.
GOLDEN = {
    ("unweighted", "stars"):
        '{"n": 5, "ops": [{"mask": "+++-+", "w": "-1/4"}, {"mask": "+++++", "w": "1/2"}, '
        '{"mask": "+--+-", "w": "-1/4"}, {"mask": "+++--", "w": "1/4"}, '
        '{"mask": "+--++", "w": "-1/4"}]}',
    ("unweighted", "edges"):
        '{"n": 5, "ops": [{"mask": "++---", "w": "1/4"}, {"mask": "+----", "w": "-1/2"}, '
        '{"mask": "+++++", "w": "5/4"}, {"mask": "+-+++", "w": "-1/2"}, '
        '{"mask": "+-+--", "w": "1/4"}, {"mask": "++-++", "w": "-1/2"}, '
        '{"mask": "+-+-+", "w": "1/4"}, {"mask": "+++-+", "w": "-3/4"}, '
        '{"mask": "++--+", "w": "1/4"}, {"mask": "+++--", "w": "1/4"}, '
        '{"mask": "++++-", "w": "-1/4"}]}',
    ("weighted", "edges"):
        '{"n": 4, "ops": [{"mask": "++--", "w": "5/8"}, {"mask": "+---", "w": "-5/8"}, '
        '{"mask": "++++", "w": "3/8"}, {"mask": "+-++", "w": "5/8"}, '
        '{"mask": "+--+", "w": "-1/4"}, {"mask": "+++-", "w": "-1"}, '
        '{"mask": "++-+", "w": "1/4"}]}',
}


@pytest.mark.parametrize("graph, method", list(GOLDEN))
def test_compile_writes_the_golden_pulse_file_and_verify_checks_it(
        tmp_path, capsys, graph, method):
    path = tmp_path / "g.txt"
    path.write_text(GRAPHS[graph])
    out = tmp_path / "p.json"
    code, stdout, _ = run(["compile", str(path), "--method", method, "--out", str(out)], capsys)
    assert code == cli.EXIT_OK and "verified=true" in stdout
    assert out.read_text() == GOLDEN[graph, method] + "\n"
    manifest = json.loads((tmp_path / "p.json.manifest.json").read_text())
    assert manifest["subcommand"] == "compile" and manifest["inputs"] == [str(path)]
    code, stdout, _ = run(["verify", str(out), str(path)], capsys)
    assert code == cli.EXIT_OK and stdout.startswith("verified=true")
    doc = json.loads(out.read_text())
    doc["ops"][0]["w"] = str(Fraction(doc["ops"][0]["w"]) + 1)
    out.write_text(json.dumps(doc))
    code, _, err = run(["verify", str(out), str(path)], capsys)
    assert code == cli.EXIT_FAILURE and "mismatch at (0,1)" in err


def test_compile_stars_refuses_a_weighted_graph(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(GRAPHS["weighted"])
    code, _, err = run(["compile", str(path), "--method", "stars"], capsys)
    assert code == cli.EXIT_FAILURE and "requires unweighted" in err


def test_gen_writes_the_graph_and_a_manifest_with_its_seed(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, _ = run(["gen", "6", "0.5", "--seed", "3", "--out", str(out)], capsys)
    g = parse_edge_list(out.read_text())
    assert code == cli.EXIT_OK and f"wrote {out} (n=6, m={g.m})" in stdout
    assert g == random_er_graph(6, 0.5, (), 3)
    manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
    assert manifest["subcommand"] == "gen" and manifest["seed"] == 3


def test_manifest_command_replays_the_parsed_argv_not_the_host_argv(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr("sys.argv", ["/some/checkout/host.py", "--host-flag"])
    out = tmp_path / "my graph.txt"
    argv = ["gen", "5", "0.5", "--seed", "7", "--out", str(out)]
    code, _, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    manifest = json.loads((tmp_path / "my graph.txt.manifest.json").read_text())
    assert manifest["command"] == "isingcoupler gen 5 0.5 --seed 7 --out " + shlex.quote(str(out))
    assert shlex.split(manifest["command"]) == ["isingcoupler", *argv]


def test_the_parser_is_built_once_and_no_option_leaks_into_the_next_call(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    graph = write_graph(tmp_path, Graph.complete(4))
    assert run(["optimize", graph, "--objective", "l1"], capsys)[1].startswith("objective=")
    code, stdout, _ = run(["optimize", graph], capsys)
    assert code == cli.EXIT_OK and " kind=l0 " in stdout
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep.n_max = 3\n")
    seeds = []
    for extra in (["--seed", "5"], []):
        out_dir = tmp_path / f"out{len(extra)}"
        code, _, _ = run(["sweep", "fig_worstcase", "--config", str(config),
                          "--out-dir", str(out_dir), *extra], capsys)
        assert code == cli.EXIT_OK
        manifest = (out_dir / "fig_worstcase.csv.manifest.json").read_text()
        seeds.append(json.loads(manifest)["seed"])
    assert seeds == [5, 0]


def test_random_sweep_writes_its_columns_and_manifest(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("sweep.n = 4\nsweep.p_count = 2\nsweep.p_step = 0.4\n"
                      "sweep.graphs_per_p = 1\n")
    code, _, _ = run(["sweep", "fig_random_unweighted", "--config", str(config),
                      "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    with (tmp_path / "fig_random_unweighted.csv").open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["graph_id", "seed", "p", "m", "L0_stars", "L1_stars",
                                 "L0_opt", "L1_opt", "l0_status"]
    assert [(r["graph_id"], r["p"], r["l0_status"]) for r in rows] == [
        ("0", "0.4", "optimal"), ("1", "0.8", "optimal")]
    for r in rows:
        assert int(r["L0_opt"]) <= int(r["L0_stars"])
        assert Fraction(r["L1_opt"]) <= Fraction(r["L1_stars"])
    manifest = json.loads((tmp_path / "fig_random_unweighted.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "sweep" and manifest["seed"] == 0
    assert manifest["config_overrides"] == {
        "sweep.n": "4", "sweep.p_count": "2", "sweep.p_step": "0.4", "sweep.graphs_per_p": "1"}


def test_random_sweep_with_two_workers_writes_the_same_csv(tmp_path, capsys):
    texts = []
    for workers in (1, 2):
        config = tmp_path / f"sweep{workers}.cfg"
        config.write_text("sweep.n = 4\nsweep.p_count = 2\nsweep.p_step = 0.4\n"
                          f"sweep.graphs_per_p = 2\nsweep.workers = {workers}\n")
        out_dir = tmp_path / f"out{workers}"
        code, _, _ = run(["sweep", "fig_random_unweighted", "--config", str(config),
                          "--out-dir", str(out_dir)], capsys)
        assert code == cli.EXIT_OK
        texts.append((out_dir / "fig_random_unweighted.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") == 1 + 2 * 2
