"""The CLI's exit-code contract: 0 success, 1 failure, 2 unproven incumbent,
3 usage error."""

import csv
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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


KINDS = ["fig_random_unweighted", "fig_random_weighted", "fig_worstcase", "fig_noise"]
# the flags that make each sweep kind small enough for a unit test
SMALL = {
    "fig_random_unweighted": ["--n", "3", "--p-count", "1", "--graphs-per-p", "1"],
    "fig_random_weighted": ["--n", "3", "--p-count", "1", "--graphs-per-p", "1"],
    "fig_worstcase": ["--n-max", "3"],
    "fig_noise": ["--grid-res", "8", "--lambda-grid", "0.005"],
}


def test_time_limit_exits_2_with_a_verified_incumbent(tmp_path, capsys):
    # the search cannot prove this weighted n=7 graph in seconds, so the
    # limit runs out however fast the machine is
    g = random_er_graph(7, 0.6, (1, 2, 3), 1)
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


@pytest.mark.parametrize("command", [
    ["gen"], ["compile"], ["optimize"], ["verify"], ["cost"], ["simulate"], ["sweep"],
    *(["sweep", kind] for kind in KINDS)], ids=" ".join)
def test_help_states_no_default_of_none(capsys, command):
    """An option whose default is None or empty is absent unless given; its
    help text says what happens then (simulate's --pulse: the union of
    stars; gen's --weights: unweighted)."""
    code, out, _ = run([*command, "--help"], capsys)
    text = " ".join(out.split())
    assert code == 0 and "usage:" in text
    assert "(default: None)" not in text and "(default: )" not in text
    if command == ["simulate"]:
        assert text.count("(default:") == 1


@pytest.mark.parametrize("command, option, message", [
    ("optimize", ["--time-limit", "0"], "time limit must be positive"),
    ("optimize", ["--time-limit", "-1"], "time limit must be positive"),
    ("fig_worstcase", ["--time-limit", "0"], "time limit must be positive"),
    ("fig_noise", ["--grid-res", "7"], "grid resolution must be at least 8"),
    ("simulate", ["--optimize", "--grid-res", "7"], "grid resolution must be at least 8"),
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
    ("fig_random_unweighted", ["--seed", "18446744073709551616"],
     "seed 18446744073709551616 outside [0, 2^64)"),
    ("fig_random_unweighted", ["--seed=-1"], "seed -1 outside [0, 2^64)"),
])
def test_bad_option_values_are_usage_errors(tmp_path, capsys, command, option, message):
    argv = {"gen": ["gen"],
            "optimize": ["optimize", write_graph(tmp_path, Graph.complete(3))],
            "simulate": ["simulate", write_graph(tmp_path, Graph.complete(3))]}
    argv.update({kind: ["sweep", kind, "--out-dir", str(tmp_path)] for kind in KINDS})
    code, _, err = run([*argv[command], *option], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("kind, option, message", [
    *[("fig_random_unweighted", [flag, "seven"], f"argument {flag}: invalid {type_name} value")
      for flag, type_name in (("--n", "int"), ("--graphs-per-p", "int"), ("--p-count", "int"),
                         ("--p-step", "float"), ("--workers", "int"))],
    ("fig_worstcase", ["--n-max", "seven"], "argument --n-max: invalid int value"),
    ("fig_random_unweighted", ["--n", "7.5"], "argument --n: invalid int value: '7.5'"),
    ("fig_random_weighted", ["--weights", "1,two"], "--weights: not a number"),
    ("fig_worstcase", ["--n-max", "7"], "--n-max=7 too large to enumerate (limit 6)"),
    ("fig_random_unweighted", ["--n", "9"], "--n=9 outside [1, 8]"),
    ("fig_random_unweighted", ["--n", "0"], "--n=0 outside [1, 8]"),
    ("fig_random_unweighted", ["--p-step", "0.5", "--p-count", "3"],
     "edge probability 1.5 (--p-step * 3)"),
    ("fig_random_unweighted", ["--p-step=-0.1"], "edge probability -0.1 (--p-step * 1)"),
    ("fig_random_unweighted", ["--p-step", "nan"], "edge probability nan"),
    ("fig_random_weighted", ["--weights", "1,0"], "weight_set must not contain zero"),
    ("fig_random_unweighted", ["--p-count", "0"], "--p-count=0 must be at least 1"),
    ("fig_random_unweighted", ["--graphs-per-p=-2"], "--graphs-per-p=-2 must be at least 1"),
    ("fig_worstcase", ["--n-max", "2"], "--n-max=2 below 3"),
    ("fig_random_unweighted", ["--workers=-3"], "--workers=-3 must be at least 1"),
    ("fig_random_unweighted", ["--workers", "0"], "--workers=0 must be at least 1"),
    # the time limit, grid, seed and rates, each on a kind that reads it, and
    # a flag that no sweep reads
    ("fig_worstcase", ["--time-limit", "0"], "time limit must be positive"),
    ("fig_noise", ["--grid-res", "4"], "grid resolution must be at least 8"),
    ("fig_random_unweighted", ["--seed", "seven"], "argument --seed: invalid int value"),
    ("fig_worstcase", ["--time-limit", "seven"], "argument --time-limit: invalid float value"),
    ("fig_noise", ["--grid-res", "seven"], "argument --grid-res: invalid int value"),
    ("fig_noise", ["--lambda-grid", "0.005,abc"], "--lambda-grid: not a number: 'abc'"),
    ("fig_random_unweighted", ["--seed=-1"], "seed -1 outside [0, 2^64)"),
    ("fig_random_unweighted", ["--seed", "18446744073709551616"],
     "seed 18446744073709551616 outside [0, 2^64)"),
    ("fig_noise", ["--noise-graphs", "k7"], "unrecognized arguments: --noise-graphs k7"),
    ("fig_noise", ["--noise-graphs", "k6,k7"], "unrecognized arguments: --noise-graphs k6,k7"),
])
def test_bad_sweep_values_are_usage_errors(tmp_path, capsys, kind, option, message):
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", kind, "--out-dir", str(out_dir), *option], capsys)
    assert code == cli.EXIT_USAGE and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", ["bad-value", "unknown", "seed"])
def test_every_sweep_kind_refuses_bad_values_before_any_output(tmp_path, capsys, kind, case):
    """A bad value of a flag the kind reads, an unknown flag, and --seed,
    which only the random kinds read."""
    random = kind.startswith("fig_random")
    option, message = {
        "bad-value": {"fig_worstcase": ("--n-max=2", "--n-max=2 below 3"),
                      "fig_noise": ("--grid-res=7", "grid resolution must be at least 8")}.get(
                          kind, ("--workers=-3", "--workers=-3 must be at least 1")),
        "unknown": ("--noise-graphs=k7", "unrecognized arguments: --noise-graphs=k7"),
        "seed": ("--seed=-1", "seed -1 outside [0, 2^64)" if random
                 else "unrecognized arguments: --seed=-1"),
    }[case]
    out_dir = tmp_path / "out"
    code, _, err = run(["sweep", kind, *SMALL[kind], "--out-dir", str(out_dir), option], capsys)
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
    assert code == cli.EXIT_USAGE and "--lambda-grid: not a number: 'abc'" in err
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


@pytest.mark.parametrize("flags, line", [
    (["--compilation", "cx", "--lambda", "0.01", "--gamma", "0.3", "--beta", "0.2"],
     "compilation=cx lambda=0.01 gamma=0.300000 beta=0.200000 expectation=3.570881262"),
    (["--lambda", "0.01", "--gamma", "0.3", "--beta", "0.2"],
     "compilation=ms lambda=0.01 gamma=0.300000 beta=0.200000 expectation=3.532157676"),
    (["--compilation", "ms", "--lambda", "0.01", "--optimize", "--grid-res", "8"],
     "compilation=ms lambda=0.01 gamma=0.785398 beta=0.392699 expectation=4.311180210"
     " ratio=0.718530035"),
], ids=["cx-point", "ms-default-point", "ms-optimize"])
def test_simulate_prints_one_whole_line(tmp_path, capsys, flags, line):
    """The 6-cycle's output line, byte for byte: a ratio only under --optimize."""
    cycle = dict(cli.noise_standin_graphs())["cycle_c6"]
    code, stdout, err = run(["simulate", write_graph(tmp_path, cycle), *flags], capsys)
    assert (code, stdout, err) == (cli.EXIT_OK, line + "\n", "")


def test_a_pulse_with_the_cx_compilation_exits_3_before_the_graph_is_read(tmp_path, capsys):
    code, stdout, err = run(["simulate", str(tmp_path / "missing.txt"), "--compilation", "cx",
                             "--pulse", str(tmp_path / "missing.json"), "--gamma", "0.3"],
                            capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == "error: --pulse is read only by --compilation ms\n"


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--optimize", "--gamma", "0.3", "--beta", "0.2"],
     "--gamma is read only without --optimize"),
    (["simulate", "--optimize", "--beta", "0"], "--beta is read only without --optimize"),
    (["simulate", "--grid-res", "16", "--gamma", "0.3"],
     "--grid-res is read only with --optimize"),
    (["simulate", "--grid-res", "4"], "--grid-res is read only with --optimize"),
    (["optimize", "--objective", "l1", "--time-limit", "0.5"],
     "--time-limit is read only by --objective l0"),
    (["optimize", "--objective", "l1", "--time-limit", "0"],
     "--time-limit is read only by --objective l0"),
], ids=["angles-with-optimize", "default-angle-with-optimize", "grid-without-optimize",
        "bad-grid-without-optimize", "time-limit-with-l1", "bad-time-limit-with-l1"])
def test_a_flag_the_chosen_mode_does_not_read_exits_3_before_the_graph_is_read(
        tmp_path, capsys, argv, message):
    """Given explicitly, even at its default value, a flag that the other
    mode of the command reads is a usage error, checked before any value
    of it and before the (missing) graph file."""
    command, *flags = argv
    code, stdout, err = run([command, str(tmp_path / "missing.txt"), *flags], capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == f"error: {message}\n"


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
    code, _, _ = run(["sweep", "fig_worstcase", "--n-max", str(n_max),
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
    code, _, _ = run(["sweep", "fig_noise", "--grid-res", "8", "--lambda-grid", "0.005",
                      "--out-dir", str(tmp_path)], capsys)
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
    assert manifest["subcommand"] == "sweep" and manifest["seed"] is None
    assert "config_overrides" not in manifest


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


@pytest.mark.parametrize("kind, argv", [("graph", ["optimize"]), ("pulse", ["cost"])])
@pytest.mark.parametrize("case, expected", [
    ("missing", "{kind} file not found: {path}"),
    ("directory", "cannot read {kind} file {path}: Is a directory"),
    ("malformed", "{path}: {detail}"),
], ids=["missing", "directory", "malformed"])
def test_an_input_file_that_cannot_be_loaded_is_one_error_line(
        tmp_path, capsys, kind, argv, case, expected):
    """Both input kinds go through one loader: each failure is exit 1 and
    this line, byte for byte, on stderr."""
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case == "malformed":
        path.write_text("{")
    detail = {"graph": "line 1: expected header 'n <count>'",
              "pulse": "bad pulse JSON (Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1))"}[kind]
    code, stdout, err = run([*argv, str(path)], capsys)
    assert (code, stdout) == (cli.EXIT_FAILURE, "")
    assert err == "error: " + expected.format(kind=kind, path=path, detail=detail) + "\n"


def test_a_graph_file_that_is_not_utf8_is_one_line_naming_it(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"n 2\n0 1\xff\n")
    code, stdout, err = run(["optimize", str(path)], capsys)
    assert (code, stdout) == (cli.EXIT_FAILURE, "")
    assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 7: "
                   "invalid start byte\n")


def test_verify_reads_a_json_number_strength_exactly(tmp_path, capsys):
    """"w": 0.1 is the strength 1/10, not the float nearest it, so the row
    realizes the edge of weight 0.1 exactly."""
    pulse = tmp_path / "p.json"
    pulse.write_text('{"n": 2, "ops": [{"mask": "++", "w": 0.1}]}')
    graph = tmp_path / "g.txt"
    graph.write_text("n 2\n0 1 0.1\n")
    code, stdout, _ = run(["verify", str(pulse), str(graph)], capsys)
    assert code == cli.EXIT_OK and stdout == "verified=true n=2 m=1 L0=1 L1=1/10\n"


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
    """The ms scan of an 18-vertex path on the 8-point grid takes all 8 gammas
    (star strengths are not integers) at K = 35 columns of 2^17 stored rows,
    which the simulator counts at 2.5 GB."""
    graph = write_graph(tmp_path, Graph.unweighted(18, [(i, i + 1) for i in range(17)]))
    code, stdout, err = run(["simulate", graph, "--optimize", "--grid-res", "8"], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith("error: n=18 with 8 gammas and 8 betas ") and err.count("\n") == 1


@pytest.mark.parametrize("compilation", ["cx", "ms"])
def test_a_maximum_cut_below_float64_range_exits_1_with_one_line(tmp_path, capsys, compilation):
    graph = tmp_path / "tiny.txt"
    graph.write_text("n 2\n0 1 1e-400\n")
    code, stdout, err = run(["simulate", str(graph), "--compilation", compilation, "--optimize",
                             "--grid-res", "8"], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err == "error: maximum cut underflows float64; ratio undefined\n"


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
    ["optimize", "{graph}", "--out", "{missing}"],
    ["sweep", "fig_worstcase", "--out-dir", "{file}"],
], ids=["gen", "compile", "optimize", "optimize-l0", "sweep"])
def test_an_unwritable_output_path_exits_1_with_one_line(tmp_path, capsys, monkeypatch, argv):
    """The output is opened before the work: no construction or solve runs."""
    def not_called(*args, **kwargs):
        raise AssertionError("the work ran before the output was opened")

    for name in ("union_of_stars", "weighted_edge_by_edge", "solve_l0", "solve_l1"):
        monkeypatch.setattr(cli, name, not_called)
    paths = {"missing": str(tmp_path / "no" / "such" / "x.json"), "file": str(tmp_path / "afile"),
             "graph": write_graph(tmp_path, Graph.complete(4))}
    (tmp_path / "afile").write_text("")
    code, stdout, err = run([arg.format(**paths) for arg in argv], capsys)
    path = paths["file" if argv[0] == "sweep" else "missing"]
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


def earlier_optimize(tmp_path, capsys):
    """o.json and its manifest, written by a successful optimize."""
    out = tmp_path / "o.json"
    code, _, _ = run(["optimize", write_graph(tmp_path, Graph.complete(3)), "--out", str(out)],
                     capsys)
    assert code == cli.EXIT_OK
    return out, tmp_path / "o.json.manifest.json"


def test_an_optimize_that_fails_after_the_open_leaves_neither_file(tmp_path, capsys):
    """float64 cannot hold the weight, so the L0 search refuses it, and the
    earlier run's output and manifest are both gone."""
    out, manifest = earlier_optimize(tmp_path, capsys)
    graph = tmp_path / "big.txt"
    graph.write_text("n 2\n0 1 1e400\n")
    code, stdout, err = run(["optimize", str(graph), "--out", str(out)], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert "float64 range" in err and err.count("\n") == 1
    assert not out.exists() and not manifest.exists()


@pytest.mark.parametrize("argv, expected", [
    (["{graph}", "--objective", "l1", "--time-limit", "1"], cli.EXIT_USAGE),
    (["{missing}"], cli.EXIT_FAILURE),
], ids=["usage-error", "missing-graph"])
def test_an_optimize_refused_before_the_open_leaves_an_earlier_output_untouched(
        tmp_path, capsys, argv, expected):
    files = earlier_optimize(tmp_path, capsys)
    before = [path.read_bytes() for path in files]
    paths = {"graph": str(tmp_path / "g.txt"), "missing": str(tmp_path / "missing.txt")}
    code, stdout, _ = run(["optimize", *[arg.format(**paths) for arg in argv],
                           "--out", str(files[0])], capsys)
    assert code == expected and stdout == ""
    assert [path.read_bytes() for path in files] == before


def test_an_unproven_optimize_replaces_both_files(tmp_path, capsys):
    out, manifest = earlier_optimize(tmp_path, capsys)
    graph = write_graph(tmp_path, random_er_graph(7, 0.6, (1, 2, 3), 1), "w7.txt")
    argv = ["optimize", graph, "--time-limit", "0.001", "--out", str(out)]
    code, _, _ = run(argv, capsys)
    assert code == cli.EXIT_INCUMBENT
    assert json.loads(out.read_text())["status"] == INCUMBENT_TIMEOUT
    assert json.loads(manifest.read_text())["command"] == shlex.join(["isingcoupler", *argv])


@pytest.mark.parametrize("kind", KINDS)
def test_a_directory_at_a_sweep_csv_path_exits_1_with_one_line(tmp_path, capsys, kind):
    path = tmp_path / "out" / f"{kind}.csv"
    path.mkdir(parents=True)
    code, stdout, err = run(["sweep", kind, *SMALL[kind], "--out-dir", str(tmp_path / "out")],
                            capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not list(path.iterdir())


def test_a_directory_at_the_csv_path_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "solve_l0", lambda *args, **kwargs: calls.append(args))
    (tmp_path / "out" / "fig_random_unweighted.csv").mkdir(parents=True)
    code, _, _ = run(["sweep", "fig_random_unweighted", *SMALL["fig_random_unweighted"],
                      "--out-dir", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_FAILURE and calls == []


def test_a_noise_sweep_the_simulation_cap_refuses_exits_1_and_leaves_no_csv(tmp_path, capsys):
    """At grid 200000 the first row's readout alone counts far over the
    cap, so the first simulation raises before it builds anything."""
    out_dir = tmp_path / "out"
    code, stdout, err = run(["sweep", "fig_noise", "--grid-res", "200000",
                             "--out-dir", str(out_dir)], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith("error: n=6 with 100001 gammas and 200000 betas ")
    assert err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


def test_a_failed_sweep_leaves_no_manifest_of_an_earlier_run(tmp_path, capsys):
    """A sweep into the directory of an earlier one removes that run's
    manifest once it opens the CSV, so a sweep that then fails leaves
    neither file, and no manifest naming the first run."""
    out_dir = tmp_path / "d2"
    first = run(["sweep", "fig_noise", "--grid-res", "8", "--lambda-grid", "0.005",
                 "--out-dir", str(out_dir)], capsys)
    assert first[0] == cli.EXIT_OK
    assert sorted(p.name for p in out_dir.iterdir()) == ["fig_noise.csv",
                                                         "fig_noise.csv.manifest.json"]
    second = run(["sweep", "fig_noise", "--grid-res", "200000", "--out-dir", str(out_dir)], capsys)
    assert second[0] == cli.EXIT_FAILURE
    assert list(out_dir.iterdir()) == []


def test_a_directory_at_the_manifest_path_exits_1_with_one_line_and_no_csv(tmp_path, capsys):
    """The manifest path is cleared before the first row: a directory there
    is one error line, and the opened CSV is removed again."""
    (tmp_path / "fig_noise.csv.manifest.json").mkdir()
    code, stdout, err = run(["sweep", "fig_noise", "--grid-res", "8", "--lambda-grid", "0.005",
                             "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not (tmp_path / "fig_noise.csv").exists()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("error", [ValueError, cli.CommandError])
def test_a_sweep_stopped_by_an_error_after_a_row_leaves_no_csv(tmp_path, capsys, monkeypatch,
                                                               kind, error):
    def rows(*args):
        yield {"graph_id": 0}
        raise error("the second row failed")

    for name in ("_random_rows", "_worstcase_rows", "_noise_rows"):
        monkeypatch.setattr(cli, name, rows)
    code, stdout, err = run(["sweep", kind, *SMALL[kind], "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err == "error: the second row failed\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, header", [
    ("fig_random_unweighted", "graph_id,seed,p,m,L0_stars,L1_stars,L0_opt,L1_opt,l0_status"),
    ("fig_random_weighted", "graph_id,seed,p,m,L0_stars,L1_stars,L0_opt,L1_opt,l0_status"),
    ("fig_worstcase", "n,num_classes,max_l0_opt,num_unproven,bound_3n_minus_2,n_plus_1"),
    ("fig_noise", "graph_id,compilation,lambda,gamma,beta,expectation,ratio"),
])
def test_each_sweep_csv_starts_with_its_header_line(tmp_path, capsys, kind, header):
    code, _, _ = run(["sweep", kind, *SMALL[kind], "--out-dir", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    lines = (tmp_path / f"{kind}.csv").read_bytes().splitlines(keepends=True)
    assert lines[0] == f"{header}\r\n".encode()


@pytest.mark.parametrize("command, flag", [
    ("gen", "--weights"), ("sweep", "--weights"), ("cost", "--t-pi-us"),
    ("cost", "--t-ising-per-ion-us")])
def test_a_literal_beyond_the_digit_limit_is_a_usage_error_naming_its_flag(
        tmp_path, capsys, command, flag):
    """1e5000 has more digits than Python converts to text, so the flag that
    holds it is refused before any work."""
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    out_dir = tmp_path / "out"
    argv = {"gen": ["gen", "3", "0.5", "--weights", "1e5000"],
            "sweep": ["sweep", "fig_random_weighted", "--weights", "1,1e5000",
                      "--out-dir", str(out_dir)],
            "cost": ["cost", str(tmp_path / "p.json"), flag, "1e5000"]}[command]
    code, stdout, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == f"error: {flag}: not a number: '1e5000'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["compile", "{graph}", "--out", "{out}"],
    ["optimize", "{graph}", "--objective", "l1", "--out", "{out}"],
    ["cost", "{pulse}"],
], ids=["compile", "optimize-l1", "cost"])
def test_an_input_literal_beyond_the_digit_limit_exits_1_with_one_line(tmp_path, capsys, argv):
    """A weight or a strength of 1e5000 is refused where the file is read:
    one error line naming it, and no output file."""
    graph, pulse, out = tmp_path / "g.txt", tmp_path / "p.json", tmp_path / "o.json"
    graph.write_text("n 2\n0 1 1e5000\n")
    pulse.write_text('{"n": 2, "ops": [{"mask": "+-", "w": "1e5000"}]}')
    code, stdout, err = run([a.format(graph=graph, pulse=pulse, out=out) for a in argv], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err.count("\n") == 1
    assert ("bad strength '1e5000'" if argv[0] == "cost" else "line 2: bad weight '1e5000'") in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["weight", "strength"])
def test_an_exponent_of_a_billion_is_refused_at_once(tmp_path, kind):
    """1e999999999 is refused by its exponent, before Fraction would build
    10^999999999 (which takes minutes): the process ends well within 10 s."""
    graph, pulse = tmp_path / "g.txt", tmp_path / "p.json"
    graph.write_text("n 2\n0 1 1e999999999\n")
    pulse.write_text('{"n": 2, "ops": [{"mask": "+-", "w": "1e999999999"}]}')
    argv = ["compile", str(graph)] if kind == "weight" else ["cost", str(pulse)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "isingcoupler.cli", *argv], capture_output=True,
                          text=True, timeout=10, env=env)
    assert done.returncode == cli.EXIT_FAILURE and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "1e999999999" in done.stderr


@pytest.mark.parametrize("command, flag", [
    ("gen", "--weights"), ("sweep", "--weights"), ("cost", "--t-pi-us")])
def test_a_zero_denominator_is_a_usage_error_with_one_line(tmp_path, capsys, command, flag):
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    out_dir = tmp_path / "out"
    argv = {"gen": ["gen", "3", "0.5", "--weights", "1/0"],
            "sweep": ["sweep", "fig_random_weighted", "--weights", "1,1/0",
                      "--out-dir", str(out_dir)],
            "cost": ["cost", str(tmp_path / "p.json"), "--t-pi-us", "1/0"]}[command]
    code, stdout, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == f"error: {flag}: not a number: '1/0'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command, case, option", [
    *[(kind, case, option) for kind in KINDS for case, option in (
        ("unknown", ["--n-maxx", "3"]),
        ("other-kind", {"fig_random_unweighted": ["--weights", "1"],
                        "fig_random_weighted": ["--n-max", "3"],
                        "fig_worstcase": ["--seed", "5"],
                        "fig_noise": ["--workers", "2"]}[kind]),
        ("abbreviated", {"fig_random_unweighted": ["--graphs", "1"],
                         "fig_random_weighted": ["--weight", "1,2"],
                         "fig_worstcase": ["--n", "4"],
                         "fig_noise": ["--grid", "8"]}[kind]))],
    ("cost", "unknown", ["--t-pi-ms", "100"]),
    ("cost", "removed", ["--t-ms-us", "10"]),
    ("cost", "abbreviated", ["--t-pi", "100"]),
    ("optimize", "abbreviated", ["--obj", "l1"]),
    ("optimize", "abbreviated", ["--time", "5"]),
    ("simulate", "abbreviated", ["--grid", "8"]),
])
def test_a_flag_its_command_does_not_read_exits_3_with_one_line(
        tmp_path, capsys, command, case, option):
    """A typo, a flag of another sweep kind or one deleted (for cost,
    --t-ms-us), and an abbreviation of a flag the command reads."""
    (tmp_path / "p.json").write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    out_dir = tmp_path / "out"
    graph = write_graph(tmp_path, Graph.complete(3))
    argv = {"cost": ["cost", str(tmp_path / "p.json")], "optimize": ["optimize", graph],
            "simulate": ["simulate", graph, "--optimize"]}.get(
                command, ["sweep", command, "--out-dir", str(out_dir)])
    code, stdout, err = run([*argv, *option], capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == f"error: unrecognized arguments: {' '.join(option)}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["sweep"], ["sweep", "fig_worstcase", "--seed", "5"], ["optimize"],
    ["sweep", "fig_random_unweighted", "--n", "9"], ["cost", "p.json", "--t-pi-us", "x"],
], ids=["argparse-missing-kind", "argparse-unknown-flag", "argparse-missing-path",
        "command-range", "command-number"])
def test_every_usage_error_is_one_line_with_the_same_prefix(tmp_path, capsys, monkeypatch, argv):
    """argparse's refusals and a CommandError's both print 'error: '
    first, so one pattern matches every exit-3 line."""
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("objective", ["l0", "l1"])
def test_a_one_vertex_graph_solves_to_the_empty_sequence(tmp_path, capsys, objective):
    graph = tmp_path / "g.txt"
    graph.write_text("n 1\n")
    out = str(tmp_path / "o.json")
    code, stdout, _ = run(["optimize", str(graph), "--objective", objective, "--out", out],
                          capsys)
    assert code == cli.EXIT_OK
    assert stdout.startswith(f"objective=0 kind={objective} status=optimal ")
    code, stdout, _ = run(["verify", out, str(graph)], capsys)
    assert code == cli.EXIT_OK and stdout.startswith("verified=true n=1 m=0 L0=0 ")


def test_a_malformed_graph_file_exits_1_with_its_line(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 0\n")
    code, stdout, err = run(["optimize", str(graph)], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err == f"error: {graph}: line 2: self-loop at vertex 0\n"


def test_verify_of_a_sequence_on_other_qubits_exits_1(tmp_path, capsys):
    pulse = tmp_path / "p.json"
    pulse.write_text(sequence_to_json(union_of_stars(Graph.complete(3))))
    code, stdout, err = run(["verify", str(pulse), write_graph(tmp_path, Graph.complete(4))],
                            capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err == "error: qubit count mismatch: sequence 3 vs graph 4\n"


def test_ms_simulation_of_a_weighted_graph_without_a_pulse_exits_1(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1 2\n1 2\n")
    code, stdout, err = run(["simulate", str(graph), "--compilation", "ms"], capsys)
    assert code == cli.EXIT_FAILURE and stdout == ""
    assert err == "error: ms simulation of a weighted graph needs --pulse\n"


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
    seeds = []
    for extra in (["--seed", "5"], []):
        out_dir = tmp_path / f"out{len(extra)}"
        code, _, _ = run(["sweep", "fig_random_unweighted", *SMALL["fig_random_unweighted"],
                          "--out-dir", str(out_dir), *extra], capsys)
        assert code == cli.EXIT_OK
        manifest = (out_dir / "fig_random_unweighted.csv.manifest.json").read_text()
        seeds.append(json.loads(manifest)["seed"])
    assert seeds == [5, 0]


def test_random_sweep_writes_its_columns_and_manifest(tmp_path, capsys):
    code, _, _ = run(["sweep", "fig_random_unweighted", "--n", "4", "--p-count", "2",
                      "--p-step", "0.4", "--graphs-per-p", "1", "--out-dir", str(tmp_path)],
                     capsys)
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
    assert "config_overrides" not in manifest


def test_random_sweep_with_two_workers_writes_the_same_csv(tmp_path, capsys):
    texts = []
    for workers in (1, 2):
        out_dir = tmp_path / f"out{workers}"
        code, _, _ = run(["sweep", "fig_random_unweighted", "--n", "4", "--p-count", "2",
                          "--p-step", "0.4", "--graphs-per-p", "2", "--workers", str(workers),
                          "--out-dir", str(out_dir)], capsys)
        assert code == cli.EXIT_OK
        texts.append((out_dir / "fig_random_unweighted.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") == 1 + 2 * 2


def test_random_sweep_asks_for_no_more_worker_processes_than_tasks(tmp_path, capsys,
                                                                  monkeypatch):
    """--workers 8 with 3 tasks asks the pool for 3 processes, and with 1 task
    runs serially.  The fake pool records max_workers and maps in this
    process, so the test starts no process."""
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    for graphs_per_p, expected in ((3, [3]), (1, [])):
        asked.clear()
        code, _, _ = run(["sweep", "fig_random_unweighted", "--n", "3", "--p-count", "1",
                          "--graphs-per-p", str(graphs_per_p), "--workers", "8",
                          "--out-dir", str(tmp_path / str(graphs_per_p))], capsys)
        assert code == cli.EXIT_OK
        assert asked == expected


def test_a_manifest_command_replays_its_sweep(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run(["sweep", "fig_random_weighted", "--n", "4", "--p-count", "2",
                      "--p-step", "0.4", "--graphs-per-p", "2", "--workers", "2",
                      "--weights", "1,-1", "--out-dir", str(out_dir)], capsys)
    assert code == cli.EXIT_OK
    csv_path = out_dir / "fig_random_weighted.csv"
    first = csv_path.read_bytes()
    manifest = json.loads((out_dir / "fig_random_weighted.csv.manifest.json").read_text())
    assert "config_overrides" not in manifest
    csv_path.unlink()
    assert run(shlex.split(manifest["command"])[1:], capsys)[0] == cli.EXIT_OK
    assert csv_path.read_bytes() == first
