"""Command-line surface: compile, optimize, verify, cost, simulate, sweep, gen.

Exit codes: 0 success, 1 verification/parse failure, 2 finished with an
unproven incumbent (time limit reached), 3 usage error.  Every setting is a
flag of the command, or sweep kind, that reads it; any other flag, and any
abbreviated one, is a usage error.  A file-producing command opens its
output once every flag is checked and every input read, before the work,
and writes a ``<output>.manifest.json`` sidecar recording the invocation,
seed, version, and wall time when the work finishes (exit 0 or 2); its
``command`` replays the run.  A command that fails with exit 1 after the
open leaves neither file, and no file of an earlier run at that path.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import shlex
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constructions import union_of_stars, weighted_edge_by_edge
from .exactopt import (
    DEFAULT_TIME_LIMIT,
    INCUMBENT_TIMEOUT,
    MAX_EXACT_N,
    OPTIMAL,
    check_time_limit,
    solve_l0,
    solve_l1,
)
from .graphs import (
    MAX_ENUMERATION_N,
    Graph,
    check_weights,
    couplings,
    enumerate_labeled_graphs,
    pair_order,
    parse_edge_list,
    random_er_graph,
    read_fraction,
    serialize_edge_list,
)
from .pulses import evaluate, sequence_from_json, sequence_to_json, verify
from .qaoa import (
    CX,
    DEFAULT_GRID_RESOLUTION,
    MS,
    NoiseSpec,
    check_angles,
    check_grid_resolution,
    optimize_angles,
    simulate_qaoa_p1,
)
from .rng import SplitMix64
from .timing import DEFAULT_T_ISING_PER_ION_US, DEFAULT_T_PI_US, TimingParams, estimate_time_us

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCUMBENT = 2
EXIT_USAGE = 3


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # None or "" means absent: the help says what then
        return action.help if action.default in (None, "") else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # an abbreviation would be a second spelling of a flag
        super().__init__(allow_abbrev=False, formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):  # argparse default exits 2; the contract says 3
        # the prefix main gives a CommandError, so every usage error starts alike
        self.exit(EXIT_USAGE, f"error: {message}\n")


class CommandError(Exception):
    def __init__(self, message, code=EXIT_FAILURE):
        super().__init__(message)
        self.code = code


def _usage(call, *args):
    """Run a library call that raises ValueError only for a bad argument;
    a rejected value is a usage error."""
    try:
        return call(*args)
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_USAGE) from None


def _number(read, flag, text):
    """text read by read (float, or ``read_fraction`` for an exact number);
    a text it refuses is a usage error."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError):
        raise CommandError(f"{flag}: not a number: {text!r}", EXIT_USAGE) from None


def _weights(text: str) -> list[Fraction]:
    """The comma list of a --weights flag."""
    return [_number(read_fraction, "--weights", w) for w in text.split(",")]


def _load(path: str, kind: str, parse):
    """parse of the text of the <kind> file at path.  A missing, unreadable
    or malformed file is one error line naming it; malformed is a
    ValueError of the parse, or of decoding the text."""
    try:
        return parse(Path(path).read_text())
    except FileNotFoundError:
        raise CommandError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise CommandError(f"cannot read {kind} file {path}: {exc.strerror}") from None
    except ValueError as exc:
        detail = f"bad pulse JSON ({exc})" if kind == "pulse" else exc
        raise CommandError(f"{path}: {detail}") from None


@contextlib.contextmanager
def _writing(path):
    """An OSError in the block is one error line naming path."""
    try:
        yield
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _output(path, args, newline=None):
    """The file at path, opened for writing (None when path is empty), and
    its ``<path>.manifest.json``.  A command opens it once every flag is
    checked and every input read, and does its work in the block: an
    earlier run's manifest goes at the open, a block ending in an error that
    main makes an exit code (ValueError, CommandError) removes the file, and
    one that finishes writes the manifest."""
    if not path:
        yield None
        return
    manifest = Path(f"{path}.manifest.json")
    with _writing(path):
        fh = open(path, "w", newline=newline)
    try:
        with _writing(path), fh:
            with _writing(manifest):
                manifest.unlink(missing_ok=True)
            yield fh
        with _writing(manifest):
            manifest.write_text(json.dumps({
                "command": shlex.join(["isingcoupler", *args._argv]),
                "subcommand": args.command,
                "inputs": [args.graph] if hasattr(args, "graph") else [],
                "seed": getattr(args, "seed", None),
                "tool_version": __version__,
                "wall_time_ms": round((time.monotonic() - args._started) * 1000, 3),
            }, indent=2))
    except (ValueError, CommandError):
        Path(path).unlink()
        raise


def _cmd_gen(args) -> int:
    weights = _weights(args.weights) if args.weights else []
    g = _usage(random_er_graph, args.n, args.p, weights, args.seed)
    with _output(args.out, args) as fh:
        (fh or sys.stdout).write(serialize_edge_list(g))
    if args.out:
        print(f"wrote {args.out} (n={g.n}, m={g.m})")
    return EXIT_OK


def _cmd_compile(args) -> int:
    g = _load(args.graph, "graph", parse_edge_list)
    if args.method == "stars" and g.uniform_weight() is None:
        raise CommandError("method requires unweighted (uniform-weight) graph")
    with _output(args.out, args) as fh:
        if args.method == "stars":
            seq = union_of_stars(g)
            bound = 3 * g.n - 2
        else:
            seq = weighted_edge_by_edge(g)
            bound = 3 * g.m + 1
        if not verify(seq, g):
            raise CommandError("internal error: compiled sequence failed verification")
        if fh:
            fh.write(sequence_to_json(seq) + "\n")
    print(
        f"n={g.n} m={g.m} method={args.method} L0={seq.l0} L1={seq.l1} "
        f"bound={bound} verified=true"
    )
    return EXIT_OK


def _cmd_optimize(args) -> int:
    if args.objective == "l1" and "time_limit" in args:
        raise CommandError("--time-limit is read only by --objective l0", EXIT_USAGE)
    time_limit = _usage(check_time_limit, getattr(args, "time_limit", DEFAULT_TIME_LIMIT))
    g = _load(args.graph, "graph", parse_edge_list)
    if g.n > MAX_EXACT_N:
        raise CommandError(
            f"n={g.n} exceeds the exact-solve limit of {MAX_EXACT_N}; "
            "use compile for a construction",
            EXIT_USAGE,
        )
    with _output(args.out, args) as fh:
        if args.objective == "l1":
            result = solve_l1(g)
        else:
            result = solve_l0(g, time_limit=time_limit)
        if fh:
            fh.write(result.to_json() + "\n")
    print(
        f"objective={result.objective} kind={result.objective_kind} "
        f"status={result.status} nodes={result.nodes_explored} "
        f"wall_time_ms={result.wall_time * 1000:.1f}"
    )
    return EXIT_INCUMBENT if result.status == INCUMBENT_TIMEOUT else EXIT_OK


def _cmd_verify(args) -> int:
    g = _load(args.graph, "graph", parse_edge_list)
    seq = _load(args.pulse, "pulse", sequence_from_json)
    if seq.n != g.n:
        raise CommandError(f"qubit count mismatch: sequence {seq.n} vs graph {g.n}")
    for (i, j), realized, target in zip(pair_order(g.n), evaluate(seq), couplings(g)):
        if realized != target:
            raise CommandError(f"mismatch at ({i},{j}): realized {realized}, target {target}")
    print(f"verified=true n={g.n} m={g.m} L0={seq.l0} L1={seq.l1}")
    return EXIT_OK


def _cmd_cost(args) -> int:
    durations = []
    for flag, text in (("--t-pi-us", args.t_pi_us),
                       ("--t-ising-per-ion-us", args.t_ising_per_ion_us)):
        value = _number(read_fraction, flag, text)
        if value <= 0:  # checked here, so that the message names the flag
            raise CommandError(f"{flag}={value} must be positive", EXIT_USAGE)
        durations.append(value)
    params = TimingParams(*durations)
    seq = _load(args.pulse, "pulse", sequence_from_json)
    total_us = estimate_time_us(seq, params)
    print(
        f"n={seq.n} L0={seq.l0} L1={seq.l1} t_pi_us={params.t_pi_us} "
        f"t_ising_per_ion_us={params.t_ising_per_ion_us}"
    )
    print(f"estimate_us={total_us} estimate_ms={_milliseconds(total_us)}")
    return EXIT_OK


def _milliseconds(total_us: Fraction) -> str:
    """total_us / 1000 as '%.6g' prints the float; beyond float range, the
    exact value rounded to 6 significant digits in the same notation."""
    try:
        return f"{float(total_us) / 1000.0:.6g}"
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 6
            ms = Decimal(total_us.numerator) / (total_us.denominator * 1000)
        return f"{ms.normalize():g}"


def _cmd_simulate(args) -> int:
    for dest in ("gamma", "beta") if args.optimize else ("grid_res",):
        if dest in args:  # (the parser sets no default for them)
            raise CommandError(f"--{dest.replace('_', '-')} is read only "
                               f"{'without' if args.optimize else 'with'} --optimize", EXIT_USAGE)
    gamma, beta = getattr(args, "gamma", 0.0), getattr(args, "beta", 0.0)
    grid_res = getattr(args, "grid_res", DEFAULT_GRID_RESOLUTION)
    if args.optimize:
        _usage(check_grid_resolution, grid_res)
    else:
        _usage(check_angles, [gamma, beta])
    noise = _usage(NoiseSpec, args.noise_lambda)
    if args.pulse and args.compilation == CX:
        raise CommandError("--pulse is read only by --compilation ms", EXIT_USAGE)
    g = _load(args.graph, "graph", parse_edge_list)
    seq = None
    if args.compilation == MS:
        if args.pulse:
            seq = _load(args.pulse, "pulse", sequence_from_json)
        else:
            if g.uniform_weight() is None:
                raise CommandError("ms simulation of a weighted graph needs --pulse")
            seq = union_of_stars(g)
    if args.optimize:
        gamma, beta, expectation, ratio = optimize_angles(
            g, args.compilation, seq, noise, grid_resolution=grid_res)
        tail = f" ratio={ratio:.9f}"
    else:
        expectation, tail = simulate_qaoa_p1(g, args.compilation, seq, gamma, beta, noise), ""
    print(f"compilation={args.compilation} lambda={args.noise_lambda} gamma={gamma:.6f} "
          f"beta={beta:.6f} expectation={expectation:.9f}{tail}")
    return EXIT_OK


def _random_sweep_instance(task):
    """Worker for random-graph sweeps (must stay picklable)."""
    n, p, weights, seed, time_limit = task
    g = random_er_graph(n, p, weights, seed)
    construction = weighted_edge_by_edge(g) if weights else union_of_stars(g)
    l0 = solve_l0(g, time_limit=time_limit)
    l1 = solve_l1(g)
    return {
        "seed": seed,
        "p": p,
        "m": g.m,
        "L0_stars": construction.l0,
        "L1_stars": str(construction.l1),
        "L0_opt": str(l0.objective),
        "L1_opt": str(l1.objective),
        "l0_status": l0.status,
    }


def _random_rows(args, weights):
    rng = SplitMix64(args.seed)
    tasks = []
    for ip in range(1, args.p_count + 1):
        for _ in range(args.graphs_per_p):
            tasks.append((args.n, args.p_step * ip, tuple(weights), rng.next_u64(),
                          args.time_limit))
    # the pool forks all its processes at once, so ask for no more than tasks
    workers = min(args.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_random_sweep_instance, tasks))
    else:
        rows = map(_random_sweep_instance, tasks)
    for idx, row in enumerate(rows):
        yield {"graph_id": idx, **row}


def _worstcase_rows(n_max, time_limit):
    for n in range(3, n_max + 1):
        results = [solve_l0(g, time_limit=time_limit)
                   for g in enumerate_labeled_graphs(n, distinct_only=True)]
        yield {
            "n": n,
            "num_classes": len(results),
            "max_l0_opt": max(int(res.objective) for res in results),
            "num_unproven": sum(res.status != OPTIMAL for res in results),
            "bound_3n_minus_2": 3 * n - 2,
            "n_plus_1": n + 1,
        }


def noise_standin_graphs() -> list[tuple[str, Graph]]:
    """Small example graphs used for the noise sweep."""
    star = Graph.unweighted(6, [(0, i) for i in range(1, 6)])
    cycle = Graph.unweighted(6, [(i, (i + 1) % 6) for i in range(6)])
    k6 = Graph.complete(6)
    two_hubs = Graph.unweighted(
        6, [(0, 2), (2, 3), (2, 4), (2, 5), (1, 3), (1, 4), (1, 5)]
    )
    return [("star_k15", star), ("cycle_c6", cycle), ("k6", k6), ("two_hubs", two_hubs)]


def _noise_rows(graphs, noises, grid_res):
    for name, g in graphs:
        seq = union_of_stars(g)
        for noise in noises:
            for compilation in (CX, MS):
                gamma, beta, expectation, ratio = optimize_angles(
                    g, compilation, seq if compilation == MS else None,
                    noise, grid_resolution=grid_res,
                )
                yield {
                    "graph_id": name,
                    "compilation": compilation,
                    "lambda": noise.major_rate,
                    "gamma": f"{gamma:.9f}",
                    "beta": f"{beta:.9f}",
                    "expectation": f"{expectation:.9f}",
                    "ratio": f"{ratio:.9f}",
                }


def _check_random_ranges(args):
    """Reject sizes, counts and edge probabilities a random sweep cannot run."""
    if not 1 <= args.n <= MAX_EXACT_N:
        raise CommandError(f"--n={args.n} outside [1, {MAX_EXACT_N}]", EXIT_USAGE)
    for flag, value in (("--graphs-per-p", args.graphs_per_p), ("--p-count", args.p_count),
                        ("--workers", args.workers)):
        if value < 1:
            raise CommandError(f"{flag}={value} must be at least 1", EXIT_USAGE)
    for k in range(1, args.p_count + 1):
        p = args.p_step * k
        if not 0.0 <= p <= 1.0:
            raise CommandError(
                f"edge probability {p} (--p-step * {k}) outside [0, 1]", EXIT_USAGE
            )


def _cmd_sweep(args) -> int:
    # Each branch checks the values its kind reads, before out_dir is made.
    # A generator's body runs only at the first next(), so every solve runs
    # inside the open file and an unwritable path fails before any of them.
    # The checks reject every empty grid, so there is a first row.
    if args.kind == "fig_worstcase":
        if args.n_max < 3:
            raise CommandError(
                f"--n-max={args.n_max} below 3, the smallest size fig_worstcase covers",
                EXIT_USAGE,
            )
        if args.n_max > MAX_ENUMERATION_N:
            raise CommandError(
                f"--n-max={args.n_max} too large to enumerate (limit {MAX_ENUMERATION_N})",
                EXIT_USAGE,
            )
        rows = _worstcase_rows(args.n_max, _usage(check_time_limit, args.time_limit))
    elif args.kind == "fig_noise":
        grid_res = _usage(check_grid_resolution, args.grid_res)
        noises = [_usage(NoiseSpec, _number(float, "--lambda-grid", x))
                  for x in args.lambda_grid.split(",")]
        rows = _noise_rows(noise_standin_graphs(), noises, grid_res)
    else:
        _check_random_ranges(args)
        _usage(check_time_limit, args.time_limit)
        weighted = args.kind == "fig_random_weighted"
        weights = _usage(check_weights, _weights(args.weights)) if weighted else []
        _usage(SplitMix64, args.seed)
        rows = _random_rows(args, weights)
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.kind}.csv"
    with _output(out, args, newline="") as fh:
        first = next(rows)
        writer = csv.DictWriter(fh, fieldnames=list(first))
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)
    print(f"wrote {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isingcoupler", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random graph")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--weights", default="",
                   help="comma list, e.g. 1,2,3; empty (the default) for unweighted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compile", help="compile a graph to a pulse sequence")
    p.add_argument("graph")
    p.add_argument("--method", choices=["stars", "edges"], default="stars")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("optimize", help="exact L0/L1 minimization")
    p.add_argument("graph")
    p.add_argument("--objective", choices=["l0", "l1"], default="l0")
    p.add_argument("--time-limit", type=float, default=argparse.SUPPRESS,
                   help=f"seconds for the L0 search (default: {DEFAULT_TIME_LIMIT:g})")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="check a pulse sequence against a graph")
    p.add_argument("pulse")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cost", help="hardware execution-time estimate")
    p.add_argument("pulse")
    # text defaults, which _cmd_cost reads as it reads the flags
    p.add_argument("--t-pi-us", default=str(DEFAULT_T_PI_US), help="microseconds per flip round")
    p.add_argument("--t-ising-per-ion-us", default=str(DEFAULT_T_ISING_PER_ION_US),
                   help="microseconds per unit of Ising strength per ion")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("simulate", help="noisy p=1 QAOA expectation")
    p.add_argument("graph")
    p.add_argument("--compilation", choices=[CX, MS], default=MS)
    p.add_argument("--pulse", help="ms pulse sequence (default: union of stars)")
    p.add_argument("--lambda", dest="noise_lambda", type=float, default=0.0)
    # absent unless given: the angles (0) are read without --optimize, the grid
    # (DEFAULT_GRID_RESOLUTION) with it
    p.add_argument("--gamma", type=float, default=argparse.SUPPRESS)
    p.add_argument("--beta", type=float, default=argparse.SUPPRESS)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--grid-res", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="experiment sweeps emitting CSV")
    kinds = p.add_subparsers(dest="kind", required=True)
    unweighted = kinds.add_parser("fig_random_unweighted", help="random graphs: stars vs optima")
    weighted = kinds.add_parser("fig_random_weighted", help="weighted graphs: edges vs optima")
    worstcase = kinds.add_parser("fig_worstcase", help="largest optimal L0 over all graph classes")
    noise = kinds.add_parser("fig_noise", help="optimized noisy QAOA, cx vs ms")
    for p in (unweighted, weighted, worstcase, noise):
        p.add_argument("--out-dir", default="sweep_out", help="directory for <kind>.csv")
        p.set_defaults(func=_cmd_sweep)
    for p in (unweighted, weighted, worstcase):
        p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                       help="seconds per L0 solve")
    for p in (unweighted, weighted):
        p.add_argument("--n", type=int, default=7, help="vertices per graph")
        p.add_argument("--graphs-per-p", type=int, default=4, help="graphs per edge probability")
        p.add_argument("--p-count", type=int, default=24, help="edge probabilities per sweep")
        p.add_argument("--p-step", type=float, default=0.04, help="edge probability step")
        p.add_argument("--workers", type=int, default=1, help="solver processes")
        p.add_argument("--seed", type=int, default=0, help="draws the seed of each graph")
    weighted.add_argument("--weights", default="1,2,3", help="comma list of edge weights")
    worstcase.add_argument("--n-max", type=int, default=5, help="covers n = 3..n-max")
    noise.add_argument("--lambda-grid", default="0.001,0.005,0.01",
                       help="comma list of major depolarizing rates")
    noise.add_argument("--grid-res", type=int, default=DEFAULT_GRID_RESOLUTION,
                       help="points per angle in the scan")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args._argv = argv  # the manifest's command replays exactly these
    args._started = time.monotonic()
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
