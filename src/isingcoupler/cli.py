"""Command-line surface: compile, optimize, verify, cost, simulate, sweep, gen.

Exit codes: 0 success, 1 verification/parse failure, 2 finished with an
unproven incumbent (time limit reached), 3 usage error.  Every file-producing
command writes a ``<output>.manifest.json`` sidecar recording the invocation,
seed, config overrides, version, and wall time, so runs can be replayed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constructions import union_of_stars, weighted_edge_by_edge
from .exactopt import (
    INCUMBENT_TIMEOUT,
    MAX_EXACT_N,
    OPTIMAL,
    check_time_limit,
    solve_l0,
    solve_l1,
)
from .graphs import (
    Graph,
    GraphParseError,
    enumerate_labeled_graphs,
    parse_edge_list,
    random_er_graph,
    serialize_edge_list,
    graph_to_json,
    to_adjacency,
)
from .pulses import evaluate, sequence_from_json, sequence_to_json, verify
from .qaoa import (
    CX,
    MS,
    NoiseSpec,
    check_grid_resolution,
    maxcut_brute_force,
    optimize_angles,
    simulate_qaoa_p1,
)
from .rng import SplitMix64
from .timing import TimingParams, estimate_time_us

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCUMBENT = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 3
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CommandError(Exception):
    def __init__(self, message, code=EXIT_FAILURE):
        super().__init__(message)
        self.code = code


def _usage(check, value):
    """Run a library argument check; a rejected value is a usage error."""
    try:
        return check(value)
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_USAGE) from None


def parse_config(path: str | None) -> dict[str, str]:
    """key = value lines; '#' starts a comment."""
    if not path:
        return {}
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CommandError(f"bad config line: {raw!r}", EXIT_USAGE)
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _timing_from_config(cfg: dict[str, str]) -> TimingParams:
    def get(key, default):
        return Fraction(cfg[key]) if key in cfg else default

    return TimingParams(
        t_pi_us=get("timing.t_pi_us", TimingParams().t_pi_us),
        t_ising_per_ion_us=get(
            "timing.t_ising_per_ion_us", TimingParams().t_ising_per_ion_us
        ),
        t_ms_us=get("timing.t_ms_us", TimingParams().t_ms_us),
    )


def _load_graph(path: str) -> Graph:
    try:
        return parse_edge_list(Path(path).read_text())
    except FileNotFoundError:
        raise CommandError(f"graph file not found: {path}")
    except GraphParseError as exc:
        raise CommandError(f"{path}: {exc}")


def _load_sequence(path: str):
    try:
        return sequence_from_json(Path(path).read_text())
    except FileNotFoundError:
        raise CommandError(f"pulse file not found: {path}")
    except (ValueError, KeyError) as exc:
        raise CommandError(f"{path}: bad pulse JSON ({exc})")


def _write_manifest(out_path: Path, args_ns, started: float, seed=None, overrides=None):
    manifest = {
        "command": " ".join(sys.argv) if sys.argv else "",
        "subcommand": args_ns.command,
        "inputs": getattr(args_ns, "_inputs", []),
        "seed": seed,
        "config_overrides": overrides or {},
        "tool_version": __version__,
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }
    Path(str(out_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def _cmd_gen(args) -> int:
    started = time.monotonic()
    weights = [Fraction(w) for w in args.weights.split(",")] if args.weights else []
    g = random_er_graph(args.n, args.p, weights, args.seed)
    text = graph_to_json(g) + "\n" if args.json else serialize_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest(Path(args.out), args, started, seed=args.seed)
        print(f"wrote {args.out} (n={g.n}, m={g.m})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_compile(args) -> int:
    started = time.monotonic()
    g = _load_graph(args.graph)
    args._inputs = [args.graph]
    if args.method == "stars":
        if g.m > 0 and g.uniform_weight() is None:
            raise CommandError("method requires unweighted (uniform-weight) graph")
        seq = union_of_stars(g)
        bound = 3 * g.n - 2
    else:
        seq = weighted_edge_by_edge(g)
        bound = 3 * g.m + 1
    if not verify(seq, g):
        raise CommandError("internal error: compiled sequence failed verification")
    if args.out:
        Path(args.out).write_text(sequence_to_json(seq) + "\n")
        _write_manifest(Path(args.out), args, started)
    print(
        f"n={g.n} m={g.m} method={args.method} L0={seq.l0} L1={seq.l1} "
        f"bound={bound} verified=true"
    )
    return EXIT_OK


def _cmd_optimize(args) -> int:
    started = time.monotonic()
    _usage(check_time_limit, args.time_limit)
    g = _load_graph(args.graph)
    args._inputs = [args.graph]
    if g.n > MAX_EXACT_N:
        raise CommandError(
            f"n={g.n} exceeds the exact-solve limit of {MAX_EXACT_N}; "
            "use compile for a construction",
            EXIT_USAGE,
        )
    if args.objective == "l1":
        result = solve_l1(g, time_limit=args.time_limit)
    else:
        result = solve_l0(g, time_limit=args.time_limit)
    if args.out:
        Path(args.out).write_text(result.to_json() + "\n")
        _write_manifest(Path(args.out), args, started)
    print(
        f"objective={result.objective} kind={result.objective_kind} "
        f"status={result.status} nodes={result.nodes_explored} "
        f"wall_time_ms={result.wall_time * 1000:.1f}"
    )
    if result.status == INCUMBENT_TIMEOUT:
        return EXIT_INCUMBENT
    return EXIT_OK if result.status == OPTIMAL else EXIT_FAILURE


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    seq = _load_sequence(args.pulse)
    if seq.n != g.n:
        raise CommandError(f"qubit count mismatch: sequence {seq.n} vs graph {g.n}")
    realized = evaluate(seq)
    target = to_adjacency(g)
    for i in range(g.n - 1):
        for j in range(i + 1, g.n):
            if realized[i, j] != target[i, j]:
                raise CommandError(
                    f"mismatch at ({i},{j}): realized {realized[i, j]}, "
                    f"target {target[i, j]}"
                )
    print(f"verified=true n={g.n} m={g.m} L0={seq.l0} L1={seq.l1}")
    return EXIT_OK


def _cmd_cost(args) -> int:
    seq = _load_sequence(args.pulse)
    cfg = parse_config(args.config)
    params = _timing_from_config(cfg)
    total_us = estimate_time_us(seq, params)
    print(
        f"n={seq.n} L0={seq.l0} L1={seq.l1} t_pi_us={params.t_pi_us} "
        f"t_ising_per_ion_us={params.t_ising_per_ion_us} t_ms_us={params.t_ms_us}"
    )
    print(f"estimate_us={total_us} estimate_ms={float(total_us) / 1000.0:.6g}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    _usage(check_grid_resolution, args.grid_res)
    g = _load_graph(args.graph)
    seq = None
    if args.compilation == MS:
        if args.pulse:
            seq = _load_sequence(args.pulse)
        else:
            if g.m > 0 and g.uniform_weight() is None:
                raise CommandError("ms simulation of a weighted graph needs --pulse")
            seq = union_of_stars(g)
        if not verify(seq, g):
            raise CommandError("pulse sequence does not realize the graph")
    noise = NoiseSpec(args.noise_lambda)
    if args.optimize:
        gamma, beta, ratio = optimize_angles(
            g, args.compilation, seq, noise, grid_resolution=args.grid_res
        )
        expectation = ratio * float(maxcut_brute_force(g))
        print(
            f"compilation={args.compilation} lambda={args.noise_lambda} "
            f"gamma={gamma:.6f} beta={beta:.6f} "
            f"expectation={expectation:.9f} ratio={ratio:.9f}"
        )
    else:
        value = simulate_qaoa_p1(g, args.compilation, seq, args.gamma, args.beta, noise)
        print(
            f"compilation={args.compilation} lambda={args.noise_lambda} "
            f"gamma={args.gamma:.6f} beta={args.beta:.6f} expectation={value:.9f}"
        )
    return EXIT_OK


def _random_sweep_instance(task):
    """Worker for random-graph sweeps (must stay picklable)."""
    n, p, weights, seed, time_limit = task
    g = random_er_graph(n, p, weights, seed)
    stars = union_of_stars(g) if not weights else None
    construction = stars if stars is not None else weighted_edge_by_edge(g)
    l0 = solve_l0(g, time_limit=time_limit)
    l1 = solve_l1(g, time_limit=time_limit)
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


def _sweep_random(kind, cfg, out_dir, workers, seed, time_limit):
    n = int(cfg.get("sweep.n", 7))
    per_p = int(cfg.get("sweep.graphs_per_p", 4))
    p_count = int(cfg.get("sweep.p_count", 24))
    p_step = float(cfg.get("sweep.p_step", 0.04))
    weights = []
    if kind == "fig_random_weighted":
        weights = [Fraction(w) for w in cfg.get("sweep.weights", "1,2,3").split(",")]
    rng = SplitMix64(seed)
    tasks = []
    for ip in range(1, p_count + 1):
        for _ in range(per_p):
            tasks.append((n, p_step * ip, tuple(weights), rng.next_u64(), time_limit))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_random_sweep_instance, tasks))
    else:
        rows = [_random_sweep_instance(t) for t in tasks]
    out = out_dir / f"{kind}.csv"
    fields = ["graph_id", "seed", "p", "m", "L0_stars", "L1_stars", "L0_opt", "L1_opt", "l0_status"]
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for idx, row in enumerate(rows):
            writer.writerow({"graph_id": idx, **row})
    return [out]


def _sweep_worstcase(cfg, out_dir, time_limit):
    n_max = int(cfg.get("sweep.n_max", 5))
    out = out_dir / "fig_worstcase.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "n", "num_classes", "max_l0_opt", "num_unproven", "bound_3n_minus_2", "n_plus_1",
            ],
        )
        writer.writeheader()
        for n in range(3, n_max + 1):
            worst = 0
            count = 0
            unproven = 0
            for g in enumerate_labeled_graphs(n, distinct_only=True):
                count += 1
                res = solve_l0(g, time_limit=time_limit)
                worst = max(worst, int(res.objective))
                unproven += res.status != OPTIMAL
            writer.writerow(
                {
                    "n": n,
                    "num_classes": count,
                    "max_l0_opt": worst,
                    "num_unproven": unproven,
                    "bound_3n_minus_2": 3 * n - 2,
                    "n_plus_1": n + 1,
                }
            )
    return [out]


def noise_standin_graphs() -> list[tuple[str, Graph]]:
    """Small example graphs used for the noise sweep."""
    star = Graph.unweighted(6, [(0, i) for i in range(1, 6)])
    cycle = Graph.unweighted(6, [(i, (i + 1) % 6) for i in range(6)])
    k6 = Graph.complete(6)
    two_hubs = Graph.unweighted(
        6, [(0, 2), (2, 3), (2, 4), (2, 5), (1, 3), (1, 4), (1, 5)]
    )
    return [("star_k15", star), ("cycle_c6", cycle), ("k6", k6), ("two_hubs", two_hubs)]


def _sweep_noise(cfg, out_dir, lambda_grid, grid_res):
    out = out_dir / "fig_noise.csv"
    graphs = noise_standin_graphs()
    names = cfg.get("sweep.noise_graphs")
    if names:
        wanted = {s.strip() for s in names.split(",")}
        graphs = [(name, g) for name, g in graphs if name in wanted]
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["graph_id", "compilation", "lambda", "gamma", "beta", "expectation", "ratio"],
        )
        writer.writeheader()
        for name, g in graphs:
            seq = union_of_stars(g)
            cmax = float(maxcut_brute_force(g))
            for lam in lambda_grid:
                for compilation in (CX, MS):
                    gamma, beta, ratio = optimize_angles(
                        g, compilation, seq if compilation == MS else None,
                        NoiseSpec(lam), grid_resolution=grid_res,
                    )
                    writer.writerow(
                        {
                            "graph_id": name,
                            "compilation": compilation,
                            "lambda": lam,
                            "gamma": f"{gamma:.9f}",
                            "beta": f"{beta:.9f}",
                            "expectation": f"{ratio * cmax:.9f}",
                            "ratio": f"{ratio:.9f}",
                        }
                    )
    return [out]


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    cfg = parse_config(args.config)
    time_limit = _usage(
        check_time_limit,
        args.time_limit
        if args.time_limit is not None
        else float(cfg.get("sweep.time_limit_s", 600.0)),
    )
    grid_res = _usage(
        check_grid_resolution,
        args.grid_res if args.grid_res is not None else int(cfg.get("sweep.grid_res", 32)),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else int(cfg.get("sweep.seed", 0))
    workers = int(cfg.get("sweep.workers", 1))
    lam_text = args.lambda_grid or cfg.get("sweep.lambda_grid", "0.001,0.005,0.01")
    lambda_grid = [float(x) for x in lam_text.split(",")]
    if args.kind in ("fig_random_unweighted", "fig_random_weighted"):
        outputs = _sweep_random(args.kind, cfg, out_dir, workers, seed, time_limit)
    elif args.kind == "fig_worstcase":
        outputs = _sweep_worstcase(cfg, out_dir, time_limit)
    else:
        outputs = _sweep_noise(cfg, out_dir, lambda_grid, grid_res)
    for out in outputs:
        _write_manifest(out, args, started, seed=seed, overrides=cfg)
        print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isingcoupler", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random graph", parents=[])
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--weights", default="", help="comma list, e.g. 1,2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit graph JSON instead of edge list")
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
    p.add_argument("--time-limit", dest="time_limit", type=float, default=600.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="check a pulse sequence against a graph")
    p.add_argument("pulse")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cost", help="hardware execution-time estimate")
    p.add_argument("pulse")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("simulate", help="noisy p=1 QAOA expectation")
    p.add_argument("graph")
    p.add_argument("--compilation", choices=[CX, MS], default=MS)
    p.add_argument("--pulse")
    p.add_argument("--lambda", dest="noise_lambda", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--grid-res", dest="grid_res", type=int, default=32)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="experiment sweeps emitting CSV")
    p.add_argument(
        "kind",
        choices=["fig_random_unweighted", "fig_random_weighted", "fig_worstcase", "fig_noise"],
    )
    p.add_argument("--config")
    p.add_argument("--out-dir", dest="out_dir", default="sweep_out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    p.add_argument("--lambda-grid", dest="lambda_grid", default=None)
    p.add_argument("--grid-res", dest="grid_res", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
