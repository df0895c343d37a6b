"""Run one benchmark workload of isingcoupler and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The process sets up the workload
SETUP_ROUNDS times (fresh import of the package, input generation, one
untimed warm-up item) and reports the median as setup_s.  The timed phase
then runs the items, each as one in-process `isingcoupler.cli.main(argv)`
call, in whole passes over the item list in a seed-shuffled order, for about
S seconds (it stops at the pass boundary nearest to S, after one pass at
least).  Set-up and item times are scaled to the speed of a reference loop
timed between them (speed.py).  Every item's output is checked afterwards.

The next-to-last line of standard output is a JSON report (environment,
sample counts, fail_frac, pulse_us, failures and, when traced, the call
count of every span).  The last line is the result: correct, attempted,
failed, and the metrics BENCHMARK.json names -- the end_to_end ones with
--trace 0, the per_layer ones with --trace 1.  Traced runs also write their
spans to .perfbench_work/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ROUNDS = 5
# Pinned before numpy is first imported, so numpy's BLAS runs one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def package_modules() -> dict:
    """The imported isingcoupler modules by short name (the package itself
    as "isingcoupler")."""
    importlib.import_module("isingcoupler.cli")
    return {name.rpartition(".")[2]: module for name, module in sys.modules.items()
            if name.split(".")[0] == "isingcoupler"}


def load_package() -> dict:
    """Import isingcoupler afresh; its modules by short name."""
    for name in [m for m in sys.modules if m.split(".")[0] == "isingcoupler"]:
        del sys.modules[name]
    return package_modules()


def run_item(cli_main, item) -> workloads.Run:
    if item.out is not None:
        item.out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(list(item.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the run goes on; the item counts as failed
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    out_text = item.out.read_text() if item.out is not None and item.out.exists() else None
    return workloads.Run(code, out.getvalue(), err.getvalue(), seconds, out_text)


def set_up(workload, seed, workdir, traced):
    """One set-up round: import, build the inputs, run the warm-up item."""
    start = time.perf_counter()
    pkg = SimpleNamespace(**load_package())
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(vars(pkg))
        tracer.item = "setup"
    items, warmup = workload.build(pkg, seed, workdir)
    warm = run_item(pkg.cli.main, warmup)
    return time.perf_counter() - start, pkg, tracer, items, (warmup, warm)


def pulse_us(pkg, run) -> float:
    """Device time of an emitted sequence under the default TimingParams."""
    sequence = workloads.solver_output(run)["sequence"]
    seq = pkg.pulses.sequence_from_json(json.dumps(sequence))
    return float(pkg.timing.estimate_time_us(seq))


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def measure(workload_name, seed, seconds, traced):
    """(report, result without metrics, measured values by name, span
    totals or None when untraced)."""
    workload = workloads.WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Every time below is scaled to the reference speed (speed.py), from the
    # reference timings just before and just after it.
    setup_times, ref = [], speed.reference_seconds()
    for _ in range(SETUP_ROUNDS):
        elapsed, pkg, tracer, items, warm = set_up(workload, seed, workdir, traced)
        ref_after = speed.reference_seconds()
        setup_times.append(elapsed * speed.scale(ref, ref_after))
        ref = ref_after
    order = list(items)
    random.Random(seed).shuffle(order)

    passes = max(1, round(seconds / workload.pass_seconds))
    runs, best, window = [], {}, None
    pass_times, scales = [], []  # wall seconds of each pass; each item's scale
    timed_s = 0.0  # scaled seconds of the whole item calls, harness included
    for _ in range(passes):
        pass_start = time.perf_counter()
        for item in order:
            if tracer is not None:
                tracer.item = f"{len(runs)}:{item.name}"
            start = time.perf_counter()
            result = run_item(pkg.cli.main, item)
            elapsed = time.perf_counter() - start
            ref_after = speed.reference_seconds()
            scales.append(speed.scale(ref, ref_after))
            ref = ref_after
            runs.append((item, result))
            timed_s += elapsed * scales[-1]
            best[item.name] = min(best.get(item.name, math.inf), result.seconds * scales[-1])
        pass_times.append(time.perf_counter() - pass_start)
        if tracer is not None and window is None:
            window = len(tracer.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = []
    for item, run in runs:
        reason = workloads.check(workload, item, run)
        outcomes.append((reason is None, f"{item.name}: {reason}" if reason else None))
    warm_reason = workloads.check(workload, *warm)
    latency = stats.latency_summary([seconds * 1000.0 for seconds in best.values()])
    items_per_s = len(runs) / timed_s

    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "passes": passes, "items_per_pass": len(order), "pass_s": pass_times,
        "speed_scale": {"min": min(scales), "median": statistics.median(scales),
                        "max": max(scales)},
        "item_ms_samples": latency["samples"],
        "fail_frac": stats.fail_frac(outcomes),
        "failures": [reason for ok, reason in outcomes if not ok][:10],
        "warmup_failure": warm_reason,
        "setup_rounds_s": setup_times,
        "environment": environment(),
    }
    if workload.solver:
        report["pulse_us"] = sum(pulse_us(pkg, run) for (_, run), (ok, _) in
                                 zip(runs[: len(order)], outcomes) if ok)
    values = {
        "items_per_s": items_per_s,
        "item_ms.p50": latency["p50"],
        "item_ms.p75": latency["p75"],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    totals = None
    if tracer is not None:
        tracer.uninstall()
        # per-layer figures: the last set-up round and the first timed pass
        del tracer.spans[window:]
        totals = tracing.layer_totals(tracer.spans)
        report["span_calls"] = {name: t["calls"] for name, t in sorted(totals.items())}
        report["spans_file"] = str((workdir / "spans.jsonl").relative_to(ROOT))
        tracer.write(workdir / "spans.jsonl")
        values["trace.items_per_s"] = items_per_s
    failed = sum(1 for ok, _ in outcomes if not ok)
    result = {"correct": failed == 0 and warm_reason is None,
              "attempted": len(outcomes), "failed": failed}
    return report, result, values, totals


def select_metrics(spec: dict, values: dict, totals: dict | None) -> dict:
    """The metrics BENCHMARK.json lists for this mode, each with its unit:
    per_layer ones when `totals` (span totals of a traced run) is given."""
    out = {}
    for metric in spec["end_to_end" if totals is None else "per_layer"]:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif totals is not None:
            value = tracing.layer_metric(totals, name)
        else:
            raise KeyError(f"metric {name} is not measured")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isingcoupler" / "cli.py").is_file():
        print(f"error: no isingcoupler sources under {SRC}", file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        print("error: numpy was imported before BLAS threads were pinned", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    report, result, values, totals = measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    result["metrics"] = select_metrics(spec, values, totals)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
