"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Each workload runs twice, each time in a fresh process: untraced for the
end-to-end metrics, traced for the per-layer ones.  The table adds what the
untraced run's report line holds (fail_frac, the item_ms sample count and,
for solver workloads, pulse_us) and the tracing overhead, the share of
items_per_s that the traced run lost.  Exits 1 if any item failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    all_correct = True
    for workload in args.workload:
        report, plain = run_once(workload, args.seed, args.seconds, 0)
        traced_report, traced = run_once(workload, args.seed, args.seconds, 1)
        rows = [(name, m["value"], m["unit"]) for name, m in plain["metrics"].items()]
        rows.append(("fail_frac", report["fail_frac"], "ratio"))
        rows.append(("item_ms.samples", report["item_ms_samples"], "count"))
        if "pulse_us" in report:
            rows.append(("pulse_us", report["pulse_us"], "us"))
        rows += [(name, m["value"], m["unit"]) for name, m in traced["metrics"].items()]
        overhead = 1.0 - (traced["metrics"]["trace.items_per_s"]["value"]
                          / plain["metrics"]["items_per_s"]["value"])
        rows.append(("trace.overhead", 100.0 * overhead, "%"))
        print(f"# {workload}: seed {args.seed}, {report['passes']} passes of "
              f"{report['items_per_pass']} items, correct={plain['correct']}/{traced['correct']}, "
              f"environment {json.dumps(report['environment'])}")
        for name, value, unit in rows:
            print(f"{workload:13s} {name:42s} {value:>16.6g} {unit}")
        for reason in report["failures"] + traced_report["failures"]:
            print(f"{workload:13s} FAILED {reason}")
        all_correct = all_correct and plain["correct"] and traced["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
