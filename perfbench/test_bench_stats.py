"""Tests for the end-to-end metric code and the output checks."""

import json
from pathlib import Path

import pytest

import run
import speed
import stats
import workloads


def test_percentile_is_harrell_davis():
    values = list(range(40, 0, -1))  # 1..40, unsorted
    assert stats.percentile(values, 0.5) == pytest.approx(20.5)  # symmetric
    assert stats.percentile(values, 0.75) == pytest.approx(30.5, abs=0.05)
    assert stats.percentile([7.5] * 12, 0.75) == pytest.approx(7.5)
    doubled = [2 * v for v in values]
    assert stats.percentile(doubled, 0.75) == pytest.approx(2 * stats.percentile(values, 0.75))
    # one outlier moves the estimate far less than it moves the samples
    assert stats.percentile(values[:-1] + [1000], 0.5) < 22
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile(values, 1.0)


def test_speed_scale_reads_times_at_the_reference_speed():
    ref = speed.REF_SECONDS
    assert speed.scale(ref, ref) == pytest.approx(1.0)
    # a machine running at half speed doubles both the item and the reference
    assert speed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.scale(ref, 3 * ref) == pytest.approx(0.5)
    assert speed.reference_seconds() > 0


def test_p75_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(40, 0.75) == 10
    assert stats.samples_beyond(49, 0.75) == 12
    summary = stats.latency_summary([float(v) for v in range(1, 41)])
    assert summary["samples"] == 40
    assert summary["p50"] < summary["p75"]
    assert stats.latency_summary(list(range(1, 50)))["samples"] == 49
    with pytest.raises(ValueError):
        stats.latency_summary([float(v) for v in range(1, 40)])


def test_fail_frac_counts_an_injected_wrong_item(pkg, tmp_path: Path):
    items, _ = workloads.build_worstcase(pkg, 0, tmp_path)
    wl = workloads.WORKLOADS["worstcase_l0"]
    results = [(item, run.run_item(pkg.cli.main, item)) for item in items if item.n == 3]
    outcomes = [(workloads.check(wl, item, res) is None, None) for item, res in results]
    assert stats.fail_frac(outcomes) == 0.0

    # a strength changed: right row count, but the couplings no longer match
    item, res = next((i, r) for i, r in results if i.edges)
    doc = json.loads(res.out_text)
    doc["sequence"]["ops"][0]["w"] = "7"
    wrong = workloads.Run(res.code, res.stdout, res.stderr, res.seconds, json.dumps(doc))
    assert workloads.check(wl, item, wrong) == "sequence does not realize the graph"
    # a wrong exit code
    crashed = workloads.Run(1, "", "boom", res.seconds, None)
    assert workloads.check(wl, item, crashed).startswith("exit code 1")

    outcomes.append((workloads.check(wl, item, wrong) is None, None))
    assert stats.fail_frac(outcomes) == pytest.approx(1 / (len(results) + 1))


def test_l1_and_noise_checks_accept_right_and_reject_wrong(pkg, tmp_path: Path):
    l1_items, _ = workloads.build_l1(pkg, 3, tmp_path)
    item = next(i for i in l1_items if i.n == 7 and len(i.edges) > 4)
    res = run.run_item(pkg.cli.main, item)
    l1 = workloads.WORKLOADS["l1_random"]
    assert workloads.check(l1, item, res) is None
    doc = json.loads(res.out_text)
    doc["objective"] = str(2 * workloads.Fraction(doc["objective"]))
    assert "not the sequence's L1" in workloads.check(
        l1, item, workloads.Run(0, res.stdout, "", 0.0, json.dumps(doc)))

    noise_items, _ = workloads.build_noise(pkg, 3, tmp_path)
    assert len(noise_items) == 40
    item = next(i for i in noise_items if i.key.startswith("star_k15 cx"))
    res = run.run_item(pkg.cli.main, item)
    noise = workloads.WORKLOADS["noise_qaoa"]
    assert workloads.check(noise, item, res) is None
    wrong = res.stdout.replace("ratio=0.7", "ratio=0.6")
    assert workloads.check(noise, item, workloads.Run(0, wrong, "", 0.0, None)).startswith("ratio")


def test_benchmark_json_metrics_are_all_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    assert set(run.select_metrics(spec, values, None)) == set(values)
    per_layer = run.select_metrics(spec, {"trace.items_per_s": 1.0}, {})
    assert len(per_layer) == len(spec["per_layer"])
    assert all(m["unit"] for m in per_layer.values())
