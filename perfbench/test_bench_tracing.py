"""Tests for the tracer: span nesting, self time, and wrappers that change
no result."""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_children_and_never_exceeds_duration():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf(seconds):
        clock.advance(seconds)
        return seconds

    traced_leaf = tracer.wrap("pulses.evaluate", leaf)

    def parent():
        clock.advance(1.0)
        traced_leaf(3.0)
        clock.advance(2.0)
        traced_leaf(4.0)
        return "done"

    assert tracer.wrap("pulses.verify", parent)() == "done"
    own = tracing.self_times(tracer.spans)
    assert [s[3] for s in tracer.spans] == ["pulses.evaluate", "pulses.evaluate", "pulses.verify"]
    root = tracer.spans[-1]
    assert root[1] is None and tracer.spans[0][1] == root[0] == tracer.spans[1][1]
    assert own[root[0]] == pytest.approx(3.0)
    for span_id, _, _, _, start, end, _ in tracer.spans:
        assert 0.0 <= own[span_id] <= end - start
    totals = tracing.layer_totals(tracer.spans)
    assert totals["pulses.evaluate"]["calls"] == 2
    assert totals["pulses.evaluate"]["ms"] == pytest.approx(7000.0)
    assert totals["pulses.verify"]["self_ms"] == pytest.approx(3000.0)


def test_self_time_counts_overlapping_children_once():
    # (id, parent, item, name, start, end, counts); children overlap on [2, 3]
    spans = [(1, 0, None, "c", 1.0, 3.0, None), (2, 0, None, "c", 2.0, 5.0, None),
             (3, 0, None, "c", 4.0, 9.0, None), (0, None, None, "p", 0.0, 6.0, None)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(1.0)  # children cover [1, 6] of [0, 6]
    assert all(0.0 <= own[s[0]] <= s[5] - s[4] for s in spans)


def test_wrappers_return_exactly_what_the_function_returns():
    tracer = tracing.Tracer()
    sentinel = object()
    assert tracer.wrap("simplex.solve_lp", lambda *a, **k: sentinel)(1, x=2) is sentinel
    assert tracer.wrap("simplex.certify_basis", lambda: "resume",
                       tracing.OBSERVERS["simplex.certify_basis"])() == "resume"
    assert tracer.spans[-1][6] == {"resume": 1}

    def numbers(k):
        yield from range(k)

    assert list(tracer.wrap("graphs.enumerate_labeled_graphs", numbers)(4)) == [0, 1, 2, 3]
    assert [s[3] for s in tracer.spans].count("graphs.enumerate_labeled_graphs") == 5

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("pulses.verify", boom)()
    assert tracer.spans[-1][3] == "pulses.verify" and not tracer._open


def _strip_wall_time(res):
    out = json.loads(res.out_text) if res.out_text else None
    if out:
        out.pop("wall_time_ms")
    words = [w for w in res.stdout.split() if not w.startswith("wall_time_ms=")]
    return res.code, words, out


def test_tracing_leaves_cli_results_unchanged(pkg, tmp_path: Path):
    wc_items, _ = workloads.build_worstcase(pkg, 0, tmp_path)
    l1_items, _ = workloads.build_l1(pkg, 0, tmp_path)
    noise_items, _ = workloads.build_noise(pkg, 0, tmp_path)
    picked = [next(i for i in wc_items if i.key == "4:0-1,0-3,1-2"),
              next(i for i in l1_items if i.n == 7 and i.edges),
              next(i for i in noise_items if i.key.startswith("star_k15 ms"))]
    plain = [_strip_wall_time(run.run_item(pkg.cli.main, item)) for item in picked]
    original = pkg.simplex.float_solve
    tracer = tracing.Tracer()
    tracer.install(vars(pkg))
    try:
        assert pkg.exactopt.float_solve is pkg.simplex.float_solve is not original
        traced = [_strip_wall_time(run.run_item(pkg.cli.main, item)) for item in picked]
    finally:
        tracer.uninstall()
    assert pkg.exactopt.float_solve is pkg.simplex.float_solve is original
    assert traced == plain
    totals = tracing.layer_totals(tracer.spans)
    assert totals["exactopt.solve_l0"]["nodes"] > 0
    assert {"simplex.float_solve", "exactopt.solve_l1", "qaoa.simulate_qaoa_p1"} <= set(totals)
    own = tracing.self_times(tracer.spans)
    assert all(0.0 <= own[s[0]] <= s[5] - s[4] for s in tracer.spans)


def test_unknown_per_layer_names_are_refused():
    with pytest.raises(KeyError):
        tracing.layer_metric({}, "simplex.no_such_function.calls")
    with pytest.raises(KeyError):
        tracing.layer_metric({}, "simplex.float_solve.bogus")
    assert tracing.layer_metric({}, "qaoa.simulate_qaoa_p1.calls") == 0
