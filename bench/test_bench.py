"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402


def span(name_id, start, end, parent):
    return (name_id, start, end, parent, 0)


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, 0.0, 10.0, -1),
        span(1, 1.0, 3.0, 0),
        span(1, 2.0, 5.0, 0),  # overlaps its sibling: covered once
        span(1, 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        span(2, 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_aggregate_counts_recursion_once_in_inclusive_time():
    names = ["outer", "inner"]
    spans = [
        span(0, 0.0, 10.0, -1),
        span(0, 2.0, 6.0, 0),  # outer calls itself
        span(1, 3.0, 4.0, 1),
    ]
    out = aggregate(names, spans)
    assert out["outer.calls"] == 2
    assert out["outer.s"] == pytest.approx(10.0)
    assert out["outer.self_s"] == pytest.approx(6.0 + 3.0)
    assert out["inner.s"] == pytest.approx(1.0)


def test_hook_time_is_not_charged_to_the_enclosing_span():
    tracer = Tracer()
    inner = tracer.span_wrapper("inner", lambda: None, hook=lambda t, args, result: t.add("hooked"))
    tracer.call("outer", inner)
    out = tracer.summary()
    assert out["hooked"] == 1
    assert out["trace.hooks.calls"] == 1
    whole = out["outer.s"]
    parts = out["outer.self_s"] + out["inner.s"] + out["trace.hooks.s"]
    assert parts == pytest.approx(whole, abs=1e-9)


def test_wrappers_reach_every_binding_and_come_out_again():
    import symgraph
    import symgraph.cli
    from symgraph import path, power

    original = power.sym_power
    tracer = Tracer()
    worker.install_wrappers(tracer)
    try:
        assert symgraph.cli.sym_power is symgraph.sym_power is power.sym_power
        assert power.sym_power is not original
        power.sym_power_graph(path(3), 2)  # calls sym_power through the module global
    finally:
        tracer.uninstall()
    assert power.sym_power is original and symgraph.cli.sym_power is original
    out = tracer.summary()
    assert out["power.sym_power.calls"] == 1
    assert out["power.entries"] == 21  # N = 6, N(N+1)/2 entries
    assert out["power.to_graph.calls"] == 1


# -- corrupted outputs count as failures ---------------------------------------


def test_stats_closed_form_catches_a_wrong_count():
    want = {"n": 3, "edges": 6, "loops": 3, "components": 1, "degrees": [3, 3, 3]}
    good = json.dumps({"n": 3, "edges": 6, "loops": 3, "components": 1,
                       "degrees": [3, 3, 3], "wiener": None})
    assert run.stats_failures(good, want) == []
    assert run.stats_failures(good.replace('"edges": 6', '"edges": 5'), want)
    assert run.stats_failures(good[:-3], want)  # truncated output


def test_changed_output_file_fails_its_recorded_digest(tmp_path):
    out = tmp_path / "power.txt"
    out.write_text("3\n1 2 1\n")
    recorded = run.file_digest(out)
    out.write_text("3\n1 2 2\n")
    ctx = run.Context("pipelines_verify", 0, tmp_path, False,
                      {"cli": {"pipeline_dense": {"power": recorded}}})
    p = run.Pass()
    run.check_cli_outputs(p, ctx, "pipeline_dense", {"power": out})
    assert p.failed_ops == {"pipeline_dense.power"}
    assert p.observed == {"pipeline_dense": {"power": run.file_digest(out)}}


def test_worker_failures_fail_the_operation(tmp_path):
    result = tmp_path / "r.json"
    result.write_text(json.dumps({"failures": ["oracle mismatch"], "kernel_s": 1.0}))
    p = run.Pass()
    ok = run.Child(code=0, wall=1.0, cpu=1.0, rss_mb=10.0, timed_out=False)
    p.op("row", ok, result)
    p.op("crash", run.Child(code=1, wall=1.0, cpu=1.0, rss_mb=10.0, timed_out=False))
    p.op("slow", run.Child(code=-9, wall=1.0, cpu=1.0, rss_mb=10.0, timed_out=True))
    assert p.attempted == 3
    assert p.failed_ops == {"row", "crash", "slow"}


def test_corrupted_exact_core_changes_its_digest():
    from symgraph import sym_power

    graph = worker.kernel_graph(1, "int", 4, 3)
    power = sym_power(graph, 3)
    before = worker.core_digest(power)
    assert worker.core_digest(sym_power(graph, 3)) == before
    power.core[0][1] += 1  # the exact core is a nested list here
    assert worker.core_digest(power) != before


def test_float_entry_lost_to_zero_is_a_failure():
    from symgraph import sym_power

    graph = worker.kernel_graph(1, "float", 4, 3)
    power = sym_power(graph, 3)
    assert worker.check_kernel_row(graph, power, 1, "float", None)["failures"] == []
    rows, cols = worker._pattern_support(graph, 3, None).nonzero()
    i, j = int(rows[0]), int(cols[0])
    power.core[i, j] = power.core[j, i] = 0.0
    failures = worker.check_kernel_row(graph, power, 1, "float", None)["failures"]
    assert any("read back as 0" in f for f in failures)


# -- printed metric names match BENCHMARK.json -------------------------------


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_printed_metric_names_match_the_lists():
    p = run.Pass(wall=2.0, rss_mb=50.0, attempted=4)
    timed = run.end_to_end_metrics([p, p], setup_s=0.3)
    assert list(timed) == [m[0] for m in run.END_TO_END]
    assert all(v["value"] > 0 for v in timed.values())
    traced = run.layer_metrics(p, p)
    assert list(traced) == [m[0] for m in run.PER_LAYER]
