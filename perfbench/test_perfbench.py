"""Tests for the benchmark's tracer, metric names and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import inspect
import json
import os
import sys

import pytest

from layers import PER_LAYER, layer_metrics
from run import END_TO_END, compare_to_reference
from tracer import LAYERS, REP_SPAN, Span, Tracer, add_replication_spans, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_of_nested_spans():
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "harness.run_study", 1.0, 4.0),
        Span(2, 1, "dgm.simulate_panel", 2.0, 3.0),
        Span(3, 0, "domain.write_atomic", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_replication_spans_split_run_study():
    spans = [
        Span(0, None, "harness.run_study", 0.0, 10.0),
        Span(1, 0, "dgm.simulate_panel", 1.0, 2.0, {"rep": 1}),
        Span(2, 0, "harness.fit_model", 2.0, 4.0, {"label": "A"}),
        Span(3, 0, "dgm.simulate_panel", 4.5, 5.0, {"rep": 2}),
        Span(4, 0, "harness.fit_model", 5.0, 8.0, {"label": "A"}),
    ]
    out = add_replication_spans(spans)
    reps = [s for s in out if s.name == REP_SPAN]
    assert [(s.start, s.end, s.info["rep"]) for s in reps] == [(1.0, 4.5, 1), (4.5, 8.0, 2)]
    assert [s.parent for s in out[1:5]] == [reps[0].id, reps[0].id, reps[1].id, reps[1].id]
    own = self_times(out)
    assert own[reps[0].id] == pytest.approx(0.5)      # gap between the last fit and the next panel
    assert own[0] == pytest.approx(3.0)               # before the first and after the last replication
    assert sum(own.values()) == pytest.approx(10.0)


def _module_functions():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "visitsim" or name.startswith("visitsim.")
            for attr, value in vars(module).items() if inspect.isfunction(value)}


def test_traced_study_is_unchanged_and_wrappers_are_removed(tmp_path):
    import visitsim.cli as cli

    before = _module_functions()
    argv = ["run-study", "--config", "jm_g15_l010", "--reps", "2", "--threads", "1", "--models",
            "A,B,C,D,E"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    with tracer:
        assert cli.main is not before[("visitsim.cli", "main")]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "traced")]) == 0
    assert _module_functions() == before

    plain = (tmp_path / "plain" / "estimates.csv").read_bytes()
    assert (tmp_path / "traced" / "estimates.csv").read_bytes() == plain

    spans = add_replication_spans(tracer.spans)
    wall = next(s for s in spans if s.name == "cli.main").duration
    metrics = layer_metrics(spans, threads=1, traced_wall=wall, untraced_wall=wall, pool_wall=wall)
    assert list(metrics) == list(PER_LAYER)
    assert metrics["domain.panel_row_arrays.calls_per_rep"] == 10
    self_sum = sum(metrics[f"{layer}.layer_self_s"] for layer in LAYERS)
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert {s.module for s in spans} <= set(LAYERS)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_reference_comparison_flags_drift_and_lost_convergence():
    ref = {(1, "A", "beta"): ("1.0", "0.1", "1"), (1, "E", "alpha1"): ("2.0", "0.5", "1")}
    assert compare_to_reference(ref, dict(ref)) == (0.0, [])

    worst, problems = compare_to_reference(ref, {**ref, (1, "A", "beta"): ("1.00001", "0.1", "1")})
    assert worst == pytest.approx(1e-4) and problems == []

    worst, problems = compare_to_reference(ref, {**ref, (1, "A", "beta"): ("1.01", "0.1", "1")})
    assert worst == pytest.approx(0.1) and len(problems) == 1

    _, problems = compare_to_reference(ref, {**ref, (1, "E", "alpha1"): ("", "", "0")})
    assert problems == ["(1, 'E', 'alpha1') converged in the reference but not now"]
