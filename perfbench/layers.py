"""Per-layer metrics derived from the spans of a traced ``run-study``.

Times are per replication unless the name says otherwise; ``cli.write_s``
is per study.  ``dgm.rows`` and ``domain.gap_records`` are means per panel
over the first traced study of the run, which the seed alone determines, so
they repeat exactly.  ``<layer>.layer_self_s`` is the self time of every
span of that module, per replication, so the eight of them add up to the
traced ``cli.main`` wall time per replication.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS, REP_SPAN, Span, self_times

# name -> unit, in the order the metrics are printed
PER_LAYER = {
    "harness.rep_s.p50": "s",
    "harness.rep_s.tail": "s",
    "harness.run_study.self_s": "s",
    "harness.summarize_s": "s",
    "harness.pool_efficiency": "frac",
    "dgm.simulate_panel_s": "s",
    "dgm.simulate_panel.self_s": "s",
    "dgm.rows": "count",
    "dgm.rows_per_s": "rows/s",
    "domain.build_panel_s": "s",
    "domain.gap_records": "count",
    "domain.panel_row_arrays.calls_per_rep": "count",
    "domain.panel_row_arrays_s": "s",
    "jointfit.fit_joint_s": "s",
    "jointfit.fit_joint.self_s": "s",
    "jointfit.start_s": "s",
    "jointfit.iterations": "count",
    "jointfit.fail_frac": "frac",
    "lmm.fit_lmm_s.B": "s",
    "lmm.fit_lmm_s.C": "s",
    "lmm.fit_lmm_s.D": "s",
    "lmm.iterations": "count",
    "lmm.fail_frac": "frac",
    "survfit.fit_andersen_gill_s": "s",
    "survfit.fit_andersen_gill.iterations": "count",
    "survfit.fit_weibull_ph_s": "s",
    "iivw.fit_iivw_s": "s",
    "iivw.fit_iivw.self_s": "s",
    "iivw.compute_iiv_weights_s": "s",
    "iivw.fit_wgee_s": "s",
    "iivw.fail_frac": "frac",
    "cli.write_s": "s",
    **{f"{layer}.layer_self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}

TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values) -> float:
    """The value at the highest level in ``TAIL_LEVELS`` with >= 10 samples beyond it.

    With fewer than 20 samples no level qualifies and the median is returned.
    """
    n = len(values)
    level = next((q for q in TAIL_LEVELS if n * (1.0 - q / 100.0) >= 10.0), 50.0)
    if n == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(level) - 1])


def _failed(span: Span) -> bool:
    return bool(span.info.get("raised")) or not span.info.get("converged", True)


def layer_metrics(spans: list[Span], *, threads: int, traced_wall: float,
                  untraced_wall: float, pool_wall: float) -> dict[str, float]:
    """Per-layer metrics from traced single-process studies.

    ``spans`` must already hold the replication spans (see
    ``tracer.add_replication_spans``).  ``traced_wall`` and ``untraced_wall``
    are the summed ``cli.main`` wall times of the traced studies and of the
    same studies untraced in one process; ``pool_wall`` is their summed wall
    time untraced with ``threads`` workers.
    """
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def root(span: Span) -> Span:
        while span.parent is not None:
            span = by_id[span.parent]
        return span

    def inside(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    def named(name: str, parent: str | None = None) -> list[Span]:
        return [s for s in by_name.get(name, ())
                if (parent is None or (s.parent is not None and by_id[s.parent].name == parent))]

    def total(items) -> float:
        return sum(s.duration for s in items)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    reps = named(REP_SPAN)
    n = len(reps)
    if n == 0:
        raise ValueError("no replication spans: trace a single-process run-study")
    studies = named("cli.main")
    panels = named("dgm.simulate_panel", REP_SPAN)
    first = [s for s in panels if root(s) is studies[0]]
    fits = {label: [s for s in named("harness.fit_model") if s.info.get("label") == label]
            for label in "BCD"}
    joint, lmm, ag, iivw = (named(f) for f in ("jointfit.fit_joint", "lmm.fit_lmm",
                                               "survfit.fit_andersen_gill", "iivw.fit_iivw"))
    dgm_self = sum(own[s.id] for s in spans
                   if s.module == "dgm" and (s.name == "dgm.simulate_panel"
                                             or inside(s, "dgm.simulate_panel")))
    rows = sum(s.info["rows"] for s in panels)
    rep_s = [s.duration for s in reps]
    metrics = {
        "harness.rep_s.p50": statistics.median(rep_s),
        "harness.rep_s.tail": tail_percentile(rep_s),
        "harness.run_study.self_s": sum(own[s.id] for s in named("harness.run_study") + reps) / n,
        "harness.summarize_s": total(named("harness.summarize")) / n,
        # busy time scaled by untraced/traced wall, so tracing cost is not counted as work
        "harness.pool_efficiency": sum(rep_s) * untraced_wall / traced_wall / (threads * pool_wall),
        "dgm.simulate_panel_s": total(panels) / n,
        "dgm.simulate_panel.self_s": dgm_self / n,
        "dgm.rows": sum(s.info["rows"] for s in first) / len(first),
        "dgm.rows_per_s": rows / dgm_self,
        "domain.build_panel_s": total(named("domain.build_panel")) / n,
        "domain.gap_records": sum(s.info["gap_records"] for s in first) / len(first),
        "domain.panel_row_arrays.calls_per_rep":
            sum(1 for s in named("domain.panel_row_arrays") if inside(s, REP_SPAN)) / n,
        "domain.panel_row_arrays_s": total(named("domain.panel_row_arrays")) / n,
        "jointfit.fit_joint_s": total(joint) / n,
        "jointfit.fit_joint.self_s": sum(own[s.id] for s in joint) / n,
        "jointfit.start_s": total(named("lmm.fit_lmm", "jointfit.fit_joint")
                                  + named("survfit.fit_weibull_ph", "jointfit.fit_joint")) / n,
        "jointfit.iterations": mean(s.info.get("iterations", 0) for s in joint),
        "jointfit.fail_frac": mean(_failed(s) for s in joint),
        **{f"lmm.fit_lmm_s.{label}": total(items) / n for label, items in fits.items()},
        "lmm.iterations": mean(s.info.get("iterations", 0) for s in lmm),
        "lmm.fail_frac": mean(_failed(s) for s in lmm),
        "survfit.fit_andersen_gill_s": total(ag) / n,
        "survfit.fit_andersen_gill.iterations": mean(s.info.get("iterations", 0) for s in ag),
        "survfit.fit_weibull_ph_s": total(named("survfit.fit_weibull_ph")) / n,
        "iivw.fit_iivw_s": total(iivw) / n,
        "iivw.fit_iivw.self_s": sum(own[s.id] for s in iivw) / n,
        "iivw.compute_iiv_weights_s": total(named("iivw.compute_iiv_weights")) / n,
        "iivw.fit_wgee_s": total(named("iivw.fit_wgee")) / n,
        "iivw.fail_frac": mean(_failed(s) for s in iivw),
        "cli.write_s": total(named("domain.write_atomic")) / len(studies),
        **{f"{layer}.layer_self_s":
           sum(own[s.id] for s in spans if s.module == layer) / n for layer in LAYERS},
        "trace.wall_s": traced_wall / n,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return metrics
