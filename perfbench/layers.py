"""Per-layer metrics of one traced pass, computed from a ``Tracer``.

Each metric names the module it measures.  A metric whose patch targets are
all missing from the program is reported as absent, not as zero.  A ratio
whose base is zero on a workload takes its vacuous value (1 for the
complete and distinct fractions, 0 for the missing fraction), and the run
lists it with its zero base.
"""
from __future__ import annotations

from collections import defaultdict

# name, unit, better, patch targets (absent only when every one is missing)
PER_LAYER = (
    ("symbolic.net_measure_s", "s", "lower", ("engine.net_measure_log", "engine.net_measure_series")),
    ("symbolic.net_measure_calls", "count", "lower", ("engine.net_measure_log", "engine.net_measure_series")),
    ("symbolic.schedule_sums_s", "s", "lower", ("engine.schedule_log_sums",)),
    ("symbolic.schedule_sums_calls", "count", "lower", ("engine.schedule_log_sums",)),
    ("symbolic.schedule_sums_nodes", "count", "lower", ("engine.schedule_log_sums",)),
    ("symbolic.schedule_complete_frac", "ratio", "higher", ("engine.schedule_log_sums",)),
    ("symbolic.net_windows_missing_frac", "ratio", "lower", ("engine.net_measure_log", "engine.net_measure_series")),
    ("symbolic.engine_builds", "count", "lower", ("morandim.dims.make_engine", "morandim.symbolic.make_engine")),
    ("symbolic.level_sums_s", "s", "lower", ("engine.level_log_sums",)),
    ("symbolic.cutset_s", "s", "lower", ("morandim.cli.cutset",)),
    ("symbolic.enum_s", "s", "lower", ("morandim.symbolic.iter_cutset_words",)),
    ("symbolic.words_emitted", "count", "lower", ("morandim.symbolic.iter_cutset_words",)),
    ("linalg.sv2_s", "s", "lower", ("morandim.symbolic.sv2_batch",)),
    ("linalg.sv2_rows", "count", "lower", ("morandim.symbolic.sv2_batch",)),
    ("svf.log_phi_s", "s", "lower", ("morandim.symbolic.log_phi_from_logs",)),
    ("svf.log_phi_rows", "count", "lower", ("morandim.symbolic.log_phi_from_logs",)),
    ("dims.probes", "count", "lower", ("morandim.dims._bisect",)),
    ("dims.self_s", "s", "lower", ("morandim.cli.estimate_sstar", "morandim.cli.estimate_sA",
                                   "morandim.cli.pressure_root", "morandim.cli.moran_dims")),
    ("dims.root_s", "s", "lower", ("morandim.cli.pressure_root", "morandim.cli.moran_dims")),
    ("system.parse_s", "s", "lower", ("morandim.cli.parse_structure",)),
    ("system.validate_s", "s", "lower", ("morandim.cli.validate", "morandim.dims.validate")),
    ("system.validate_calls", "count", "lower", ("morandim.cli.validate", "morandim.dims.validate")),
    ("attractor.sample_s", "s", "lower", ("morandim.cli.sample_cloud",)),
    ("attractor.points", "count", "lower", ("morandim.cli.sample_cloud",)),
    ("attractor.box_count_s", "s", "lower", ("morandim.attractor.box_count",)),
    ("attractor.box_count_calls", "count", "lower", ("morandim.attractor.box_count",)),
    ("attractor.box_count_distinct_frac", "ratio", "higher", ("morandim.attractor.box_count",)),
    ("attractor.fit_s", "s", "lower", ("morandim.cli.boxdim_fit",)),
    ("attractor.render_s", "s", "lower", ("morandim.cli.render",)),
    ("cli.self_s", "s", "lower", ()),
    ("cli.bytes_written", "B", "lower", ()),
    ("trace.overhead_s", "s", "lower", ()),
)

# engine methods whose absence from every engine built hides a metric
ENGINE_TARGETS = ("net_measure_log", "net_measure_series", "schedule_log_sums",
                  "level_log_sums")

# span name -> metric holding the summed span duration
SPAN_TOTALS = {
    "symbolic.net_measure": "symbolic.net_measure_s",
    "symbolic.schedule_sums": "symbolic.schedule_sums_s",
    "symbolic.level_sums": "symbolic.level_sums_s",
    "symbolic.cutset": "symbolic.cutset_s",
    "system.parse": "system.parse_s",
    "system.validate": "system.validate_s",
    "attractor.sample": "attractor.sample_s",
    "attractor.render": "attractor.render_s",
}
LEAF_TOTALS = {
    "linalg.sv2": "linalg.sv2_s",
    "svf.log_phi": "svf.log_phi_s",
    "symbolic.enum": "symbolic.enum_s",
    "attractor.box_count": "attractor.box_count_s",
}
COUNTS = {
    "symbolic.net_measure_calls": "net_measure_calls",
    "symbolic.schedule_sums_calls": "schedule_sums_calls",
    "symbolic.schedule_sums_nodes": "schedule_sums_nodes",
    "symbolic.engine_builds": "engine_builds",
    "symbolic.words_emitted": "words_emitted",
    "linalg.sv2_rows": "sv2_rows",
    "svf.log_phi_rows": "log_phi_rows",
    "dims.probes": "probes",
    "system.validate_calls": "validate_calls",
    "attractor.points": "points",
    "attractor.box_count_calls": "box_count_calls",
}
# metric -> (numerator count, base count, value when the base is zero)
RATIOS = {
    "symbolic.schedule_complete_frac": ("schedule_points_complete", "schedule_points", 1.0),
    "symbolic.net_windows_missing_frac": ("net_windows_missing", "net_windows", 0.0),
    "attractor.box_count_distinct_frac": ("box_count_distinct", "box_count_calls", 1.0),
}


def _self_times(spans):
    """Self time per span: duration minus the union of its children's
    intervals (children may run on other threads) minus leaf time."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, t0, t1, _, leaf) in enumerate(spans):
        covered, end = 0.0, t0
        for a, b in sorted((max(spans[c][1], t0), min(spans[c][2], t1)) for c in children[i]):
            if b > end:
                covered += b - max(a, end)
                end = b
        out.append(t1 - t0 - covered - leaf)
    return out


def summarize(tracer, bytes_written):
    """{"values", "absent", "missing_targets", "zero_base", "per_job"} of one traced pass."""
    engines_built = any(c.get("engine_builds") for c in tracer.counts.values())
    missing = set(tracer.missing)
    if engines_built:
        missing |= {f"engine.{m}" for m in ENGINE_TARGETS
                    if m not in tracer.engine_methods_seen}

    counts = defaultdict(int)
    for per_job in tracer.counts.values():
        for k, v in per_job.items():
            counts[k] += v
    values = {m: 0.0 for m in SPAN_TOTALS.values()}
    values.update({"dims.self_s": 0.0, "dims.root_s": 0.0, "cli.self_s": 0.0,
                   "attractor.fit_s": 0.0})
    for (name, t0, t1, _, _), own in zip(tracer.spans, _self_times(tracer.spans)):
        if name in SPAN_TOTALS:
            values[SPAN_TOTALS[name]] += t1 - t0
        if name.startswith("dims."):
            values["dims.self_s"] += own
        if name in ("dims.pressure_root", "dims.moran_dims"):
            values["dims.root_s"] += t1 - t0
        if name == "attractor.fit":
            values["attractor.fit_s"] += own
        if name == "cli.main":
            values["cli.self_s"] += own
    for name, metric in LEAF_TOTALS.items():
        values[metric] = tracer.leaf_s.get(name, 0.0)
    for metric, key in COUNTS.items():
        values[metric] = counts[key]
    values["cli.bytes_written"] = bytes_written

    counts["box_count_distinct"] = len(tracer.box_keys)
    zero_base = []
    for metric, (num, den, vacuous) in RATIOS.items():
        values[metric] = counts[num] / counts[den] if counts[den] else vacuous
        if not counts[den]:
            zero_base.append(f"{metric} (no {den})")

    absent = {}
    for metric, _, _, targets in PER_LAYER:
        if targets and all(t in missing for t in targets):
            absent[metric] = "patch target not found: " + ", ".join(targets)
            values.pop(metric, None)

    per_job = [{"engine_builds": tracer.counts[job].get("engine_builds", 0),
                "box_count_calls": tracer.counts[job].get("box_count_calls", 0),
                "box_count_distinct": sum(1 for k in tracer.box_keys if k[0] == job)}
               for job in range(tracer.job)]
    return {"values": values, "absent": absent, "missing_targets": sorted(missing),
            "zero_base": zero_base, "per_job": per_job}
