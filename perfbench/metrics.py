"""Arithmetic that turns the runner's raw samples into benchmark metrics.

The C++ runner (perfbench.cpp) only measures: it writes set-up times,
per-step host and virtual times, the force-check result, per-step layer
counters and host spans. Everything derived from them -- medians, the
tail percentile, rates, span self time and the failure count -- is
computed here, so test_metrics.py can pin it down without a build.
"""

import math
import statistics

# Metric name -> unit, in the order they are printed. BENCHMARK.json lists
# the same names and units (test_metrics.py checks that they agree).
END_TO_END = {
    "body_steps_per_s": "body-steps/s",
    "step_wall_tail_s": "s",
    "vtime_step_s": "virtual_s",
    "force_rms_err": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "morton.sort_s": "s",
    "hot.build_s": "s",
    "hot.cells": "count",
    "hot.decompose_s": "s",
    "hot.decompose_bytes": "bytes",
    "hot.fmm_s": "s",
    "fmm.p2p": "count",
    "fmm.m2l": "count",
    "fmm.l2l": "count",
    "fmm.l2p": "count",
    "fmm.pair_splits": "count",
    "hot.engine_step_s": "s",
    "hot.walk_s": "s",
    "hot.remote_requests": "count",
    "hot.walks_parked": "count",
    "hot.requests_deduped": "count",
    "hot.prefetch_issued": "count",
    "hot.prefetch_hits": "count",
    "hot.prefetch_hit_ratio": "1",
    "hot.sibling_pushes": "count",
    "hot.vt_decompose_s": "virtual_s",
    "hot.vt_build_s": "virtual_s",
    "hot.vt_traverse_s": "virtual_s",
    "gravity.body_interactions": "count",
    "gravity.cell_interactions": "count",
    "gravity.p2p_per_s": "1/s",
    "pool.tasks_run": "count",
    "pool.tasks_stolen": "count",
    "pool.steals_failed": "count",
    "pool.utilization": "1",
    "vmpi.msgs_per_step": "count",
    "vmpi.bytes_per_step": "bytes",
    "vmpi.barrier_wait_s": "s",
    "vmpi.cp_compute_frac": "1",
    "vmpi.cp_wait_frac": "1",
    "vmpi.cp_fabric_frac": "1",
    "net.frames_sent": "count",
    "net.retransmits": "count",
    "net.corrupt_drops": "count",
    "net.dup_suppressed": "count",
    "net.pure_acks": "count",
    "net.window_evictions": "count",
    "net.retx_ratio": "1",
    "io.save_s": "s",
    "io.bytes_per_save": "bytes",
    "io.write_s": "s",
    "io.blocked_s": "s",
    "io.overlap_frac": "1",
    "trace.overhead_frac": "1",
    "trace.step_self_frac": "1",
}

TAIL_BEYOND = 10  # samples that must lie above the reported tail value


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count), or None when there are too
    few samples for any such percentile. The value is the order statistic
    with exactly `beyond` larger samples; the percentile is the share of
    samples at or below it.
    """
    n = len(samples)
    if n <= beyond:
        return None
    ordered = sorted(samples)
    rank = n - beyond  # samples at or below the reported value
    return ordered[rank - 1], 100.0 * rank / n, n


def body_steps_per_s(n_bodies, step_wall_s):
    """N x timed steps / host wall time of those steps.

    Only the per-step samples enter, so set-up (and anything else outside
    the timed steps) cannot leak into the rate.
    """
    total = sum(step_wall_s)
    if not step_wall_s or total <= 0.0:
        return 0.0
    return n_bodies * len(step_wall_s) / total


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    `spans` are dicts with rank, id, parent, t0 and t1; ids are unique per
    rank. Children that overlap each other are counted once (their union).
    Returns {(rank, id): self_seconds}.
    """
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault((s["rank"], s["parent"]), []).append(
                (s["t0"], s["t1"]))
    out = {}
    for s in spans:
        kids = children.get((s["rank"], s["id"]), [])
        out[(s["rank"], s["id"])] = (s["t1"] - s["t0"]) - covered_length(
            kids, s["t0"], s["t1"])
    return out


def count_failures(raw):
    """(attempted, failed): timed steps plus correctness checks.

    A step fails if it left a non-finite acceleration; an exception that
    ended the run is one more failed operation. The force check and, on
    checkpointing workloads, the restore check are one operation each.
    """
    attempted = raw["steps"] + raw.get("untraced", {}).get("steps", 0)
    failed = raw["failed_steps"] + raw.get("untraced", {}).get(
        "failed_steps", 0)
    if raw["error"]:
        attempted += 1
        failed += 1
    attempted += 1  # force check
    err = raw["force_rms_err"]
    if err is None or not err <= raw["force_ceiling"]:
        failed += 1
    if raw["restore_ok"] is not None:
        attempted += 1
        failed += 0 if raw["restore_ok"] else 1
    return attempted, failed


def end_to_end(raw):
    n = raw["provenance"]["n"]
    tail = tail_percentile(raw["step_wall_s"])
    return {
        "body_steps_per_s": body_steps_per_s(n, raw["step_wall_s"]),
        "step_wall_tail_s": tail[0] if tail else math.nan,
        "vtime_step_s": _median(raw["vtime_window_s"]),
        "force_rms_err": (raw["force_rms_err"]
                          if raw["force_rms_err"] is not None else math.nan),
        "setup_s": _median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _span_rows(raw):
    return [dict(zip(("rank", "step", "id", "parent", "name", "t0", "t1"), s))
            for s in raw["spans"]]


def _span_per_step(spans, name):
    """{step: max over ranks of that rank's summed `name` span time}."""
    per = {}
    for s in spans:
        if s["name"] == name:
            key = (s["step"], s["rank"])
            per[key] = per.get(key, 0.0) + (s["t1"] - s["t0"])
    out = {}
    for (step, _), v in per.items():
        out[step] = max(out.get(step, 0.0), v)
    return out


def per_layer(raw):
    spans = _span_rows(raw)
    n = raw["provenance"]["n"]
    pool_size = raw["provenance"]["pool"]
    span = {name: _span_per_step(spans, name) for name in (
        "morton.sort", "hot.build", "hot.decompose", "hot.fmm",
        "hot.engine_step", "vmpi.barrier", "io.save")}

    def span_median(name):
        return _median(list(span[name].values()))

    steps = sorted(span["hot.engine_step"])
    walk = [span["hot.engine_step"][k] - span["hot.decompose"].get(k, 0.0) -
            span["hot.build"].get(k, 0.0) for k in steps]

    records = raw["records"]
    first = min((r["step"] for r in records), default=0)
    first_rows = [r for r in records if r["step"] == first]

    def first_sum(key):  # counts: rank sum at the first traced step
        return sum(r[key] for r in first_rows)

    def step_max_median(key):  # virtual stage times: rank max, median step
        per = {}
        for r in records:
            per[r["step"]] = max(per.get(r["step"], 0.0), r[key])
        return _median(list(per.values()))

    pool_rows = [r for r in records if r["rank"] == 0]
    pool_steps = max(len(pool_rows), 1)
    pool_wall = sum(r["pool_wall_s"] for r in pool_rows)

    net = raw["untraced"]["net"]
    evals = max(net["evaluations"], 1)

    io = raw["io"]
    saves = max((x["saves"] for x in io), default=0)
    write_sum = sum(x["write_s"] for x in io)
    blocked_sum = sum(x["blocked_s"] for x in io)

    cp = raw.get("critical_path") or {"compute_s": 0.0, "wait_s": 0.0,
                                      "fabric_s": 0.0}
    cp_total = cp["compute_s"] + cp["wait_s"] + cp["fabric_s"]

    step_spans = [s for s in spans if s["name"] == "step"]
    selfs = self_times(spans)
    step_total = sum(s["t1"] - s["t0"] for s in step_spans)
    step_self = sum(selfs[(s["rank"], s["id"])] for s in step_spans)
    rank0_steps = [s["t1"] - s["t0"] for s in step_spans if s["rank"] == 0]
    untraced = _ratio(n * raw["untraced"]["steps"],
                      raw["untraced"]["timed_wall_s"])
    traced = body_steps_per_s(n, rank0_steps)

    hits = first_sum("prefetch_hits")
    issued = first_sum("prefetch_issued")
    return {
        "morton.sort_s": span_median("morton.sort"),
        "hot.build_s": span_median("hot.build"),
        "hot.cells": first_sum("cells"),
        "hot.decompose_s": span_median("hot.decompose"),
        "hot.decompose_bytes": first_sum("decompose_bytes"),
        "hot.fmm_s": span_median("hot.fmm"),
        "fmm.p2p": first_sum("fmm_p2p"),
        "fmm.m2l": first_sum("fmm_m2l"),
        "fmm.l2l": first_sum("fmm_l2l"),
        "fmm.l2p": first_sum("fmm_l2p"),
        "fmm.pair_splits": first_sum("fmm_pair_splits"),
        "hot.engine_step_s": span_median("hot.engine_step"),
        "hot.walk_s": _median(walk),
        "hot.remote_requests": first_sum("remote_requests"),
        "hot.walks_parked": first_sum("walks_parked"),
        "hot.requests_deduped": first_sum("requests_deduped"),
        "hot.prefetch_issued": issued,
        "hot.prefetch_hits": hits,
        "hot.prefetch_hit_ratio": _ratio(hits, issued),
        "hot.sibling_pushes": first_sum("sibling_pushes"),
        "hot.vt_decompose_s": step_max_median("vt_decompose_s"),
        "hot.vt_build_s": step_max_median("vt_build_s"),
        "hot.vt_traverse_s": step_max_median("vt_traverse_s"),
        "gravity.body_interactions": first_sum("body_interactions"),
        "gravity.cell_interactions": first_sum("cell_interactions"),
        "gravity.p2p_per_s": _median([r["p2p_per_s"] for r in records]),
        "pool.tasks_run": sum(r["pool_tasks_run"] for r in pool_rows) /
                          pool_steps,
        "pool.tasks_stolen": sum(r["pool_tasks_stolen"] for r in pool_rows) /
                             pool_steps,
        "pool.steals_failed": sum(r["pool_steals_failed"] for r in pool_rows) /
                              pool_steps,
        "pool.utilization": _ratio(sum(r["pool_busy_s"] for r in pool_rows),
                                   pool_wall * pool_size),
        "vmpi.msgs_per_step": first_sum("msgs"),
        "vmpi.bytes_per_step": first_sum("bytes"),
        "vmpi.barrier_wait_s": span_median("vmpi.barrier"),
        "vmpi.cp_compute_frac": _ratio(cp["compute_s"], cp_total),
        "vmpi.cp_wait_frac": _ratio(cp["wait_s"], cp_total),
        "vmpi.cp_fabric_frac": _ratio(cp["fabric_s"], cp_total),
        "net.frames_sent": net["frames_sent"] / evals,
        "net.retransmits": net["retransmits"] / evals,
        "net.corrupt_drops": net["corrupt_drops"] / evals,
        "net.dup_suppressed": net["dup_suppressed"] / evals,
        "net.pure_acks": net["pure_acks"] / evals,
        "net.window_evictions": net["window_evictions"] / evals,
        "net.retx_ratio": _ratio(net["retransmits"], net["frames_sent"]),
        "io.save_s": span_median("io.save"),
        "io.bytes_per_save": _ratio(sum(x["bytes"] for x in io), saves),
        "io.write_s": _ratio(max((x["write_s"] for x in io), default=0.0),
                             saves),
        "io.blocked_s": _ratio(max((x["blocked_s"] for x in io), default=0.0),
                               saves),
        "io.overlap_frac": (max(0.0, 1.0 - blocked_sum / write_sum)
                            if write_sum > 0 else 0.0),
        "trace.overhead_frac": _ratio(traced, untraced) - 1.0,
        "trace.step_self_frac": _ratio(step_self, step_total),
    }
