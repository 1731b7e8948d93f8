"""Metric arithmetic of the perfbench benchmark.

Pure functions over the harness's raw JSON (see harness.cpp): medians, the
percentile rule, the Wilson bound, per-layer ratios with their bases and
span self time.  perfbench/test_metrics.py tests them.
"""

import math
import statistics

# Percentiles are reported only when at least this many samples lie above
# them, so that a single outlier cannot be the reported value.
MIN_BEYOND = 10


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    if len(xs) % 2 or xs[mid - 1] == xs[mid]:
        return xs[mid]  # keeps exact counts integers
    return 0.5 * (xs[mid - 1] + xs[mid])


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile; refuses when fewer than `min_beyond`
    samples lie beyond it.  Returns (value, samples beyond)."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it, "
            f"need {min_beyond}")
    return xs[rank - 1], beyond


def wilson_lower(successes, trials, z=1.96):
    """Lower end of the two-sided Wilson score interval (95% at z=1.96)."""
    if trials <= 0:
        raise ValueError("Wilson bound needs at least one trial")
    p = successes / trials
    z2n = z * z / trials
    center = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half)


def ratio(numerator, base):
    """numerator / base, 0 for an empty base.  Callers report the base too."""
    return numerator / base if base else 0.0


def covered_ns(intervals, clip=None):
    """Length of the union of [start, end) intervals, optionally clipped to
    the interval `clip`."""
    spans = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            spans.append((start, end))
    spans.sort()
    total, cur_start, cur_end = 0, None, None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(parent, children):
    """Self time of the span `parent`: its length minus the part of it that
    child spans (on any thread) cover."""
    return (parent[1] - parent[0]) - covered_ns(children, clip=parent)


# --------------------------------------------------------- end to end ----

def end_to_end(run):
    """End-to-end metrics from the untraced repetitions of a harness run."""
    reps = [r for r in run["reps"] if not r["traced"]]
    first = reps[0]
    latencies = [x for r in reps for x in r["latencies_ms"]]
    p50, _ = percentile(latencies, 50)
    p90, _ = percentile(latencies, 90)
    evals = first["evals"]
    total = evals["optimization"] + evals["verification"] + evals["constraint"]
    if "samples" in first:  # fc_mc_sweep: plain MC at the initial design
        yield_lower = wilson_lower(first["passing"], first["samples"])
        beta_min = min(ratio(m, s) for m, s in
                       zip(first["margin_mean"], first["margin_std"]))
    else:
        yield_lower = first["yield_lower"]
        beta_min = first["beta_min"]
    return {
        "setup_s": median(run["setup_s"]),
        "wall_s": median(r["wall_s"] for r in reps),
        "cpu_s": median(r["cpu_s"] for r in reps),
        "evals_per_s": median(total / r["wall_s"] for r in reps),
        "evals_total": total,
        "evals_opt": evals["optimization"],
        "block_ms_p50": p50,
        "block_ms_p90": p90,
        "yield_lower": yield_lower,
        "beta_min": beta_min,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def block_samples(run):
    """(number of model requests timed, number beyond p90) for the report."""
    latencies = [x for r in run["reps"] if not r["traced"]
                 for x in r["latencies_ms"]]
    return len(latencies), percentile(latencies, 90)[1]


# ------------------------------------------------------------ per layer ----

PHASES = ("feasibility", "worst_case_search", "coordinate_search",
          "line_search", "verification", "is_verification")


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition.  Phase- and
    counter-derived metrics are absent (not zero) when the build compiled
    obs out (the run report's obs_enabled is false)."""
    spans = rep["spans"]
    intervals = [(s[1], s[2]) for s in spans]
    requests = [s for s in spans if s[3] > 0]  # constraint calls have 0 rows
    rows = sum(s[3] for s in requests)
    request_ns = sum(s[2] - s[1] for s in requests)
    section = rep["section_span"]
    wall_ns = section[1] - section[0]
    optimize = rep["optimize_span"]

    out = {
        "circuits.model_s": sum(e - s for s, e in intervals) * 1e-9,
        "circuits.calls": len(requests),
        "circuits.rows": rows,
        "circuits.us_per_row": ratio(request_ns * 1e-3, rows),
        "circuits.batch_rows_mean": ratio(rows, len(requests)),
        "core.self_s": self_ns(optimize, intervals) * 1e-9 if optimize else 0.0,
    }
    report = rep["report"]
    if not report["obs_enabled"]:
        return out
    phases = {name: phase["seconds"]
              for name, phase in report["phases"].items()}
    c = report["counters"]
    for name in PHASES:
        out[f"core.{name}_s"] = phases[name]
    # Model time outside the optimizer call (the sweep's blocks); inside it
    # the phase timers already account for the time.
    outside_ns = covered_ns(intervals) - (
        covered_ns(intervals, clip=optimize) if optimize else 0)
    out["trace.accounted_frac"] = ratio(
        sum(phases.values()) * 1e9 + outside_ns, wall_ns)

    probe_lookups = c["probe_cache.hits"] + c["probe_cache.misses"]
    context_lookups = c["design_context.hits"] + c["design_context.misses"]
    solves = c["dc.solves"] + c["tran.solves"]
    out.update({
        "core.probe_cache.lookups": probe_lookups,
        "core.probe_cache.hit_ratio": ratio(c["probe_cache.hits"],
                                            probe_lookups),
        "core.is.ess_fallbacks": c["mc.is.ess_fallbacks"],
        "circuits.design_context.lookups": context_lookups,
        "circuits.design_context.hit_ratio": ratio(c["design_context.hits"],
                                                   context_lookups),
        "circuits.design_context.evictions": c["design_context.evictions"],
        "sim.dc.solves": c["dc.solves"],
        "sim.dc.newton_per_solve": ratio(c["dc.newton_iterations"],
                                         c["dc.solves"]),
        "sim.ac.stamps": c["ac.stamps"],
        "sim.ac.probes_per_stamp": ratio(c["ac.probes"], c["ac.stamps"]),
        "sim.tran.solves": c["tran.solves"],
        "sim.tran.solves_per_eval": ratio(c["tran.solves"], rows),
        "sim.tran.steps": c["tran.steps"],
        "sim.tran.steps_per_solve": ratio(c["tran.steps"], c["tran.solves"]),
        "sim.tran.newton_per_step": ratio(c["tran.newton_iterations"],
                                          c["tran.steps"]),
        "sim.fail_frac": ratio(c["dc.nonconverged"] + c["tran.nonconverged"],
                               solves),
        "linalg.factorizations": (c["dc.newton_iterations"]
                                  + c["tran.newton_iterations"]
                                  + c["ac.probes"]),
    })
    return out


def per_layer(run):
    """Per-layer metrics of a --trace 1 run: medians over its traced
    repetitions, plus the LU probe and the tracing overhead."""
    traced = [layer_metrics(r) for r in run["reps"] if r["traced"]]
    untraced = [r["wall_s"] for r in run["reps"] if not r["traced"]]
    out = {name: median(m[name] for m in traced) for name in traced[0]}
    out["linalg.lu_factor_us"] = run["lu_factor_us"]
    out["trace.overhead_frac"] = (
        median(r["wall_s"] for r in run["reps"] if r["traced"])
        / median(untraced) - 1.0)
    return out


def solve_tally(rep):
    """(attempted, failed) DC + transient solves of one repetition, or
    None when obs is compiled out."""
    if not rep["report"]["obs_enabled"]:
        return None
    c = rep["report"]["counters"]
    return (c["dc.solves"] + c["tran.solves"],
            c["dc.nonconverged"] + c["tran.nonconverged"])


def spread(values):
    """Inter-quartile range as a share of the median, as
    statistics.quantiles(values, n=4) gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))
