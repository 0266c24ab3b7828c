"""Per-layer metrics from the spans of a traced run.

Each metric reads the spans of one traced function. A metric comes from
the workload's own traced passes when the workload calls that function;
otherwise it comes from the probe, one tiny pass of each other workload
run traced after the main passes, so every traced record carries every
layer. The record says which source each metric came from.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time

import snslab.simulate
from gauge import at_reference
from spans import MC, MERGE, self_times

ENTRY = "cli.entry"
SUBCOMMANDS = ("keyrate", "simulate", "curve", "optimize", "sense", "plob")
# the largest share of a traced pass that may lie outside every span
UNATTRIBUTED_MAX = 0.02


def _named(name):
    return lambda s, ctx: s["name"] == name


def _command(cmd):
    return lambda s, ctx: s["name"] == ENTRY and s["attrs"]["cmd"] == cmd


def _merge_in_session(s, ctx):
    parent = ctx["by_id"].get(s["parent"])
    return s["name"] == MERGE and parent is not None and parent["name"] == MC


def _mean_duration(scale):
    return lambda sel, ctx: scale * statistics.fmean(s["end"] - s["start"] for s in sel)


def _per_pass(sel, ctx):
    return len(sel) / ctx["passes"]


def _attr_per_pass(key):
    return lambda sel, ctx: sum(s["attrs"][key] for s in sel) / ctx["passes"]


def _time_per(key, scale):
    def value(sel, ctx):
        return scale * sum(s["end"] - s["start"] for s in sel) / sum(s["attrs"][key] for s in sel)

    return value


def _kept_ratio(sel, ctx):
    return sum(s["attrs"]["kept"] for s in sel) / sum(s["attrs"]["pairs"] for s in sel)


def _mean_self(scale):
    return lambda sel, ctx: scale * statistics.fmean(ctx["self"][s["id"]] for s in sel)


def _speedup(sel, ctx):
    return ctx["speedup"]


# name, unit, better, which spans it reads, how it reduces them
METRICS = [
    ("simulate.expected_tallies_ms", "ms", "lower", _named("simulate.expected_tallies"),
     _mean_duration(1e3)),
    ("simulate.expected_tallies_calls", "count", "lower", _named("simulate.expected_tallies"),
     _per_pass),
    ("simulate.click_probabilities_us", "us", "lower", _named("simulate.click_probabilities"),
     _mean_duration(1e6)),
    ("simulate.click_probabilities_calls", "count", "lower",
     _named("simulate.click_probabilities"), _per_pass),
    ("simulate.mc_ns_per_pulse", "ns", "lower", _named(MC), _time_per("pulses", 1e9)),
    ("simulate.mc_chunks", "count", "lower", _merge_in_session, _per_pass),
    ("simulate.mc_heralds", "count", "higher", _named(MC), _attr_per_pass("heralds")),
    ("simulate.tally_merge_ms", "ms", "lower", _named(MERGE), _mean_duration(1e3)),
    ("simulate.tally_merge_calls", "count", "lower", _named(MERGE), _per_pass),
    ("simulate.mc_thread_speedup", "x", "higher", _named(MC), _speedup),
    ("security.decoy_bounds_ms", "ms", "lower", _named("security.decoy_bounds"),
     _mean_duration(1e3)),
    ("security.fluctuation_bounds_calls", "count", "lower",
     _named("security.fluctuation_bounds"), _per_pass),
    ("security.expected_post_processing_ms", "ms", "lower",
     _named("security.expected_post_processing"), _mean_duration(1e3)),
    ("security.mc_post_processing_ms", "ms", "lower", _named("security.mc_post_processing"),
     _mean_duration(1e3)),
    ("security.aopp_ms", "ms", "lower", _named("security.aopp"), _mean_duration(1e3)),
    ("security.aopp_pairs", "count", "higher", _named("security.aopp"), _attr_per_pass("pairs")),
    ("security.aopp_kept", "count", "higher", _named("security.aopp"), _attr_per_pass("kept")),
    ("security.aopp_kept_ratio", "ratio", "higher", _named("security.aopp"), _kept_ratio),
    ("security.decoy_infeasible_count", "count", "lower", _named("security.decoy_bounds"),
     _attr_per_pass("infeasible")),
    ("optimize.optimize_params_s", "s", "lower", _named("optimize.optimize_params"),
     _mean_duration(1.0)),
    ("optimize.evaluations", "count", "lower", _named("optimize.optimize_params"),
     _attr_per_pass("evaluations")),
    ("optimize.eval_ms", "ms", "lower", _named("optimize.optimize_params"),
     _time_per("evaluations", 1e3)),
    ("sensing.simulate_phase_traces_ms", "ms", "lower", _named("sensing.simulate_phase_traces"),
     _mean_duration(1e3)),
    ("sensing.synthesize_reference_counts_ms", "ms", "lower",
     _named("sensing.synthesize_reference_counts"), _mean_duration(1e3)),
    ("sensing.recover_us_per_frame", "us", "lower",
     _named("sensing.recover_phase_from_reference"), _time_per("frames", 1e6)),
    ("sensing.locate_traces_ms", "ms", "lower", _named("sensing.locate_traces"),
     _mean_duration(1e3)),
    ("sensing.write_trace_ms", "ms", "lower", _named("sensing.write_trace"), _mean_duration(1e3)),
    ("sensing.write_trace_bytes", "B", "lower", _named("sensing.write_trace"),
     lambda sel, ctx: statistics.fmean(s["attrs"]["bytes"] for s in sel)),
    ("sensing.read_trace_ms", "ms", "lower", _named("sensing.read_trace"), _mean_duration(1e3)),
    *[(f"cli.{cmd}_ms", "ms", "lower", _command(cmd), _mean_duration(1e3)) for cmd in SUBCOMMANDS],
    ("cli.self_ms", "ms", "lower", _named(ENTRY), _mean_self(1e3)),
]


def _context(spans, passes, speedup):
    return {
        "by_id": {s["id"]: s for s in spans},
        "self": self_times(spans),
        "passes": passes,
        "speedup": speedup,
    }


def _first_in_each_pass(spans, name):
    """The earliest span of `name` under each top-level span."""
    by_id = {s["id"]: s for s in spans}
    first = {}
    for s in spans:
        if s["name"] != name:
            continue
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if root["id"] not in first or s["start"] < first[root["id"]]["start"]:
            first[root["id"]] = s
    return list(first.values())


def thread_speedup(tracer, spans, nproc: int) -> float | None:
    """Session time at n_jobs=1 over session time at n_jobs=nproc.

    The first sampled session of every traced pass supplies the time at the
    job count the workload used; the same session is replayed untraced at
    the other job count until about a second has been spent (at most five
    times) and the medians are compared.
    """
    if tracer.first_mc is None:
        return None
    args, kwargs = tracer.first_mc
    bound = inspect.signature(snslab.simulate.monte_carlo_session).bind(*args, **kwargs)
    used = bound.arguments.get("n_jobs", 1)
    pulses = int(bound.arguments["n_pulses"])
    firsts = [
        s for s in _first_in_each_pass(spans, MC)
        if s["attrs"]["pulses"] == pulses and s["attrs"]["n_jobs"] == used
    ]
    if not firsts:
        return None
    other = 1 if used != 1 else nproc
    bound.arguments["n_jobs"] = other
    replays = []
    start = time.perf_counter()
    while len(replays) < 5 and (not replays or time.perf_counter() - start < 1.0):
        t0 = time.perf_counter()
        snslab.simulate.monte_carlo_session(*bound.args, **bound.kwargs)
        replays.append(time.perf_counter() - t0)
    t_used = statistics.median(s["end"] - s["start"] for s in firsts)
    t_other = statistics.median(replays)
    return t_used / t_other if used == 1 else t_other / t_used


def probe(tracer, current: str, root: str, workdir: str, nproc: int, workloads, run_passes):
    """One tiny traced pass of every other workload; returns spans and passes."""
    passes = []
    for name, cls in workloads.WORKLOADS.items():
        if name == current:
            continue
        wl = cls(root, os.path.join(workdir, f"probe-{name}"), 1, "tiny", nproc)
        tracer.enabled = True
        passes += run_passes(wl, 0.0, tracer, label="probe")
        tracer.enabled = False
    return tracer.take(), passes


def _pass_self_sums(spans, selfs) -> dict[int, float]:
    """Per pass index: total self time of the spans beneath that pass."""
    by_id = {s["id"]: s for s in spans}
    sums = {s["attrs"]["index"]: 0.0 for s in spans if s["parent"] is None}
    for s in spans:
        if s["parent"] is None:
            continue
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        sums[root["attrs"]["index"]] += selfs[s["id"]]
    return sums


def _scaled(passes) -> list[float]:
    return [at_reference(p["wall_s"], p["gauge_ms"]) for p in passes]


def summarize(main_spans, probe_spans, traced_passes, speedups, plain, traced) -> dict:
    """Per-layer metrics, where each came from, and the tracing overhead."""
    contexts = {
        "workload": (main_spans, _context(main_spans, traced_passes, speedups.get("workload"))),
        "probe": (probe_spans, _context(probe_spans, 1, speedups.get("probe"))),
    }
    metrics, sources = {}, {}
    for name, unit, _, select, reduce in METRICS:
        for source, (spans, ctx) in contexts.items():
            chosen = [s for s in spans if select(s, ctx)]
            if chosen:
                metrics[name] = {"value": reduce(chosen, ctx), "unit": unit}
                sources[name] = source
                break
    main_ctx = contexts["workload"][1]
    self_by_name: dict[str, float] = {}
    for s in main_spans:
        if s["parent"] is not None:
            self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + main_ctx["self"][s["id"]]
    # pass times and self times scaled by each pass's gauge reading, as the
    # end-to-end pass_s is, so that a change in machine speed between the
    # untraced and the traced half does not pose as tracing overhead
    untraced = statistics.median(_scaled(plain))
    traced_scaled = _scaled(traced)
    traced_s = statistics.median(traced_scaled)
    sums = _pass_self_sums(main_spans, main_ctx["self"])
    accounted = [at_reference(sums[i], p["gauge_ms"]) for i, p in enumerate(traced)]
    # self times = traced pass - unattributed = untraced pass + overhead -
    # unattributed, so the self times account for the untraced pass within
    # the overhead when every traced pass leaves little time unattributed
    unattributed = [t - a for t, a in zip(traced_scaled, accounted)]
    share = max(u / t for u, t in zip(unattributed, traced_scaled))
    return {
        "metrics": metrics,
        "sources": sources,
        "self_s_per_pass": {
            k: v / traced_passes for k, v in sorted(self_by_name.items(), key=lambda kv: -kv[1])
        },
        "pass_s_untraced": untraced,
        "pass_s_traced": traced_s,
        "overhead_s": traced_s - untraced,
        "span_self_s": statistics.median(accounted),
        "unattributed_s": statistics.median(unattributed),
        "unattributed_share_max": share,
        "accounted_within_overhead": share <= UNATTRIBUTED_MAX,
    }
