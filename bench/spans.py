"""In-memory span tracer for snslab, installed from outside the package.

`Tracer.install()` replaces the public functions listed in TRACED with
timing wrappers in every snslab module that holds a reference to them
(so `snslab.cli.expected_tallies` and `snslab.optimize.expected_tallies`
are both wrapped), and wraps `SessionTally.merge` on the class. Each call
becomes one span: id, name, start, end, parent id and a few counts taken
from the arguments or the result. `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from contextlib import contextmanager

import snslab
import snslab.cli
import snslab.optimize
import snslab.security
import snslab.sensing
import snslab.simulate

MODULES = (
    snslab,
    snslab.simulate,
    snslab.security,
    snslab.optimize,
    snslab.sensing,
    snslab.cli,
)

TRACED = {
    snslab.simulate: ("expected_tallies", "click_probabilities", "monte_carlo_session"),
    snslab.security: (
        "decoy_bounds",
        "fluctuation_bounds",
        "expected_post_processing",
        "mc_post_processing",
        "aopp",
    ),
    snslab.optimize: ("optimize_params",),
    snslab.sensing: (
        "simulate_phase_traces",
        "synthesize_reference_counts",
        "recover_phase_from_reference",
        "locate_traces",
        "write_trace",
        "read_trace",
    ),
    snslab.cli: ("entry",),
}

MERGE = "simulate.SessionTally.merge"
MC = "simulate.monte_carlo_session"


def _mc_counts(bound, result):
    return {
        "pulses": int(bound.arguments["n_pulses"]),
        "n_jobs": int(bound.arguments.get("n_jobs", 1)),
        "heralds": float(result.total_one_detector_events()),
    }


# counts taken at the layer boundary, from the bound arguments and the result
COUNTS = {
    MC: _mc_counts,
    "security.aopp": lambda b, r: {"pairs": r.n_pairs, "kept": r.n_kept},
    "security.decoy_bounds": lambda b, r: {"infeasible": int(not r.feasible)},
    "optimize.optimize_params": lambda b, r: {"evaluations": int(r.evaluations)},
    "sensing.simulate_phase_traces": lambda b, r: {"samples": r[0].n_samples},
    "sensing.recover_phase_from_reference": lambda b, r: {"frames": r.n_samples},
    "sensing.write_trace": lambda b, r: {"bytes": os.path.getsize(b.arguments["path"])},
    "sensing.read_trace": lambda b, r: {"samples": r.n_samples},
    "cli.entry": lambda b, r: {"cmd": str(b.arguments["argv"][0]), "rc": r},
}


class Tracer:
    """Collects spans while enabled; spans stay in memory until read."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        # arguments of the first traced sampled session, for a replay
        self.first_mc: tuple | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, t0, t1, sid, parent, attrs) -> None:
        span = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around harness code, such as one pass of a workload."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._record(name, t0, t1, sid, parent, attrs)

    def _wrap(self, name: str, fn):
        tracer = self
        counts = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == MC and tracer.first_mc is None:
                tracer.first_mc = (args, kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(name, t0, t1, sid, parent, {"error": type(exc).__name__})
                raise
            t1 = time.perf_counter()
            stack.pop()
            attrs = None
            if counts is not None:
                attrs = counts(signature.bind(*args, **kwargs), result)
            tracer._record(name, t0, t1, sid, parent, attrs)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            return
        for home, names in TRACED.items():
            layer = home.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for mod in MODULES:
                    if getattr(mod, fname, None) is original:
                        self._undo.append((mod, fname, original))
                        setattr(mod, fname, wrapped)
        cls = snslab.simulate.SessionTally
        self._undo.append((cls, "merge", cls.merge))
        cls.merge = self._wrap(MERGE, cls.merge)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def check_well_formed(spans: list[dict]) -> list[str]:
    """Problems with a span list: children outside parents, negative self time."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} {s['name']} has a missing parent")
        elif parent is not None and not (
            parent["start"] <= s["start"] and s["end"] <= parent["end"]
        ):
            problems.append(f"span {s['id']} {s['name']} lies outside its parent")
    for sid, value in self_times(spans).items():
        if value < 0.0:
            problems.append(f"span {sid} has negative self time {value}")
    return problems
