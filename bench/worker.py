"""Run one workload in this fresh process and write its raw record as JSON.

Started by run.py, never by hand: `python3 bench/worker.py --root <checkout>
--workload <name> --seed <n> --seconds <s> --trace <0|1> --scale <full|tiny>
--workdir <dir> --result <file> [--spans <file>] [--setup-only]`.

The first thing it does is import snslab, timed: that is the set-up time
of the workload, `import snslab` up to its first operation, with numpy's
import in it and the harness's own input generation kept out. With
--setup-only it records only that time and exits. Untraced, it runs one warm-up pass and then timed passes until the time is
used. Traced, it spends half the time on untraced passes and half on traced
ones, replays one sampled session at the other job count for the thread
speed-up, and times the layers this workload never calls on one tiny pass
of each other workload (the probe).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# numpy and snslab are imported only after the timed import in main()


def timed_import(root: str) -> float:
    """Import snslab into this fresh process; the seconds it took."""
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import snslab  # noqa: F401
    import snslab.cli  # noqa: F401

    return time.perf_counter() - t0


# gauge readings per pass, spread over the gaps between its operations; one
# reading is noisy, so a pass of few operations reads the gauge repeatedly
GAUGE_READINGS = 24


def run_pass(ops, threads: int) -> dict:
    """Run one pass closed-loop; checks run after the timed part.

    The gauge, on as many threads as the operations use, is read before
    every operation and after the last one, outside the operations' timing.
    """
    from gauge import gauge_ms

    outs, times, errors, gauges = {}, [], {}, []
    reps = -(-GAUGE_READINGS // (len(ops) + 1))
    for op in ops:
        gauges += [gauge_ms(threads) for _ in range(reps)]
        s = time.perf_counter()
        try:
            outs[op.label] = op.call(outs)
        except Exception as exc:  # an operation that raises counts as failed
            errors[op.label] = f"{type(exc).__name__}: {exc}"
            outs[op.label] = None
        times.append(time.perf_counter() - s)
    gauges += [gauge_ms(threads) for _ in range(reps)]
    failures, work = [], 0.0
    for op in ops:
        message = errors.get(op.label)
        if message is None:
            try:
                message = op.check(outs[op.label], outs)
                work += op.work(outs[op.label])
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append(f"{op.label}: {message}")
    return {
        "wall_s": sum(times),
        "gauge_ms": statistics.fmean(gauges),
        "op_s": dict(zip((op.label for op in ops), times)),
        "work": work,
        "failures": failures,
    }


def run_passes(workload, seconds: float, tracer=None, label="pass") -> list[dict]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = workload.ops()
        if tracer is None:
            passes.append(run_pass(ops, workload.threads))
        else:
            with tracer.span(label, workload=workload.name, index=len(passes)):
                passes.append(run_pass(ops, workload.threads))
    return passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    setup_s = timed_import(args.root)
    import layers
    import numpy
    import workloads
    from gauge import gauge_ms

    # the machine's speed right after the import, to scale the set-up time
    setup = {"setup_s": setup_s, "setup_gauge_ms": statistics.median(gauge_ms() for _ in range(5))}
    if args.setup_only:
        with open(args.result, "w", encoding="ascii") as fh:
            json.dump(setup, fh)
        return 0

    nproc = len(os.sched_getaffinity(0))
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.root, args.workdir, args.seed, args.scale, nproc)
    record = {
        "workload": args.workload,
        "inputs": workload.inputs(),
        "work_unit": workload.work_unit,
        "nproc": nproc,
        "numpy": numpy.__version__,
        **setup,
    }
    warm = run_pass(workload.ops(), workload.threads)
    record["first_pass_s"] = warm["wall_s"]
    passes = [warm]
    if not args.trace:
        timed = run_passes(workload, args.seconds)
        passes += timed
        record["passes"] = timed
    else:
        from spans import Tracer

        plain = run_passes(workload, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.enabled = True
            traced = run_passes(workload, args.seconds / 2.0, tracer)
            tracer.enabled = False
            main_spans = tracer.take()
            speedups = {"workload": layers.thread_speedup(tracer, main_spans, nproc)}
            probe_spans, probe_passes = layers.probe(
                tracer, args.workload, args.root, args.workdir, nproc, workloads, run_passes
            )
            if speedups["workload"] is None:
                speedups["probe"] = layers.thread_speedup(tracer, probe_spans, nproc)
        finally:
            tracer.uninstall()
        passes += plain + traced + probe_passes
        record["passes"] = plain
        record["traced_passes"] = traced
        record["layers"] = layers.summarize(
            main_spans, probe_spans, len(traced), speedups, plain, traced
        )
        if args.spans:
            with open(args.spans, "w", encoding="ascii") as fh:
                json.dump({"main": main_spans, "probe": probe_spans}, fh)
    # read before verify(), whose extra job count would add thread arenas
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verified = workload.verify()
    if args.trace:
        summary = record["layers"]
        verified.append((
            "span self times account for the untraced pass",
            None if summary["accounted_within_overhead"] else
            f"up to {summary['unattributed_share_max']:.1%} of a traced pass "
            f"lies outside every span",
        ))
    record["attempted"] = sum(len(p["op_s"]) for p in passes) + len(verified)
    record["failures"] = [f for p in passes for f in p["failures"]] + [
        f"{label}: {message}" for label, message in verified if message is not None
    ]
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
