"""snslab benchmark: one workload (or all four) end to end, or traced per layer.

    python3 bench/run.py --workload design --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Runs from a checkout of the repository: the package is imported from
`src/` and the inputs are generated from `configs/`. Each workload runs in
a fresh child process (bench/worker.py). Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The full record, and the spans of a traced run, go to bench/out/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from gauge import at_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, "work")
WORKLOADS = ("design", "session-long", "session-sweep", "sense")
NEEDED = (
    "src/snslab/__init__.py",
    "configs/desk.ini",
    "configs/longhaul_link.ini",
    "configs/longhaul_session.ini",
    "configs/sense_demo.ini",
)
# set-up samples per run, each from its own fresh process (2 at --scale tiny)
SETUP_REPEATS = 12
# one invocation must end within this many seconds
DEADLINE_S = 170.0
# the workload's own work unit, and the name the metric goes by on it
WORK_ALIASES = {
    "design": "evals_per_s",
    "session-long": "pulses_per_s",
    "session-sweep": "pulses_per_s",
    "sense": "sense_samples_per_s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def timing(values: list[float]) -> dict:
    summary = {"median": statistics.median(values), "n": len(values)}
    t = tail(values)
    if t is not None:
        summary[f"p{t[0]:g}"] = t[1]
    return summary


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=20
        )
        rev = done.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_rev": rev if rev else "unknown: the checkout is not a git repository",
        "seed": seed,
        "n_jobs_rows": {
            str(n): "run" if n <= nproc else f"left out: n_jobs {n} exceeds nproc {nproc}"
            for n in (1, 2, 4)
        },
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_cmd(args, workload: str, workdir: str, result: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", workdir, "--result", result,
    ]


def measure_setup(args, workload: str, repeats: int, deadline: float) -> list[dict]:
    """Set-up samples from fresh worker processes that stop after the import."""
    samples = []
    workdir = os.path.join(WORK, f"{os.getpid()}-{workload}-setup")
    result = os.path.join(workdir, "setup.json")
    os.makedirs(workdir, exist_ok=True)
    try:
        for _ in range(repeats):
            done = subprocess.run(
                worker_cmd(args, workload, workdir, result) + ["--setup-only"],
                env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
            if done.returncode != 0:
                raise BenchError(f"importing snslab failed: {done.stderr.strip()[-500:]}")
            with open(result, encoding="ascii") as fh:
                samples.append(json.load(fh))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return samples


def run_worker(args, workload: str, deadline: float) -> tuple[dict, str | None]:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(WORK, f"{os.getpid()}-{workload}")
    result = os.path.join(workdir, "result.json")
    spans = os.path.join(OUT, f"{workload}-seed{args.seed}-spans.json") if args.trace else None
    os.makedirs(workdir, exist_ok=True)
    cmd = worker_cmd(args, workload, workdir, result)
    if spans:
        cmd += ["--spans", spans]
    try:
        try:
            done = subprocess.run(
                cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload {workload} did not finish in time") from None
        if done.returncode != 0:
            raise BenchError(f"workload {workload} exited with code {done.returncode}")
        with open(result, encoding="ascii") as fh:
            return json.load(fh), spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(workload: str, record: dict, setup: list[dict]) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the named details behind them.

    Times are scaled to the gauge's reference speed (see gauge.py): each
    pass by its own gauge readings, each set-up sample by the gauge read
    in the same process right after the import. The details also give the
    wall-clock values they were scaled from.
    """
    passes = record["passes"]
    walls = [p["wall_s"] for p in passes]
    scaled = [at_reference(p["wall_s"], p["gauge_ms"]) for p in passes]
    setup_wall = [s["setup_s"] for s in setup]
    setup_scaled = [at_reference(s["setup_s"], s["setup_gauge_ms"]) for s in setup]
    rate = statistics.median(p["work"] / s for p, s in zip(passes, scaled))
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "pass_s": {"value": statistics.median(scaled), "unit": "s"},
        "work_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }
    details = {
        "setup_s": timing(setup_scaled),
        "pass_s": timing(scaled),
        WORK_ALIASES[workload]: rate,
        "failed_frac": len(record["failures"]) / record["attempted"],
        "gauge_ms": timing([p["gauge_ms"] for p in passes]),
        "setup_s_wall": timing(setup_wall),
        "pass_s_wall": timing(walls),
        "work_per_s_wall": statistics.median(p["work"] / p["wall_s"] for p in passes),
        "first_pass_s_wall": record["first_pass_s"],
    }
    if workload == "design":
        details["optimize_s"] = timing(
            [at_reference(p["op_s"]["optimize"], p["gauge_ms"]) for p in passes]
        )
    if workload == "session-sweep":
        calls = [1e3 * at_reference(t, p["gauge_ms"]) for p in passes for t in p["op_s"].values()]
        details["session_ms"] = timing(calls)
        details["session_ms_p50"] = statistics.median(calls)
        details["session_ms_p90"] = sorted(calls)[max(0, math.ceil(0.9 * len(calls)) - 1)]
    return metrics, details


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args, workload: str, deadline: float) -> dict:
    env = environment(args.seed)
    env["loadavg_before"] = os.getloadavg()
    # the workload's own process gives one set-up sample; the others come
    # half before it and half after, so that a short burst of load from
    # elsewhere on the machine cannot hit them all
    extra = (SETUP_REPEATS if args.scale == "full" else 2) - 1
    setup = [] if args.trace else measure_setup(args, workload, extra // 2, deadline)
    record, spans_path = run_worker(args, workload, deadline)
    if not args.trace:
        setup.append({k: record[k] for k in ("setup_s", "setup_gauge_ms")})
        setup += measure_setup(args, workload, extra - extra // 2, deadline)
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = record["numpy"]
    failed = len(record["failures"])
    out = {
        "workload": workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "record": record,
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
    }
    print(f"== {workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    print(f"   nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, rev {env['git_rev']}")
    print(f"   load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}; "
          f"inputs {json.dumps(record['inputs'])}")
    print(f"   attempted {record['attempted']} ops, failed {failed}, "
          f"failed_frac {failed / record['attempted']:g} ratio")
    for message in record["failures"][:10]:
        print(f"   FAILED {message}")
    if args.trace:
        layers = record["layers"]
        out["metrics"] = layers["metrics"]
        for name, m in layers["metrics"].items():
            print(f"   {name:40s} {_fmt(m['value']):>14s} {m['unit']:8s} "
                  f"({layers['sources'][name]})")
        print(f"   pass_s (scaled) untraced {layers['pass_s_untraced']:.4f} s, traced "
              f"{layers['pass_s_traced']:.4f} s, overhead {layers['overhead_s']:+.4f} s; "
              f"span self times {layers['span_self_s']:.4f} s, unattributed "
              f"{layers['unattributed_s']:.4f} s (at most "
              f"{layers['unattributed_share_max']:.2%} of a pass), accounted within "
              f"overhead: {layers['accounted_within_overhead']}")
        top = list(layers["self_s_per_pass"].items())[:8]
        print("   self s/pass: " + ", ".join(f"{k} {v:.4f}" for k, v in top))
        print(f"   spans: {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics, details = end_to_end(workload, record, setup)
        out["metrics"], out["details"] = metrics, details
        for name, m in metrics.items():
            print(f"   {name:16s} {_fmt(m['value']):>14s} {m['unit']}")
        for name, d in details.items():
            if isinstance(d, dict):
                d = ", ".join(f"{k} {_fmt(v)}" for k, v in d.items())
            print(f"   {name:16s} {_fmt(d)}")
    path = os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1)
    print(f"   record: {os.path.relpath(path, ROOT)}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the self-test")
    args = p.parse_args(argv)
    missing = [n for n in NEEDED if not os.path.isfile(os.path.join(ROOT, n))]
    if missing:
        print(f"bench: not a snslab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = []
    try:
        for i, name in enumerate(names):
            # "all" gives each workload an equal share of what is left
            share = (start + DEADLINE_S * len(names) - time.monotonic()) / (len(names) - i)
            results.append(run_one(args, name, time.monotonic() + share))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
