"""The four benchmark workloads: generated inputs, operations and output checks.

Every workload writes its INI inputs, derived from `configs/` and the
workload seed, into a private work directory, then exposes one pass as a
list of operations. An operation is a CLI call (`snslab.cli.entry(argv)`,
in-process) or a library call, run one after another by a single client.
Each operation has a check on its output; a failed check counts as a
failed operation.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import os
import random
from dataclasses import astuple, dataclass
from typing import Any, Callable

import snslab.cli
import snslab.sensing
import snslab.simulate
from snslab.model import DetectorModel, LinkModel, SourceParams
from snslab.optimize import SearchSpace

# a sampled pre-pairing QBER must lie this many binomial standard deviations
# from the expected_tallies QBER of the same link
QBER_SIGMAS = 5.0
# the located disturbance must lie this close to the configured position
LOCATE_TOLERANCE_KM = 1.0
SENSE_SOURCE_KM = 60.0

# sizes per scale: "full" is what the benchmark measures, "tiny" is for
# the self-test and for the traced probe of layers a workload does not call
SIZES = {
    "full": {
        "optimize_budget": 240,
        "curve_points": 60,
        "long_pulses": 4_000_000,
        "sweep_sessions": 24,
        "sweep_pulses": 200_000,
        "sense_duration_s": 0.6,
    },
    "tiny": {
        "optimize_budget": 24,
        "curve_points": 6,
        "long_pulses": 300_000,
        "sweep_sessions": 4,
        # above snslab.simulate.MC_CHUNK, so sessions span two chunks and
        # the job-count check can see a difference
        "sweep_pulses": 140_000,
        "sense_duration_s": 0.25,
    },
}


@dataclass
class Op:
    """One closed-loop operation of a pass.

    call(outs) returns the output, given the outputs of the earlier
    operations of the same pass by label. check(out, outs) returns a
    failure message or None. work(out) is the amount of the workload's
    work unit the operation did.
    """

    label: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]
    work: Callable[[Any], float] = lambda out: 0.0


def read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(path):
        raise FileNotFoundError(path)
    return cp


def write_ini(cp: configparser.ConfigParser, path: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        cp.write(fh)
    return path


def set_option(cp: configparser.ConfigParser, section: str, key: str, value) -> None:
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, repr(value) if isinstance(value, float) else str(value))


def cli_call(argv: list[str]) -> dict:
    """Run one CLI command in-process; returns exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = snslab.cli.entry(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_json(result: dict) -> tuple[dict | None, str | None]:
    if result["rc"] != 0:
        return None, f"exit code {result['rc']}: {result['stderr'].strip()}"
    try:
        return json.loads(result["stdout"]), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _finite(values, what: str) -> str | None:
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v))]
    return f"{what} not finite: {bad[:3]}" if bad else None


def models(cp: configparser.ConfigParser) -> tuple[LinkModel, DetectorModel, SourceParams]:
    def section(name):
        return {k: float(v) for k, v in cp[name].items()}

    return LinkModel(**section("link")), DetectorModel(**section("detector")), SourceParams(
        **section("source")
    )


class Workload:
    name = ""
    work_unit = ""
    # threads the operations keep busy at once
    threads = 1

    def __init__(self, root: str, workdir: str, seed: int, scale: str, nproc: int) -> None:
        self.root = root
        self.workdir = workdir
        self.size = SIZES[scale]
        self.nproc = nproc
        self.rng = random.Random(f"{self.name}:{seed}")
        os.makedirs(workdir, exist_ok=True)

    def config(self, name: str) -> configparser.ConfigParser:
        return read_ini(os.path.join(self.root, "configs", name))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def n_jobs(self, wanted: int) -> int:
        if wanted > self.nproc:
            raise ValueError(f"n_jobs {wanted} exceeds nproc {self.nproc}")
        return wanted

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def verify(self) -> list[tuple[str, str | None]]:
        """Checks made once per run, outside the timed passes."""
        return []

    def inputs(self) -> dict:
        """What the generated inputs are, for the run record."""
        return {}


class Design(Workload):
    name = "design"
    work_unit = "analytic-chain evaluations"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        u = self.rng.random
        desk = self.config("desk.ini")
        set_option(desk, "optimize", "budget", self.size["optimize_budget"])
        set_option(desk, "optimize", "n_starts", 4)
        set_option(desk, "run", "n_pulses", 1e10 * (0.8 + 0.4 * u()))
        self.desk = write_ini(desk, self.path("desk.ini"))
        self.opt_seed = self.rng.randrange(1, 1 << 30)
        start, n = 100.0 + 20.0 * u(), self.size["curve_points"]
        self.distances = [start + i * 600.0 / n for i in range(n)]
        longhaul = self.config("longhaul_link.ini")
        set_option(longhaul, "curve", "distances_km", ",".join(repr(d) for d in self.distances))
        self.longhaul = write_ini(longhaul, self.path("longhaul_link.ini"))
        session = self.config("longhaul_session.ini")
        set_option(session, "keyrate", "n_pulses", 1.007e13 * (0.9 + 0.2 * u()))
        self.session = write_ini(session, self.path("longhaul_session.ini"))
        self.loss_db = 60.0 + 60.0 * u()

    def inputs(self) -> dict:
        return {
            "optimize_seed": self.opt_seed,
            "optimize_budget": self.size["optimize_budget"],
            "curve_km": [self.distances[0], self.distances[-1], len(self.distances)],
            "plob_loss_db": self.loss_db,
        }

    def ops(self) -> list[Op]:
        def keyrate(config):
            return Op(
                f"keyrate {os.path.basename(config)}",
                lambda outs: cli_call(["keyrate", "--config", config, "--format", "json"]),
                check_keyrate,
                lambda out: 0.0 if config == self.session else 1.0,
            )

        return [
            Op(
                "optimize",
                lambda outs: cli_call(
                    ["optimize", "--config", self.desk, "--seed", str(self.opt_seed),
                     "--format", "json"]
                ),
                check_optimize,
                lambda out: float(json.loads(out["stdout"])["evaluations"]),
            ),
            Op(
                "curve",
                lambda outs: cli_call(["curve", "--config", self.longhaul, "--format", "json"]),
                check_curve,
                lambda out: float(len(self.distances)),
            ),
            keyrate(self.desk),
            keyrate(self.longhaul),
            keyrate(self.session),
            Op(
                "plob",
                lambda outs: cli_call(["plob", "--loss-db", repr(self.loss_db), "--format", "json"]),
                check_plob,
            ),
        ]


def check_optimize(out, outs) -> str | None:
    payload, err = cli_json(out)
    if err:
        return err
    err = _finite([payload["rate_per_pulse"], *payload["params"].values()], "optimize")
    if err:
        return err
    if payload["rate_per_pulse"] <= 0.0:
        return f"optimizer rate {payload['rate_per_pulse']} is not positive"
    for name, (lo, hi) in SearchSpace.default().bounds.items():
        if not lo <= payload["params"][name] <= hi:
            return f"optimizer {name}={payload['params'][name]} outside [{lo}, {hi}]"
    if payload["params"]["p_mu1"] + payload["params"]["p_mu2"] >= 1.0:
        return "optimizer decoy probabilities leave no vacuum"
    return None


def check_curve(out, outs) -> str | None:
    payload, err = cli_json(out)
    if err:
        return err
    rows = sorted(payload["rows"], key=lambda r: r["distance_km"])
    rates = [r["simulated_rate"] for r in rows]
    err = _finite(rates + [r["plob_relative"] for r in rows], "curve")
    if err:
        return err
    for near, far in zip(rows, rows[1:]):
        if far["simulated_rate"] > near["simulated_rate"]:
            return f"curve rate rises from {near['distance_km']} to {far['distance_km']} km"
    return None


def check_keyrate(out, outs) -> str | None:
    payload, err = cli_json(out)
    if err:
        return err
    return _finite([payload["rate"]["rate_per_pulse"], payload["rate"]["bits_per_second"]],
                   "keyrate")


def check_plob(out, outs) -> str | None:
    payload, err = cli_json(out)
    if err:
        return err
    bound = payload["bound_bits_per_use"]
    if not (math.isfinite(bound) and bound > 0.0):
        return f"plob bound {bound} is not finite and positive"
    return None


class Sessions(Workload):
    """Shared parts of the two sampling workloads."""

    work_unit = "sampled pulses"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.expected_qber: dict[str, float] = {}
        self.model: dict[str, tuple] = {}

    def session_config(self, name: str, length_km: float, n_pulses: int, n_jobs: int) -> str:
        cp = self.config("desk.ini")
        set_option(cp, "link", "length_a_km", length_km)
        set_option(cp, "link", "length_b_km", length_km)
        set_option(cp, "run", "n_pulses", float(n_pulses))
        set_option(cp, "run", "n_jobs", n_jobs)
        path = write_ini(cp, self.path(name))
        link, det, src = models(cp)
        expected = snslab.simulate.expected_tallies(link, det, src, float(n_pulses))
        self.expected_qber[path] = expected.pre_pairing_qber()
        self.model[path] = (link, det, src, n_pulses)
        return path

    def simulate_op(self, label: str, config: str, seed: int) -> Op:
        n_pulses = self.model[config][3]

        def check(out, outs):
            payload, err = cli_json(out)
            if err:
                return err
            err = _finite(list(payload["rate"].values()) + list(payload["tally"].values()),
                          "simulate")
            if err:
                return err
            q = payload["tally"]["pre_pairing_qber"]
            heralds = payload["tally"]["signal_heralded"]
            q0 = self.expected_qber[config]
            sigma = math.sqrt(q0 * (1.0 - q0) / heralds) if heralds > 0 else math.inf
            if abs(q - q0) > QBER_SIGMAS * sigma:
                return f"QBER {q} is {abs(q - q0) / sigma:.1f} sigma from expected {q0}"
            return None

        return Op(
            label,
            lambda outs: cli_call(
                ["simulate", "--config", config, "--seed", str(seed), "--format", "json"]
            ),
            check,
            lambda out: float(n_pulses),
        )


class SessionLong(Sessions):
    name = "session-long"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.jobs = self.threads = self.n_jobs(self.nproc)
        self.config_path = self.session_config(
            "desk_long.ini", 50.0, self.size["long_pulses"], self.jobs
        )
        self.sim_seed = self.rng.randrange(1, 1 << 30)

    def inputs(self) -> dict:
        return {"n_pulses": self.size["long_pulses"], "n_jobs": self.jobs, "seed": self.sim_seed}

    def ops(self) -> list[Op]:
        return [self.simulate_op("simulate", self.config_path, self.sim_seed)]


class SessionSweep(Sessions):
    name = "session-sweep"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        n = self.size["sweep_pulses"]
        self.configs = [
            self.session_config("desk_20db.ini", 50.0, n, 1),
            self.session_config("desk_30db.ini", 75.0, n, 1),
        ]
        base = self.rng.randrange(1, 1 << 30)
        self.seeds = [base + i for i in range(self.size["sweep_sessions"])]

    def inputs(self) -> dict:
        return {
            "sessions": len(self.seeds),
            "n_pulses": self.size["sweep_pulses"],
            "seeds": [self.seeds[0], self.seeds[-1]],
        }

    def ops(self) -> list[Op]:
        return [
            self.simulate_op(f"simulate {i}", self.configs[i % 2], seed)
            for i, seed in enumerate(self.seeds)
        ]

    def verify(self) -> list[tuple[str, str | None]]:
        link, det, src, n_pulses = self.model[self.configs[0]]
        seed = self.seeds[0]
        tallies = {
            jobs: snslab.simulate.monte_carlo_session(link, det, src, n_pulses, seed, jobs)
            for jobs in sorted({1, self.nproc})
        }

        def fingerprint(tally):
            rows = sorted((k, astuple(r)) for k, r in tally.rows.items())
            return repr((tally.n_pulses, rows)).encode(), tally.z_bits_alice.tobytes(), \
                tally.z_bits_bob.tobytes()

        prints = {jobs: fingerprint(t) for jobs, t in tallies.items()}
        same = len(set(prints.values())) == 1
        label = f"tally identical at n_jobs 1 and {self.nproc}"
        return [(label, None if same else "tallies differ between job counts")]


class Sense(Workload):
    name = "sense"
    work_unit = "phase samples"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        cp = self.config("sense_demo.ini")
        set_option(cp, "sensing", "duration_s", self.size["sense_duration_s"])
        self.sense_seed = self.rng.randrange(1, 1 << 30)
        set_option(cp, "run", "seed", self.sense_seed)
        position = cp.getfloat("vibration.main", "position_km")
        if position != SENSE_SOURCE_KM:
            raise ValueError(f"sense_demo.ini places its source at {position} km")
        self.geometry = snslab.sensing.LinkGeometry(
            length_km=cp.getfloat("sensing", "length_km"),
            light_speed_km_per_s=cp.getfloat("sensing", "light_speed_km_per_s", fallback=2.0e5),
        )
        self.n_samples = round(
            self.size["sense_duration_s"] * cp.getfloat("sensing", "sample_rate_hz")
        )
        self.config_path = write_ini(cp, self.path("sense.ini"))
        self.out_dir = self.path("sense_out")

    def inputs(self) -> dict:
        return {"samples": self.n_samples, "seed": self.sense_seed}

    def ops(self) -> list[Op]:
        trace = {who: os.path.join(self.out_dir, f"trace_{who}.txt") for who in ("alice", "bob")}

        def check_sense(out, outs):
            payload, err = cli_json(out)
            if err:
                return err
            record = payload["localization"]
            if record["out_of_range"]:
                return "disturbance located out of range"
            miss = abs(record["position_from_alice_km"] - SENSE_SOURCE_KM)
            if miss > LOCATE_TOLERANCE_KM:
                return f"located {miss:.3f} km from the {SENSE_SOURCE_KM} km source"
            return None

        def check_read(out, outs):
            if out.n_samples != self.n_samples:
                return f"read back {out.n_samples} of {self.n_samples} samples"
            return None

        def check_locate(out, outs):
            payload, err = cli_json(outs["sense"])
            if err:
                return f"no sense record to compare: {err}"
            again = {
                "delay_s": out.delay_s,
                "position_from_bob_km": out.position_from_bob_km,
                "position_from_alice_km": out.position_from_alice_km,
                "position_from_bob_unclamped_km": out.position_from_bob_unclamped_km,
                "correlation_peak": out.correlation_peak,
                "out_of_range": out.out_of_range,
            }
            if again != payload["localization"]:
                return f"re-localization {again} differs from {payload['localization']}"
            return None

        return [
            Op(
                "sense",
                lambda outs: cli_call(
                    ["sense", "--config", self.config_path, "--out", self.out_dir,
                     "--format", "json"]
                ),
                check_sense,
                lambda out: float(self.n_samples),
            ),
            Op("read alice", lambda outs: snslab.sensing.read_trace(trace["alice"]), check_read),
            Op("read bob", lambda outs: snslab.sensing.read_trace(trace["bob"]), check_read),
            Op(
                "locate",
                lambda outs: snslab.sensing.locate_traces(
                    outs["read alice"], outs["read bob"], self.geometry
                ),
                check_locate,
            ),
        ]


WORKLOADS = {w.name: w for w in (Design, SessionLong, SessionSweep, Sense)}
