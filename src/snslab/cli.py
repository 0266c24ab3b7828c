"""Command line front end.

Subcommands:

    keyrate    expected key rate of one configuration
    simulate   sampled session with realized pairing
    curve      rate and repeaterless bounds over a distance sweep
    optimize   tune the source parameters for a link
    sense      generate phase traces, recover them, locate a disturbance
    plob       repeaterless bound for a loss or transmittance

All inputs come from an INI file plus a few flags; without a config the
desk-scale presets apply. Exit codes: 0 on success (a negative rate is
still a success), 2 for configuration problems, 3 when the physics or
statistics make the request infeasible.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .model import (
    DetectorModel, LinkModel, SecurityParams, SourceParams, channel_transmittance, transmittance,
)
from .optimize import optimize_params
from .presets import desk_detector, desk_link, desk_security, desk_source
from .security import (
    KeyRateReport,
    SessionAnalysis,
    expected_post_processing,
    key_rate,
    mc_post_processing,
    plob_bound,
)
from .sensing import (
    DEFAULT_DRIFT_RATE_RAD2_PER_S,
    DEFAULT_NOISE_STD_RAD,
    DEFAULT_PHOTONS_PER_FRAME,
    DegenerateTraceError,
    DelayOutOfRangeError,
    LinkGeometry,
    VibrationSource,
    locate_traces,
    recover_phase_from_reference,
    simulate_phase_traces,
    synthesize_reference_counts,
    write_trace,
)
from .simulate import _click_table, _mix_tallies, expected_tallies, monte_carlo_session


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


class RuntimeInfeasible(RuntimeError):
    """Valid configuration that cannot produce the requested result."""


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# the session aggregates of [keyrate], named as key_rate's arguments
_KEYRATE_KEYS = ("n_untagged", "phase_error_rate", "n_sifted", "bit_error_rate", "n_pulses")
# the [sensing] keys beside LinkGeometry's and their defaults: MISSING marks
# a required key, None an optional one whose absence the library handles
_SENSING_KEYS = {
    "duration_s": dataclasses.MISSING,
    "sample_rate_hz": dataclasses.MISSING,
    "drift_rate_rad2_per_s": DEFAULT_DRIFT_RATE_RAD2_PER_S,
    "noise_std_rad": DEFAULT_NOISE_STD_RAD,
    "max_lag_s": None,
    "max_slack_s": None,
    "photons_per_frame": DEFAULT_PHOTONS_PER_FRAME,
}
# sections read straight into a model dataclass: its fields are the keys,
# and the desk preset supplies every key the section leaves out
_MODEL_SECTIONS = {
    "link": (LinkModel, desk_link),
    "detector": (DetectorModel, desk_detector),
    "source": (SourceParams, desk_source),
    "security": (SecurityParams, desk_security),
}
_SECTION_KEYS = {
    **{section: _field_names(cls) for section, (cls, _) in _MODEL_SECTIONS.items()},
    "keyrate": set(_KEYRATE_KEYS),
    "run": {"n_pulses", "seed", "n_jobs"},
    "curve": {"distances_km"},
    "optimize": {"n_starts", "budget"},
    "sensing": _field_names(LinkGeometry) | set(_SENSING_KEYS),
}
_VIBRATION_KEYS = _field_names(VibrationSource)


def _read_config(path: str | None) -> configparser.ConfigParser:
    """Parse the config file and refuse what no command may read.

    Every section and key must be known, and a value that parses as a
    number must be finite, in every section, whether or not the command
    reads it. Values are taken as written: '%' is not an interpolation.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    if path is None:
        return cp
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in cp.sections():
        if section in _SECTION_KEYS:
            allowed = _SECTION_KEYS[section]
        elif section.startswith("vibration."):
            allowed = _VIBRATION_KEYS
        else:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp[section].items():
            if key not in allowed:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            try:
                number = float(value)
            except ValueError:
                continue  # not a number: the command that reads the key says so
            _finite(number, f"[{section}] {key}")
    return cp


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def _getfloat(cp, section: str, key: str, default=dataclasses.MISSING) -> float | None:
    if not cp.has_option(section, key):
        if default is dataclasses.MISSING:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
        return default
    try:
        value = cp.getfloat(section, key)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number") from None
    return _finite(value, f"[{section}] {key}")


def _getint(cp, section: str, key: str, default: int) -> int:
    if not cp.has_option(section, key):
        return default
    try:
        return cp.getint(section, key)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer") from None


def _build(cp, section: str, cls=None):
    """Build the dataclass one INI section describes: cls, or a model section's own.

    A key the section leaves out takes the desk preset's value in a model
    section, else the field's default; a field with neither is required.
    """
    base = None
    if section in _MODEL_SECTIONS:
        cls, preset = _MODEL_SECTIONS[section]
        base = preset()
    values = {}
    for f in dataclasses.fields(cls):
        default = f.default if base is None else getattr(base, f.name)
        values[f.name] = _getfloat(cp, section, f.name, default)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _setting(cp, args, section: str, key: str, default):
    """[section] key (an integer if default is), checked even beside its flag; the flag wins."""
    value = (_getint if isinstance(default, int) else _getfloat)(cp, section, key, default)
    flag = getattr(args, key, None)
    return value if flag is None else _finite(flag, "--" + key.replace("_", "-"))


def _seed(cp, args) -> int:
    seed = _setting(cp, args, "run", "seed", 1)
    if seed < 0:
        raise ConfigError("[run] seed must be >= 0")
    return seed


def _n_pulses(cp, args, default_pulses: float) -> float:
    n_pulses = _setting(cp, args, "run", "n_pulses", default_pulses)
    if n_pulses <= 0:
        raise ConfigError("[run] n_pulses must be > 0")
    return n_pulses


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        else:
            rows.append((name, _fmt_value(value)))
    return rows


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = ["key,value"]
    lines += [f"{k},{v}" for k, v in _flatten(payload)]
    return "\n".join(lines) + "\n"


def _render_table(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"columns": columns, "rows": rows}, sort_keys=True, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from None


def _rate_payload(r: KeyRateReport, det: DetectorModel) -> dict:
    return {
        "privacy_bits": float(r.privacy_bits),
        "error_correction_bits": float(r.error_correction_bits),
        "correctness_bits": float(r.correctness_bits),
        "secrecy_bits": float(r.secrecy_bits),
        "secret_bits": float(r.secret_bits),
        "rate_per_pulse": float(r.rate_per_pulse),
        "rate_per_pulse_clamped": float(max(r.rate_per_pulse, 0.0)),
        "clamped": bool(r.rate_per_pulse < 0.0),
        "bits_per_second": float(r.rate_per_pulse * det.pulse_rate_hz),
    }


def _analysis_payload(analysis: SessionAnalysis, det: DetectorModel, mode: str) -> dict:
    decoy = dataclasses.asdict(analysis.decoy)
    return {
        "mode": mode,
        "n_pulses": float(analysis.report.n_pulses),
        "decoy": {k: bool(v) if k == "feasible" else float(v) for k, v in decoy.items()},
        "pairing": {
            "pair_count": float(analysis.pair_count),
            "survival_fraction": float(analysis.survival_fraction),
            "n_sifted": float(analysis.n_sifted),
            "bit_error_rate": float(analysis.bit_error_rate),
            "n_untagged": float(analysis.n_untagged),
            "phase_error_rate": float(analysis.phase_error_rate),
        },
        "rate": _rate_payload(analysis.report, det),
    }


def _post_process(chain, *args):
    """Run one step; its ValueError (a session past the sampler's cap, no pulses in a row,
    no photons in a frame) is infeasible."""
    try:
        return chain(*args)
    except ValueError as exc:
        raise RuntimeInfeasible(str(exc)) from None


def _cmd_keyrate(args) -> int:
    cp = _read_config(args.config)
    det, sec = _build(cp, "detector"), _build(cp, "security")
    if cp.has_section("keyrate"):
        # session quantities supplied directly, no channel model involved
        if args.n_pulses is not None:
            raise ConfigError("--n-pulses does not apply here: [keyrate] n_pulses is the "
                              "length of the session the aggregates came from")
        inputs = {key: _getfloat(cp, "keyrate", key) for key in _KEYRATE_KEYS}
        try:
            report = key_rate(**inputs, sec=sec)
        except ValueError as exc:
            raise ConfigError(f"[keyrate] {exc}") from None
        payload = {
            "mode": "direct",
            "n_pulses": float(report.n_pulses),
            "inputs": {
                "n_untagged": float(report.n_untagged),
                "phase_error_rate": float(report.phase_error_rate),
                "n_sifted": float(report.n_sifted),
                "bit_error_rate": float(report.bit_error_rate),
            },
            "rate": _rate_payload(report, det),
        }
        _emit(_render(payload, args.format), args.out)
        return 0
    link, src = _build(cp, "link"), _build(cp, "source")
    tally = expected_tallies(link, det, src, _n_pulses(cp, args, default_pulses=1e10))
    analysis = _post_process(expected_post_processing, tally, src, sec)
    _emit(_render(_analysis_payload(analysis, det, "expected"), args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cp = _read_config(args.config)
    link, det, src, sec = (_build(cp, section) for section in _MODEL_SECTIONS)
    n_pulses, seed = _n_pulses(cp, args, default_pulses=1e6), _seed(cp, args)
    n_jobs = _setting(cp, args, "run", "n_jobs", 1)
    if n_jobs < 1:
        raise ConfigError("[run] n_jobs must be >= 1")
    tally = _post_process(monte_carlo_session, link, det, src, int(n_pulses), seed, n_jobs)
    analysis = _post_process(mc_post_processing, tally, src, sec, seed)
    payload = _analysis_payload(analysis, det, "monte_carlo")
    payload["seed"] = seed
    payload["tally"] = {
        "one_detector_events": float(tally.total_one_detector_events()),
        "signal_heralded": float(tally.signal_heralded()),
        "pre_pairing_qber": float(tally.pre_pairing_qber()),
    }
    _emit(_render(payload, args.format), args.out)
    return 0


def _parse_distances(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError("[curve] distances_km must be comma-separated numbers") from None
    if not values:
        raise ConfigError("[curve] distances_km is empty")
    if any(d < 0 for d in values):
        raise ConfigError("[curve] distances_km must be >= 0")
    # + 0.0 turns -0.0 into 0.0, which prints as 0.0
    return [_finite(d, "[curve] distances_km") + 0.0 for d in values]


_ETA_CEIL = 1.0 - 1e-12
# the most distances one click table of the curve covers: a larger block
# spreads the per-call cost of the table further, but its arrays grow with
# it (about 1 MB of working set at 256)
_CURVE_BLOCK = 256


def _cmd_curve(args) -> int:
    cp = _read_config(args.config)
    link, det, src, sec = (_build(cp, section) for section in _MODEL_SECTIONS)
    n_pulses = _n_pulses(cp, args, default_pulses=1e10)
    if args.distances is not None:
        distances = _parse_distances(args.distances)
    elif cp.has_option("curve", "distances_km"):
        distances = _parse_distances(cp.get("curve", "distances_km"))
    else:
        raise ConfigError("[curve] is missing required key 'distances_km'")

    columns = ["distance_km", "loss_db", "simulated_rate", "plob_absolute", "plob_relative"]
    rows, block = [], []

    def finish_block():
        # one click table for the block's transmittances, then each distance's
        # tally and post-processing in input order
        if not block:
            return
        etas = np.array([eta for _, eta in block])
        table = _click_table(etas[:, :1], etas[:, 1:], link.noise_per_pulse, src)
        for i, (row, _) in enumerate(block):
            tally = _mix_tallies(table.at(i), src, n_pulses)
            analysis = _post_process(expected_post_processing, tally, src, sec)
            # display floor: a session past its reach yields no key
            row["simulated_rate"] = float(max(analysis.report.rate_per_pulse, 0.0))
            rows.append(row)
        block.clear()

    for d in distances:
        loss = link.atten_db_per_km * d
        try:
            scaled = dataclasses.replace(link, length_a_km=d / 2.0, length_b_km=d / 2.0)
            eta_abs = min(transmittance(loss), _ETA_CEIL)
            eta_rel = min(
                transmittance(loss + link.station_loss_db) * det.efficiency, _ETA_CEIL
            )
        except ValueError as exc:
            # the distances before this one are evaluated first, so the
            # first failure in input order is the one reported
            finish_block()
            raise ConfigError(f"[curve] distance {d!r} km: {exc}") from None
        row = {
            "distance_km": float(d),
            "loss_db": float(loss),
            "plob_absolute": float(plob_bound(eta_abs)),
            "plob_relative": float(plob_bound(eta_rel)),
        }
        block.append((row, channel_transmittance(scaled, det)))
        if len(block) == _CURVE_BLOCK:
            finish_block()
    finish_block()
    _emit(_render_table(columns, rows, args.format), args.out)
    return 0


def _cmd_optimize(args) -> int:
    cp = _read_config(args.config)
    link, det, src, sec = (_build(cp, section) for section in _MODEL_SECTIONS)
    n_pulses, seed = _n_pulses(cp, args, default_pulses=1e10), _seed(cp, args)
    n_starts = _setting(cp, args, "optimize", "n_starts", 12)
    budget = _setting(cp, args, "optimize", "budget", 20000)
    try:
        result = optimize_params(
            link, det, sec, n_pulses, seed,
            n_starts=n_starts, budget=budget,
            misalignment=src.misalignment, slice_half_width_rad=src.slice_half_width_rad,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not result.feasible:
        raise RuntimeInfeasible("no parameter vector produced usable decoy statistics")
    payload = {
        "params": {k: float(v) for k, v in result.params.items()},
        "rate_per_pulse": float(result.rate),
        "rate_per_pulse_clamped": float(max(result.rate, 0.0)),
        "clamped": bool(result.rate < 0.0),
        "bits_per_second": float(result.rate * det.pulse_rate_hz),
        "evaluations": int(result.evaluations),
        "start_index": int(result.start_index),
    }
    _emit(_render(payload, args.format), args.out)
    return 0


def _build_vibrations(cp) -> list[VibrationSource]:
    sections = sorted(
        (s for s in cp.sections() if s.startswith("vibration.")),
        key=lambda s: s.split(".", 1)[1],
    )
    if not sections:
        raise ConfigError("sense needs at least one [vibration.*] section")
    return [_build(cp, section, VibrationSource) for section in sections]


def _cmd_sense(args) -> int:
    cp = _read_config(args.config)
    if not cp.has_section("sensing"):
        raise ConfigError("sense needs a [sensing] section")
    geometry = _build(cp, "sensing", LinkGeometry)
    sources = _build_vibrations(cp)
    opts = {key: _getfloat(cp, "sensing", key, default) for key, default in _SENSING_KEYS.items()}
    fs = opts["sample_rate_hz"]
    seed = _seed(cp, args)
    try:
        trace_a, trace_b = simulate_phase_traces(
            geometry, sources, opts["duration_s"], fs, seed,
            drift_rate_rad2_per_s=opts["drift_rate_rad2_per_s"],
            noise_std_rad=opts["noise_std_rad"],
        )
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        # no name holds the counts, so they are freed before the correlation's peak
        recovered = _post_process(
            recover_phase_from_reference,
            *synthesize_reference_counts(trace_b.samples, opts["photons_per_frame"], rng), fs,
        )
        result = locate_traces(
            trace_a, trace_b, geometry,
            max_lag_s=opts["max_lag_s"], slack_s=opts["max_slack_s"],
        )
    except ValueError as exc:
        raise ConfigError(f"[sensing] {exc}") from None

    # written only after every step above has succeeded, and under temporary
    # names that are moved into place once every write is done, so a failed
    # run leaves none of its files behind
    out_dir = args.out or "."
    traces = {"trace_alice": trace_a, "trace_bob": trace_b, "recovered_phase": recovered}
    paths = {name: os.path.join(out_dir, f"{name}.txt") for name in traces}
    record = dataclasses.asdict(result)
    record = {k: bool(v) if k == "out_of_range" else float(v) for k, v in record.items()}
    loc_path = os.path.join(out_dir, "localization.json")
    staged = {path: os.path.join(out_dir, f".{os.path.basename(path)}.{os.getpid()}.tmp")
              for path in [*paths.values(), loc_path]}
    placed = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        # the three traces share one clock, so one pass writes them all
        (first, trace), *rest = ((staged[paths[name]], tr) for name, tr in traces.items())
        write_trace(first, trace, also=dict(rest))
        with open(staged[loc_path], "w", encoding="ascii") as fh:
            fh.write(_render(record, "json"))
        for path, tmp in staged.items():
            os.replace(tmp, path)
            placed.append(path)
    except OSError as exc:
        for path in [*staged.values(), *placed]:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise ConfigError(f"cannot write --out {out_dir}: {exc}") from None
    summary = {**paths, "localization_file": loc_path, "localization": record}
    sys.stdout.write(_render(summary, args.format))
    return 0


def _cmd_plob(args) -> int:
    if (args.loss_db is None) == (args.transmittance is None):
        raise ConfigError("plob needs exactly one of --loss-db or --transmittance")
    if args.loss_db is not None:
        if _finite(args.loss_db, "--loss-db") < 0:
            raise ConfigError("--loss-db must be >= 0")
        eta = min(transmittance(args.loss_db), _ETA_CEIL)
    else:
        eta = args.transmittance
        if not 0.0 <= eta < 1.0:
            raise ConfigError("--transmittance must lie in [0, 1)")
    payload = {"transmittance": float(eta), "bound_bits_per_use": float(plob_bound(eta))}
    _emit(_render(payload, args.format), args.out)
    return 0


def _add_common(p: argparse.ArgumentParser, *, config=True, seed=False, n_pulses=False) -> None:
    if config:
        p.add_argument("--config", help="INI file; missing values fall back to desk presets")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    if seed:
        p.add_argument("--seed", type=int, help="overrides [run] seed")
    if n_pulses:
        p.add_argument("--n-pulses", type=float, help="session length; overrides [run] n_pulses")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snslab",
        description="Sending-or-not-sending twin-field protocol sessions, "
        "security analysis and fiber sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keyrate", help="expected key rate of one configuration")
    _add_common(p, n_pulses=True)
    p.set_defaults(func=_cmd_keyrate)

    p = sub.add_parser("simulate", help="sampled session with realized pairing")
    _add_common(p, seed=True, n_pulses=True)
    p.add_argument("--n-jobs", type=int, help="worker threads; result is identical")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("curve", help="key rate and repeaterless bounds vs distance")
    _add_common(p)
    p.add_argument("--distances", help="comma-separated total distances in km")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("optimize", help="tune source parameters for a link")
    _add_common(p, seed=True, n_pulses=True)
    p.add_argument("--n-starts", type=int)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sense", help="phase traces, recovery and localization")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory for trace and result files")
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="stdout summary format")
    p.set_defaults(func=_cmd_sense)

    p = sub.add_parser("plob", help="repeaterless bound for a loss or transmittance")
    _add_common(p, config=False)
    p.add_argument("--loss-db", type=float)
    p.add_argument("--transmittance", type=float)
    p.set_defaults(func=_cmd_plob)
    return parser


def entry(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeInfeasible, DegenerateTraceError, DelayOutOfRangeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
