"""Command line front end.

Subcommands:

    keyrate    expected key rate of one configuration
    simulate   sampled session with realized pairing
    curve      rate and repeaterless bounds over a distance sweep
    optimize   tune the source parameters for a link
    sense      generate phase traces, recover them, locate a disturbance
    plob       repeaterless bound for a loss or transmittance

All inputs come from an INI file plus a few flags; without a config the
desk-scale presets apply. One sequence in `entry` serves every command:
read the config, run the command, which returns its payload (`curve` its
rendered table), render it and write it to --out or stdout. Exit codes:
0 on success (a negative rate is still a success), 2 for configuration
problems, 3 when the library raises Infeasible: the physics, the
statistics or a size cap make the request infeasible. Inputs are checked
as they are read, `sense`'s when its SensePlan is built; any other error
a command raises is a fault of the program and escapes `entry` as itself.
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

from .model import (
    DetectorModel, Infeasible, LinkModel, SecurityParams, SourceParams, channel_transmittance,
    transmittance,
)
from .optimize import DEFAULT_BUDGET, DEFAULT_N_STARTS, MAX_STARTS, optimize_params
from .presets import desk_detector, desk_link, desk_security, desk_source
from .security import (
    KeyRateReport,
    SessionAnalysis,
    expected_post_processing,
    key_rate,
    mc_post_processing,
    plob_bound,
)
from .sensing import LinkGeometry, SensePlan, VibrationSource, sense, write_trace
from .simulate import _click_tables, _mix_tallies, expected_tallies, monte_carlo_session


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# the session aggregates of [keyrate], named as key_rate's arguments
_AGGREGATES = ("n_untagged", "phase_error_rate", "n_sifted", "bit_error_rate")
_KEYRATE_KEYS = (*_AGGREGATES, "n_pulses")
# the fields of SensePlan that no [sensing] key spells out
_PLAN_GIVEN = {"geometry", "sources", "seed"}
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
    "sensing": _field_names(LinkGeometry) | (_field_names(SensePlan) - _PLAN_GIVEN),
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
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
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


def _build(cp, section: str, cls=None, **given):
    """Build the dataclass one INI section describes: cls, or a model section's own.

    Given fields are taken as they are and the rest read from the section: a
    key it leaves out takes the desk preset's value in a model section, else
    the field's default; a field with neither is required.
    """
    base = None
    if section in _MODEL_SECTIONS:
        cls, preset = _MODEL_SECTIONS[section]
        base = preset()
    values = dict(given)
    for f in dataclasses.fields(cls):
        if f.name not in given:
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


def _fields(obj, names) -> dict:
    return {name: float(getattr(obj, name)) for name in names}


def _rate(rate: float, det: DetectorModel) -> dict:
    bits_per_second = rate * det.pulse_rate_hz
    if not (math.isfinite(rate) and math.isfinite(bits_per_second)):
        # a secret length of a few hundred bits over a session of far less than a pulse
        raise Infeasible("the key rate is not finite per pulse or per second: the session is "
                         "too short for its secret length")
    return {
        "rate_per_pulse": float(rate),
        "rate_per_pulse_clamped": float(max(rate, 0.0)),
        "clamped": bool(rate < 0.0),
        "bits_per_second": float(bits_per_second),
    }


def _rate_payload(r: KeyRateReport, det: DetectorModel) -> dict:
    bits = ("privacy_bits", "error_correction_bits", "correctness_bits", "secrecy_bits",
            "secret_bits")
    return {**_fields(r, bits), **_rate(r.rate_per_pulse, det)}


def _analysis_payload(analysis: SessionAnalysis, det: DetectorModel, mode: str) -> dict:
    decoy = dataclasses.asdict(analysis.decoy)
    return {
        "mode": mode,
        "n_pulses": float(analysis.report.n_pulses),
        "decoy": {k: bool(v) if k == "feasible" else float(v) for k, v in decoy.items()},
        "pairing": _fields(analysis, ("pair_count", "survival_fraction", *_AGGREGATES)),
        "rate": _rate_payload(analysis.report, det),
    }


def _cmd_keyrate(cp, args) -> dict:
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
        return {
            "mode": "direct",
            "n_pulses": float(report.n_pulses),
            "inputs": {key: inputs[key] for key in _AGGREGATES},
            "rate": _rate_payload(report, det),
        }
    link, src = _build(cp, "link"), _build(cp, "source")
    tally = expected_tallies(link, det, src, _n_pulses(cp, args, default_pulses=1e10))
    analysis = expected_post_processing(tally, src, sec)
    return _analysis_payload(analysis, det, "expected")


def _cmd_simulate(cp, args) -> dict:
    link, det, src, sec = (_build(cp, section) for section in _MODEL_SECTIONS)
    n_pulses, seed = _n_pulses(cp, args, default_pulses=1e6), _seed(cp, args)
    n_jobs = _setting(cp, args, "run", "n_jobs", 1)
    if n_jobs < 1:
        raise ConfigError("[run] n_jobs must be >= 1")
    tally = monte_carlo_session(link, det, src, int(n_pulses), seed, n_jobs)
    analysis = mc_post_processing(tally, src, sec, seed)
    payload = _analysis_payload(analysis, det, "monte_carlo")
    payload["seed"] = seed
    payload["tally"] = {
        "one_detector_events": float(tally.total_one_detector_events()),
        "signal_heralded": float(tally.signal_heralded()),
        "pre_pairing_qber": float(tally.pre_pairing_qber()),
    }
    return payload


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
# the most distances `curve` takes in one call. README derives it from the
# measured cost of one distance, about 80 us and 0.8 kB
MAX_DISTANCES = 10_000


def _cmd_curve(cp, args) -> str:
    link, det, src, sec = (_build(cp, section) for section in _MODEL_SECTIONS)
    n_pulses = _n_pulses(cp, args, default_pulses=1e10)
    # the key is checked even beside the flag; the flag wins
    distances = None
    if cp.has_option("curve", "distances_km"):
        distances = _parse_distances(cp.get("curve", "distances_km"))
    if args.distances is not None:
        distances = _parse_distances(args.distances)
    if distances is None:
        raise ConfigError("[curve] is missing required key 'distances_km'")
    if len(distances) > MAX_DISTANCES:
        raise Infeasible(f"{len(distances)} distances are past curve's cap of {MAX_DISTANCES} "
                         "distances (MAX_DISTANCES)")

    rows, etas, error = [], [], None
    for d in distances:
        loss = link.atten_db_per_km * d
        try:
            scaled = dataclasses.replace(link, length_a_km=d / 2.0, length_b_km=d / 2.0)
            eta_abs = min(transmittance(loss), _ETA_CEIL)
            eta_rel = min(
                transmittance(loss + link.station_loss_db) * det.efficiency, _ETA_CEIL
            )
        except ValueError as exc:
            # held until the distances before this one are evaluated, so the
            # first failure in input order is the one reported
            error = ConfigError(f"[curve] distance {d!r} km: {exc}")
            break
        rows.append({
            "distance_km": float(d),
            "loss_db": float(loss),
            "plob_absolute": float(plob_bound(eta_abs)),
            "plob_relative": float(plob_bound(eta_rel)),
        })
        etas.append(channel_transmittance(scaled, det))
    # one click table per distance, then each distance's tally and
    # post-processing in input order
    tables = _click_tables([a for a, _ in etas], [b for _, b in etas], link.noise_per_pulse, src)
    for row, table in zip(rows, tables):
        analysis = expected_post_processing(_mix_tallies(table, src, n_pulses), src, sec)
        # display floor: a session past its reach yields no key
        row["simulated_rate"] = float(max(analysis.report.rate_per_pulse, 0.0))
    if error is not None:
        raise error
    columns = ["distance_km", "loss_db", "simulated_rate", "plob_absolute", "plob_relative"]
    return _render_table(columns, rows, args.format)


def _cmd_optimize(cp, args) -> dict:
    link, det, src, sec = (_build(cp, section) for section in _MODEL_SECTIONS)
    n_pulses, seed = _n_pulses(cp, args, default_pulses=1e10), _seed(cp, args)
    n_starts = _setting(cp, args, "optimize", "n_starts", DEFAULT_N_STARTS)
    budget = _setting(cp, args, "optimize", "budget", DEFAULT_BUDGET)
    for key, value in (("n_starts", n_starts), ("budget", budget)):
        if value < 1:
            raise ConfigError(f"[optimize] {key} must be >= 1")
    result = optimize_params(link, det, sec, n_pulses, seed, src, n_starts, budget)
    return {
        "params": {k: float(v) for k, v in result.params.items()},
        **_rate(result.rate, det),
        "evaluations": int(result.evaluations),
        "start_index": int(result.start_index),
    }


def _build_vibrations(cp) -> tuple[VibrationSource, ...]:
    sections = sorted(s for s in cp.sections() if s.startswith("vibration."))
    if not sections:
        raise ConfigError("sense needs at least one [vibration.*] section")
    return tuple(_build(cp, section, VibrationSource) for section in sections)


def _cmd_sense(cp, args) -> dict:
    if not cp.has_section("sensing"):
        raise ConfigError("sense needs a [sensing] section")
    plan = _build(cp, "sensing", SensePlan, geometry=_build(cp, "sensing", LinkGeometry),
                  sources=_build_vibrations(cp), seed=_seed(cp, args))
    alice, bob, result = sense(plan)
    traces = {"trace_alice": alice, "trace_bob": bob}

    # written only after every step above has succeeded, and under temporary
    # names that are moved into place once every write is done, so a failed
    # run leaves none of its files behind
    out_dir = args.out_dir or "."
    paths = {name: os.path.join(out_dir, f"{name}.txt") for name in traces}
    record = dataclasses.asdict(result)
    record = {k: bool(v) if k == "out_of_range" else float(v) for k, v in record.items()}
    loc_path = os.path.join(out_dir, "localization.json")
    staged = {path: os.path.join(out_dir, f".{os.path.basename(path)}.{os.getpid()}.tmp")
              for path in [*paths.values(), loc_path]}
    placed = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, trace in traces.items():
            write_trace(staged[paths[name]], trace)
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
    return {**paths, "localization_file": loc_path, "localization": record}


def _cmd_plob(cp, args) -> dict:
    if (args.loss_db is None) == (args.transmittance is None):
        raise ConfigError("plob needs exactly one of --loss-db or --transmittance")
    if args.loss_db is not None:
        if _finite(args.loss_db, "--loss-db") < 0:
            raise ConfigError("--loss-db must be >= 0")
        eta = min(transmittance(args.loss_db), _ETA_CEIL)
    else:
        if not 0.0 <= args.transmittance < 1.0:
            raise ConfigError("--transmittance must lie in [0, 1)")
        eta = args.transmittance + 0.0  # -0.0 prints as 0.0
    return {"transmittance": float(eta), "bound_bits_per_use": float(plob_bound(eta))}


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
    p.add_argument("--n-jobs", type=int,
                   help="worker threads, capped at the usable CPUs; result is identical")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("curve", help="key rate and repeaterless bounds vs distance")
    _add_common(p)
    p.add_argument("--distances", help="comma-separated total distances in km, at most "
                   f"{MAX_DISTANCES} (MAX_DISTANCES); more exit 3")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("optimize", help="tune source parameters for a link")
    _add_common(p, seed=True, n_pulses=True)
    p.add_argument("--n-starts", type=int,
                   help=f"Latin hypercube starts, at most {MAX_STARTS} (MAX_STARTS); more exit 3")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sense", help="phase traces, recovery and localization")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", metavar="OUT",
                   help="output directory for trace and result files")
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="stdout summary format")
    p.set_defaults(func=_cmd_sense, out=None)

    p = sub.add_parser("plob", help="repeaterless bound for a loss or transmittance")
    _add_common(p, config=False)
    p.add_argument("--loss-db", type=float)
    p.add_argument("--transmittance", type=float)
    p.set_defaults(func=_cmd_plob)
    return parser


def entry(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.func(_read_config(getattr(args, "config", None)), args)
        _emit(result if isinstance(result, str) else _render(result, args.format), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(entry())
