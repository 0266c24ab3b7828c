import configparser
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snslab import (
    LinkGeometry,
    VibrationSource,
    expected_post_processing,
    expected_tallies,
    key_rate,
    plob_bound,
    transmittance,
)
from snslab import cli
from snslab.cli import entry
from snslab.presets import (
    desk_detector,
    desk_link,
    desk_security,
    desk_source,
    reference_detector,
    reference_link,
    reference_security,
    reference_source,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def csv_payload(text):
    lines = text.splitlines()
    assert lines[0] == "key,value"
    return dict(line.split(",", 1) for line in lines[1:])


# ------------------------------------------------------------------- plob

def test_plob_loss_flag_matches_library():
    code, out, _ = run_cli("plob", "--loss-db", "106", "--format", "json")
    assert code == 0
    p = json.loads(out)
    eta = transmittance(106.0)
    assert p["transmittance"] == eta
    assert p["bound_bits_per_use"] == plob_bound(eta)


def test_plob_csv_default_and_zero_transmittance():
    code, out, _ = run_cli("plob", "--transmittance", "0")
    assert code == 0
    payload = csv_payload(out)
    assert payload["bound_bits_per_use"] == "0.0"
    assert payload["transmittance"] == "0.0"


def test_plob_flag_misuse_is_a_config_error():
    assert run_cli("plob")[0] == 2
    assert run_cli("plob", "--loss-db", "10", "--transmittance", "0.5")[0] == 2
    assert run_cli("plob", "--loss-db", "-3")[0] == 2
    assert run_cli("plob", "--transmittance", "1.0")[0] == 2


# ---------------------------------------------------------------- keyrate

def test_keyrate_direct_mode_headline_numbers():
    code, out, _ = run_cli(
        "keyrate", "--config", str(CONFIGS / "longhaul_session.ini"),
        "--format", "json",
    )
    assert code == 0
    p = json.loads(out)
    assert p["mode"] == "direct"
    rate = p["rate"]["rate_per_pulse"]
    assert abs(rate - 9.22e-10) / 9.22e-10 < 0.10
    bps = p["rate"]["bits_per_second"]
    assert abs(bps - 0.092) / 0.092 < 0.10
    assert p["rate"]["clamped"] is False
    assert p["rate"]["rate_per_pulse_clamped"] == rate


def test_keyrate_direct_mode_equals_library_call():
    code, out, _ = run_cli(
        "keyrate", "--config", str(CONFIGS / "longhaul_session.ini"),
        "--format", "json",
    )
    assert code == 0
    p = json.loads(out)
    report = key_rate(244731.0, 0.1336, 558729.0, 0.0212, 1.007e13,
                      reference_security())
    assert p["rate"]["rate_per_pulse"] == report.rate_per_pulse
    assert p["rate"]["secret_bits"] == report.secret_bits
    assert p["inputs"]["n_untagged"] == 244731.0


def test_keyrate_model_path_equals_library_chain():
    code, out, _ = run_cli("keyrate")  # desk presets, csv default
    assert code == 0
    payload = csv_payload(out)
    tally = expected_tallies(desk_link(), desk_detector(), desk_source(), 1e10)
    analysis = expected_post_processing(tally, desk_source(), desk_security())
    assert float(payload["rate.rate_per_pulse"]) == analysis.report.rate_per_pulse
    assert payload["mode"] == "expected"
    assert float(payload["decoy.n1_low"]) == analysis.decoy.n1_low


def test_keyrate_negative_rate_is_reported_not_fatal(tmp_path):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(
        "[keyrate]\n"
        "n_untagged = 1000\nphase_error_rate = 0.3\n"
        "n_sifted = 2000\nbit_error_rate = 0.1\nn_pulses = 1e9\n"
    )
    code, out, _ = run_cli("keyrate", "--config", str(cfg), "--format", "json")
    assert code == 0
    p = json.loads(out)
    assert p["rate"]["rate_per_pulse"] < 0.0
    assert p["rate"]["clamped"] is True
    assert p["rate"]["rate_per_pulse_clamped"] == 0.0


def test_keyrate_direct_mode_validates_inputs(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[keyrate]\n"
        "n_untagged = 3000\nphase_error_rate = 0.1\n"
        "n_sifted = 2000\nbit_error_rate = 0.1\nn_pulses = 1e9\n"
    )
    assert run_cli("keyrate", "--config", str(cfg))[0] == 2


def test_output_file_equals_stdout(tmp_path):
    cfg = str(CONFIGS / "longhaul_session.ini")
    code, out, _ = run_cli("keyrate", "--config", cfg, "--format", "json")
    assert code == 0
    target = tmp_path / "result.json"
    code2, out2, _ = run_cli("keyrate", "--config", cfg, "--format", "json",
                             "--out", str(target))
    assert code2 == 0
    assert out2 == ""
    assert target.read_text() == out


def test_reruns_are_byte_identical():
    a = run_cli("keyrate", "--config", str(CONFIGS / "desk.ini"))
    b = run_cli("keyrate", "--config", str(CONFIGS / "desk.ini"))
    assert a == b


# ------------------------------------------------------------ config errors

VIBRATION = "[vibration.a]\nposition_km = 10\nfrequency_hz = 5\namplitude_rad = 0.1\n"
KEYRATE = (
    "[keyrate]\nphase_error_rate = 0.1\nn_sifted = 2000\nbit_error_rate = 0.1\nn_pulses = 1e9\n"
)
KEYRATE_CONFIG = ["keyrate", "--config", "{cfg}"]
SENSE_CONFIG = ["sense", "--config", "{cfg}", "--out", "{out}"]
WIDE_SLICE = "[run]\nslice_half_width_rad = 2\n"
WIDE_SLICE_ERROR = "config error: [run] slice_half_width_rad must lie in (0, pi/2)\n"
HUGE_ARM = "[link]\nlength_a_km = 1e308\natten_db_per_km = 10\n"
HUGE_ARM_ERROR = "config error: [link] the loss of each arm must be finite\n"


def sensing_ini(**keys):
    keys = {"length_km": 100, "sample_rate_hz": 1000, "duration_s": 0.1, **keys}
    return "[sensing]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + VIBRATION


# (arguments, INI text written to {cfg} or None for no file, exit code,
# a piece of the message)
ERROR_CASES = {
    "missing-file": (KEYRATE_CONFIG, None, 2, "not found"),
    "unknown-section": (KEYRATE_CONFIG, "[warp]\nfactor = 9\n", 2, "[warp]"),
    "unknown-key": (KEYRATE_CONFIG, "[link]\ncolour = blue\n", 2, "colour"),
    "not-a-number": (KEYRATE_CONFIG, "[link]\nlength_a_km = abc\n", 2, "must be a number"),
    "negative-pulses": (KEYRATE_CONFIG, "[run]\nn_pulses = -5\n", 2, "n_pulses must be > 0"),
    "zero-jobs": (["simulate", "--n-jobs", "0"], None, 2, "n_jobs"),
    "negative-seed": (["simulate", "--n-pulses", "1000", "--seed", "-1"], None, 2, "seed"),
    "loss-nan": (["plob", "--loss-db", "nan"], None, 2, "--loss-db must be finite"),
    "pulses-flag-nan": (["keyrate", "--n-pulses", "nan"], None, 2, "--n-pulses"),
    "pulses-flag-inf": (["keyrate", "--n-pulses", "inf"], None, 2, "--n-pulses"),
    "link-nan": (KEYRATE_CONFIG, "[link]\nlength_a_km = nan\n", 2, "length_a_km"),
    "detector-inf": (KEYRATE_CONFIG, "[detector]\nefficiency = inf\n", 2, "efficiency"),
    "source-nan": (KEYRATE_CONFIG, "[source]\nmuz = nan\n", 2, "muz must be finite"),
    # exp(mu2) overflowed in the decoy analysis and muz = 1e300 gave a NaN key
    "source-mu2-too-bright": (
        ["curve", "--distances", "10", "--config", "{cfg}"], "[source]\nmu2 = 800\n", 2,
        "[source] intensities must be <= 100 photons per pulse",
    ),
    "source-muz-too-bright": (
        KEYRATE_CONFIG, "[source]\nmuz = 1e300\n", 2,
        "[source] intensities must be <= 100 photons per pulse",
    ),
    "security-nan": (KEYRATE_CONFIG, "[security]\nf_ec = nan\n", 2, "f_ec must be finite"),
    "run-nan": (KEYRATE_CONFIG, "[run]\nslice_half_width_rad = nan\n", 2, "must be finite"),
    # every command that reads the half width refuses it with the same message
    "half-width-keyrate": (KEYRATE_CONFIG, WIDE_SLICE, 2, WIDE_SLICE_ERROR),
    "half-width-simulate": (["simulate", "--config", "{cfg}"], WIDE_SLICE, 2, WIDE_SLICE_ERROR),
    "half-width-curve": (
        ["curve", "--distances", "10", "--config", "{cfg}"], WIDE_SLICE, 2, WIDE_SLICE_ERROR,
    ),
    "half-width-optimize": (
        ["optimize", "--budget", "1", "--n-starts", "1", "--config", "{cfg}"], WIDE_SLICE, 2,
        WIDE_SLICE_ERROR,
    ),
    "keyrate-nan": (KEYRATE_CONFIG, KEYRATE + "n_untagged = nan\n", 2, "n_untagged"),
    "distance-nan": (["curve", "--distances", "10,nan"], None, 2, "distances_km"),
    "curve-negative-pulses": (
        ["curve", "--distances", "10", "--config", "{cfg}"], "[curve]\nn_pulses = -5\n", 2,
        "[curve] n_pulses must be > 0",
    ),
    "sensing-inf": (SENSE_CONFIG, sensing_ini(length_km="inf"), 2, "length_km must be finite"),
    "vibration-nan": (SENSE_CONFIG, sensing_ini() + "phase_rad = nan\n", 2, "phase_rad"),
    "zero-photons": (SENSE_CONFIG, sensing_ini(photons_per_frame=0), 2, "photons_per_frame"),
    "zero-sample-rate": (
        SENSE_CONFIG, sensing_ini(sample_rate_hz=0), 2,
        "duration_s and sample_rate_hz must be > 0",
    ),
    "missing-duration": (
        SENSE_CONFIG, "[sensing]\nlength_km = 100\nsample_rate_hz = 1000\n" + VIBRATION, 2,
        "missing required key 'duration_s'",
    ),
    # the 5 Hz source needs at least 10 Hz sampling
    "aliasing": (SENSE_CONFIG, sensing_ini(sample_rate_hz=9), 2, "aliases"),
    "position-past-end": (SENSE_CONFIG, sensing_ini(length_km=5), 2, "past the 5.0 km link"),
    "negative-noise": (SENSE_CONFIG, sensing_ini(noise_std_rad=-1), 2, "noise"),
    "negative-max-lag": (SENSE_CONFIG, sensing_ini(max_lag_s=-1), 2, "max_lag_s must be >= 0"),
    "negative-max-slack": (SENSE_CONFIG, sensing_ini(max_slack_s=-1), 2, "slack_s must be >= 0"),
    "two-samples": (SENSE_CONFIG, sensing_ini(duration_s=0.002), 2, "at least 3 samples"),
    "photon-starved-frames": (
        SENSE_CONFIG, sensing_ini(photons_per_frame=1e-9), 3, "no photons",
    ),
    "ten-pulses": (["simulate", "--n-pulses", "10"], None, 3, "tally lacks pulses"),
    "half-pulse": (["simulate", "--n-pulses", "0.5"], None, 3, "tally lacks pulses"),
    # refused before the first chunk, so the case samples nothing
    "pulses-past-cap": (
        ["simulate", "--n-pulses", "1e300"], None, 3,
        "infeasible: n_pulses 1e+300 is past the sampler's cap of 1e+09 pulses (MC_MAX_PULSES)",
    ),
    "no-mu2-pulses": (
        KEYRATE_CONFIG, "[source]\np_mu2 = 0\np_mu1 = 0.65\n", 3, "tally lacks pulses",
    ),
    "out-dir-is-a-file": (
        ["sense", "--config", "{cfg}", "--out", "{cfg}"], sensing_ini(), 2,
        "cannot write --out",
    ),
    "out-parent-missing": (["keyrate", "--out", "{out}/rate.csv"], None, 2, "cannot write --out"),
    # 1e308 km at 10 dB/km overflows the arm loss; it crashed in transmittance
    "arm-loss-overflow-keyrate": (KEYRATE_CONFIG, HUGE_ARM, 2, HUGE_ARM_ERROR),
    "arm-loss-overflow-simulate": (["simulate", "--config", "{cfg}"], HUGE_ARM, 2, HUGE_ARM_ERROR),
    "arm-loss-overflow-optimize": (
        ["optimize", "--budget", "1", "--n-starts", "1", "--config", "{cfg}"], HUGE_ARM, 2,
        HUGE_ARM_ERROR,
    ),
    "curve-loss-overflow": (
        ["curve", "--distances", "1.7e308", "--config", "{cfg}"],
        "[link]\natten_db_per_km = 1.5\n", 2,
        "config error: [curve] distance 1.7e+308 km: loss_db must be finite",
    ),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_config_error_battery(tmp_path, case):
    argv, text, code, fragment = ERROR_CASES[case]
    cfg = tmp_path / "case.ini"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    argv = [arg.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for arg in argv]
    rc, _, err = run_cli(*argv)
    assert rc == code
    assert err.startswith("config error:" if code == 2 else "infeasible:")
    assert fragment in err
    # a refused run writes nothing, not even the output directory
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plob", "--config", "/nonexistent.ini", "--loss-db", "3"],
        ["keyrate", "--seed", "1"],
        ["curve", "--seed", "1", "--distances", "10"],
    ],
    ids=["plob-config", "keyrate-seed", "curve-seed"],
)
def test_flags_a_command_never_reads_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["keyrate"], ["curve", "--distances", "10"]])
def test_keyrate_and_curve_ignore_the_sampling_keys(tmp_path, argv):
    # [run] seed and n_jobs only steer the sampler; the analytic commands skip them
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = -3\nn_jobs = 0\n")
    code, out, _ = run_cli(*argv, "--config", str(cfg))
    assert code == 0
    assert out == run_cli(*argv)[1]


ROUND_TRIP = {
    "link": reference_link(),
    "detector": reference_detector(),
    "source": reference_source(),
    "security": reference_security(),
    "sensing": LinkGeometry(length_km=200.0, light_speed_km_per_s=2.04e5),
    "vibration.main": VibrationSource(
        position_km=60.0, frequency_hz=800.0, amplitude_rad=0.8, phase_rad=0.3,
        dc_offset_rad=1.2, start_s=0.05, duration_s=0.1,
    ),
}
DESK = {
    "link": desk_link(),
    "detector": desk_detector(),
    "source": desk_source(),
    "security": desk_security(),
}


@pytest.mark.parametrize("section", list(ROUND_TRIP))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_config_sections_round_trip(section, data):
    value = ROUND_TRIP[section]
    fields = dataclasses.fields(value)
    names = {f.name for f in fields}
    if section == "sensing":
        # [sensing] also carries the trace and recovery settings
        assert names <= cli._SECTION_KEYS[section]
    elif section.startswith("vibration."):
        assert names == cli._VIBRATION_KEYS
    else:
        assert names == cli._SECTION_KEYS[section]

    # any subset of the keys may be written, as long as every key without
    # a preset or a default is
    base = DESK.get(section)
    required = {f.name for f in fields if base is None and f.default is dataclasses.MISSING}
    written = data.draw(st.sets(st.sampled_from(sorted(names)))) | required
    cp = configparser.ConfigParser()
    cp.read_string(f"[{section}]\n" + "".join(
        f"{name} = {getattr(value, name)!r}\n" for name in sorted(written)
    ))
    given_values = {name: getattr(value, name) for name in written}
    if base is None:
        expected = type(value)(**given_values)
    else:
        expected = dataclasses.replace(base, **given_values)
    built = cli._build(cp, section, type(value))
    assert built == expected
    if written == names:
        assert built == value

def test_curve_requires_distances():
    assert run_cli("curve")[0] == 2
    assert run_cli("curve", "--distances", "10,abc")[0] == 2
    assert run_cli("curve", "--distances", "-5")[0] == 2


def test_sense_requires_config_flag():
    with pytest.raises(SystemExit):
        run_cli("sense")


# --------------------------------------------------------------- simulate

def test_simulate_payload_and_determinism():
    args = ("simulate", "--config", str(CONFIGS / "desk.ini"),
            "--n-pulses", "200000", "--seed", "3", "--format", "json")
    code, out, _ = run_cli(*args)
    assert code == 0
    p = json.loads(out)
    assert p["mode"] == "monte_carlo"
    assert p["seed"] == 3
    assert p["tally"]["one_detector_events"] > 0
    assert 0.15 < p["tally"]["pre_pairing_qber"] < 0.40
    assert "rate_per_pulse" in p["rate"]
    assert run_cli(*args)[1] == out


# ------------------------------------------------------------------- curve

def test_curve_rates_fall_with_distance_and_clear_the_bound():
    code, out, _ = run_cli(
        "curve", "--config", str(CONFIGS / "longhaul_link.ini"),
        "--distances", "400,500,658.7,750", "--format", "json",
    )
    assert code == 0
    table = json.loads(out)
    assert table["columns"] == [
        "distance_km", "loss_db", "simulated_rate", "plob_absolute", "plob_relative",
    ]
    rows = table["rows"]
    rates = [r["simulated_rate"] for r in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(r["simulated_rate"] >= 0.0 for r in rows)
    longest_keyed = rows[2]
    assert longest_keyed["distance_km"] == 658.7
    assert longest_keyed["loss_db"] == pytest.approx(106.0, abs=1e-9)
    assert longest_keyed["simulated_rate"] > 10.0 * longest_keyed["plob_absolute"]
    assert math.isclose(
        longest_keyed["plob_absolute"], plob_bound(transmittance(106.0)), rel_tol=1e-12
    )


def test_curve_csv_columns():
    code, out, _ = run_cli(
        "curve", "--config", str(CONFIGS / "desk.ini"), "--distances", "40,100"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance_km,loss_db,simulated_rate,plob_absolute,plob_relative"
    assert len(lines) == 3


# ---------------------------------------------------------------- optimize

def test_optimize_cli_small_budget():
    code, out, _ = run_cli(
        "optimize", "--config", str(CONFIGS / "desk.ini"),
        "--budget", "25", "--n-starts", "3", "--seed", "2", "--format", "json",
    )
    assert code == 0
    p = json.loads(out)
    assert p["rate_per_pulse"] > 0.0
    assert p["evaluations"] <= 25
    assert set(p["params"]) == {
        "mu1", "mu2", "muz", "p_signal_window", "p_mu1", "p_mu2", "epsilon_send",
    }


def test_optimize_cli_infeasible_link_exits_3(tmp_path):
    cfg = tmp_path / "dead.ini"
    cfg.write_text(
        "[link]\nlength_a_km = 1000\nlength_b_km = 1000\n"
        "[optimize]\nn_pulses = 1e5\nn_starts = 2\nbudget = 5\n"
    )
    code, _, err = run_cli("optimize", "--config", str(cfg), "--seed", "1")
    assert code == 3
    assert "infeasible" in err


# ------------------------------------------------------------------- sense

def test_sense_end_to_end(tmp_path):
    out_dir = tmp_path / "sense_out"
    args = ("sense", "--config", str(CONFIGS / "sense_demo.ini"),
            "--out", str(out_dir), "--format", "json")
    code, out, _ = run_cli(*args)
    assert code == 0
    for name in ("trace_alice.txt", "trace_bob.txt", "recovered_phase.txt",
                 "localization.json"):
        assert (out_dir / name).exists()
    record = json.loads((out_dir / "localization.json").read_text())
    assert record["position_from_alice_km"] == pytest.approx(60.0, abs=1.0)
    assert record["correlation_peak"] > 0.9
    assert record["out_of_range"] is False
    summary = json.loads(out)
    assert summary["localization"] == record

    header = (out_dir / "recovered_phase.txt").read_text().splitlines()
    assert header[0].startswith("# sample_rate_hz=")
    assert "origin=recovered" in header[0]
    assert len(header[1].split()) == 2

    # the photon-counting recovery really ran: the recovered stream is a
    # noisy version of the bob trace, not a copy of it
    bob_lines = (out_dir / "trace_bob.txt").read_text().splitlines()
    assert header[1:] != bob_lines[1:]

    first = {name: (out_dir / name).read_bytes()
             for name in ("trace_alice.txt", "localization.json")}
    code2, out2, _ = run_cli(*args)
    assert code2 == 0 and out2 == out
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob


def test_sense_missing_section_is_config_error(tmp_path):
    cfg = tmp_path / "nosensing.ini"
    cfg.write_text("[vibration.a]\nposition_km = 1\nfrequency_hz = 5\namplitude_rad = 0.1\n")
    assert run_cli("sense", "--config", str(cfg))[0] == 2


# -------------------------------------------------------------- subprocess

def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "snslab.cli", "plob", "--loss-db", "106",
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["bound_bits_per_use"] == pytest.approx(3.62e-11, rel=0.01, abs=0.0)


@pytest.mark.skipif(shutil.which("snslab") is None, reason="script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["snslab", "keyrate", "--config", str(CONFIGS / "longhaul_session.ini")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "key,value"
