import configparser
import dataclasses
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import snslab.sensing
import snslab.simulate
from snslab import (
    Infeasible,
    LinkGeometry,
    SensePlan,
    SessionTally,
    VibrationSource,
    expected_post_processing,
    expected_tallies,
    key_rate,
    plob_bound,
    read_trace,
    recover_phase_from_reference,
    simulate_phase_traces,
    synthesize_reference_counts,
    transmittance,
)
from snslab import cli
from snslab.cli import entry
from snslab.model import MAX_INTENSITY
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
from snslab.sensing import _BLOCK, MAX_TRACE_SAMPLES
from snslab.optimize import DEFAULT_BUDGET, DEFAULT_N_STARTS, MAX_STARTS
from snslab.simulate import _CLICK_BLOCK, MC_MAX_PULSES

from conftest import sense_plan, sources, write_trace_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"


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
    for zero in ("0", "-0.0"):  # -0.0 prints as 0.0, as in curve
        code, out, _ = run_cli("plob", "--transmittance", zero)
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


@pytest.mark.parametrize("argv", [
    ["keyrate", "--config", str(CONFIGS / "longhaul_session.ini")],
    ["simulate", "--n-pulses", "1e5"],
    ["curve", "--distances", "0,50,100"],
    ["optimize", "--budget", "3", "--n-starts", "1"],
    ["plob", "--loss-db", "20"],
], ids=lambda argv: argv[0])
def test_output_file_equals_stdout(tmp_path, argv):
    code, out, _ = run_cli(*argv, "--format", "json")
    assert code == 0
    target = tmp_path / "result.json"
    code2, out2, _ = run_cli(*argv, "--format", "json", "--out", str(target))
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
WIDE_SLICE = "[source]\nslice_half_width_rad = 2\n"
WIDE_SLICE_ERROR = "config error: [source] slice_half_width_rad must lie in (0, pi/2)\n"
HUGE_ARM = "[link]\nlength_a_km = 1e308\natten_db_per_km = 10\n"
HUGE_ARM_ERROR = "config error: [link] the loss of each arm must be finite\n"
TINY_MU1 = "[source]\nmu1 = 5e-324\n"
TINY_MU1_ERROR = (
    "config error: [source] mu1 is too small: mu1 * mu2 * (mu2 - mu1) underflows to 0\n"
)
DIM_MU1 = "[source]\nmu1 = 1e-315\n"
DIM_MU1_ERROR = "infeasible: mu1 is too small: the single-photon yield bound is not finite\n"
TINY_SMOOTHING_ERROR = (
    "config error: [security] eps_pa * eps_hat is too small: "
    "1 / (sqrt(2) * eps_pa * eps_hat) is not finite\n"
)
DIRECT = KEYRATE + "n_untagged = 1000\n"
PHASE_NOT_FINITE_ERROR = (
    "config error: [sensing] the simulated phase is not finite: amplitude_rad, dc_offset_rad, "
    "drift_rate_rad2_per_s or noise_std_rad is too large\n"
)
RATE_NOT_FINITE_ERROR = (
    "infeasible: the key rate is not finite per pulse or per second: the session is too short "
    "for its secret length\n"
)
NO_MU2_OPAQUE = (
    "[link]\nlength_a_km = 0\nlength_b_km = 0\natten_db_per_km = 1e308\n"
    "[source]\np_mu2 = 0\np_vac = 0.4\n"
)


def sensing_ini(**keys):
    keys = {"length_km": 100, "sample_rate_hz": 1000, "duration_s": 0.1, **keys}
    return "[sensing]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + VIBRATION


# (arguments, INI text or bytes written to {cfg} or None for no file, exit
# code, a piece of the message)
ERROR_CASES = {
    "missing-file": (KEYRATE_CONFIG, None, 2, "not found"),
    # configparser skipped a path it could not open and ran the desk preset
    "config-is-a-directory": (
        ["keyrate", "--config", str(CONFIGS)], None, 2, f"cannot read {CONFIGS}:",
    ),
    # the file was decoded in the locale's encoding, and a bad byte escaped as a traceback
    "config-not-utf8": (
        KEYRATE_CONFIG, b"[link]\nlength_a_km = 5\xff\n", 2, "not UTF-8 text",
    ),
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
    "run-nan": (KEYRATE_CONFIG, "[run]\nn_pulses = nan\n", 2, "[run] n_pulses must be finite"),
    "half-width-nan": (
        KEYRATE_CONFIG, "[source]\nslice_half_width_rad = nan\n", 2,
        "[source] slice_half_width_rad must be finite",
    ),
    # the half width is a field of the source program; [run] no longer takes it
    "half-width-run-key": (
        KEYRATE_CONFIG, "[run]\nslice_half_width_rad = 0.3\n", 2,
        "unknown key 'slice_half_width_rad' in [run]",
    ),
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
    # a non-finite value is refused in every section, also one the command never builds
    "unread-source-nan": (
        SENSE_CONFIG, (CONFIGS / "sense_demo.ini").read_text() + "[source]\nmu1 = nan\n", 2,
        "config error: [source] mu1 must be finite",
    ),
    "unread-sensing-nan": (
        KEYRATE_CONFIG, (CONFIGS / "desk.ini").read_text() + "[sensing]\nlength_km = nan\n", 2,
        "config error: [sensing] length_km must be finite",
    ),
    # '%' is not an interpolation; it crashed in configparser
    "percent-sign": (
        KEYRATE_CONFIG, "[link]\nlength_a_km = 5%\n", 2,
        "config error: [link] length_a_km must be a number",
    ),
    "keyrate-nan": (KEYRATE_CONFIG, KEYRATE + "n_untagged = nan\n", 2, "n_untagged"),
    "distance-nan": (["curve", "--distances", "10,nan"], None, 2, "distances_km"),
    # refused once parsed, before any row or table is built; it took about 80 us a distance
    "distances-past-cap": (
        ["curve", "--distances", ",".join(["0"] * 10_001)], None, 3,
        "infeasible: 10001 distances are past curve's cap of 10000 distances (MAX_DISTANCES)",
    ),
    # a flag wins over its key, but the key is still read and checked
    "distances-flag-bad-key": (
        ["curve", "--distances", "10", "--config", "{cfg}"], "[curve]\ndistances_km = abc\n", 2,
        "[curve] distances_km must be comma-separated numbers",
    ),
    # [run] n_pulses is the one session-length key
    "curve-pulses-key": (
        ["curve", "--distances", "10", "--config", "{cfg}"], "[curve]\nn_pulses = 1e9\n", 2,
        "unknown key 'n_pulses' in [curve]",
    ),
    "optimize-pulses-key": (
        ["optimize", "--budget", "1", "--n-starts", "1", "--config", "{cfg}"],
        "[optimize]\nn_pulses = 1e9\n", 2, "unknown key 'n_pulses' in [optimize]",
    ),
    # the aggregates of [keyrate] come from a session of their own length
    "keyrate-direct-pulses-flag": (
        [*KEYRATE_CONFIG, "--n-pulses", "5"], KEYRATE + "n_untagged = 1000\n", 2,
        "[keyrate] n_pulses is the length of the session the aggregates came from",
    ),
    # a flag wins over its key, but the key is still read and checked
    "seed-flag-bad-key": (
        ["optimize", "--seed", "3", "--budget", "1", "--n-starts", "1", "--config", "{cfg}"],
        "[run]\nseed = abc\n", 2, "[run] seed must be an integer",
    ),
    "jobs-flag-bad-key": (
        ["simulate", "--n-jobs", "1", "--n-pulses", "1000", "--config", "{cfg}"],
        "[run]\nn_jobs = two\n", 2, "[run] n_jobs must be an integer",
    ),
    "budget-flag-bad-key": (
        ["optimize", "--budget", "1", "--n-starts", "1", "--config", "{cfg}"],
        "[optimize]\nbudget = 1.5\n", 2, "[optimize] budget must be an integer",
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
    # the lag window and the slack follow from the link and the sample rate
    **{
        f"{key}-key": (
            SENSE_CONFIG, sensing_ini(**{key: 1}), 2,
            f"config error: unknown key '{key}' in [sensing]\n",
        )
        for key in ("max_lag_s", "max_slack_s")
    },
    "two-samples": (SENSE_CONFIG, sensing_ini(duration_s=0.002), 2, "at least 3 samples"),
    # 0.4 samples round to none; it was refused as infeasible by the recovery
    "zero-samples": (
        SENSE_CONFIG, sensing_ini(duration_s=0.0004), 2,
        "config error: [sensing] duration_s * sample_rate_hz = 0.4 rounds to no samples",
    ),
    # the sample count overflowed to inf and crashed in int()
    "sample-count-overflow": (
        SENSE_CONFIG, sensing_ini(duration_s="1e200", sample_rate_hz="1e200"), 2,
        "config error: [sensing] duration_s * sample_rate_hz = inf samples is not finite",
    ),
    # 1e10 samples; refused before any array is built, so the case allocates nothing large
    "samples-past-cap": (
        SENSE_CONFIG, sensing_ini(duration_s="1e4", sample_rate_hz="1e6"), 3,
        "infeasible: duration_s * sample_rate_hz = 1e+10 samples is past the trace cap of "
        "1e+07 samples (MAX_TRACE_SAMPLES)",
    ),
    "photon-starved-frames": (
        SENSE_CONFIG, sensing_ini(photons_per_frame=1e-9), 3, "no photons",
    ),
    # the end of the 2 s delay window, at 1.7e308 km/s, overflows: the noise-led peak
    # printed an infinite unclamped position at exit 0 for most seeds
    "window-end-not-finite": (
        SENSE_CONFIG,
        "[sensing]\nlength_km = 100\nlight_speed_km_per_s = 1.7e308\nsample_rate_hz = 0.5\n"
        "duration_s = 40\nnoise_std_rad = 3\n"
        "[vibration.a]\nposition_km = 10\nfrequency_hz = 0.2\namplitude_rad = 1\n", 2,
        "config error: [sensing] the delay window's end, max_delay_s plus one sample period = "
        "2 s, maps to a non-finite position at light_speed_km_per_s 1.7e+308\n",
    ),
    # an overflowing phase printed numpy warnings, then failed in the Poisson draw
    "phase-noise-not-finite": (
        SENSE_CONFIG, sensing_ini(noise_std_rad=1e308), 2, PHASE_NOT_FINITE_ERROR,
    ),
    "phase-waveform-not-finite": (
        SENSE_CONFIG,
        sensing_ini().replace("amplitude_rad = 0.1", "amplitude_rad = 1e308")
        + "dc_offset_rad = 1e308\n", 2, PHASE_NOT_FINITE_ERROR,
    ),
    # counts past 2**53 are not exact in float; 1e300 failed in the Poisson draw
    **{
        f"photons-past-2-53-{value}": (
            SENSE_CONFIG, sensing_ini(photons_per_frame=value), 2,
            f"config error: [sensing] photons_per_frame {value} is past 2**53",
        )
        for value in ("1e+19", "1e+300")
    },
    "ten-pulses": (["simulate", "--n-pulses", "10"], None, 3, "tally lacks pulses"),
    "half-pulse": (["simulate", "--n-pulses", "0.5"], None, 3, "tally lacks pulses"),
    # refused before the first chunk, so the case samples nothing
    "pulses-past-cap": (
        ["simulate", "--n-pulses", "1e300"], None, 3,
        "infeasible: n_pulses 1e+300 is past the sampler's cap of 1e+09 pulses (MC_MAX_PULSES)",
    ),
    # refused before any start is drawn, so the case builds none
    "starts-past-cap": (
        ["optimize", "--n-starts", "100000000", "--budget", "1"], None, 3,
        "infeasible: n_starts 100000000 is past the optimizer's cap of 100000 starts (MAX_STARTS)",
    ),
    "zero-starts": (
        ["optimize", "--n-starts", "0", "--budget", "1"], None, 2,
        "[optimize] n_starts must be >= 1",
    ),
    "zero-budget": (
        ["optimize", "--n-starts", "1", "--budget", "0"], None, 2,
        "[optimize] budget must be >= 1",
    ),
    "no-mu2-pulses": (
        KEYRATE_CONFIG, "[source]\np_mu2 = 0\np_mu1 = 0.65\n", 3, "tally lacks pulses",
    ),
    # no signal pulses leave the session starved, which returned feasible false at exit 0
    "no-signal-pulses-simulate": (
        ["simulate", "--n-pulses", "1e5", "--config", "{cfg}"], "[source]\nepsilon_send = 0\n", 3,
        "infeasible: tally lacks pulses for row (signal, muz, vac)",
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
    # every distance fails, 0 km in post-processing and 10 km in the link:
    # the first distance in input order decides
    "curve-first-failure-infeasible": (
        ["curve", "--distances", "0,10", "--config", "{cfg}"], NO_MU2_OPAQUE, 3,
        "infeasible: tally lacks pulses for row (decoy, mu2, vac)",
    ),
    "curve-first-failure-config": (
        ["curve", "--distances", "10,0", "--config", "{cfg}"], NO_MU2_OPAQUE, 2,
        "config error: [curve] distance 10.0 km: the loss of each arm must be finite",
    ),
    # mu1 * mu2 * (mu2 - mu1) underflowed to 0 and divided the decoy analysis
    "mu1-underflow-keyrate": (KEYRATE_CONFIG, TINY_MU1, 2, TINY_MU1_ERROR),
    "mu1-underflow-simulate": (["simulate", "--config", "{cfg}"], TINY_MU1, 2, TINY_MU1_ERROR),
    "mu1-underflow-curve": (
        ["curve", "--distances", "10", "--config", "{cfg}"], TINY_MU1, 2, TINY_MU1_ERROR,
    ),
    # a mu1 the source accepts whose yield bound overflowed: it printed -Infinity, not JSON
    "mu1-overflow-keyrate": ([*KEYRATE_CONFIG, "--format", "json"], DIM_MU1, 3, DIM_MU1_ERROR),
    "mu1-overflow-simulate": (
        ["simulate", "--n-pulses", "1e5", "--config", "{cfg}"], DIM_MU1, 3, DIM_MU1_ERROR,
    ),
    "mu1-overflow-curve": (
        ["curve", "--distances", "10", "--config", "{cfg}"], DIM_MU1, 3, DIM_MU1_ERROR,
    ),
    # sqrt(2) * eps_pa * eps_hat underflowed to 0 and divided key_rate's secrecy term
    **{
        f"{key.replace('_', '-')}-underflow-{name}": (
            argv, text + f"[security]\n{key} = 5e-324\n", 2, TINY_SMOOTHING_ERROR,
        )
        for key in ("eps_pa", "eps_hat")
        for name, argv, text in (
            ("keyrate", KEYRATE_CONFIG, ""),
            ("keyrate-direct", KEYRATE_CONFIG, DIRECT),
            ("simulate", ["simulate", "--config", "{cfg}"], ""),
        )
    },
    # 1 / (sqrt(2) * eps_pa * eps_hat) and 2 / eps_cor overflowed to a key of -inf
    "eps-pa-overflow-keyrate": (
        KEYRATE_CONFIG, "[security]\neps_pa = 1e-300\n", 2, TINY_SMOOTHING_ERROR,
    ),
    "eps-cor-overflow-keyrate-direct": (
        KEYRATE_CONFIG, DIRECT + "[security]\neps_cor = 1e-310\n", 2,
        "config error: [security] eps_cor is too small: 2 / eps_cor overflows\n",
    ),
    # a secret length of about -200 bits over a session of far less than a pulse
    # overflowed, and the rate printed -Infinity, not JSON, at exit 0
    "rate-overflow-keyrate": (
        ["keyrate", "--n-pulses", "1e-300", "--format", "json"], None, 3,
        RATE_NOT_FINITE_ERROR,
    ),
    "rate-overflow-keyrate-direct": (
        [*KEYRATE_CONFIG, "--format", "json"],
        "[keyrate]\nn_untagged = 0\nphase_error_rate = 0.5\nn_sifted = 1\nbit_error_rate = 0.1\n"
        "n_pulses = 5e-324\n", 3,
        RATE_NOT_FINITE_ERROR,
    ),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_config_error_battery(tmp_path, case):
    argv, text, code, fragment = ERROR_CASES[case]
    cfg = tmp_path / "case.ini"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    argv = [arg.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for arg in argv]
    rc, _, err = run_cli(*argv)
    assert rc == code
    assert err.startswith("config error:" if code == 2 else "infeasible:")
    assert fragment in err
    assert err.endswith("\n") and err.count("\n") == 1  # one line on stderr, nothing else
    # a refused run writes nothing, not even the output directory
    assert not out.exists()


def test_a_value_error_inside_a_command_is_not_reported_as_infeasible(monkeypatch):
    # only Infeasible exits 3: any other error of a command's chain is a fault
    # of the program and surfaces as itself
    def broken(*args):
        raise ValueError("n_untagged cannot exceed n_sifted")

    monkeypatch.setattr(cli, "mc_post_processing", broken)
    with pytest.raises(ValueError, match="n_untagged cannot exceed n_sifted"):
        run_cli("simulate", "--n-pulses", "1000")


def test_a_value_error_inside_the_sense_run_is_not_reported_as_a_config_error(
    monkeypatch, tmp_path
):
    # the plan refuses every bad input before the run starts, so an error
    # raised inside the run is a fault of the program and surfaces as itself
    def broken(*args):
        raise ValueError("internal shape bug")

    monkeypatch.setattr(snslab.sensing, "_correlate", broken)
    cfg, out = tmp_path / "sense.ini", tmp_path / "out"
    cfg.write_text(sensing_ini())
    with pytest.raises(ValueError, match="internal shape bug"):
        run_cli("sense", "--config", str(cfg), "--out", str(out))
    assert not out.exists()


# edge values as written in a config file (zeros, subnormals, values near
# the float range, negatives, malformed numbers, '%' and empty values), and
# an ordinary section, which runs, for each section the fuzz draws
FUZZ_EDGES = [
    "0", "-0.0", "5e-324", "1e-300", "1e300", "1.7e308", "-1", "-1e300", "1.5.2", "abc", "1e",
    "5%", "%", "",
]
FUZZ_SENSING = {
    "length_km": "100", "light_speed_km_per_s": "2e5", "duration_s": "0.1",
    "sample_rate_hz": "1000", "drift_rate_rad2_per_s": "0.01", "noise_std_rad": "0.02",
    "photons_per_frame": "1e4",
}
FUZZ_VIBRATION = {
    "position_km": "10", "frequency_hz": "5", "amplitude_rad": "0.1", "phase_rad": "0.3",
    "dc_offset_rad": "0.2", "start_s": "0.01", "duration_s": "0.05",
}
# the most samples per trace a drawn file may ask for and still run: larger
# counts up to MAX_TRACE_SAMPLES are skipped to keep the test short, while
# counts past the cap are refused before any array is built and so do run
FUZZ_MAX_SAMPLES = 5000


def _fuzz_section(ordinary):
    # the ordinary section with up to four keys left out (None) or set to an edge value
    changes = st.dictionaries(st.sampled_from(sorted(ordinary)),
                              st.sampled_from([None, *FUZZ_EDGES]), max_size=4)
    return changes.map(lambda c: {k: v for k, v in {**ordinary, **c}.items() if v is not None})


def _fuzz_samples(sensing):
    try:
        n = float(sensing["duration_s"]) * float(sensing["sample_rate_hz"])
    except (KeyError, ValueError):
        return 0
    return round(n) if math.isfinite(n) else 0


@settings(max_examples=1000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sensing=_fuzz_section(FUZZ_SENSING), vibration=_fuzz_section(FUZZ_VIBRATION))
def test_sense_ends_in_a_result_or_one_refusal_on_drawn_configs(tmp_path, sensing, vibration):
    # any exception other than ConfigError and Infeasible escapes entry and fails the test
    assert set(FUZZ_SENSING) == cli._SECTION_KEYS["sensing"]
    assert set(FUZZ_VIBRATION) == cli._VIBRATION_KEYS
    assume(not FUZZ_MAX_SAMPLES < _fuzz_samples(sensing) <= MAX_TRACE_SAMPLES)
    cfg, out = tmp_path / "fuzz.ini", tmp_path / "out"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in section.items())
        for name, section in (("sensing", sensing), ("vibration.a", vibration))
    ))
    code, stdout, err = run_cli("sense", "--config", str(cfg), "--out", str(out),
                                "--format", "json")
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("config error:" if code == 2 else "infeasible:")
        assert err.endswith("\n") and err.count("\n") == 1
        assert not out.exists()
    else:
        # NaN and Infinity are not JSON: the parse refuses them
        for text in (stdout, (out / "localization.json").read_text()):
            record = json.loads(text, parse_constant=_refuse_constant)
            record = record.get("localization", record)
            assert all(math.isfinite(value) for value in record.values())
    shutil.rmtree(out, ignore_errors=True)


def _refuse_constant(name):
    raise AssertionError(f"the output holds {name}, which is not JSON")


# the sections keyrate and curve read, as ordinary files: the desk presets, and
# the [keyrate] aggregates of direct mode in place of the channel model
_DESK_SECTIONS = {section: {key: repr(value) for key, value in dataclasses.asdict(preset()).items()}
                  for section, (_, preset) in cli._MODEL_SECTIONS.items()}
FUZZ_COMMANDS = {
    "keyrate-direct": (["keyrate"], {
        "keyrate": {"n_untagged": "1000", "phase_error_rate": "0.1", "n_sifted": "2000",
                    "bit_error_rate": "0.1", "n_pulses": "1e9"},
        "detector": _DESK_SECTIONS["detector"], "security": _DESK_SECTIONS["security"],
    }),
    "keyrate-expected": (["keyrate"], {**_DESK_SECTIONS, "run": {"n_pulses": "1e10"}}),
    "curve": (["curve"], {**_DESK_SECTIONS, "run": {"n_pulses": "1e10"},
                          "curve": {"distances_km": "10,100"}}),
    "optimize": (["optimize"], {**_DESK_SECTIONS, "run": {"n_pulses": "1e10", "seed": "1"},
                                "optimize": {"n_starts": "3", "budget": "12"}}),
    "simulate": (["simulate"], {**_DESK_SECTIONS,
                                "run": {"n_pulses": "2e4", "seed": "1", "n_jobs": "1"}}),
}
# the most starts or evaluations an optimize file, and the most pulses a
# simulate file, may ask for and still run: larger requests are skipped to
# keep the test short, while requests past a cap are refused before any
# work and so do run
FUZZ_MAX_EVALUATIONS = 1000
FUZZ_MAX_PULSES = 3e6


def _fuzz_asks_too_much(command, drawn):
    def asked(section, key, default, parse):
        try:
            return parse(drawn.get((section, key), default))
        except ValueError:
            return 0  # refused before any work
    if command == "optimize":
        n_starts = asked("optimize", "n_starts", DEFAULT_N_STARTS, int)
        budget = asked("optimize", "budget", DEFAULT_BUDGET, int)
        return FUZZ_MAX_EVALUATIONS < n_starts <= MAX_STARTS or FUZZ_MAX_EVALUATIONS < budget
    if command == "simulate":
        return FUZZ_MAX_PULSES < asked("run", "n_pulses", 1e6, float) <= MC_MAX_PULSES
    return False


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# the flag a command reads beside its key, set to an edge value or left out;
# --n-pulses takes only the edges argparse parses as numbers, since any other
# is a usage error, outside entry's contract
FUZZ_FLAGS = {
    "keyrate-expected": ("--n-pulses", [edge for edge in FUZZ_EDGES if _is_number(edge)]),
    "curve": ("--distances", FUZZ_EDGES),
}


@st.composite
def _fuzz_command(draw):
    # one command, and its sections with up to four keys across them left out or set to an edge
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv, sections = FUZZ_COMMANDS[name]
    ordinary = {(section, key): value
                for section, keys in sections.items() for key, value in keys.items()}
    drawn = draw(_fuzz_section(ordinary))
    flag, values = FUZZ_FLAGS.get(name, (None, []))
    value = draw(st.sampled_from([None, *values]))
    return [*argv, *([] if value is None else [f"{flag}={value}"])], drawn


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=_fuzz_command())
def test_keyrate_and_curve_end_in_a_result_or_one_refusal_on_drawn_configs(tmp_path, command):
    # any exception other than ConfigError and Infeasible escapes entry and fails the test
    for _, sections in FUZZ_COMMANDS.values():
        assert all(set(keys) <= cli._SECTION_KEYS[name] for name, keys in sections.items())
    argv, drawn = command
    assume(not _fuzz_asks_too_much(argv[0], drawn))
    cfg = tmp_path / "fuzz.ini"
    sections = {}
    for (section, key), value in drawn.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    cfg.write_text("".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items()))
    code, stdout, err = run_cli(*argv, "--config", str(cfg), "--format", "json")
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("config error:" if code == 2 else "infeasible:")
        assert err.endswith("\n") and err.count("\n") == 1
    else:
        json.loads(stdout, parse_constant=_refuse_constant)


# plob reads no config file, only its two flags, so every combination of them
# is run: each left out or set to one of the numeric edges. That is the one
# limit on the values: argparse refuses the other edges as usage errors, which
# lie outside entry's contract
FUZZ_PLOB_VALUES = [None, *(edge for edge in FUZZ_EDGES if _is_number(edge))]


def test_plob_ends_in_a_result_or_one_refusal_on_every_edge_flag():
    for loss_db, eta in itertools.product(FUZZ_PLOB_VALUES, FUZZ_PLOB_VALUES):
        argv = [f"--{flag}={value}" for flag, value in (("loss-db", loss_db),
                                                         ("transmittance", eta))
                if value is not None]
        code, stdout, err = run_cli("plob", *argv, "--format", "json")
        assert code in (0, 2), argv
        if code:
            assert err.startswith("config error:") and err.count("\n") == 1, argv
            assert err.endswith("\n"), argv
        else:
            record = json.loads(stdout, parse_constant=_refuse_constant)
            assert all(math.isfinite(value) for value in record.values()), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["plob", "--config", "/nonexistent.ini", "--loss-db", "3"],
        ["keyrate", "--seed", "1"],
        ["curve", "--seed", "1", "--distances", "10"],
        ["curve", "--n-pulses", "1e9", "--distances", "10"],
    ],
    ids=["plob-config", "keyrate-seed", "curve-seed", "curve-n-pulses"],
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
# a value of each [sensing] key beside LinkGeometry's, none of them its default
SENSE_SETTINGS = {
    "duration_s": 0.5, "sample_rate_hz": 4000.0, "drift_rate_rad2_per_s": 0.03,
    "noise_std_rad": 0.05, "photons_per_frame": 2e5,
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
        # [sensing] also carries the plan's trace and recovery settings
        assert cli._SECTION_KEYS[section] == names | set(SENSE_SETTINGS)
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
    if section == "sensing":
        # any subset of the plan's settings builds the plan, with the field
        # defaults for the rest
        required = {f.name for f in dataclasses.fields(SensePlan)
                    if f.name in SENSE_SETTINGS and f.default is dataclasses.MISSING}
        written = data.draw(st.sets(st.sampled_from(sorted(SENSE_SETTINGS)))) | required
        cp = configparser.ConfigParser()
        cp.read_string("[sensing]\n" + "".join(
            f"{name} = {SENSE_SETTINGS[name]!r}\n" for name in sorted(written)
        ))
        given_fields = {"geometry": value, "sources": (ROUND_TRIP["vibration.main"],), "seed": 7}
        plan = cli._build(cp, section, SensePlan, **given_fields)
        assert plan == SensePlan(**given_fields, **{name: SENSE_SETTINGS[name] for name in written})


def test_readme_sensing_table_gives_each_key_its_field_default():
    text = README.read_text()
    table = text[text.index("| `[sensing]` key |"):].split("\n\n", 1)[0]
    rows = [line.split(" | ") for line in table.splitlines()[2:]]
    classes = {"LinkGeometry": LinkGeometry, "SensePlan": SensePlan}
    assert {row[0].strip("| `") for row in rows} == cli._SECTION_KEYS["sensing"]
    for key, owner, default in rows:
        field = {f.name: f for f in dataclasses.fields(classes[owner.strip("`")])}[key.strip("| `")]
        default = default.split()[0].rstrip(":;")
        if default == "required":
            assert field.default is dataclasses.MISSING
        elif default == "none":
            assert field.default is None
        else:
            assert float(default) == field.default


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


def test_curve_takes_max_distances_and_refuses_one_more(monkeypatch, tmp_path):
    # from the flag and from the key alike; the cap is lowered so that the test stays short
    monkeypatch.setattr(cli, "MAX_DISTANCES", 2)
    cfg = tmp_path / "curve.ini"
    for distances, code in (("10,20", 0), ("10,20,30", 3)):
        cfg.write_text(f"[curve]\ndistances_km = {distances}\n")
        for argv in (["--distances", distances], ["--config", str(cfg)]):
            rc, out, err = run_cli("curve", *argv)
            assert rc == code, argv
            if code:
                assert (out, err) == ("", "infeasible: 3 distances are past curve's cap of 2 "
                                          "distances (MAX_DISTANCES)\n")


def test_curve_prints_minus_zero_as_zero():
    code, out, _ = run_cli("curve", "--distances", "-0.0")
    assert code == 0
    assert out.splitlines()[1].startswith("0.0,0.0,")
    assert out == run_cli("curve", "--distances", "0")[1]


def test_curve_builds_one_click_table_per_block_of_distances(monkeypatch):
    builds = []
    click_probabilities = snslab.simulate.click_probabilities

    def counted(*args, **kwargs):
        builds.append(np.shape(args[2]))
        return click_probabilities(*args, **kwargs)

    monkeypatch.setattr(snslab.simulate, "click_probabilities", counted)
    n = 2 * _CLICK_BLOCK + 1
    distances = ",".join(str(i % 300) for i in range(n))
    code, out, _ = run_cli("curve", "--distances", distances)
    assert code == 0
    assert len(out.splitlines()) == n + 1
    assert builds == [(_CLICK_BLOCK, 1), (_CLICK_BLOCK, 1), (1, 1)]


CURVE_LINK = "[link]\natten_db_per_km = 0.16\nstation_loss_db = 1.3\nnoise_per_pulse = 6e-9\n"


@settings(max_examples=20, deadline=None)
@given(
    src=sources(top=MAX_INTENSITY),
    half_width=st.sampled_from([0.05, 0.3, 1.2]),
    drawn=st.lists(st.floats(0.0, 700.0), max_size=6),
    n=st.sampled_from([1, 2, 255, 256, 257]),
    n_pulses=st.sampled_from([1e6, 1e10, 1e13]),
)
def test_curve_equals_the_per_distance_chain(tmp_path_factory, src, half_width, drawn, n,
                                             n_pulses):
    # the list repeats 0 km and the drawn distances up to n entries, so it
    # holds duplicates and crosses the block edges at 255, 256 and 257
    distances = ([0.0, *drawn] * n)[:n]
    src = dataclasses.replace(src, slice_half_width_rad=half_width)
    cfg = tmp_path_factory.mktemp("curve") / "curve.ini"
    cfg.write_text(
        CURVE_LINK + "[source]\n"
        + "".join(f"{f.name} = {getattr(src, f.name)!r}\n" for f in dataclasses.fields(src))
        + f"[run]\nn_pulses = {n_pulses!r}\n"
    )
    seen = []

    def recorded(tally, *args):
        seen.append(tally)
        try:
            analysis = expected_post_processing(tally, *args)
        except Infeasible as exc:
            seen.append(exc)
            raise
        seen.append(analysis.report.rate_per_pulse)
        return analysis

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "expected_post_processing", recorded)
        code, out, err = run_cli("curve", "--config", str(cfg), "--format", "json",
                                 "--distances", ",".join(map(repr, distances)))

    cp = cli._read_config(str(cfg))
    link, det = cli._build(cp, "link"), cli._build(cp, "detector")
    sec = cli._build(cp, "security")
    want = []
    for d in distances:
        scaled = dataclasses.replace(link, length_a_km=d / 2.0, length_b_km=d / 2.0)
        tally = expected_tallies(scaled, det, src, n_pulses)
        want.append(tally)
        try:
            analysis = expected_post_processing(tally, src, sec)
            want.append(analysis.report.rate_per_pulse)
        except Infeasible as exc:
            want.append(exc)
            break
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        if isinstance(ref, SessionTally):
            assert got.n_pulses == ref.n_pulses
            assert got.counts.tobytes() == ref.counts.tobytes()
        elif isinstance(ref, Infeasible):
            assert code == 3
            assert str(got) == str(ref)
            assert err == f"infeasible: {ref}\n"
        else:
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    if code == 0:
        rates = [row["simulated_rate"] for row in json.loads(out)["rows"]]
        assert rates == [max(rate, 0.0) for rate in want[1::2]]


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
        "--budget", "25", "--n-starts", "3", "--seed", "2", "--n-pulses", "1e9",
        "--format", "json",
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
        "[run]\nn_pulses = 1e5\n[optimize]\nn_starts = 2\nbudget = 5\n"
    )
    code, _, err = run_cli("optimize", "--config", str(cfg), "--seed", "1")
    assert code == 3
    assert "infeasible" in err


def test_the_quoted_desk_rates_are_what_the_commands_print():
    # configs/desk.ini and README quote the sampled and the expected rate
    # per pulse of desk.ini's session, so a change to the sampler's stream
    # or to the analytic chain must carry both quotes along
    number = r"(-?\d\.\d\de-?\d+)"
    quotes = [
        re.search(rf"\({number} sampled,\s+{number} expected\)",
                  (CONFIGS / "desk.ini").read_text()),
        re.search(rf"\({number} and\s+{number} per pulse\)", README.read_text()),
    ]
    desk = str(CONFIGS / "desk.ini")
    rates = []
    for argv in (("simulate", "--config", desk, "--seed", "7"), ("keyrate", "--config", desk)):
        code, out, _ = run_cli(*argv)
        assert code == 0
        rates.append(float(f"{float(csv_payload(out)['rate.rate_per_pulse']):.2e}"))
    for quote in quotes:
        assert quote is not None
        assert [float(v) for v in quote.groups()] == rates


def test_optimize_reads_the_session_length_of_run(tmp_path):
    desk = (CONFIGS / "desk.ini").read_text()
    cfg = tmp_path / "desk_1e9.ini"
    cfg.write_text(desk.replace("n_pulses = 2e6", "n_pulses = 1e9"))
    args = ("optimize", "--budget", "25", "--n-starts", "3", "--seed", "2")
    code, out, _ = run_cli(*args, "--config", str(cfg))
    assert code == 0
    assert run_cli(*args, "--config", str(CONFIGS / "desk.ini"), "--n-pulses", "1e9")[1] == out


@pytest.mark.parametrize("n_pulses, clamped", [(None, True), ("1e9", False)])
def test_optimize_marks_a_negative_optimum(n_pulses, clamped):
    # desk.ini's 2e6 pulses give no key even at the optimum
    args = ["optimize", "--config", str(CONFIGS / "desk.ini"), "--budget", "150",
            "--n-starts", "4", "--format", "json"]
    if n_pulses is not None:
        args += ["--n-pulses", n_pulses]
    code, out, _ = run_cli(*args)
    assert code == 0
    p = json.loads(out)
    assert p["clamped"] is clamped
    assert (p["rate_per_pulse"] < 0.0) is clamped
    assert p["rate_per_pulse_clamped"] == max(p["rate_per_pulse"], 0.0)


def test_every_command_keys_the_658_km_link():
    # the paper's point: 106 dB over 658.7 km at 1.007e13 pulses, read from [run]
    cfg = str(CONFIGS / "longhaul_link.ini")
    code, out, _ = run_cli("keyrate", "--config", cfg, "--format", "json")
    assert code == 0
    rate = json.loads(out)["rate"]["rate_per_pulse"]
    assert rate > 0.0
    code, out, _ = run_cli("curve", "--config", cfg, "--distances", "658.7", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["simulated_rate"] > row["plob_relative"]
    code, out, _ = run_cli("optimize", "--config", cfg, "--format", "json")
    assert code == 0
    assert json.loads(out)["rate_per_pulse"] >= rate


# ------------------------------------------------------------------- sense

def test_sense_end_to_end(tmp_path):
    out_dir = tmp_path / "sense_out"
    args = ("sense", "--config", str(CONFIGS / "sense_demo.ini"),
            "--out", str(out_dir), "--format", "json")
    code, out, _ = run_cli(*args)
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "localization.json", "trace_alice.txt", "trace_bob.txt",
    ]
    record = json.loads((out_dir / "localization.json").read_text())
    assert record["position_from_alice_km"] == pytest.approx(60.0, abs=1.0)
    assert record["correlation_peak"] > 0.9
    assert record["out_of_range"] is False
    summary = json.loads(out)
    assert summary["localization"] == record

    for who in ("alice", "bob"):
        lines = (out_dir / f"trace_{who}.txt").read_text().splitlines()
        assert lines[0] == f"# sample_rate_hz=200000.0 origin={who}"
        assert len(lines[1].split()) == 1

    first = {name: (out_dir / name).read_bytes()
             for name in ("trace_alice.txt", "localization.json")}
    code2, out2, _ = run_cli(*args)
    assert code2 == 0 and out2 == out
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob


def test_sense_recovers_through_the_reference_channel_by_default(tmp_path):
    # without photons_per_frame the library default is used, the sense_demo value
    outputs = {}
    for name, extra in [("default", {}), ("explicit", {"photons_per_frame": 10000})]:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(sensing_ini(**extra))
        out = tmp_path / name
        assert run_cli("sense", "--config", str(cfg), "--out", str(out))[0] == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["default"] == outputs["explicit"]
    # each written stream is a noisy recovery of the library's raw trace, not a copy of it
    raw = simulate_phase_traces(sense_plan(
        LinkGeometry(length_km=100.0),
        [VibrationSource(position_km=10.0, frequency_hz=5.0, amplitude_rad=0.1)], 0.1, 1000.0, 1,
    ))
    for trace in raw:
        recovered = read_trace(tmp_path / "default" / f"trace_{trace.origin}.txt").samples
        assert not np.array_equal(recovered, trace.samples)
        assert np.max(np.abs(recovered - trace.samples)) < 0.2


@pytest.mark.parametrize("blocker", ["trace_bob.txt", "localization.json"])
def test_failed_sense_write_leaves_no_file(tmp_path, blocker):
    # a directory where an output file should go makes that one move fail
    # after the other files were written
    cfg = tmp_path / "case.ini"
    cfg.write_text(sensing_ini())
    out = tmp_path / "out"
    (out / blocker).mkdir(parents=True)
    code, stdout, err = run_cli("sense", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert err.startswith("config error: cannot write --out") and "Traceback" not in err
    assert stdout == ""
    assert [p.name for p in out.iterdir()] == [blocker]
    assert not any((out / blocker).iterdir())


def test_sense_write_failure_on_the_second_trace_leaves_no_file(tmp_path, monkeypatch):
    # each trace has its own write_trace call: fail the second as it opens its file
    opened = []

    def failing_second_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        if len(opened) == 2:
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(snslab.sensing, "open", failing_second_open, raising=False)
    cfg = tmp_path / "case.ini"
    cfg.write_text(sensing_ini())
    out = tmp_path / "out"
    code, _, err = run_cli("sense", "--config", str(cfg), "--out", str(out))
    assert code == 2 and "Permission denied" in err
    assert len(opened) == 2 and opened[1].startswith(".trace_bob.txt.")
    assert list(out.iterdir()) == []


def test_sense_trace_files_equal_the_per_line_writer_on_the_library_traces(tmp_path):
    # 8500 samples span three blocks, so a lost or repeated block shows
    cfg = tmp_path / "case.ini"
    cfg.write_text(sensing_ini(duration_s=8.5))
    out = tmp_path / "out"
    assert run_cli("sense", "--config", str(cfg), "--out", str(out), "--seed", "9")[0] == 0
    plan = sense_plan(
        LinkGeometry(length_km=100.0),
        [VibrationSource(position_km=10.0, frequency_hz=5.0, amplitude_rad=0.1)],
        8.5, 1000.0, 9,
    )
    alice, bob = simulate_phase_traces(plan)
    assert alice.n_samples == 8500 > 2 * _BLOCK
    # each end recovered on its own substream: alice on key 2, bob on key 1
    for raw, key in [(alice, 2), (bob, 1)]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(key,)))
        recovered = recover_phase_from_reference(
            *synthesize_reference_counts(raw.samples, plan.photons_per_frame, rng), 1000.0,
            raw.origin,
        )
        write_trace_reference(tmp_path / "ref.txt", recovered)
        name = f"trace_{raw.origin}.txt"
        assert (out / name).read_bytes() == (tmp_path / "ref.txt").read_bytes(), name


@pytest.mark.parametrize("text", [
    (CONFIGS / "sense_demo.ini").read_text(),
    # a noiseless link with its source in the middle: both ends see the same raw phase,
    # so one substream reused for both ends would give them the same recovery noise
    sensing_ini(length_km=20, duration_s=10, drift_rate_rad2_per_s=0.01, noise_std_rad=0)
    + "[run]\nseed = 5\n",
], ids=["sense_demo", "midpoint"])
def test_sense_recovers_the_two_ends_with_independent_noise(tmp_path, text):
    cfg, out = tmp_path / "case.ini", tmp_path / "out"
    cfg.write_text(text)
    assert run_cli("sense", "--config", str(cfg), "--out", str(out))[0] == 0
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    sensing = cp["sensing"]
    (vibration,) = (cp[s] for s in cp.sections() if s.startswith("vibration."))
    raw = simulate_phase_traces(sense_plan(
        LinkGeometry(length_km=sensing.getfloat("length_km")),
        [VibrationSource(**{k: vibration.getfloat(k) for k in vibration})],
        sensing.getfloat("duration_s"), sensing.getfloat("sample_rate_hz"),
        cp.getint("run", "seed"),
        drift_rate_rad2_per_s=sensing.getfloat("drift_rate_rad2_per_s"),
        noise_std_rad=sensing.getfloat("noise_std_rad"),
    ))
    noise = [read_trace(out / f"trace_{t.origin}.txt").samples - t.samples for t in raw]
    assert abs(np.corrcoef(*noise)[0, 1]) < 5.0 / math.sqrt(noise[0].size)


def test_sense_missing_section_is_config_error(tmp_path):
    cfg = tmp_path / "nosensing.ini"
    cfg.write_text("[vibration.a]\nposition_km = 1\nfrequency_hz = 5\namplitude_rad = 0.1\n")
    assert run_cli("sense", "--config", str(cfg))[0] == 2


# -------------------------------------------------------------- subprocess

def test_module_invocation_smoke():
    # the child imports the package this process imported, installed or not
    src = str(Path(snslab.sensing.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "snslab.cli", "plob", "--loss-db", "106",
         "--format", "json"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
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
