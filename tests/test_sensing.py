import math
import os
import re
import tracemalloc
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from snslab.model import Infeasible
from snslab.sensing import (
    _BLOCK,
    _PHASE_BLOCK,
    MAX_TRACE_SAMPLES,
    LinkGeometry,
    PhaseTrace,
    SensePlan,
    VibrationSource,
    _correlate,
    _unwrap,
    locate_traces,
    read_trace,
    recover_phase_from_reference,
    sense,
    simulate_phase_traces,
    synthesize_reference_counts,
    write_trace,
)

from conftest import sense_plan, trace_line_reference, write_trace_reference

V = 2.0e5  # km/s, the default propagation speed


# ---------------------------------------------------------------- geometry

def test_geometry_max_delay():
    geo = LinkGeometry(length_km=500.0)
    assert geo.max_delay_s == pytest.approx(2.5e-3)
    assert LinkGeometry(length_km=500.0, light_speed_km_per_s=1e5).max_delay_s \
        == pytest.approx(5e-3)


def test_geometry_validation():
    with pytest.raises(ValueError):
        LinkGeometry(length_km=0.0)
    with pytest.raises(ValueError):
        LinkGeometry(length_km=10.0, light_speed_km_per_s=-1.0)


@pytest.mark.parametrize("field", ["length_km", "light_speed_km_per_s"])
def test_geometry_refuses_nan(field):
    with pytest.raises(ValueError, match=f"{field} must be > 0"):
        LinkGeometry(**{"length_km": 10.0, field: math.nan})


# ------------------------------------------------------------------ source

def test_vibration_waveform_window_and_values():
    s = VibrationSource(
        position_km=1.0, frequency_hz=2.0, amplitude_rad=0.5,
        dc_offset_rad=1.0, start_s=1.0, duration_s=2.0,
    )
    t = np.array([0.5, 1.0, 1.125, 2.999, 3.0, 5.0])
    w = s.waveform(t)
    assert w[0] == 0.0  # not yet active
    assert w[1] == pytest.approx(1.0)  # sin(0) at onset
    assert w[2] == pytest.approx(1.0 + 0.5 * math.sin(2 * math.pi * 2.0 * 0.125))
    assert w[3] != 0.0
    assert w[4] == 0.0 and w[5] == 0.0  # switched off again
    forever = VibrationSource(position_km=0.0, frequency_hz=2.0, amplitude_rad=0.5)
    assert forever.waveform(np.array([1e6]))[0] != 0.0


def test_vibration_source_validation():
    with pytest.raises(ValueError):
        VibrationSource(position_km=-1.0, frequency_hz=1.0, amplitude_rad=0.1)
    with pytest.raises(ValueError):
        VibrationSource(position_km=0.0, frequency_hz=0.0, amplitude_rad=0.1)
    with pytest.raises(ValueError):
        VibrationSource(position_km=0.0, frequency_hz=1.0, amplitude_rad=0.1,
                        duration_s=0.0)
    with pytest.raises(ValueError):
        VibrationSource(position_km=0.0, frequency_hz=1.0, amplitude_rad=0.1,
                        start_s=-0.5)


@pytest.mark.parametrize("field",
                         ["position_km", "frequency_hz", "phase_rad", "start_s", "duration_s"])
def test_vibration_source_refuses_nan(field):
    with pytest.raises(ValueError, match=f"{field} must be"):
        VibrationSource(**{"position_km": 0.0, "frequency_hz": 1.0, "amplitude_rad": 0.1,
                           field: math.nan})


# ------------------------------------------------------------- trace model

def test_phase_trace_properties_and_validation():
    tr = PhaseTrace(samples=np.zeros(400), sample_rate_hz=200.0, origin="x")
    assert tr.n_samples == 400
    assert tr.duration_s == pytest.approx(2.0)
    with pytest.raises(ValueError):
        PhaseTrace(samples=np.zeros((2, 2)), sample_rate_hz=1.0, origin="x")
    with pytest.raises(ValueError):
        PhaseTrace(samples=np.zeros(4), sample_rate_hz=0.0, origin="x")


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_phase_trace_refuses_non_finite_rates(rate):
    with pytest.raises(ValueError, match="sample_rate_hz must be finite"):
        PhaseTrace(samples=np.zeros(4), sample_rate_hz=rate, origin="x")


# -------------------------------------------------------------- simulation

def _burst(position_km):
    return VibrationSource(
        position_km=position_km, frequency_hz=500.0, amplitude_rad=1.0,
        dc_offset_rad=0.5, start_s=0.05, duration_s=0.03,
    )


def test_noiseless_traces_are_pure_delayed_waveforms():
    geo = LinkGeometry(length_km=200.0)
    s = _burst(50.0)
    alice, bob = simulate_phase_traces(sense_plan(
        geo, [s], 0.2, 200e3, seed=0, drift_rate_rad2_per_s=0.0, noise_std_rad=0.0
    ))
    t = np.arange(alice.n_samples) / 200e3
    assert np.array_equal(alice.samples, s.waveform(t - 50.0 / V))
    assert np.array_equal(bob.samples, s.waveform(t - 150.0 / V))
    assert alice.origin == "alice" and bob.origin == "bob"


def test_drift_is_common_mode():
    geo = LinkGeometry(length_km=100.0)
    alice, bob = simulate_phase_traces(sense_plan(
        geo, [], 0.5, 1e3, seed=7, drift_rate_rad2_per_s=0.5, noise_std_rad=0.0
    ))
    assert np.array_equal(alice.samples, bob.samples)
    assert np.std(alice.samples) > 0.0


def test_simulation_is_seed_deterministic():
    geo = LinkGeometry(length_km=100.0)
    a1, b1 = simulate_phase_traces(sense_plan(geo, [_burst(30.0)], 0.1, 50e3, seed=4))
    a2, b2 = simulate_phase_traces(sense_plan(geo, [_burst(30.0)], 0.1, 50e3, seed=4))
    a3, _ = simulate_phase_traces(sense_plan(geo, [_burst(30.0)], 0.1, 50e3, seed=5))
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(b1.samples, b2.samples)
    assert not np.array_equal(a1.samples, a3.samples)


def test_simulation_validation():
    geo = LinkGeometry(length_km=100.0)
    with pytest.raises(ValueError):
        sense_plan(geo, [_burst(150.0)], 0.1, 50e3, seed=0)
    with pytest.raises(ValueError):  # 500 Hz source needs >= 1 kHz sampling
        sense_plan(geo, [_burst(50.0)], 0.1, 999.0, seed=0)
    with pytest.raises(ValueError):
        sense_plan(geo, [_burst(50.0)], 0.0, 50e3, seed=0)
    with pytest.raises(ValueError):
        sense_plan(geo, [_burst(50.0)], 0.1, 50e3, seed=0, noise_std_rad=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            sense_plan(geo, [_burst(50.0)], bad, 50e3, seed=0)
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            sense_plan(geo, [_burst(50.0)], 0.1, bad, seed=0)
    # sampling at exactly twice the source frequency is allowed
    a, _ = simulate_phase_traces(sense_plan(geo, [_burst(50.0)], 0.1, 1000.0, seed=0))
    assert a.n_samples == 100


@pytest.mark.parametrize("key", ["drift_rate_rad2_per_s", "noise_std_rad"])
def test_simulation_refuses_a_nan_noise_magnitude(key):
    with pytest.raises(ValueError, match="noise magnitudes must be >= 0"):
        sense_plan(LinkGeometry(length_km=100.0), [_burst(50.0)], 0.1, 50e3, seed=0,
                   **{key: math.nan})


@pytest.mark.parametrize("seed", [-1, 1.5, math.nan, "7"])
def test_plan_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # numpy refused each of these only once the run had begun
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        sense_plan(LinkGeometry(length_km=100.0), [_burst(50.0)], 0.1, 50e3, seed=seed)


def test_plan_takes_a_numpy_integer_seed_as_its_value():
    geo = LinkGeometry(length_km=100.0)
    a1, _ = simulate_phase_traces(sense_plan(geo, [_burst(30.0)], 0.1, 50e3, seed=np.int64(4)))
    a2, _ = simulate_phase_traces(sense_plan(geo, [_burst(30.0)], 0.1, 50e3, seed=4))
    assert np.array_equal(a1.samples, a2.samples)


def test_simulation_refuses_a_sample_count_that_overflows():
    # each factor is finite, their product is not
    geo = LinkGeometry(length_km=100.0)
    with pytest.raises(ValueError, match="samples is not finite"):
        sense_plan(geo, [_burst(50.0)], 1e200, 1e200, seed=0)


def test_simulation_refuses_a_sample_count_past_the_cap_before_allocating():
    geo = LinkGeometry(length_km=100.0)
    # one sample past the cap; the refusal comes before any array is built
    tracemalloc.start()
    try:
        with pytest.raises(Infeasible, match=r"\(MAX_TRACE_SAMPLES\)"):
            sense_plan(geo, [_burst(50.0)], (MAX_TRACE_SAMPLES + 1) / 1e3, 1e3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------- reference channel

def test_reference_counts_exact_means():
    phases = np.array([0.0, np.pi / 3, np.pi / 2, np.pi, -2.0])
    left, right = synthesize_reference_counts(phases, 1000.0)
    assert left.shape == right.shape == (2, phases.size)
    assert np.allclose(left[0], 500.0 * 0.5 * (1.0 + np.cos(phases)))
    assert np.allclose(right[0], 500.0 * 0.5 * (1.0 - np.cos(phases)))
    assert np.allclose(left[1], 500.0 * 0.5 * (1.0 + np.sin(phases)))
    assert np.allclose(right[1], 500.0 * 0.5 * (1.0 - np.sin(phases)))
    # each quadrature frame gets half of the frame's photons
    assert np.allclose(left + right, 500.0)


def test_reference_counts_poisson_draws():
    phases = np.full(2000, np.pi / 3)
    l1, r1 = synthesize_reference_counts(phases, 500.0, np.random.default_rng(3))
    l2, r2 = synthesize_reference_counts(phases, 500.0, np.random.default_rng(3))
    assert l1.shape == r1.shape == (2, phases.size)
    assert np.array_equal(l1, l2) and np.array_equal(r1, r2)
    assert np.array_equal(l1, np.round(l1)) and l1.min() >= 0.0
    # pi/3 tells the rows apart: row 0 reads cos, row 1 reads sin
    for row, quadrature in enumerate([math.cos(math.pi / 3), math.sin(math.pi / 3)]):
        assert l1[row].mean() == pytest.approx(250.0 * 0.5 * (1 + quadrature), rel=0.05)
        assert r1[row].mean() == pytest.approx(250.0 * 0.5 * (1 - quadrature), rel=0.05)
    with pytest.raises(ValueError):
        synthesize_reference_counts(phases, 0.0)


# ----------------------------------------------------------- phase recovery

def test_recovery_inverts_exact_means_in_principal_range():
    fs = 1000.0
    phases = np.linspace(-np.pi + 0.05, np.pi - 0.05, 500)
    left, right = synthesize_reference_counts(phases, 1e4)
    rec = recover_phase_from_reference(left, right, fs)
    assert isinstance(rec, PhaseTrace)
    assert rec.origin == "recovered"
    assert rec.sample_rate_hz == fs
    assert np.max(np.abs(rec.samples - phases)) < 1e-9


def test_recovery_tracks_through_folds():
    # the drive sweeps past both folds of cos (0 and pi) every cycle, and at
    # pi arctan2 wraps
    fs = 3000.0
    t = np.arange(int(fs)) / fs
    phases = np.pi / 2 + 2.2 * np.sin(2 * np.pi * 3.0 * t)
    left, right = synthesize_reference_counts(phases, 1e4)
    rec = recover_phase_from_reference(left, right, fs)
    assert np.max(np.abs(rec.samples - phases)) < 1e-6


def _sense_demo_traces(drift_rate_rad2_per_s):
    # the sense_demo.ini link, source, seed and photon budget
    geo = LinkGeometry(length_km=200.0)
    source = VibrationSource(position_km=60.0, frequency_hz=800.0, amplitude_rad=0.8,
                             dc_offset_rad=1.2, start_s=0.05, duration_s=0.1)
    alice, bob = simulate_phase_traces(sense_plan(geo, [source], 0.25, 200e3, seed=5,
                                                  drift_rate_rad2_per_s=drift_rate_rad2_per_s))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1,)))
    counts = synthesize_reference_counts(bob.samples, 1e4, rng)
    return geo, alice, bob, recover_phase_from_reference(*counts, bob.sample_rate_hz)


@pytest.mark.parametrize("drift", [0.01, 1e3, 1e4], ids=lambda d: f"D{d:g}")
def test_recovery_follows_the_truth_on_sense_demo(drift):
    geo, alice, bob, rec = _sense_demo_traces(drift)
    assert rec.n_samples == bob.n_samples
    assert np.max(np.abs(rec.samples - bob.samples)) < 0.2
    if drift == 0.01:
        result = locate_traces(alice, rec, geo)
        assert result.position_from_alice_km == pytest.approx(60.0, abs=1.0)
    else:
        # the drift winds the phase through many turns, and unwrap keeps up
        assert np.ptp(bob.samples) > 4.0 * np.pi


def _winding_counts():
    # a ramp through three full turns plus a wobble, with the exact port means
    t = np.arange(6000) / 3000.0
    phases = 0.4 + 3.0 * np.pi * t + 0.8 * np.sin(2 * np.pi * 5.0 * t)
    return phases, synthesize_reference_counts(phases, 1e6)


def test_recovery_unwinds_full_turns_exactly():
    phases, (left, right) = _winding_counts()
    assert np.ptp(phases) > 5.0 * np.pi
    rec = recover_phase_from_reference(left, right, 3000.0)
    assert rec.samples.dtype == np.float64
    assert np.max(np.abs(rec.samples - phases)) < 1e-9


def _phases_to_unwrap(kind, n, rng):
    if kind.startswith("walk"):  # steps uniform in +-max_step, raw or wrapped as arctan2 reads them
        walk = np.cumsum(rng.uniform(-1.0, 1.0, n) * float(kind.split("-")[1]))
        return walk if kind.endswith("raw") else np.arctan2(np.sin(walk), np.cos(walk))
    step = {"pi": np.pi, "inside-pi": np.nextafter(np.pi, 0.0), "past-pi": np.nextafter(np.pi, 4.0)}
    phases = np.zeros(n)  # every step is exactly +-step: 0 to +-step and back
    phases[1::2] = rng.choice([-step[kind], step[kind]], n // 2)
    return phases


@pytest.mark.parametrize("n", [1, 2, _PHASE_BLOCK - 1, _PHASE_BLOCK, _PHASE_BLOCK + 1,
                               3 * _PHASE_BLOCK + 123])
@pytest.mark.parametrize("kind", ["pi", "inside-pi", "past-pi", "walk-0.3", "walk-3-raw",
                                  "walk-3", "walk-10-raw", "walk-10"])
def test_block_unwrap_equals_np_unwrap_bit_for_bit(kind, n):
    phases = _phases_to_unwrap(kind, n, np.random.default_rng(n))
    if kind == "pi" and n > 2:  # both signs of the tie are met
        assert {np.pi, -np.pi} <= set(np.diff(phases))
    unwrapped = phases.copy()
    _unwrap(unwrapped)
    assert unwrapped.tobytes() == np.unwrap(phases).tobytes()


def test_recovery_stays_on_track_with_photon_noise():
    fs = 3000.0
    t = np.arange(int(fs)) / fs
    phases = np.pi / 2 + 1.0 * np.sin(2 * np.pi * 7.0 * t)
    left, right = synthesize_reference_counts(phases, 1e4, np.random.default_rng(9))
    rec = recover_phase_from_reference(left, right, fs)
    err = rec.samples - phases
    assert np.sqrt(np.mean(err**2)) < 0.05
    assert np.max(np.abs(err)) < 0.5  # no turn was lost


def test_recovery_balanced_counts_read_quadrature():
    # the in-phase row balanced, the pi/2 row all on the left port
    left = np.stack([np.full(50, 7.0), np.full(50, 14.0)])
    right = np.stack([np.full(50, 7.0), np.zeros(50)])
    rec = recover_phase_from_reference(left, right, 100.0)
    assert np.allclose(rec.samples, np.pi / 2)


def test_recovery_validation():
    ones = np.ones((2, 3))
    with pytest.raises(ValueError, match="shape"):
        recover_phase_from_reference(np.ones(3), np.ones(3), 100.0)
    with pytest.raises(ValueError, match="shape"):
        recover_phase_from_reference(np.ones((3, 3)), np.ones((3, 3)), 100.0)
    with pytest.raises(ValueError, match="shape"):
        recover_phase_from_reference(ones, np.ones((2, 4)), 100.0)
    with pytest.raises(ValueError, match="at least one frame"):
        recover_phase_from_reference(np.zeros((2, 0)), np.zeros((2, 0)), 100.0)
    for rate in (0.0, -5.0):
        with pytest.raises(ValueError, match="frame_rate_hz"):
            recover_phase_from_reference(ones, ones, rate)
    for row in (0, 1):  # a silent frame in the middle of either quadrature row
        silent = np.full((2, 3), 3.0)
        silent[row, 1] = 0.0
        with pytest.raises(Infeasible, match="no photons"):
            recover_phase_from_reference(silent, silent.copy(), 100.0)
    # one silent port alone still reads a phase
    assert recover_phase_from_reference(ones, np.zeros((2, 3)), 100.0).n_samples == 3


def test_reference_channel_caps_photons_where_float_counts_stay_exact():
    left, right = synthesize_reference_counts(np.array([0.0, 2.0]), 2.0**53,
                                              np.random.default_rng(1))
    assert (left + right).max() < 2**53
    with pytest.raises(ValueError, match=r"photons_per_frame 9\.0072e\+15 is past 2\*\*53"):
        synthesize_reference_counts(np.zeros(3), math.nextafter(2.0**53, math.inf))


def test_reference_channel_refuses_nan_rates():
    with pytest.raises(ValueError, match="photons_per_frame must be > 0"):
        synthesize_reference_counts(np.zeros(3), math.nan)
    with pytest.raises(ValueError, match="frame_rate_hz must be > 0"):
        recover_phase_from_reference(np.ones((2, 3)), np.ones((2, 3)), math.nan)


# ---------------------------------------------------------------- trace io

def test_trace_files_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(12)
    tr = PhaseTrace(samples=rng.standard_normal(257), sample_rate_hz=12345.5,
                    origin="alice")
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_trace(p1, tr)
    back = read_trace(p1)
    assert back.origin == "alice"
    assert back.sample_rate_hz == tr.sample_rate_hz
    assert np.array_equal(back.samples, tr.samples)
    write_trace(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def _hex_lines(*values):
    return "".join(map(trace_line_reference, values))


HEADER = "# sample_rate_hz=10.0 origin=alice\n"


def test_trace_reader_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(_hex_lines(1.0))
    with pytest.raises(ValueError, match="missing trace header"):
        read_trace(bad)
    bad.write_text("# origin=alice\n" + _hex_lines(1.0))
    with pytest.raises(ValueError, match="header lacks sample_rate_hz"):
        read_trace(bad)
    # header faults name the file too
    for header in ("rate origin=a", "sample_rate_hz=abc origin=a", "sample_rate_hz=nan origin=a"):
        bad.write_text(f"# {header}\n" + _hex_lines(1.0))
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: bad trace header"):
            read_trace(bad)
    bad.write_bytes(b"# sample_rate_hz=10.0 origin=\xe9\n" + _hex_lines(1.0).encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: bad trace header"):
        read_trace(bad)


@pytest.mark.parametrize("body", [
    # the decimal repr lines of the previous format, and the two-column format before it
    "0.5\n-2.5\n1e-05\n",
    "0.0 1.5\n0.5 -2.5\n",
], ids=["decimal", "two-column"])
def test_trace_reader_names_the_old_decimal_format(tmp_path, body):
    path = tmp_path / "old.txt"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2 .*old decimal trace"):
        read_trace(path)


def _bad_body(line, row, n=6):
    lines = [trace_line_reference(0.25 * i - 1.0) for i in range(n)]
    lines[row] = line
    return HEADER + "".join(lines)


# each a sample line write_trace never writes, beside the 25-byte lines it does
NOT_TRACE_LINES = {
    "short": "+0x1.8p+0\n",
    "uppercase-digit": "+0x1.8000000000A00p+0000\n",
    "digit-g": "+0x1.8000000000g00p+0000\n",
    "uppercase-x": "+0X1.8000000000000p+0000\n",
    "no-sign": " 0x1.8000000000000p+0000\n",
    "lead-2": "+0x2.8000000000000p+0000\n",
    "exponent-too-low": "+0x1.8000000000000p-1023\n",
    "exponent-too-high": "+0x1.8000000000000p+1024\n",
    "exponent-minus-zero": "+0x1.8000000000000p-0000\n",
    "exponent-digit": "+0x1.8000000000000p+00a0\n",
    "subnormal-exponent": "+0x0.8000000000000p-1021\n",
    "zero-exponent": "+0x0.0000000000000p+0000\n",
    "crlf": "+0x1.8000000000000p+000\r\n",
    "inf-short": "+inf\n" + " " * 20,
    "inf-typo": "+inx                    \n",
    "nan-upper": "+NAN                    \n",
    "spaces": " " * 24 + "\n",
    "trailing-space": "+0x1.8000000000000p+0000 \n",
}


@pytest.mark.parametrize("line", NOT_TRACE_LINES.values(), ids=NOT_TRACE_LINES.keys())
@pytest.mark.parametrize("row", [0, 3, 5])
def test_trace_reader_refuses_every_line_it_does_not_write(tmp_path, line, row):
    path = tmp_path / "bad.txt"
    path.write_text(_bad_body(line, row), newline="")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {row + 2} "):
        read_trace(path)


@pytest.mark.parametrize("cut", [1, 12, 24])
def test_trace_reader_refuses_a_truncated_last_line(tmp_path, cut):
    path = tmp_path / "cut.txt"
    text = _bad_body(trace_line_reference(1.5), 5)
    path.write_text(text[:-cut])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 7 is truncated"):
        read_trace(path)


@pytest.mark.parametrize("line, row", [
    ("+0x1.80000000000000p+0000\n", 2), ("+0x1.8000000000000p+00000\n", 2),
    # whole, but short: the last line, not truncated
    ("+0x1.8p+0\n", 5),
], ids=["long-fraction", "long-exponent", "short-last"])
def test_trace_reader_refuses_a_line_of_another_width(tmp_path, line, row):
    path = tmp_path / "width.txt"
    path.write_text(_bad_body(line, row))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: line {row + 2} is not a 25-byte hex"):
        read_trace(path)


def test_trace_reader_refuses_a_file_that_shrinks_while_it_is_read(tmp_path, monkeypatch):
    # the sample count comes from the file's size when it is opened
    path = tmp_path / "t.txt"
    write_trace(path, PhaseTrace(samples=np.ones(10), sample_rate_hz=1.0, origin="a"))
    size = path.stat().st_size
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size + 25, 0, 0, 0)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file shrank"):
        read_trace(path)


def test_trace_reader_refuses_a_bad_hex_digit_past_the_first_block(tmp_path):
    samples = np.random.default_rng(3).standard_normal(_BLOCK + 10)
    path = tmp_path / "t.txt"
    write_trace(path, PhaseTrace(samples=samples, sample_rate_hz=1.0, origin="a"))
    data = bytearray(path.read_bytes())
    at = data.index(b"\n") + 1 + 25 * (_BLOCK + 4) + 9
    data[at : at + 1] = b"G"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {_BLOCK + 6} is not a "):
        read_trace(path)


def _assert_same_samples(got, want):
    """Bit for bit, except that any nan only has to read back as a nan."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _check_writer(directory, samples, rate):
    """write_trace's file must equal the per-line writer's output, every line must parse
    with float.fromhex and np.loadtxt to the samples' bits, and the file must read back
    exactly."""
    trace = PhaseTrace(samples=np.array(samples, dtype=float), sample_rate_hz=rate, origin="x")
    path, ref = directory / "x.txt", directory / "ref.txt"
    write_trace(path, trace)
    write_trace_reference(ref, trace)
    assert path.read_bytes() == ref.read_bytes()
    lines = path.read_text(encoding="ascii").split("\n")[1:-1]
    assert all(len(line) == 24 for line in lines)
    _assert_same_samples(np.array([float.fromhex(line) for line in lines]), trace.samples)
    if lines:
        _assert_same_samples(np.loadtxt(path, skiprows=1, converters=float.fromhex, ndmin=1,
                                        encoding="ascii"), trace.samples)
    back = read_trace(path)
    assert back.sample_rate_hz == rate and back.origin == trace.origin
    _assert_same_samples(back.samples, trace.samples)


SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.225073858507201e-308, 2.2250738585072014e-308, 1e16, 1e-5,
                  1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)), max_size=60),
    rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(samples=SPECIAL_FLOATS, rate=5e-324)
@example(samples=SPECIAL_FLOATS, rate=1.7976931348623157e308)
def test_block_writer_matches_the_per_line_writer(tmp_path_factory, samples, rate):
    _check_writer(tmp_path_factory.mktemp("io"), samples, rate)


@pytest.mark.parametrize(
    "n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1], ids=lambda n: f"n{n}"
)
def test_block_writer_matches_at_block_edges(tmp_path, n):
    samples = np.random.default_rng(n).standard_normal(n)
    samples[::97] = SPECIAL_FLOATS[n % len(SPECIAL_FLOATS)]
    samples[-1:] = SPECIAL_FLOATS[(n + 1) % len(SPECIAL_FLOATS)]
    _check_writer(tmp_path, samples, 200e3)


def test_trace_lines_are_fixed_width(tmp_path):
    # sample i starts at byte len(header) + 25 i, whatever its value
    samples = np.array([1.0, -math.inf, math.nan, 5e-324, -0.0, 1e300])
    path = tmp_path / "t.txt"
    write_trace(path, PhaseTrace(samples=samples, sample_rate_hz=8.0, origin="a"))
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    assert len(data) == start + 25 * samples.size
    assert data[start + 25 * 3 : start + 25 * 4] == b"+0x0.0000000000001p-1022\n"
    assert data[start + 25 : start + 50] == b"-inf" + b" " * 20 + b"\n"


def test_writer_refuses_an_origin_the_reader_cannot_split(tmp_path):
    path = tmp_path / "t.txt"
    for origin in ("my trace", "tab\there", "line\nbreak"):
        with pytest.raises(ValueError, match="origin"):
            write_trace(path, PhaseTrace(samples=np.zeros(3), sample_rate_hz=1.0, origin=origin))
        assert not path.exists()


@pytest.mark.parametrize("text, number", [
    ("\n" + _hex_lines(1.5, -2.5), 2),
    (_hex_lines(1.5) + "\n" + _hex_lines(-2.5), 3),
    (_hex_lines(1.5, -2.5) + "   \n", 4),
    (_hex_lines(1.5, -2.5) + "\t\n", 4),
    (_hex_lines(1.5, -2.5) + "\n", 4),
], ids=["first", "middle", "spaces-last", "tab-last", "empty-last"])
def test_trace_reader_refuses_blank_lines(tmp_path, text, number):
    path = tmp_path / "t.txt"
    path.write_text("# sample_rate_hz=2.0 origin=a\n" + text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {number} is blank"):
        read_trace(path)


@pytest.mark.parametrize("line", ["1.0 2.0", "1.0 2.0 3.0", "1.0 abc"])
@pytest.mark.parametrize("row", [0, 1, 5])
def test_trace_reader_names_the_file_of_a_bad_line_at_any_row(tmp_path, line, row):
    path = tmp_path / "bad.txt"
    path.write_text(_bad_body(line + "\n", row))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {row + 2} "):
        read_trace(path)


def test_header_only_trace_reads_as_no_samples_without_warning(tmp_path):
    path = tmp_path / "empty.txt"
    write_trace(path, PhaseTrace(samples=np.zeros(0), sample_rate_hz=5.0, origin="a"))
    assert path.read_text() == "# sample_rate_hz=5.0 origin=a\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_trace(path)
    assert back.n_samples == 0 and back.sample_rate_hz == 5.0


@pytest.mark.parametrize("call", ["write", "read"])
def test_trace_io_memory_does_not_grow_with_the_trace(tmp_path, call):
    # the block buffers are a fixed size: beyond the returned samples, 8 B each,
    # a 10x longer trace needs no more memory
    peaks = {}
    for n in (100_000, 1_000_000):
        trace = PhaseTrace(samples=np.random.default_rng(n).standard_normal(n),
                           sample_rate_hz=1.0, origin="a")
        path = tmp_path / f"{n}.txt"
        write_trace(path, trace)
        tracemalloc.start()
        try:
            write_trace(path, trace) if call == "write" else read_trace(path)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    returned = 8 * 900_000 if call == "read" else 0
    assert peaks[1_000_000] <= 1.1 * (peaks[100_000] + returned)


# ------------------------------------------------------------- correlation

def _wavelet_trace(shift, n=4000, fs=1000.0):
    i = np.arange(n, dtype=float) - shift
    c = 1200.0
    w = np.sin(2 * np.pi * 0.11 * (i - c)) * np.exp(-(((i - c) / 60.0) ** 2) / 2)
    return PhaseTrace(samples=w, sample_rate_hz=fs, origin="x")


def _full(trace):
    """The widest lag cap _correlate takes: every lag of the trace."""
    return trace.n_samples - 1


def test_correlation_of_identical_traces():
    tr = _wavelet_trace(0)
    delay, peak = _correlate(tr, tr, _full(tr))
    assert delay == 0.0
    assert peak == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("shift", [7, 23, 150])
def test_correlation_recovers_integer_shifts(shift):
    a = _wavelet_trace(0)
    b = _wavelet_trace(shift)
    delay, peak = _correlate(a, b, _full(a))
    assert abs(delay * 1000.0 - shift) < 1e-3  # sub-millisample
    assert peak > 0.99
    back, _ = _correlate(b, a, _full(a))
    assert back == pytest.approx(-delay, abs=1e-9)


def test_correlation_respects_lag_cap():
    a = _wavelet_trace(0)
    b = _wavelet_trace(150)
    delay, _ = _correlate(a, b, 100)
    assert abs(delay) <= 0.1


def _cross_correlate_reference(trace_a, trace_b, cap):
    """FFT-free oracle: polyfit-detrended traces, one np.dot per lag |lag| <= cap.

    Returns the integer peak lag, the refined delay and the normalized peak.
    """
    n, fs = trace_a.n_samples, trace_a.sample_rate_hz
    t = np.arange(n, dtype=float)
    a, b = (tr.samples - np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyfit(t, tr.samples, 1)) for tr in (trace_a, trace_b))
    lags = np.arange(-cap, cap + 1)
    values = np.array([np.dot(a[:n - lag], b[lag:]) if lag >= 0 else np.dot(a[-lag:], b[:n + lag])
                       for lag in lags])
    peak = int(np.argmax(values))
    offset = 0.0
    if 0 < peak < len(values) - 1:
        r0, rp, rm = values[peak], values[peak + 1], values[peak - 1]
        denom = 2.0 * (2.0 * r0 - rp - rm)
        if denom > 0.0:
            offset = float(np.clip((rp - rm) / denom, -0.5, 0.5))
    norm = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    return int(lags[peak]), (float(lags[peak]) + offset) / fs, float(values[peak] / norm)


def _assert_matches_the_oracle(a, b, cap):
    fs = a.sample_rate_hz
    lag, ref_delay, ref_peak = _cross_correlate_reference(a, b, cap)
    delay, peak = _correlate(a, b, cap)
    assert abs(delay * fs - lag) <= 0.5  # the same integer peak lag
    assert abs(delay - ref_delay) <= 1e-9 / fs
    assert abs(peak - ref_peak) <= 1e-12


# a window of 0 s, one that cuts the true 150-sample lag off, one that holds it,
# and windows at and past n - 1 = 3999 samples, None being every lag; the cap
# is locate_traces' own, the window in samples rounded down, at most n - 1
@pytest.mark.parametrize("max_lag_s", [0.0, 0.05, 0.2, 3.999, 4.0, 100.0, None])
def test_lag_window_slices_equal_the_masked_full_window(max_lag_s):
    noise = np.random.default_rng(3).standard_normal((2, 4000)) * 0.05
    a = replace(_wavelet_trace(0), samples=_wavelet_trace(0).samples + noise[0])
    b = replace(_wavelet_trace(150), samples=_wavelet_trace(150).samples + noise[1])
    cap = _full(a)
    if max_lag_s is not None:
        cap = min(cap, math.floor(max_lag_s * a.sample_rate_hz))
    _assert_matches_the_oracle(a, b, cap)


# n + cap just below, at and just past a power of two, with the true lag at the
# window's edge, where a transform too short to hold the window would wrap
@pytest.mark.parametrize("cap", [1095, 1096, 1097])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_lag_at_the_window_edge_does_not_wrap(cap, sign):
    n = 3000  # n + cap = 4095, 4096, 4097
    source = np.random.default_rng(cap).standard_normal(n + cap)
    late, early = source[:n], source[cap:]
    a, b = (PhaseTrace(samples=s, sample_rate_hz=1.0, origin="x")
            for s in ((early, late) if sign > 0 else (late, early)))
    _assert_matches_the_oracle(a, b, cap)
    assert _correlate(a, b, cap)[0] == sign * cap


def test_a_parabolic_offset_past_half_a_sample_is_clipped(monkeypatch):
    # the vertex through a peak and its lower neighbours lies within half a
    # sample of the peak, but rounding can put it just past: with the left
    # neighbour one ulp below the peak and a deep right one, the raw offset
    # is -0.5000000000000001. The correlation is given; the clip makes it -0.5
    r0 = float.fromhex("0x1.cf3239e9888d7p-1")
    rm = float.fromhex("0x1.cf3239e9888d6p-1")
    rp = -float.fromhex("0x1.890a5fac080f1p+4")
    assert (rp - rm) / (2.0 * (2.0 * r0 - rp - rm)) < -0.5
    # at lag 0, where the delay is the offset alone and no rounding hides it
    a, b = _wavelet_trace(0), _wavelet_trace(5)
    corr = np.zeros(1 << (a.n_samples + 20 - 1).bit_length())
    corr[[-1, 0, 1]] = rm, r0, rp
    monkeypatch.setattr(np.fft, "irfft", lambda spectrum, n: corr)
    delay, _ = _correlate(a, b, 20)
    assert delay == -0.5 / a.sample_rate_hz


def test_a_window_wider_than_the_trace_searches_every_lag():
    # at 1e10 Hz the window of a 1e300 km link at 1 km/s, 1e300 s, is no finite
    # sample count, so the cap falls back to n - 1
    a, b = (replace(_wavelet_trace(shift), sample_rate_hz=1e10) for shift in (0, 150))
    geo = LinkGeometry(length_km=1e300, light_speed_km_per_s=1.0)
    assert (geo.max_delay_s + 1e-10) * 1e10 == math.inf
    res = locate_traces(a, b, geo)
    assert res.delay_s == _correlate(a, b, _full(a))[0]
    assert res.delay_s == pytest.approx(150e-10, abs=1e-13)


def test_correlation_degenerate_and_mismatched_inputs():
    geo = LinkGeometry(length_km=1e6)
    flat = PhaseTrace(samples=np.zeros(100), sample_rate_hz=10.0, origin="x")
    wavy = PhaseTrace(samples=np.sin(np.arange(100.0)), sample_rate_hz=10.0, origin="x")
    with pytest.raises(Infeasible):
        locate_traces(flat, wavy, geo)
    other_rate = PhaseTrace(samples=np.sin(np.arange(100.0)), sample_rate_hz=20.0,
                            origin="x")
    with pytest.raises(ValueError, match="one sample rate"):
        locate_traces(wavy, other_rate, geo)
    short = PhaseTrace(samples=np.ones(2), sample_rate_hz=10.0, origin="x")
    with pytest.raises(ValueError, match="at least 3 samples"):
        locate_traces(short, short, geo)
    longer = PhaseTrace(samples=np.sin(np.arange(120.0)), sample_rate_hz=10.0,
                        origin="x")
    with pytest.raises(ValueError, match="equally long"):
        locate_traces(wavy, longer, geo)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_correlation_refuses_a_trace_that_is_not_finite(bad):
    # a NaN trace was placed at the bob end with a NaN correlation peak
    wavy = PhaseTrace(samples=np.sin(np.arange(100.0)), sample_rate_hz=10.0, origin="x")
    broken = replace(wavy, samples=np.where(np.arange(100) == 5, bad, wavy.samples))
    for a, b in [(wavy, broken), (broken, wavy)]:
        with pytest.raises(Infeasible, match="not finite"):
            _correlate(a, b, _full(a))
        with pytest.raises(Infeasible, match="not finite"):
            locate_traces(a, b, LinkGeometry(length_km=1e6))


# ------------------------------------------------------------- localization

def test_locate_zero_delay_is_midpoint():
    geo = LinkGeometry(length_km=500.0)
    tr = _wavelet_trace(0)
    res = locate_traces(tr, tr, geo)
    assert res.delay_s == 0.0
    assert res.position_from_bob_km == pytest.approx(250.0)
    assert res.position_from_alice_km == pytest.approx(250.0)
    assert not res.out_of_range
    assert res.correlation_peak == pytest.approx(1.0, abs=1e-9)


def test_locate_slightly_beyond_the_end_clamps():
    # the link's 0.1495 s plus the 1 ms slack gives a 150-lag window, and the
    # 150-sample shift peaks at its edge: 0.5 ms past the link, within the slack
    geo = LinkGeometry(length_km=29900.0)
    res = locate_traces(_wavelet_trace(0), _wavelet_trace(150), geo)
    assert res.delay_s == 0.15
    assert res.position_from_bob_unclamped_km == pytest.approx(29950.0)
    assert res.position_from_bob_km == 29900.0
    assert res.position_from_alice_km == 0.0
    assert res.out_of_range
    assert res.correlation_peak > 0.99


def test_locate_rejects_delays_past_the_slack():
    # at 3 Hz the window of a 4 km link at 3 km/s, 4/3 + 1/3 s, rounds to 1.6666666666666665 s,
    # but its 5 samples come to 1.6666666666666667 s, so a true lag of 5 samples, either
    # way, lands one rounding past the slack
    geo = LinkGeometry(length_km=4.0, light_speed_km_per_s=3.0)
    assert 5 / 3.0 > geo.max_delay_s + 1 / 3.0
    source = np.random.default_rng(5).standard_normal(65)
    late, early = (PhaseTrace(samples=s, sample_rate_hz=3.0, origin="x")
                   for s in (source[:60], source[5:]))
    for a, b in [(early, late), (late, early)]:
        with pytest.raises(Infeasible, match="exceeds the link"):
            locate_traces(a, b, geo)


@pytest.mark.parametrize("length_km, period_s", [(100.0, 2.0), (1.7e308, 1e-3)])
def test_locate_refuses_a_window_whose_end_has_no_finite_position(length_km, period_s):
    # the end of the window maps to (length + v*(length/v + period))/2 from bob,
    # which overflows even where the delay itself is small
    geo = LinkGeometry(length_km=length_km, light_speed_km_per_s=1.7e308)
    tr = PhaseTrace(samples=np.sin(np.arange(10.0)), sample_rate_hz=1.0 / period_s, origin="x")
    with pytest.raises(ValueError, match="maps to a non-finite position"):
        locate_traces(tr, tr, geo)
    with pytest.raises(ValueError, match="maps to a non-finite position"):
        SensePlan(geometry=geo, sources=(), seed=1, duration_s=10 * period_s,
                  sample_rate_hz=1.0 / period_s)


def test_locate_negative_delay_mirrors():
    geo = LinkGeometry(length_km=40000.0)  # a 0.2 s window
    a, b = _wavelet_trace(0), _wavelet_trace(23)
    fwd = locate_traces(a, b, geo)
    rev = locate_traces(b, a, geo)
    assert fwd.delay_s == pytest.approx(0.023, abs=1e-6)
    assert rev.position_from_bob_km == pytest.approx(fwd.position_from_alice_km)
    assert rev.position_from_alice_km == pytest.approx(fwd.position_from_bob_km)


def test_locate_traces_places_a_burst():
    geo = LinkGeometry(length_km=200.0)
    alice, bob = simulate_phase_traces(sense_plan(
        geo, [_burst(50.0)], 0.2, 200e3, seed=0,
        drift_rate_rad2_per_s=0.0, noise_std_rad=0.0,
    ))
    res = locate_traces(alice, bob, geo)
    assert res.delay_s == pytest.approx((200.0 - 2 * 50.0) / V, abs=2.5e-6)
    assert res.position_from_alice_km == pytest.approx(50.0, abs=0.5)
    assert res.correlation_peak > 0.99
    assert not res.out_of_range


def test_locate_traces_midpoint_source_is_exact():
    # equidistant source: both ends see the identical stream, so the
    # correlation peaks at lag zero with no interpolation offset at all
    geo = LinkGeometry(length_km=200.0)
    alice, bob = simulate_phase_traces(sense_plan(
        geo, [_burst(100.0)], 0.2, 200e3, seed=0,
        drift_rate_rad2_per_s=0.0, noise_std_rad=0.0,
    ))
    assert np.array_equal(alice.samples, bob.samples)
    res = locate_traces(alice, bob, geo)
    assert abs(res.delay_s) < 1e-12
    assert res.position_from_bob_km == pytest.approx(100.0, abs=1e-6)


def test_locate_traces_with_wide_lag_window_can_overrun():
    geo = LinkGeometry(length_km=10.0)  # 50 us of fiber, 150 ms of shift
    a = _wavelet_trace(0)
    b = _wavelet_trace(150)
    # the window caps the search at the physical range
    res = locate_traces(a, b, geo)
    assert abs(res.delay_s) <= geo.max_delay_s + 1.0 / 1000.0


# -------------------------------------------------------------------- sense

def test_sense_peaks_at_most_72_bytes_per_sample():
    # the sense_demo.ini link and burst over 2e5 samples. The chain frees each
    # temporary before the next large one is made, so it peaks in the count
    # draw: both traces, the port means and the counts, 64 B per sample
    n = 200_000
    burst = VibrationSource(position_km=60.0, frequency_hz=800.0, amplitude_rad=0.8,
                            dc_offset_rad=1.2, start_s=0.05, duration_s=0.1)
    plan = SensePlan(geometry=LinkGeometry(length_km=200.0), sources=(burst,), seed=5,
                     duration_s=n / 200e3, sample_rate_hz=200e3)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sense(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / n <= 72.0


# the values a drawn sensing run takes in place of an ordinary one: other
# finite values, zeros, subnormals, values near the float range, negatives,
# NaN, infinities, and numbers that are no seed
CONTRACT_EDGES = [0.5, 7, 1e3, 0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.0, -1e300, math.nan,
                  math.inf, -math.inf, -1, 2**70, 1.5]
CONTRACT_GEOMETRY = {"length_km": 100.0, "light_speed_km_per_s": 2e5}
CONTRACT_SOURCE = {
    "position_km": 10.0, "frequency_hz": 5.0, "amplitude_rad": 0.1, "phase_rad": 0.3,
    "dc_offset_rad": 0.2, "start_s": 0.01, "duration_s": 0.05,
}
CONTRACT_PLAN = {
    "seed": 1, "duration_s": 0.1, "sample_rate_hz": 1000.0, "drift_rate_rad2_per_s": 0.01,
    "noise_std_rad": 0.02, "photons_per_frame": 1e4,
}
# the most samples per trace a drawn run may ask for and still run: larger
# counts up to MAX_TRACE_SAMPLES are skipped to keep the test short, while
# counts past the cap are refused before any array is built and so do run
CONTRACT_MAX_SAMPLES = 4000


@st.composite
def _contract_run(draw):
    # the ordinary link, up to two sources and the plan's own fields, with up
    # to three fields across them set to an edge value
    parts = {"geometry": CONTRACT_GEOMETRY, "plan": CONTRACT_PLAN,
             **{i: CONTRACT_SOURCE for i in range(draw(st.integers(0, 2)))}}
    run = {(part, key): value for part, keys in parts.items() for key, value in keys.items()}
    run.update(draw(st.dictionaries(st.sampled_from(list(run)), st.sampled_from(CONTRACT_EDGES),
                                    max_size=3)))
    return {part: {key: run[part, key] for key in keys} for part, keys in parts.items()}


def _contract_samples(plan):
    n = plan["duration_s"] * plan["sample_rate_hz"]
    return round(n) if math.isfinite(n) else 0


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(run=_contract_run())
def test_a_plan_refuses_its_inputs_or_sense_runs_it_to_a_result_or_infeasible(run):
    # building the plan is the one place a ValueError may come from: any
    # exception that sense raises other than Infeasible fails the test
    assert set(CONTRACT_GEOMETRY) == {f.name for f in fields(LinkGeometry)}
    assert set(CONTRACT_SOURCE) == {f.name for f in fields(VibrationSource)}
    assert set(CONTRACT_PLAN) == {f.name for f in fields(SensePlan)} - {"geometry", "sources"}
    plan = run.pop("plan")
    assume(not CONTRACT_MAX_SAMPLES < _contract_samples(plan) <= MAX_TRACE_SAMPLES)
    try:
        built = SensePlan(geometry=LinkGeometry(**run.pop("geometry")),
                          sources=tuple(VibrationSource(**s) for s in run.values()), **plan)
    except (ValueError, Infeasible):
        return
    try:
        alice, bob, result = sense(built)
    except Infeasible:
        return
    assert alice.n_samples == bob.n_samples
    assert all(math.isfinite(value) for value in astuple(result))
