import math

import numpy as np
import pytest

from snslab.sensing import (
    DegenerateTraceError,
    DelayOutOfRangeError,
    LinkGeometry,
    PhaseTrace,
    VibrationSource,
    cross_correlate_delay,
    locate,
    locate_traces,
    read_trace,
    recover_phase_from_reference,
    simulate_phase_traces,
    synthesize_reference_counts,
    write_trace,
)

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


# ------------------------------------------------------------- trace model

def test_phase_trace_properties_and_validation():
    tr = PhaseTrace(samples=np.zeros(400), sample_rate_hz=200.0, origin="x")
    assert tr.n_samples == 400
    assert tr.duration_s == pytest.approx(2.0)
    with pytest.raises(ValueError):
        PhaseTrace(samples=np.zeros((2, 2)), sample_rate_hz=1.0, origin="x")
    with pytest.raises(ValueError):
        PhaseTrace(samples=np.zeros(4), sample_rate_hz=0.0, origin="x")


# -------------------------------------------------------------- simulation

def _burst(position_km):
    return VibrationSource(
        position_km=position_km, frequency_hz=500.0, amplitude_rad=1.0,
        dc_offset_rad=0.5, start_s=0.05, duration_s=0.03,
    )


def test_noiseless_traces_are_pure_delayed_waveforms():
    geo = LinkGeometry(length_km=200.0)
    s = _burst(50.0)
    alice, bob = simulate_phase_traces(
        geo, s, 0.2, 200e3, seed=0, drift_rate_rad2_per_s=0.0, noise_std_rad=0.0
    )
    t = np.arange(alice.n_samples) / 200e3
    assert np.array_equal(alice.samples, s.waveform(t - 50.0 / V))
    assert np.array_equal(bob.samples, s.waveform(t - 150.0 / V))
    assert alice.origin == "alice" and bob.origin == "bob"


def test_drift_is_common_mode():
    geo = LinkGeometry(length_km=100.0)
    alice, bob = simulate_phase_traces(
        geo, [], 0.5, 1e3, seed=7, drift_rate_rad2_per_s=0.5, noise_std_rad=0.0
    )
    assert np.array_equal(alice.samples, bob.samples)
    assert np.std(alice.samples) > 0.0


def test_simulation_is_seed_deterministic():
    geo = LinkGeometry(length_km=100.0)
    a1, b1 = simulate_phase_traces(geo, _burst(30.0), 0.1, 50e3, seed=4)
    a2, b2 = simulate_phase_traces(geo, _burst(30.0), 0.1, 50e3, seed=4)
    a3, _ = simulate_phase_traces(geo, _burst(30.0), 0.1, 50e3, seed=5)
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(b1.samples, b2.samples)
    assert not np.array_equal(a1.samples, a3.samples)


def test_simulation_validation():
    geo = LinkGeometry(length_km=100.0)
    with pytest.raises(ValueError):
        simulate_phase_traces(geo, _burst(150.0), 0.1, 50e3, seed=0)
    with pytest.raises(ValueError):  # 500 Hz source needs >= 1 kHz sampling
        simulate_phase_traces(geo, _burst(50.0), 0.1, 999.0, seed=0)
    with pytest.raises(ValueError):
        simulate_phase_traces(geo, _burst(50.0), 0.0, 50e3, seed=0)
    with pytest.raises(ValueError):
        simulate_phase_traces(geo, _burst(50.0), 0.1, 50e3, seed=0,
                              noise_std_rad=-1.0)
    # sampling at exactly twice the source frequency is allowed
    a, _ = simulate_phase_traces(geo, _burst(50.0), 0.1, 1000.0, seed=0)
    assert a.n_samples == 100


# ------------------------------------------------------- reference channel

def test_reference_counts_exact_means():
    phases = np.array([0.0, np.pi / 3, np.pi / 2, np.pi])
    left, right = synthesize_reference_counts(phases, 1000.0)
    assert np.allclose(left, 1000.0 * 0.5 * (1.0 + np.cos(phases)))
    assert np.allclose(right, 1000.0 * 0.5 * (1.0 - np.cos(phases)))
    assert np.allclose(left + right, 1000.0)


def test_reference_counts_poisson_draws():
    phases = np.full(2000, np.pi / 4)
    l1, r1 = synthesize_reference_counts(phases, 500.0, np.random.default_rng(3))
    l2, r2 = synthesize_reference_counts(phases, 500.0, np.random.default_rng(3))
    assert np.array_equal(l1, l2) and np.array_equal(r1, r2)
    assert l1.mean() == pytest.approx(500.0 * 0.5 * (1 + math.cos(math.pi / 4)), rel=0.05)
    with pytest.raises(ValueError):
        synthesize_reference_counts(phases, 0.0)


# ----------------------------------------------------------- phase recovery

def test_recovery_inverts_exact_means_in_principal_range():
    fs = 1000.0
    phases = np.linspace(0.05, np.pi - 0.05, 500)
    left, right = synthesize_reference_counts(phases, 1e4)
    rec = recover_phase_from_reference(left, right, fs)
    assert isinstance(rec, PhaseTrace)
    assert rec.origin == "recovered"
    assert rec.sample_rate_hz == fs
    assert np.max(np.abs(rec.samples - phases)) < 1e-9


def test_recovery_tracks_through_folds():
    # the drive sweeps past both branch points (0 and pi) every cycle
    fs = 3000.0
    t = np.arange(int(fs)) / fs
    phases = np.pi / 2 + 2.2 * np.sin(2 * np.pi * 3.0 * t)
    left, right = synthesize_reference_counts(phases, 1e4)
    rec = recover_phase_from_reference(left, right, fs)
    assert np.max(np.abs(rec.samples - phases)) < 1e-6


def _tracker_reference(counts_left, counts_right):
    """The tracker as a loop over numpy scalars: the exact reference for the library's."""
    base = np.arccos(np.clip((counts_left - counts_right) / (counts_left + counts_right), -1, 1))
    out = np.empty_like(base)
    prev = prev2 = base[0]
    two_pi = 2.0 * np.pi
    for i, b in enumerate(base):
        predicted = 2.0 * prev - prev2
        k_plus = round((predicted - b) / two_pi)
        c_plus = b + two_pi * k_plus
        k_minus = round((predicted + b) / two_pi)
        c_minus = -b + two_pi * k_minus
        current = c_plus if abs(c_plus - predicted) <= abs(c_minus - predicted) else c_minus
        out[i] = current
        prev2, prev = prev, current
    return out


def test_recovery_equals_per_frame_reference_exactly():
    # Poisson counts on the drive of the fold test, so the track crosses both folds
    fs = 3000.0
    t = np.arange(int(fs)) / fs
    phases = np.pi / 2 + 2.2 * np.sin(2 * np.pi * 3.0 * t)
    left, right = synthesize_reference_counts(phases, 1e4, np.random.default_rng(9))
    rec = recover_phase_from_reference(left, right, fs)
    assert rec.samples.min() < 0.0 and rec.samples.max() > np.pi
    assert np.array_equal(rec.samples, _tracker_reference(left, right))


def test_recovery_stays_on_track_with_photon_noise():
    fs = 3000.0
    t = np.arange(int(fs)) / fs
    phases = np.pi / 2 + 1.0 * np.sin(2 * np.pi * 7.0 * t)
    left, right = synthesize_reference_counts(phases, 1e4, np.random.default_rng(9))
    rec = recover_phase_from_reference(left, right, fs)
    err = rec.samples - phases
    assert np.sqrt(np.mean(err**2)) < 0.05
    assert np.max(np.abs(err)) < 0.5  # no fold was lost


def test_recovery_balanced_counts_read_quadrature():
    rec = recover_phase_from_reference(np.full(50, 7.0), np.full(50, 7.0), 100.0)
    assert np.allclose(rec.samples, np.pi / 2)


def test_recovery_validation():
    with pytest.raises(ValueError):
        recover_phase_from_reference(np.zeros(0), np.zeros(0), 100.0)
    with pytest.raises(ValueError):
        recover_phase_from_reference(np.ones(3), np.ones(4), 100.0)
    with pytest.raises(ValueError):
        recover_phase_from_reference(np.ones(3), np.ones(3), 0.0)
    with pytest.raises(ValueError):  # silent frame in the middle
        recover_phase_from_reference(np.array([3.0, 0.0, 3.0]),
                                     np.array([2.0, 0.0, 2.0]), 100.0)


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


def test_trace_reader_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0\n")
    with pytest.raises(ValueError):
        read_trace(bad)
    bad.write_text("# origin=alice\n0.0 1.0\n")
    with pytest.raises(ValueError):
        read_trace(bad)
    bad.write_text("# sample_rate_hz=10.0 origin=alice\n0.0 1.0 2.0\n")
    with pytest.raises(ValueError):
        read_trace(bad)


# ------------------------------------------------------------- correlation

def _wavelet_trace(shift, n=4000, fs=1000.0):
    i = np.arange(n, dtype=float) - shift
    c = 1200.0
    w = np.sin(2 * np.pi * 0.11 * (i - c)) * np.exp(-(((i - c) / 60.0) ** 2) / 2)
    return PhaseTrace(samples=w, sample_rate_hz=fs, origin="x")


def test_correlation_of_identical_traces():
    tr = _wavelet_trace(0)
    delay, peak = cross_correlate_delay(tr, tr)
    assert delay == 0.0
    assert peak == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("shift", [7, 23, 150])
def test_correlation_recovers_integer_shifts(shift):
    a = _wavelet_trace(0)
    b = _wavelet_trace(shift)
    delay, peak = cross_correlate_delay(a, b)
    assert abs(delay * 1000.0 - shift) < 1e-3  # sub-millisample
    assert peak > 0.99
    back, _ = cross_correlate_delay(b, a)
    assert back == pytest.approx(-delay, abs=1e-9)


def test_correlation_respects_lag_cap():
    a = _wavelet_trace(0)
    b = _wavelet_trace(150)
    delay, _ = cross_correlate_delay(a, b, max_lag_s=0.1)
    assert abs(delay) <= 0.1
    with pytest.raises(ValueError):
        cross_correlate_delay(a, b, max_lag_s=-0.01)


def test_correlation_degenerate_and_mismatched_inputs():
    flat = PhaseTrace(samples=np.zeros(100), sample_rate_hz=10.0, origin="x")
    wavy = PhaseTrace(samples=np.sin(np.arange(100.0)), sample_rate_hz=10.0, origin="x")
    with pytest.raises(DegenerateTraceError):
        cross_correlate_delay(flat, wavy)
    other_rate = PhaseTrace(samples=np.sin(np.arange(100.0)), sample_rate_hz=20.0,
                            origin="x")
    with pytest.raises(ValueError):
        cross_correlate_delay(wavy, other_rate)
    short = PhaseTrace(samples=np.ones(2), sample_rate_hz=10.0, origin="x")
    with pytest.raises(ValueError):
        cross_correlate_delay(short, short)
    longer = PhaseTrace(samples=np.sin(np.arange(120.0)), sample_rate_hz=10.0,
                        origin="x")
    with pytest.raises(ValueError):
        cross_correlate_delay(wavy, longer)


# ------------------------------------------------------------- localization

def test_locate_zero_delay_is_midpoint():
    geo = LinkGeometry(length_km=500.0)
    res = locate(0.0, geo)
    assert res.position_from_bob_km == pytest.approx(250.0)
    assert res.position_from_alice_km == pytest.approx(250.0)
    assert not res.out_of_range
    assert math.isnan(res.correlation_peak)


def test_locate_slightly_beyond_the_end_clamps():
    geo = LinkGeometry(length_km=500.0)
    res = locate(2.531e-3, geo, slack_s=50e-6, correlation_peak=0.87)
    assert res.position_from_bob_unclamped_km == pytest.approx(503.1)
    assert res.position_from_bob_km == 500.0
    assert res.position_from_alice_km == 0.0
    assert res.out_of_range
    assert res.correlation_peak == 0.87


def test_locate_rejects_delays_past_the_slack():
    geo = LinkGeometry(length_km=500.0)
    with pytest.raises(DelayOutOfRangeError):
        locate(2.531e-3, geo, slack_s=5e-6)
    with pytest.raises(ValueError):
        locate(1e-3, geo, slack_s=-1e-9)


def test_locate_negative_delay_mirrors():
    geo = LinkGeometry(length_km=400.0)
    fwd = locate(7e-4, geo)
    rev = locate(-7e-4, geo)
    assert rev.position_from_bob_km == pytest.approx(fwd.position_from_alice_km)
    assert rev.position_from_alice_km == pytest.approx(fwd.position_from_bob_km)


def test_locate_traces_places_a_burst():
    geo = LinkGeometry(length_km=200.0)
    alice, bob = simulate_phase_traces(
        geo, _burst(50.0), 0.2, 200e3, seed=0,
        drift_rate_rad2_per_s=0.0, noise_std_rad=0.0,
    )
    res = locate_traces(alice, bob, geo)
    assert res.delay_s == pytest.approx((200.0 - 2 * 50.0) / V, abs=2.5e-6)
    assert res.position_from_alice_km == pytest.approx(50.0, abs=0.5)
    assert res.correlation_peak > 0.99
    assert not res.out_of_range


def test_locate_traces_midpoint_source_is_exact():
    # equidistant source: both ends see the identical stream, so the
    # correlation peaks at lag zero with no interpolation offset at all
    geo = LinkGeometry(length_km=200.0)
    alice, bob = simulate_phase_traces(
        geo, _burst(100.0), 0.2, 200e3, seed=0,
        drift_rate_rad2_per_s=0.0, noise_std_rad=0.0,
    )
    assert np.array_equal(alice.samples, bob.samples)
    res = locate_traces(alice, bob, geo)
    assert abs(res.delay_s) < 1e-12
    assert res.position_from_bob_km == pytest.approx(100.0, abs=1e-6)


def test_locate_traces_with_wide_lag_window_can_overrun():
    geo = LinkGeometry(length_km=10.0)  # 50 us of fiber, 150 ms of shift
    a = _wavelet_trace(0)
    b = _wavelet_trace(150)
    with pytest.raises(DelayOutOfRangeError):
        locate_traces(a, b, geo, max_lag_s=1.0)
    # the default window caps the search at the physical range instead
    res = locate_traces(a, b, geo)
    assert abs(res.delay_s) <= geo.max_delay_s + 1.0 / 1000.0
