"""End-to-end acceptance checks.

One test per criterion. Each computes its condition, prints a single
ACCEPTANCE n PASS/FAIL line (run with -s to see them all), and only then
asserts, so a full run always documents every criterion's outcome.
"""

import math
from itertools import product
from time import perf_counter

import numpy as np

from snslab import (
    aopp,
    decoy_bounds,
    key_rate,
    mc_post_processing,
    monte_carlo_session,
    plob_bound,
)
from snslab.optimize import optimize_params, params_to_source
from snslab.presets import (
    desk_detector,
    desk_link,
    desk_security,
    desk_source,
    reference_security,
)
from snslab.sensing import (
    LinkGeometry,
    VibrationSource,
    locate_traces,
    recover_phase_from_reference,
    simulate_phase_traces,
    synthesize_reference_counts,
)
from snslab.simulate import MUZ, SIGNAL, VAC, expected_tallies

from conftest import balanced_source, expected_rate, sense_plan

TALLY_FIELDS = (
    "pulses_sent",
    "one_detector_events",
    "error_events",
    "accepted_events",
    "single_photon_events",
)

SESSION_INPUTS = dict(
    n_untagged=244731.0,
    phase_error_rate=0.1336,
    n_sifted=558729.0,
    bit_error_rate=0.0212,
    n_pulses=1.007e13,
)


def _verdict(idx: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx} {'PASS' if ok else 'FAIL'}: {detail}")


# ------------------------------------------------------------- criterion 1

def test_secret_length_accounting_reproduces_the_field_session():
    t0 = perf_counter()
    report = key_rate(sec=reference_security(), **SESSION_INPUTS)
    elapsed = perf_counter() - t0
    bps = report.rate_per_pulse * 1e8  # 100 MHz source clock
    rate_ok = abs(report.rate_per_pulse - 9.22e-10) / 9.22e-10 < 0.10
    bps_ok = abs(bps - 0.092) / 0.092 < 0.10
    fast_ok = elapsed < 1.0
    ok = rate_ok and bps_ok and fast_ok
    _verdict(
        1, ok,
        f"rate {report.rate_per_pulse:.4e}/pulse ({bps:.4f} bit/s) "
        f"in {elapsed * 1e3:.2f} ms",
    )
    assert rate_ok, report.rate_per_pulse
    assert bps_ok, bps
    assert fast_ok, elapsed


# ------------------------------------------------------------- criterion 2

def test_capacity_bound_value_and_key_rate_separation():
    bound = plob_bound(10.0 ** -10.6)
    bound_ok = abs(bound - 3.62e-11) / 3.62e-11 <= 0.01
    rate = key_rate(sec=reference_security(), **SESSION_INPUTS).rate_per_pulse
    ratio = rate / bound
    ratio_ok = ratio >= 10.0
    ok = bound_ok and ratio_ok
    _verdict(2, ok, f"bound {bound:.4e} bit/use, session rate {ratio:.1f}x above it")
    assert bound_ok, bound
    assert ratio_ok, ratio


# ------------------------------------------------------------- criterion 3

def test_end_of_link_disturbance_is_localized():
    geo = LinkGeometry(length_km=200.0)
    src = VibrationSource(
        position_km=0.0, frequency_hz=1000.0, amplitude_rad=0.5,
        dc_offset_rad=1.0, start_s=2.0, duration_s=3.0,
    )
    t0 = perf_counter()
    alice, bob = simulate_phase_traces(sense_plan(geo, [src], 10.0, 200e3, seed=5))
    result = locate_traces(alice, bob, geo)
    elapsed = perf_counter() - t0
    delay_ok = abs(result.delay_s - 1.000e-3) <= 5e-6
    pos_ok = abs(result.position_from_bob_km - 200.0) <= 1.0
    fast_ok = elapsed < 10.0
    ok = delay_ok and pos_ok and fast_ok
    _verdict(
        3, ok,
        f"delay {result.delay_s * 1e3:.6f} ms, "
        f"{result.position_from_bob_km:.4f} km from bob in {elapsed:.2f} s",
    )
    assert delay_ok, result.delay_s
    assert pos_ok, result.position_from_bob_km
    assert fast_ok, elapsed


# ------------------------------------------------------------- criterion 4

def test_injected_tones_survive_the_reference_channel():
    cases = [
        (1.0, 512.0, 65536),
        (10.0, 512.0, 65536),
        (100.0, 2048.0, 65536),
        (1000.0, 16384.0, 65536),
    ]
    worst_freq_err = 0.0
    worst_corr = 1.0
    for freq, fs, n in cases:
        t = np.arange(n) / fs
        drive = np.pi / 2 + 1.0 * np.sin(2 * np.pi * freq * t)
        counts = synthesize_reference_counts(drive, 1e4, np.random.default_rng(int(freq)))
        rec = recover_phase_from_reference(*counts, fs)
        spectrum = np.abs(np.fft.rfft(rec.samples - rec.samples.mean()))
        peak_hz = float(np.argmax(spectrum)) * fs / n
        worst_freq_err = max(worst_freq_err, abs(peak_hz - freq) / freq)

        exact = synthesize_reference_counts(drive, 1e4)
        clean = recover_phase_from_reference(*exact, fs)
        worst_corr = min(worst_corr, float(np.corrcoef(clean.samples, drive)[0, 1]))
    freq_ok = worst_freq_err <= 0.01
    corr_ok = worst_corr >= 0.99
    ok = freq_ok and corr_ok
    _verdict(
        4, ok,
        f"worst tone error {worst_freq_err * 100:.3f}%, "
        f"worst clean correlation {worst_corr:.6f} over 1/10/100/1000 Hz",
    )
    assert freq_ok, worst_freq_err
    assert corr_ok, worst_corr


# ------------------------------------------------------------- criterion 5

def _worst_grid_error(fs: float) -> float:
    geo = LinkGeometry(length_km=500.0)
    worst = 0.0
    # offset grid: integer positions put every delay exactly on a sample
    # edge, which would hide the interpolation error entirely
    for x in np.arange(0.3, 500.0, 1.0):
        src = VibrationSource(
            position_km=float(x), frequency_hz=500.0, amplitude_rad=0.02,
            dc_offset_rad=1.0, start_s=0.035, duration_s=0.03,
        )
        alice, bob = simulate_phase_traces(sense_plan(
            geo, [src], 0.1, fs, seed=1, drift_rate_rad2_per_s=0.0, noise_std_rad=0.0
        ))
        res = locate_traces(alice, bob, geo)
        worst = max(worst, abs(res.position_from_alice_km - float(x)))
    return worst


def test_localization_error_tracks_the_sampling_rate():
    v = 2.0e5
    err_fast = _worst_grid_error(200e3)
    err_slow = _worst_grid_error(100e3)
    budget_fast = v / (2.0 * 200e3) + 0.1
    budget_slow = v / (2.0 * 100e3) + 0.1
    fast_ok = err_fast <= budget_fast
    slow_ok = err_slow <= budget_slow
    scaling_ok = err_slow >= 2.0 * err_fast
    ok = fast_ok and slow_ok and scaling_ok
    _verdict(
        5, ok,
        f"worst error {err_fast:.3f} km at 200 kHz (budget {budget_fast:.1f}), "
        f"{err_slow:.3f} km at 100 kHz, ratio {err_slow / err_fast:.2f}",
    )
    assert fast_ok, err_fast
    assert slow_ok, err_slow
    assert scaling_ok, (err_fast, err_slow)


# ------------------------------------------------------------- criterion 6

def test_sampled_sessions_match_expectation_for_thirty_seeds():
    link, det, sec = desk_link(), desk_detector(), desk_security()
    src = balanced_source()
    n = 2_000_000
    expected = expected_tallies(link, det, src, float(n))
    worst_z = 0.0
    all_identical = True
    for seed in range(30):
        serial = monte_carlo_session(link, det, src, n, seed, n_jobs=1)
        threaded = monte_carlo_session(link, det, src, n, seed, n_jobs=4)
        for key in expected.rows:
            srow, prow = serial.rows[key], threaded.rows[key]
            for f in TALLY_FIELDS:
                if getattr(srow, f) != getattr(prow, f):
                    all_identical = False
        if not (np.array_equal(serial.z_bits_alice, threaded.z_bits_alice)
                and np.array_equal(serial.z_bits_bob, threaded.z_bits_bob)):
            all_identical = False
        for key, erow in expected.rows.items():
            mrow = serial.rows[key]
            for f in TALLY_FIELDS:
                e, m = getattr(erow, f), getattr(mrow, f)
                if e == 0.0:
                    if m != 0.0:
                        worst_z = math.inf
                    continue
                denom = expected.n_pulses if f == "pulses_sent" else erow.pulses_sent
                sd = math.sqrt(e * max(1.0 - e / denom, 0.0))
                worst_z = max(worst_z, abs(m - e) / sd)
    z_ok = worst_z <= 5.0
    ok = z_ok and all_identical
    _verdict(
        6, ok,
        f"30 seeds at 20 dB: worst deviation {worst_z:.2f} sd, "
        f"serial == threaded: {all_identical}",
    )
    assert z_ok, worst_z
    assert all_identical


# ------------------------------------------------------------- criterion 7

def test_certified_single_photon_counts_are_sound():
    link, det, sec = desk_link(), desk_detector(), desk_security()
    src = balanced_source()
    sound = 0
    for seed in range(1000, 1100):
        tally = monte_carlo_session(link, det, src, 1_000_000, seed, n_jobs=4)
        truth = (
            tally.rows[(SIGNAL, MUZ, VAC)].single_photon_events
            + tally.rows[(SIGNAL, VAC, MUZ)].single_photon_events
        )
        bounds = decoy_bounds(tally, src, sec)
        sound += bounds.n1_low <= truth
    ok = sound >= 99
    _verdict(7, ok, f"lower bound below the true untagged count in {sound}/100 sessions")
    assert ok, sound


# ------------------------------------------------------------- criterion 8

def _pairing_oracle_check(a, b, res) -> bool:
    """Survival and distilled bits recomputed from the stated rules alone."""
    for idx in range(res.n_pairs):
        i, j = int(res.pairs[idx, 0]), int(res.pairs[idx, 1])
        if b[i] != 1 or b[j] != 0:
            return False
        if bool(res.kept[idx]) != ((int(a[i]) + int(a[j])) % 2 == 1):
            return False
    if res.n_pairs != min(int(np.sum(b)), int(b.size - np.sum(b))):
        return False
    kept_leads = [
        min(int(res.pairs[k, 0]), int(res.pairs[k, 1]))
        for k in range(res.n_pairs)
        if res.kept[k]
    ]
    want_a = [int(a[p]) for p in kept_leads]
    want_b = [int(b[p]) for p in kept_leads]
    return list(res.bits_alice) == want_a and list(res.bits_bob) == want_b


def test_parity_pairing_matches_enumeration_and_cuts_the_error_rate():
    # lengths 1..6: every (sender, receiver) string pair, direct calls
    checked = 0
    exhaustive_ok = True
    for n in range(1, 7):
        for ia, abits in enumerate(product((0, 1), repeat=n)):
            for ib, bbits in enumerate(product((0, 1), repeat=n)):
                a = np.array(abits, dtype=np.uint8)
                b = np.array(bbits, dtype=np.uint8)
                seed = (n * 1009 + ia * 31 + ib) % 65536
                if not _pairing_oracle_check(a, b, aopp(a, b, seed)):
                    exhaustive_ok = False
                checked += 1

    # lengths 7..12: the pairing depends only on the receiver string and
    # the seed, so extract it once per receiver string, anchor it with
    # direct calls on sampled sender strings, then sweep all 2^n sender
    # strings through the pairing rules in vectorized form against an
    # independently coded enumeration
    bridge_ok = True
    spot_ok = True
    rng = np.random.default_rng(8)
    for n in range(7, 13):
        all_bits = np.array(list(product((0, 1), repeat=n)), dtype=np.uint8)
        for idx in range(all_bits.shape[0]):
            b = all_bits[idx]
            seed = n * 100003 + idx
            pairs = aopp(np.zeros(n, np.uint8), b, seed).pairs
            ones, zeros = pairs[:, 0], pairs[:, 1]
            if not (np.all(b[ones] == 1) and np.all(b[zeros] == 0)):
                bridge_ok = False
            if pairs.shape[0] != min(int(b.sum()), int(n - b.sum())):
                bridge_ok = False

            kept_impl = all_bits[:, ones] != all_bits[:, zeros]
            lead_impl = pairs.min(axis=1)
            kept_rules = (all_bits[:, ones].astype(int)
                          + all_bits[:, zeros].astype(int)) % 2 == 1
            lead_rules = np.array(
                [sorted((int(i), int(j)))[0] for i, j in pairs], dtype=np.int64
            )
            if not np.array_equal(kept_impl, kept_rules):
                bridge_ok = False
            if not np.array_equal(lead_impl, lead_rules):
                bridge_ok = False
            if lead_rules.size and not np.array_equal(
                all_bits[:, lead_impl][kept_impl], all_bits[:, lead_rules][kept_rules]
            ):
                bridge_ok = False
            checked += all_bits.shape[0]

            if idx % 541 == 0:  # anchor the bridge with real calls
                for row in rng.integers(0, all_bits.shape[0], size=2):
                    res = aopp(all_bits[row], b, seed)
                    if not np.array_equal(res.pairs, pairs):
                        spot_ok = False
                    if not np.array_equal(res.kept, kept_impl[row]):
                        spot_ok = False
                    if not _pairing_oracle_check(all_bits[row], b, res):
                        spot_ok = False

    # sampled desk session: pairing must cut the raw error rate, which
    # itself sits in the documented pre-pairing band
    link, det, sec = desk_link(), desk_detector(), desk_security()
    tally = monte_carlo_session(link, det, desk_source(), 2_000_000, seed=21, n_jobs=4)
    pre = tally.pre_pairing_qber()
    post = mc_post_processing(tally, desk_source(), sec, seed=21).bit_error_rate
    band_ok = 0.24 <= pre <= 0.29
    cut_ok = post < pre

    ok = exhaustive_ok and bridge_ok and spot_ok and band_ok and cut_ok
    _verdict(
        8, ok,
        f"{checked} pairings match enumeration, "
        f"desk error rate {pre:.4f} -> {post:.4f}",
    )
    assert exhaustive_ok
    assert bridge_ok
    assert spot_ok
    assert band_ok, pre
    assert cut_ok, (pre, post)


# ------------------------------------------------------------- criterion 9

def test_optimizer_recovers_from_perturbed_starts():
    link, det, sec = desk_link(), desk_detector(), desk_security()
    n_pulses = 1e10
    base = np.array([0.1, 0.4, 0.45, 0.7, 0.6, 0.05, 0.2717])
    src = desk_source()  # misalignment 0.028, the default slice
    r0 = expected_rate(params_to_source(base, src), link, det, sec, n_pulses)
    rng = np.random.default_rng(2024)
    starts = [
        base * 1.2,
        base * 0.8,
        base * np.where(np.arange(7) % 2 == 0, 1.2, 0.8),
    ]
    starts += [base * rng.uniform(0.8, 1.2, size=7) for _ in range(3)]

    ratios = []
    results = []
    for start in starts:
        res = optimize_params(
            link, det, sec, n_pulses, seed=7, n_starts=4, budget=150,
            initial=start, base=src,
        )
        results.append(res)
        ratios.append(res.rate / r0)
    recover_ok = min(ratios) >= 0.99

    repeat = optimize_params(
        link, det, sec, n_pulses, seed=7, n_starts=4, budget=150,
        initial=starts[0], base=src,
    )
    deterministic = (
        repeat.params == results[0].params and repeat.rate == results[0].rate
    )
    ok = recover_ok and deterministic
    _verdict(
        9, ok,
        f"worst recovery ratio {min(ratios):.4f} over 6 perturbations, "
        f"repeatable: {deterministic}",
    )
    assert recover_ok, ratios
    assert deterministic
