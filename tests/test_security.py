import dataclasses
import math
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snslab import (
    Infeasible,
    SessionTally,
    aopp,
    binary_entropy,
    decoy_bounds,
    expected_post_processing,
    expected_tallies,
    fluctuation_bounds,
    key_rate,
    mc_post_processing,
    plob_bound,
    post_aopp_phase_error,
)
from snslab.presets import desk_security, desk_source, reference_security
from snslab.security import ROW_INDEX
from snslab.simulate import DECOY, MUZ, SIGNAL, VAC, z_bit_assignment

from conftest import REFERENCE_PULSES


# ------------------------------------------------------------ capacity bound

def test_plob_bound_values():
    assert plob_bound(0.0) == 0.0
    assert plob_bound(0.5) == pytest.approx(1.0, rel=1e-12)
    # frozen: -log2(1 - 10^-10.6)
    assert plob_bound(10.0**-10.6) == pytest.approx(3.623886098060663e-11, rel=1e-12, abs=0.0)
    assert abs(plob_bound(10.0**-10.6) - 3.62e-11) / 3.62e-11 < 0.01


def test_plob_bound_exceeds_linear_floor():
    # -log2(1-x) >= x/ln 2 everywhere on (0,1), approaching it for small x
    floor = 1.0 / math.log(2.0)
    for eta in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.99):
        assert plob_bound(eta) >= floor * eta * (1.0 - 1e-12)
    assert plob_bound(1e-3) == pytest.approx(floor * 1e-3, rel=0.01)


def test_plob_bound_validation():
    with pytest.raises(ValueError):
        plob_bound(1.0)
    with pytest.raises(ValueError):
        plob_bound(-0.1)


# ------------------------------------------------------- fluctuation bounds

def test_fluctuation_bounds_frozen_point():
    lo, up = fluctuation_bounds(1000.0, 1e-10)
    assert lo == pytest.approx(800.4714959779449, rel=1e-9)
    assert up == pytest.approx(1230.2139407947834, rel=1e-9)
    assert lo < 1000.0 < up


def test_fluctuation_bounds_solve_the_tail_equation():
    observed, xi = 437.0, 1e-8
    lo, up = fluctuation_bounds(observed, xi)
    for m in (lo, up):
        residual = observed - m + observed * math.log(m / observed) - math.log(xi)
        assert abs(residual) < 1e-6


def test_fluctuation_bounds_match_multiplicative_tail_form():
    # same roots expressed through (e^d / (1+d)^(1+d))^m = xi with
    # m (1+d) = observed
    observed, xi = 250.0, 1e-6
    lo, up = fluctuation_bounds(observed, xi)
    for m in (lo, up):
        d = observed / m - 1.0
        value = m * (d - (1.0 + d) * math.log1p(d))
        assert value == pytest.approx(math.log(xi), rel=1e-6)


def test_fluctuation_bounds_zero_observation():
    lo, up = fluctuation_bounds(0.0, 0.01)
    assert lo == 0.0
    assert up == pytest.approx(math.log(100.0), rel=1e-9)


def test_fluctuation_bounds_survive_underflowing_observations():
    # expected-count callers can pass values near the float floor; the
    # lower root then underflows and must come back as exactly 0, and the
    # upper root tends to -ln(xi), also where ln(xi)/observed overflows
    for observed in (1e-300, 5e-324):
        lo, up = fluctuation_bounds(observed, 1e-10)
        assert lo == 0.0
        assert up == pytest.approx(-math.log(1e-10), rel=1e-6)


def test_fluctuation_bounds_survive_the_largest_observations():
    # the second failure probability makes ln(xi)/observed underflow to 0
    for xi in (1e-10, math.nextafter(1.0, 0.0)):
        lo, up = fluctuation_bounds(1.7e308, xi)
        assert 0.0 <= lo <= 1.7e308 <= up < math.inf


def test_fluctuation_bounds_match_a_40_digit_lambert_w_reference():
    # with m = observed*u the tail equation reads u*e^-u = e^(c-1),
    # c = ln(xi)/observed, so the roots are m = -observed*W_k(-e^(c-1))
    # on the branches k = 0 (lower) and k = -1 (upper)
    mp = pytest.importorskip("mpmath")
    observations = (1e-300, 1e-3, 0.5, 1.0, 3.2, 437.0, 1e4, 1e8, 1e13, 1e300)
    with mp.workdps(40):
        for observed, xi in product(observations, (1e-10, 1e-6, 0.05, 0.3)):
            z = -mp.exp(mp.log(xi) / observed - 1)
            bounds = fluctuation_bounds(observed, xi)
            for got, branch, outward in zip(bounds, (0, -1), (-1.0, 1.0)):
                want = -observed * mp.re(mp.lambertw(z, branch))
                if want < sys.float_info.min:
                    assert got == pytest.approx(float(want), abs=sys.float_info.min)
                    continue
                rel = float((got - want) / want)
                assert abs(rel) <= 1e-13, (observed, xi, branch, rel)
                # a bound may lie inside the interval only by rounding
                assert rel * outward >= -1e-14, (observed, xi, branch, rel)


def test_fluctuation_bounds_widen_with_confidence():
    lo1, up1 = fluctuation_bounds(500.0, 1e-3)
    lo2, up2 = fluctuation_bounds(500.0, 1e-9)
    assert lo2 < lo1 and up2 > up1


def test_fluctuation_bounds_coverage():
    # the interval must trap the true mean at least 1 - 2 xi of the time;
    # being a Chernoff construction it is in fact far more conservative
    mean, xi = 50.0, 0.05
    rng = np.random.default_rng(77)
    draws = rng.poisson(mean, size=100_000)
    cache = {}
    covered = 0
    for x in draws:
        if x not in cache:
            cache[x] = fluctuation_bounds(float(x), xi)
        lo, up = cache[x]
        covered += lo <= mean <= up
    assert covered / draws.size >= 1.0 - 2.0 * xi


def test_fluctuation_bounds_validation():
    with pytest.raises(ValueError):
        fluctuation_bounds(-1.0, 0.01)
    with pytest.raises(ValueError):
        fluctuation_bounds(10.0, 0.0)
    with pytest.raises(ValueError):
        fluctuation_bounds(10.0, 1.0)


# ------------------------------------------------------------- decoy bounds

def test_decoy_bounds_frozen_reference_point(ref_expected, ref_src, ref_sec):
    b = decoy_bounds(ref_expected, ref_src, ref_sec)
    assert b.feasible
    assert b.y0_low == pytest.approx(9.905019679857915e-09, rel=1e-9, abs=0.0)
    assert b.y0_up == pytest.approx(1.437140663836801e-08, rel=1e-9, abs=0.0)
    assert b.y1_alice_low == pytest.approx(2.758620727541475e-06, rel=1e-9, abs=0.0)
    assert b.y1_bob_low == pytest.approx(2.747965857810951e-06, rel=1e-9, abs=0.0)
    assert b.n1_low == pytest.approx(1542723.0496510528, rel=1e-9, abs=0.0)
    assert b.phase_error_up == pytest.approx(0.06221091291333743, rel=1e-9, abs=0.0)


def test_decoy_bounds_close_to_ground_truth(big_desk_session):
    tally, src = big_desk_session
    b = decoy_bounds(tally, src, desk_security())
    truth = (tally.rows[(SIGNAL, MUZ, VAC)].single_photon_events
             + tally.rows[(SIGNAL, VAC, MUZ)].single_photon_events)
    assert b.feasible
    assert b.n1_low <= truth
    assert b.n1_low >= 0.7 * truth


def test_decoy_bounds_starved_session_is_infeasible():
    tally = SessionTally(n_pulses=1e6)
    tally.counts[:, 0] = 1000.0  # pulses_sent of every row
    src, sec = desk_source(), desk_security()
    b = decoy_bounds(tally, src, sec)
    assert not b.feasible
    assert b.n1_low == 0.0
    assert b.phase_error_up == 0.5


def test_decoy_bounds_require_all_rows():
    tally = SessionTally(n_pulses=1e6)
    tally.counts[ROW_INDEX[(DECOY, VAC, VAC)], 0] = 10.0
    with pytest.raises(Infeasible):
        decoy_bounds(tally, desk_source(), desk_security())


# -------------------------------------------------------------------- aopp

def _aopp_oracle(a, b, pairs):
    """Re-derive survival and distilled bits from the stated rules alone."""
    survived = []
    bits_a, bits_b = [], []
    for i, j in pairs:
        keep = (int(a[i]) + int(a[j])) % 2 == 1
        survived.append(keep)
        if keep:
            lead = sorted((int(i), int(j)))[0]
            bits_a.append(int(a[lead]))
            bits_b.append(int(b[lead]))
    return survived, bits_a, bits_b


def test_aopp_matches_enumeration_on_small_strings():
    for n in range(1, 5):
        for bits in product((0, 1), repeat=2 * n):
            a = np.array(bits[:n], dtype=np.uint8)
            b = np.array(bits[n:], dtype=np.uint8)
            res = aopp(a, b, seed=13)
            ones = res.pairs[:, 0]
            zeros = res.pairs[:, 1]
            assert np.all(b[ones] == 1) and np.all(b[zeros] == 0)
            assert res.n_pairs == min(int(b.sum()), int(n - b.sum()))
            survived, bits_a, bits_b = _aopp_oracle(a, b, res.pairs)
            assert list(res.kept) == survived
            assert list(res.bits_alice) == bits_a
            assert list(res.bits_bob) == bits_b


def test_aopp_pairing_depends_only_on_receiver_bits():
    rng = np.random.default_rng(5)
    b = (rng.random(200) < 0.4).astype(np.uint8)
    a1 = (rng.random(200) < 0.5).astype(np.uint8)
    a2 = (rng.random(200) < 0.5).astype(np.uint8)
    r1 = aopp(a1, b, seed=99)
    r2 = aopp(a2, b, seed=99)
    assert np.array_equal(r1.pairs, r2.pairs)


def test_aopp_seed_forms_are_equivalent():
    rng = np.random.default_rng(4)
    a = (rng.random(300) < 0.5).astype(np.uint8)
    b = (rng.random(300) < 0.5).astype(np.uint8)
    r1 = aopp(a, b, seed=21)
    r2 = aopp(a, b, np.random.default_rng(21))
    assert np.array_equal(r1.pairs, r2.pairs)
    assert np.array_equal(r1.bits_alice, r2.bits_alice)


def test_aopp_agreeing_strings_survive_everywhere():
    rng = np.random.default_rng(8)
    b = (rng.random(400) < 0.5).astype(np.uint8)
    res = aopp(b.copy(), b, seed=3)
    assert res.n_kept == res.n_pairs
    assert np.array_equal(res.bits_alice, res.bits_bob)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40),
    seed=st.integers(0, 2**32),
)
def test_aopp_pairing_rules(bits, seed):
    a = np.array([x for x, _ in bits], dtype=np.uint8)
    b = np.array([y for _, y in bits], dtype=np.uint8)
    res = aopp(a, b, seed=seed)
    one, zero = res.pairs.T
    assert res.pairs.shape == (res.n_pairs, 2) and res.pairs.dtype == np.int64
    assert np.all(b[one] == 1) and np.all(b[zero] == 0)
    assert np.unique(res.pairs).size == res.pairs.size
    assert res.n_pairs == min(int(b.sum()), b.size - int(b.sum()))
    assert np.array_equal(res.kept, a[one] != a[zero])
    lead = np.minimum(one, zero)[res.kept]
    assert np.array_equal(res.bits_alice, a[lead])
    assert np.array_equal(res.bits_bob, b[lead])
    # a kept pair holds two errors or none, so pairing never adds a lone error
    error = a != b
    assert np.array_equal(error[one][res.kept], error[zero][res.kept])


def test_aopp_degenerate_inputs():
    empty = aopp(np.zeros(0, np.uint8), np.zeros(0, np.uint8), seed=1)
    assert empty.n_pairs == 0 and empty.n_kept == 0
    ones = aopp(np.ones(10, np.uint8), np.ones(10, np.uint8), seed=1)
    assert ones.n_pairs == 0
    with pytest.raises(ValueError):
        aopp(np.array([0, 2], np.uint8), np.array([0, 1], np.uint8), seed=1)
    with pytest.raises(ValueError):
        aopp(np.zeros(3, np.uint8), np.zeros(4, np.uint8), seed=1)


@pytest.mark.parametrize("alice, bob", [
    ([0.7, 1.0], [1, 0]),
    (np.array([256, 1]), np.array([1, 0])),
    ([1, 0], [1, -1]),
    ([math.nan, 1.0], [1, 0]),
])
def test_aopp_refuses_values_that_are_not_bits(alice, bob):
    # each is checked before the uint8 cast, which would pair it as a 0
    with pytest.raises(ValueError, match="only 0 and 1"):
        aopp(alice, bob, 1)


def test_aopp_takes_bool_and_uint8_bits_alike():
    rng = np.random.default_rng(17)
    a, b = rng.random(60) < 0.5, rng.random(60) < 0.4
    as_bool = aopp(a, b, seed=5)
    as_uint8 = aopp(a.astype(np.uint8), b.astype(np.uint8), seed=5)
    assert np.array_equal(as_bool.pairs, as_uint8.pairs)
    assert as_bool.bits_alice.dtype == np.uint8
    assert np.array_equal(as_bool.bits_alice, as_uint8.bits_alice)
    assert np.array_equal(as_bool.bits_bob, as_uint8.bits_bob)


def test_aopp_shuffling_preserves_error_statistics():
    # relabeling positions changes which bits pair up but not the
    # distribution of the distilled error rate
    rng = np.random.default_rng(31)
    n = 400
    a = (rng.random(n) < 0.5).astype(np.uint8)
    flips = rng.random(n) < 0.27
    b = np.where(flips, 1 - a, a).astype(np.uint8)
    b = 1 - b  # receiver convention: heralds where he stayed quiet read 1
    perm = rng.permutation(n)

    def qber_samples(aa, bb, n_rounds):
        out = []
        for s in range(n_rounds):
            res = aopp(aa, bb, seed=1000 + s)
            if res.n_kept:
                out.append(np.mean(res.bits_alice != res.bits_bob))
        return np.array(out)

    q1 = qber_samples(a, b, 150)
    q2 = qber_samples(a[perm], b[perm], 150)
    se = math.sqrt(q1.var() / q1.size + q2.var() / q2.size)
    assert abs(q1.mean() - q2.mean()) < 4.0 * se


# --------------------------------------------------- phase error propagation

def test_post_aopp_phase_error_anchors():
    assert post_aopp_phase_error(0.0) == 0.0
    assert post_aopp_phase_error(0.5) == pytest.approx(0.5)
    # doubling rule lands the reference-scale bound in the expected band
    mapped = post_aopp_phase_error(0.0622106604774936)
    assert mapped == pytest.approx(2 * 0.0622106604774936 * (1 - 0.0622106604774936))
    assert 0.10 <= mapped <= 0.17


def test_post_aopp_phase_error_maps_every_rate_past_half_to_half():
    # the cap at one half, then 2 e (1 - e), both exact
    assert post_aopp_phase_error(1.0) == 0.5
    assert post_aopp_phase_error(0.75) == 0.5


def test_post_aopp_phase_error_monotone_and_capped():
    grid = np.linspace(0.0, 0.5, 26)
    vals = [post_aopp_phase_error(e) for e in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert post_aopp_phase_error(0.9) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        post_aopp_phase_error(1.5)


# ----------------------------------------------------------------- key rate

def test_key_rate_frozen_session_aggregates():
    sec = reference_security()
    report = key_rate(244731.0, 0.1336, 558729.0, 0.0212, 1.007e13, sec)
    # frozen full-precision value of the secret fraction for these inputs
    assert report.rate_per_pulse == pytest.approx(9.64024628471607e-10, rel=1e-12, abs=0.0)
    assert report.secret_bits == pytest.approx(
        report.privacy_bits - report.error_correction_bits
        - report.correctness_bits - report.secrecy_bits, rel=1e-12,
    )
    assert report.privacy_bits == pytest.approx(
        244731.0 * (1.0 - binary_entropy(0.1336)), rel=1e-12
    )


def test_key_rate_monotone_in_error_rates():
    sec = reference_security()
    base = key_rate(2.4e5, 0.13, 5.6e5, 0.02, 1e13, sec).rate_per_pulse
    rates_phase = [
        key_rate(2.4e5, e, 5.6e5, 0.02, 1e13, sec).rate_per_pulse
        for e in np.linspace(0.05, 0.45, 9)
    ]
    rates_bit = [
        key_rate(2.4e5, 0.13, 5.6e5, e, 1e13, sec).rate_per_pulse
        for e in np.linspace(0.0, 0.45, 10)
    ]
    assert all(a >= b for a, b in zip(rates_phase, rates_phase[1:]))
    assert all(a >= b for a, b in zip(rates_bit, rates_bit[1:]))
    assert base > 0.0


def test_key_rate_validation():
    sec = reference_security()
    with pytest.raises(ValueError):
        key_rate(10.0, 0.1, 5.0, 0.02, 1e6, sec)  # untagged beyond sifted
    with pytest.raises(ValueError):
        key_rate(10.0, 0.1, 20.0, 0.02, 0.0, sec)
    report = key_rate(0.0, 0.5, 0.0, 0.0, 1e6, sec)
    assert report.rate_per_pulse < 0.0  # constants still get paid


def test_key_rate_takes_every_sifted_bit_as_untagged():
    # n_untagged may reach n_sifted: every distilled bit single-photon on both sides
    sec = reference_security()
    report = key_rate(5.6e5, 0.13, 5.6e5, 0.02, 1e13, sec)
    assert report.privacy_bits == 5.6e5 * (1.0 - binary_entropy(0.13))
    with pytest.raises(ValueError, match="n_untagged cannot exceed n_sifted"):
        key_rate(5.6e5 * (1.0 + 1e-11), 0.13, 5.6e5, 0.02, 1e13, sec)


@pytest.mark.parametrize("counts", [
    dict(n_sifted=math.nan),
    dict(n_untagged=math.nan),
    dict(n_pulses=math.nan),
    dict(n_pulses=math.inf),
    dict(n_untagged=math.inf, n_sifted=math.inf),
])
def test_key_rate_refuses_counts_that_are_not_finite(counts):
    session = dict(n_untagged=2.4e5, phase_error_rate=0.13, n_sifted=5.6e5, bit_error_rate=0.02,
                   n_pulses=1e13)
    with pytest.raises(ValueError, match="n_pulses, n_sifted and n_untagged must be finite"):
        key_rate(**{**session, **counts}, sec=reference_security())


def test_key_rate_checks_finiteness_after_its_other_checks():
    sec = reference_security()
    with pytest.raises(ValueError, match="n_pulses must be > 0"):
        key_rate(2.4e5, 0.13, 5.6e5, 0.02, -math.inf, sec)
    with pytest.raises(ValueError, match="counts must be >= 0"):
        key_rate(-math.inf, 0.13, 5.6e5, 0.02, 1e13, sec)
    with pytest.raises(ValueError, match="phase_error_rate must lie in"):
        key_rate(math.nan, math.nan, 5.6e5, 0.02, 1e13, sec)


@pytest.mark.parametrize("overrides", [
    dict(eps_cor=1.2e-308),
    dict(eps_pa=1e-300, eps_hat=1e-8),
    dict(eps_pa=1e-8, eps_hat=1e-300),
])
def test_the_smallest_accepted_budgets_are_charged_finitely(overrides):
    sec = dataclasses.replace(reference_security(), **overrides)
    report = key_rate(244731.0, 0.1336, 558729.0, 0.0212, 1.007e13, sec)
    assert math.isfinite(report.correctness_bits) and math.isfinite(report.secrecy_bits)
    assert math.isfinite(report.rate_per_pulse)


# ------------------------------------------------------------ full pipeline

def test_expected_chain_reference_scale(ref_expected, ref_src, ref_sec):
    analysis = expected_post_processing(ref_expected, ref_src, ref_sec)
    assert analysis.decoy.feasible
    rate = analysis.report.rate_per_pulse
    # frozen regression value; the loose band below is the real contract
    assert rate == pytest.approx(7.656948558080954e-10, rel=1e-9, abs=0.0)
    assert 9.22e-10 / 3.0 < rate < 9.22e-10 * 3.0
    assert 0.10 <= analysis.phase_error_rate <= 0.17
    assert analysis.n_untagged <= analysis.n_sifted
    eta = 10.0 ** (-10.6)
    assert rate >= 10.0 * plob_bound(eta)
    assert analysis.report.n_pulses == REFERENCE_PULSES


@pytest.mark.parametrize("mu1", [1e-310])
def test_the_smallest_accepted_mu1_runs_the_decoy_analysis(desk, mu1):
    link, det, src, sec = desk
    src = dataclasses.replace(src, mu1=mu1)
    analysis = expected_post_processing(expected_tallies(link, det, src, 1e10), src, sec)
    # no provable single photons at so dim a decoy, and a finite rate
    assert not analysis.decoy.feasible
    assert math.isfinite(analysis.decoy.y1_alice_low) and math.isfinite(analysis.decoy.y1_bob_low)
    assert math.isfinite(analysis.report.rate_per_pulse)


@pytest.mark.parametrize("mu1", [2e-323, 1e-315])
def test_a_mu1_whose_yield_bound_overflows_is_refused(desk, mu1):
    # SourceParams accepts these, but the yield bound's quotient overflows to -inf
    link, det, src, sec = desk
    src = dataclasses.replace(src, mu1=mu1)
    tally = expected_tallies(link, det, src, 1e10)
    with pytest.raises(Infeasible, match="mu1 is too small: the single-photon yield bound"):
        decoy_bounds(tally, src, sec)


def test_an_empty_receiver_bit_goes_through_the_one_pairing_step(desk):
    # no noise and no signal light: the signal windows herald nothing, so a
    # receiver bit has no heralds while the decoy rows stay feasible
    link, det, src, sec = desk
    link = dataclasses.replace(link, noise_per_pulse=0.0)
    src = dataclasses.replace(src, muz=0.0)
    analysis = expected_post_processing(expected_tallies(link, det, src, 1e10), src, sec)
    assert analysis.decoy.feasible
    assert analysis.pair_count == analysis.survival_fraction == 0.0
    assert analysis.n_sifted == analysis.n_untagged == 0.0
    # the same rule as the sampled chain's empty aopp
    assert analysis.phase_error_rate == post_aopp_phase_error(analysis.decoy.phase_error_up)
    # frozen: no privacy either way, so only the constant terms are charged
    assert analysis.report.rate_per_pulse == -2.0031568569324174e-08


@pytest.mark.parametrize("empty_bit", [0, 1])
def test_one_receiver_bit_without_heralds_leaves_nothing_to_pair(desk, empty_bit):
    # a hand-built tally: the signal rows of one Bob bit hold no heralds, the
    # other bit's rows keep theirs, so only one receiver group is empty
    link, det, src, sec = desk
    tally = expected_tallies(link, det, src, 1e10)
    for kind, la, lb in ROW_INDEX:
        if kind == SIGNAL and z_bit_assignment(la == MUZ, lb == MUZ)[1] == empty_bit:
            tally.counts[ROW_INDEX[(kind, la, lb)], 1:] = 0.0
    cells = tally.key_bit_cells()
    assert cells[0, empty_bit] + cells[1, empty_bit] == 0.0
    assert cells[0, 1 - empty_bit] + cells[1, 1 - empty_bit] > 0.0
    analysis = expected_post_processing(tally, src, sec)
    assert analysis.pair_count == analysis.survival_fraction == 0.0
    assert analysis.n_sifted == analysis.n_untagged == analysis.bit_error_rate == 0.0


def test_expected_chain_scales_with_session_length(desk):
    link, det, src, sec = desk
    rates = []
    for n in (1e9, 2e9, 4e9, 8e9):
        tally = expected_tallies(link, det, src, n)
        rates.append(expected_post_processing(tally, src, sec).report.rate_per_pulse)
    # longer sessions only sharpen the statistics
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_mc_chain_desk_scale(big_desk_session):
    tally, src = big_desk_session
    analysis = mc_post_processing(tally, src, desk_security(), seed=55)
    assert analysis.decoy.feasible
    assert analysis.bit_error_rate < tally.pre_pairing_qber()
    assert analysis.n_untagged <= analysis.n_sifted
    assert analysis.pair_count >= analysis.n_sifted


def test_mc_chain_pairing_seed_independent_of_sampling(big_desk_session):
    tally, src = big_desk_session
    a = mc_post_processing(tally, src, desk_security(), seed=1)
    b = mc_post_processing(tally, src, desk_security(), seed=1)
    c = mc_post_processing(tally, src, desk_security(), seed=2)
    assert a.bit_error_rate == b.bit_error_rate
    assert a.n_sifted == b.n_sifted
    assert (c.n_sifted, c.bit_error_rate) != (a.n_sifted, a.bit_error_rate)
