import hashlib
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snslab import (
    DetectorModel,
    LinkModel,
    SessionTally,
    SourceParams,
    TallyRow,
    click_probabilities,
    expected_tallies,
    monte_carlo_session,
    z_bit_assignment,
)
from snslab.model import channel_transmittance
from snslab.presets import desk_detector, desk_link, desk_source
from snslab.simulate import (
    DECOY, MC_CHUNK, MC_MAX_PULSES, MU1, MU2, MUZ, SIGNAL, VAC, _chunk_rng, _lone_clicks, _N_ROWS,
    _sample_chunk, row_keys,
)

from conftest import balanced_source

TALLY_FIELDS = ("pulses_sent", "one_detector_events", "error_events",
                "accepted_events", "single_photon_events")


# ---------------------------------------------------------------- click model

def test_click_probabilities_against_integral_oracle():
    # frozen from a 2e6-point trapezoid over the announced phase, written
    # directly from the per-angle click expressions
    left, right, both = click_probabilities(0.1, 0.4, 0.3, 0.2, 1e-3)
    assert left == pytest.approx(0.05206270824729629, abs=1e-12)
    assert right == pytest.approx(0.052062708247296335, abs=1e-12)
    assert both == pytest.approx(0.0018312206453368904, abs=1e-12)


def test_click_probabilities_bernoulli_oracle():
    # straight Monte Carlo over the announced phase, no shared code with
    # the closed form
    rng = np.random.default_rng(20240901)
    n = 1_000_000
    ia, ib, ea, eb, nu = 0.2, 0.3, 0.25, 0.15, 5e-4
    x, y = ia * ea, ib * eb
    theta = rng.random(n) * 2.0 * np.pi
    p_l = 1.0 - (1.0 - nu) * np.exp(-(x + y + 2.0 * np.sqrt(x * y) * np.cos(theta)) / 2.0)
    p_r = 1.0 - (1.0 - nu) * np.exp(-(x + y - 2.0 * np.sqrt(x * y) * np.cos(theta)) / 2.0)
    click_l = rng.random(n) < p_l
    click_r = rng.random(n) < p_r
    mc_left = np.mean(click_l & ~click_r)
    mc_right = np.mean(click_r & ~click_l)
    left, right, _ = click_probabilities(ia, ib, ea, eb, nu)
    se = math.sqrt(left * (1.0 - left) / n)
    assert abs(mc_left - left) < 3.0 * se
    assert abs(mc_right - right) < 3.0 * se


def test_click_probabilities_edge_cases():
    # dark counts only
    left, right, both = click_probabilities(0.0, 0.0, 0.5, 0.5, 1e-3)
    assert left == pytest.approx(1e-3 * (1.0 - 1e-3), rel=1e-12, abs=0.0)
    assert right == pytest.approx(1e-3 * (1.0 - 1e-3), rel=1e-12, abs=0.0)
    assert both == pytest.approx(1e-6, rel=1e-12, abs=0.0)
    # nothing at all
    assert click_probabilities(0.0, 0.0, 0.5, 0.5) == (0.0, 0.0, 0.0)


def test_click_probabilities_port_symmetry():
    # averaged over a uniform phase the two ports are interchangeable even
    # for unbalanced arms
    left, right, _ = click_probabilities(0.37, 0.08, 0.6, 0.1, 2e-4)
    assert left == pytest.approx(right, rel=1e-12, abs=0.0)


def test_click_probabilities_validation():
    with pytest.raises(ValueError):
        click_probabilities(-0.1, 0.4, 0.3, 0.2)
    with pytest.raises(ValueError):
        click_probabilities(0.1, 0.4, 1.3, 0.2)
    with pytest.raises(ValueError):
        click_probabilities(0.1, 0.4, 0.3, 0.2, 1.0)
    with pytest.raises(ValueError, match="intensity_b must lie in"):
        click_probabilities(0.1, 100.5, 0.3, 0.2)


def test_click_probabilities_match_a_50_digit_reference():
    # full circle: the mean of exp(+-r cos theta) is I_0(r), so
    # lone = A I_0 - A^2 and both = 1 - 2 A I_0 + A^2
    mp = pytest.importorskip("mpmath")
    levels = (0.0, 0.1, 0.4, 0.45, 3.0, 100.0)
    ia, ib = (np.array(v) for v in zip(*itertools.product(levels, levels)))
    with mp.workdps(50):
        for eta, nu in itertools.product((3e-6, 1e-3, 0.1, 1.0), (0.0, 6e-9, 1e-4)):
            got = click_probabilities(ia, ib, eta, eta, nu)
            for i, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
                x, y = mp.mpf(a) * eta, mp.mpf(b) * eta
                big_a = (1 - mp.mpf(nu)) * mp.exp(-(x + y) / 2)
                a_i0 = big_a * mp.besseli(0, mp.sqrt(x * y))
                lone = a_i0 - big_a**2
                for value, want in ((got[0][i], lone), (got[1][i], lone),
                                    (got[2][i], 1 - 2 * a_i0 + big_a**2)):
                    if want == 0:
                        assert value == 0.0, (a, b, eta, nu)
                    else:
                        assert abs(value - want) <= 1e-14 * want, (a, b, eta, nu)


def test_phase_slice_clicks_match_a_50_digit_reference():
    # announced phase uniform on [-w, w] plus N(0, sigma^2) jitter: the mean
    # of exp(+-r cos theta) is I_0 + 2 sum_k (+-1)^k g_k I_k with
    # g_k = exp(-k^2 sigma^2 / 2) sin(k w) / (k w)
    mp = pytest.importorskip("mpmath")
    arriving = (1e-6, 0.05, 0.4, 3.0, 30.0, 100.0)
    with mp.workdps(50):
        for x, y in itertools.combinations_with_replacement(arriving, 2):
            r = mp.sqrt(mp.mpf(x) * y)
            bessel = [mp.besseli(0, r)]
            while bessel[-1] > mp.mpf(10) ** -45 * bessel[0]:
                bessel.append(mp.besseli(len(bessel), r))
            for sigma, w, nu in itertools.product((0.0, 0.34, 1.0), (0.01, 0.3, 1.5), (0.0, 1e-4)):
                def gain(k):
                    return np.sinc(k * (w / math.pi)) * np.exp(-0.5 * (k * sigma) ** 2)

                left, right, _ = _lone_clicks(np.array(x), np.array(y), nu, gain)
                big_a = (1 - mp.mpf(nu)) * mp.exp(-(mp.mpf(x) + y) / 2)
                for value, sign in ((left, 1), (right, -1)):
                    mean = bessel[0] + 2 * mp.fsum(
                        sign**k * mp.exp(-(k * mp.mpf(sigma)) ** 2 / 2)
                        * mp.sin(k * mp.mpf(w)) / (k * mp.mpf(w)) * i_k
                        for k, i_k in enumerate(bessel[1:], start=1)
                    )
                    want = big_a * mean - big_a**2
                    error = abs(float(value) - want)
                    assert error <= 1e-15, (x, y, sigma, w, nu, sign)
                    if r <= 1:
                        assert error <= 1e-10 * want, (x, y, sigma, w, nu, sign)


# ------------------------------------------------------------------- tallies

def test_z_bit_assignment_truth_table():
    assert z_bit_assignment(True, False) == (1, 1, False)
    assert z_bit_assignment(False, True) == (0, 0, False)
    assert z_bit_assignment(True, True) == (1, 0, True)
    assert z_bit_assignment(False, False) == (0, 1, True)


def test_tally_row_validation():
    # one row of counts: pulses, heralds, errors, accepted, single-photon
    def check(*row):
        tally = SessionTally(n_pulses=1000.0)
        tally.counts[0] = row
        tally.validate()

    check(100.0, 5.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        check(100.0, 5.0, 6.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        check(1.0, 2.0, 0.0, 0.0, 0.0)


def test_row_keys_cover_all_combinations():
    keys = row_keys()
    assert len(keys) == 13
    assert len(set(keys)) == 13
    decoy = [k for k in keys if k[0] == DECOY]
    signal = [k for k in keys if k[0] == SIGNAL]
    assert len(decoy) == 9 and len(signal) == 4
    assert (SIGNAL, MUZ, VAC) in keys and (DECOY, MU2, MU1) in keys


def _paper_scale(src=None):
    from snslab.presets import (
        reference_detector, reference_link, reference_source,
    )
    return reference_link(), reference_detector(), src or reference_source()


def test_expected_tallies_structure():
    link, det, src = _paper_scale()
    tally = expected_tallies(link, det, src, 1e12)
    assert set(tally.rows) == set(row_keys())
    tally.validate()
    total = sum(r.pulses_sent for r in tally.rows.values())
    # mixed windows are dropped: one side signal, the other decoy
    mixed = 2.0 * src.p_signal_window * (1.0 - src.p_signal_window)
    assert total == pytest.approx(1e12 * (1.0 - mixed), rel=1e-9)
    # matched signal combos are all error, single-send combos error free
    assert tally.rows[(SIGNAL, MUZ, MUZ)].error_events == pytest.approx(
        tally.rows[(SIGNAL, MUZ, MUZ)].one_detector_events
    )
    assert tally.rows[(SIGNAL, MUZ, VAC)].error_events == 0.0
    assert tally.rows[(SIGNAL, VAC, MUZ)].error_events == 0.0


def test_expected_tallies_linear_in_session_length():
    link, det, src = _paper_scale()
    t1 = expected_tallies(link, det, src, 1e10)
    t2 = expected_tallies(link, det, src, 2e10)
    for key in row_keys():
        for f in TALLY_FIELDS:
            assert getattr(t2.rows[key], f) == pytest.approx(
                2.0 * getattr(t1.rows[key], f), rel=1e-12
            )


def test_expected_herald_fraction_at_reference_scale():
    link, det, src = _paper_scale()
    tally = expected_tallies(link, det, src, 1.007e13)
    fraction = tally.total_one_detector_events() / tally.n_pulses
    # observed valid-detection fraction for this configuration is about
    # 5.28e6 / 1.007e13; the model has to land within a factor of two
    target = 5.28e6 / 1.007e13
    assert target / 2.0 < fraction < target * 2.0


def test_expected_decoy_slice_error_rate_at_reference_scale():
    link, det, src = _paper_scale()
    tally = expected_tallies(link, det, src, 1e12)
    row = tally.rows[(DECOY, MU1, MU1)]
    slice_qber = row.error_events / row.accepted_events
    # default slice width is tuned for roughly five percent here
    assert 0.04 < slice_qber < 0.06


def test_expected_pre_pairing_qber_desk_scale():
    tally = expected_tallies(desk_link(), desk_detector(), desk_source(), 1e6)
    assert 0.24 <= tally.pre_pairing_qber() <= 0.29


def test_heralded_fraction_monotone_in_loss():
    det, src = desk_detector(), desk_source()
    fractions = []
    for total_db in (5.0, 10.0, 20.0, 30.0, 40.0):
        link = desk_link(total_db)
        tally = expected_tallies(link, det, src, 1e6)
        fractions.append(tally.total_one_detector_events())
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_silent_source_produces_no_heralds():
    link = LinkModel(length_a_km=50.0, length_b_km=50.0, atten_db_per_km=0.2,
                     station_loss_db=0.0, noise_per_pulse=0.0)
    src = SourceParams(mu1=0.1, mu2=0.4, muz=0.45, p_signal_window=0.5,
                       p_mu1=0.0, p_mu2=0.0, p_vac=1.0, epsilon_send=0.0,
                       misalignment=0.0)
    det = desk_detector()
    assert expected_tallies(link, det, src, 1e6).total_one_detector_events() == 0.0
    tally = monte_carlo_session(link, det, src, 200_000, seed=3)
    assert tally.total_one_detector_events() == 0.0
    assert tally.z_bits_alice.size == 0


def _slice_reference(x, y, sigma, half_width, noise):
    # the accepted slice written out for one row on the grid the closed form
    # replaced: 201 announced phases times 41 Gauss-Hermite jitter nodes
    delta = (np.arange(201) + 0.5) / 201
    delta = (2.0 * delta - 1.0) * half_width
    nodes, weights = np.polynomial.hermite_e.hermegauss(41)
    weights = weights / math.sqrt(2.0 * math.pi)
    theta = delta[:, None] + sigma * nodes[None, :]
    cross = 2.0 * math.sqrt(x * y) * np.cos(theta)
    p_l = 1.0 - (1.0 - noise) * np.exp(-0.5 * (x + y + cross))
    p_r = 1.0 - (1.0 - noise) * np.exp(-0.5 * (x + y - cross))
    lone_l = (p_l * (1.0 - p_r)) @ weights
    lone_r = (p_r * (1.0 - p_l)) @ weights
    return float(np.mean(lone_l + lone_r)), float(np.mean(lone_r))


def _reference_tallies(link, det, src, n_pulses, half_width):
    # row by row, one scalar click_probabilities call per row
    eta_a, eta_b = channel_transmittance(link, det)
    nu, sigma = link.noise_per_pulse, src.jitter_sigma_rad
    accept_frac = 2.0 * half_width / math.pi
    level = {VAC: 0.0, MU1: src.mu1, MU2: src.mu2, MUZ: src.muz}
    mix = {VAC: src.p_vac, MU1: src.p_mu1, MU2: src.p_mu2}
    eps = src.epsilon_send
    combo = {(MUZ, VAC): eps * (1.0 - eps), (VAC, MUZ): eps * (1.0 - eps),
             (MUZ, MUZ): eps * eps, (VAC, VAC): (1.0 - eps) ** 2}
    rows = {}
    for kind, la, lb in row_keys():
        ia, ib = level[la], level[lb]
        if kind == DECOY:
            pulses = n_pulses * src.p_decoy_window**2 * mix[la] * mix[lb]
        else:
            pulses = n_pulses * src.p_signal_window**2 * combo[(la, lb)]
        lone_l, lone_r, _ = click_probabilities(ia, ib, eta_a, eta_b, nu)
        row = TallyRow(pulses_sent=pulses, one_detector_events=pulses * (lone_l + lone_r))
        if kind == DECOY and ia > 0.0 and ib > 0.0:
            herald, wrong = _slice_reference(ia * eta_a, ib * eta_b, sigma, half_width, nu)
            row.accepted_events = pulses * accept_frac * herald
            row.error_events = pulses * accept_frac * wrong
        if kind == SIGNAL and la == lb:
            row.error_events = row.one_detector_events
        total = ia + ib
        p1 = 0.0
        if total > 0.0:
            arrive = (ia * eta_a + ib * eta_b) / total
            p1 = arrive * (1.0 - nu) + (1.0 - arrive) * 2.0 * nu * (1.0 - nu)
        row.single_photon_events = pulses * math.exp(-total) * total * p1
        rows[(kind, la, lb)] = row
    return rows


@st.composite
def _sources(draw, top=1.5):
    # intensities up to top: mu1 up to a third of it, muz up to all of it
    unit = st.floats(0.0, 1.0)
    mu1 = draw(st.floats(1e-3, top / 3.0))
    p_mu1 = draw(unit)
    p_mu2 = draw(unit) * (1.0 - p_mu1)
    return SourceParams(
        mu1=mu1, mu2=mu1 + draw(st.floats(1e-3, top * 2.0 / 3.0)), muz=draw(st.floats(0.0, top)),
        p_signal_window=draw(unit), p_mu1=p_mu1, p_mu2=p_mu2, p_vac=1.0 - p_mu1 - p_mu2,
        epsilon_send=draw(unit), misalignment=draw(st.floats(0.0, 0.45)),
    )


@settings(max_examples=60, deadline=None)
@given(
    link=st.builds(
        LinkModel,
        length_a_km=st.floats(0.0, 400.0), length_b_km=st.floats(0.0, 400.0),
        atten_db_per_km=st.floats(0.0, 0.4), station_loss_db=st.floats(0.0, 5.0),
        noise_per_pulse=st.one_of(st.just(0.0), st.floats(1e-10, 1e-2)),
    ),
    efficiency=st.floats(0.0, 1.0),
    src=_sources(),
    n_pulses=st.floats(0.0, 1e14),
    half_width=st.floats(0.01, 1.5),
)
def test_expected_tallies_match_the_row_by_row_evaluation(
    link, efficiency, src, n_pulses, half_width
):
    det = DetectorModel(efficiency=efficiency, pulse_rate_hz=1e6)
    tally = expected_tallies(link, det, src, n_pulses, half_width)
    reference = _reference_tallies(link, det, src, n_pulses, half_width)
    assert list(tally.rows) == list(reference)
    for key, ref in reference.items():
        row = tally.rows[key]
        exact = ("pulses_sent", "one_detector_events", "accepted_events", "error_events")
        if key[0] == DECOY:
            # the reference's 201 x 41 slice grid is off by up to 3.8e-4
            # relative (at jitter sigma 2.15 rad and r = 1.5) and rounds
            # 1 - (1 - noise) exp(...) to some 1e-16 per pulse
            exact = exact[:2]
            for f in ("accepted_events", "error_events"):
                assert getattr(row, f) == pytest.approx(
                    getattr(ref, f), rel=5e-4, abs=1e-15 * ref.pulses_sent
                ), (key, f)
        for f in exact:
            assert getattr(row, f) == getattr(ref, f), (key, f)
        # np.exp and math.exp may differ in the last bit
        assert row.single_photon_events == pytest.approx(ref.single_photon_events,
                                                         rel=1e-15, abs=0.0), key
    # array intensities give exactly the per-pair scalar results
    levels = [0.0, src.mu1, src.mu2, src.muz]
    ia = np.repeat(levels, 4)
    ib = np.tile(levels, 4)
    eta_a, eta_b = channel_transmittance(link, det)
    args = (eta_a, eta_b, link.noise_per_pulse)
    arrays = click_probabilities(ia, ib, *args)
    scalars = [click_probabilities(a, b, *args) for a, b in zip(ia, ib)]
    for got, want in zip(arrays, zip(*scalars)):
        assert got.tolist() == list(want)


# -------------------------------------------------------------- monte carlo

def test_monte_carlo_matches_expected_tallies(big_desk_session, big_desk_expected):
    tally, _ = big_desk_session
    for key, erow in big_desk_expected.rows.items():
        mrow = tally.rows[key]
        for f in TALLY_FIELDS:
            e, m = getattr(erow, f), getattr(mrow, f)
            if e == 0.0:
                assert m == 0.0, (key, f)
                continue
            denom = big_desk_expected.n_pulses if f == "pulses_sent" else erow.pulses_sent
            sd = math.sqrt(e * max(1.0 - e / denom, 0.0))
            assert abs(m - e) <= 5.0 * sd, (key, f, m, e)


def test_monte_carlo_worker_count_is_invisible():
    link, det, src = desk_link(), desk_detector(), desk_source()
    a = monte_carlo_session(link, det, src, 300_000, seed=9, n_jobs=1)
    b = monte_carlo_session(link, det, src, 300_000, seed=9, n_jobs=3)
    for key in a.rows:
        for f in TALLY_FIELDS:
            assert getattr(a.rows[key], f) == getattr(b.rows[key], f)
    assert np.array_equal(a.z_bits_alice, b.z_bits_alice)
    assert np.array_equal(a.z_bits_bob, b.z_bits_bob)


def test_monte_carlo_seed_sensitivity():
    link, det, src = desk_link(), desk_detector(), desk_source()
    a = monte_carlo_session(link, det, src, 100_000, seed=1)
    b = monte_carlo_session(link, det, src, 100_000, seed=2)
    assert a.total_one_detector_events() != b.total_one_detector_events()


@pytest.mark.parametrize("half_width", [0.0, math.pi / 2, 2.0])
def test_both_tally_paths_refuse_a_bad_slice_half_width(half_width):
    link, det, src = desk_link(), desk_detector(), desk_source()
    with pytest.raises(ValueError, match="slice_half_width_rad"):
        expected_tallies(link, det, src, 1e6, half_width)
    with pytest.raises(ValueError, match="slice_half_width_rad"):
        monte_carlo_session(link, det, src, 200_000, seed=1, slice_half_width_rad=half_width)


def test_monte_carlo_validates_output(big_desk_session):
    tally, _ = big_desk_session
    tally.validate()
    assert tally.signal_heralded() == float(tally.z_bits_alice.size)
    assert 0.0 <= tally.pre_pairing_qber() <= 1.0


def test_session_tally_merge_is_additive():
    link, det, src = desk_link(), desk_detector(), desk_source()
    a = monte_carlo_session(link, det, src, 100_000, seed=5)
    b = monte_carlo_session(link, det, src, 60_000, seed=6)
    merged = SessionTally(n_pulses=0.0)
    merged.merge(a)
    merged.merge(b)
    assert merged.n_pulses == a.n_pulses + b.n_pulses
    assert merged.total_one_detector_events() == (
        a.total_one_detector_events() + b.total_one_detector_events()
    )
    assert np.array_equal(merged.counts, a.counts + b.counts)
    assert np.array_equal(merged.z_bits_alice, np.concatenate([a.z_bits_alice, b.z_bits_alice]))
    assert np.array_equal(merged.z_bits_bob, np.concatenate([a.z_bits_bob, b.z_bits_bob]))


def test_seeded_monte_carlo_stream_is_frozen():
    # 300 000 pulses span three chunks. Re-frozen at the commit "Draw only
    # what a click can read: a sparse chunk sampler, equal in law": the
    # sampler stopped taking eleven full-length draws per chunk and now
    # draws one row code per slot, the dark clicks as a count and positions,
    # and the phases only where a click can be read. That moved the stream
    # but not its law, which the agreement test against the two-step
    # reference below checks. The values were first frozen from the
    # row-dict tally at commit 331f1c0; they must not move without a stated
    # reason.
    tally = monte_carlo_session(desk_link(), desk_detector(), desk_source(), 300_000, seed=4)
    assert tally.n_pulses == 300_000.0
    assert [astuple(tally.rows[key]) for key in row_keys()] == [
        (3310.0, 2.0, 0.0, 0.0, 0.0),
        (5780.0, 45.0, 0.0, 0.0, 38.0),
        (488.0, 12.0, 0.0, 0.0, 6.0),
        (5682.0, 48.0, 0.0, 0.0, 41.0),
        (9680.0, 192.0, 1.0, 36.0, 156.0),
        (832.0, 26.0, 0.0, 3.0, 14.0),
        (479.0, 12.0, 0.0, 0.0, 7.0),
        (827.0, 34.0, 1.0, 8.0, 18.0),
        (81.0, 5.0, 0.0, 0.0, 3.0),
        (28832.0, 1105.0, 0.0, 0.0, 715.0),
        (29320.0, 1161.0, 0.0, 0.0, 769.0),
        (11011.0, 885.0, 885.0, 0.0, 380.0),
        (77971.0, 20.0, 20.0, 0.0, 0.0),
    ]
    bits = tally.z_bits_alice.tobytes() + tally.z_bits_bob.tobytes()
    assert tally.z_bits_alice.size == 3171
    assert hashlib.sha256(bits).hexdigest() == (
        "0d52bb0b2124164016c3e3fe26c56cd27d63c1d02fb3801b0acee0958e55a0f4"
    )


# The two-step chunk sampler that _sample_chunk replaced, kept as an
# independent reference: it draws every slot's roles, decoy picks, send
# decisions, phases and dark clicks at full length, one draw each, and it
# builds the row codes from them rather than from _row_pulses.

def _simulate_chunk(
    rng: np.random.Generator,
    n: int,
    src: SourceParams,
    eta_a: float,
    eta_b: float,
    nu: float,
    half_width: float,
) -> dict[str, np.ndarray]:
    """Sample one block of time slots. Draw order is part of the contract."""
    sigma = src.jitter_sigma_rad
    signal_a = rng.random(n) < src.p_signal_window
    signal_b = rng.random(n) < src.p_signal_window
    pick_a = rng.random(n)
    pick_b = rng.random(n)
    send_a = rng.random(n) < src.epsilon_send
    send_b = rng.random(n) < src.epsilon_send
    delta = rng.random(n) * (2.0 * np.pi)
    jitter = rng.standard_normal(n) * sigma
    theta_signal = rng.random(n) * (2.0 * np.pi)

    both_signal = signal_a & signal_b
    both_decoy = ~signal_a & ~signal_b

    # decoy intensity codes 0/1/2 for vac/mu1/mu2
    code_a = np.where(pick_a < src.p_vac, 0, np.where(pick_a < src.p_vac + src.p_mu1, 1, 2))
    code_b = np.where(pick_b < src.p_vac, 0, np.where(pick_b < src.p_vac + src.p_mu1, 1, 2))
    levels = np.array([0.0, src.mu1, src.mu2])
    ia = np.where(both_decoy, levels[code_a], np.where(both_signal & send_a, src.muz, 0.0))
    ib = np.where(both_decoy, levels[code_b], np.where(both_signal & send_b, src.muz, 0.0))

    theta = np.where(both_decoy, delta + jitter, theta_signal)

    emitted_a = rng.poisson(ia)
    emitted_b = rng.poisson(ib)
    arrived = rng.binomial(emitted_a, eta_a) + rng.binomial(emitted_b, eta_b)

    x = ia * eta_a
    y = ib * eta_b
    total = x + y
    with np.errstate(invalid="ignore", divide="ignore"):
        p_left_port = np.where(
            total > 0.0, (0.5 * total + np.sqrt(x * y) * np.cos(theta)) / total, 0.5
        )
    p_left_port = np.clip(p_left_port, 0.0, 1.0)
    n_left = rng.binomial(arrived, p_left_port)
    n_right = arrived - n_left
    click_l = (n_left > 0) | (rng.random(n) < nu)
    click_r = (n_right > 0) | (rng.random(n) < nu)

    lone = click_l ^ click_r
    left = lone & click_l

    # row codes: decoy pairs 0..8, signal combos 9..12, discarded -1
    row = np.full(n, -1, dtype=np.int64)
    row[both_decoy] = (3 * code_a + code_b)[both_decoy]
    signal_code = np.select(
        [send_a & ~send_b, ~send_a & send_b, send_a & send_b],
        [9, 10, 11],
        default=12,
    )
    row[both_signal] = signal_code[both_signal]

    wrapped0 = np.abs((delta + np.pi) % (2.0 * np.pi) - np.pi)
    wrappedpi = np.abs(delta - np.pi)
    in0 = wrapped0 <= half_width
    inpi = wrappedpi <= half_width
    both_lit = both_decoy & (ia > 0.0) & (ib > 0.0)
    accepted = both_lit & lone & (in0 | inpi)
    wrong = accepted & ((in0 & ~left) | (inpi & left))

    single = lone & ((emitted_a + emitted_b) == 1)
    z_herald = both_signal & lone
    bit_a, bit_b, _ = z_bit_assignment(send_a, send_b)
    z_error = z_herald & (send_a == send_b)
    return {
        "row": row,
        "lone": lone,
        "accepted": accepted,
        "wrong": wrong,
        "single": single,
        "z_herald": z_herald,
        "z_error": z_error,
        "bit_a": bit_a,
        "bit_b": bit_b,
    }


def _tally_chunk(data: dict[str, np.ndarray], n: int) -> SessionTally:
    row = data["row"]
    active = row >= 0
    # wrong-port errors occur only in decoy windows and key-bit errors only
    # in signal windows, so one error column serves both row kinds
    error = data["wrong"] | data["z_error"]
    columns = (active, data["lone"], error, data["accepted"], data["single"])
    counts = np.stack(
        [np.bincount(row[mask & active], minlength=_N_ROWS) for mask in columns],
        axis=1,
        dtype=float,
    )
    keep = data["z_herald"]
    bits_a = data["bit_a"][keep].astype(np.uint8)
    bits_b = data["bit_b"][keep].astype(np.uint8)
    return SessionTally(float(n), counts, bits_a, bits_b)


_BRIGHT_SOURCE = SourceParams(
    mu1=12.0, mu2=45.0, muz=30.0, p_signal_window=0.5, p_mu1=0.4, p_mu2=0.4, p_vac=0.2,
    epsilon_send=0.5, misalignment=0.1,
)
_BRIGHT_LINK = LinkModel(length_a_km=0.0, length_b_km=60.0, atten_db_per_km=0.2,
                         station_loss_db=0.0, noise_per_pulse=0.3)


@pytest.mark.parametrize(
    "src, link, half_width",
    [
        (desk_source(), desk_link(), 0.3),
        (balanced_source(), desk_link(), 0.3),
        (_BRIGHT_SOURCE, _BRIGHT_LINK, 1.5),
    ],
    ids=["desk", "balanced", "bright"],
)
def test_chunk_sampler_agrees_in_law_with_the_two_step_reference(src, link, half_width):
    # 16 chunks a side, each side on its own seeds; every cell is a sum of
    # independent per-slot indicators, so its variance is at most its mean
    det = desk_detector()
    eta_a, eta_b = channel_transmittance(link, det)
    args = (src, eta_a, eta_b, link.noise_per_pulse, half_width)
    old, new = SessionTally(n_pulses=0.0), SessionTally(n_pulses=0.0)
    for idx in range(16):
        data = _simulate_chunk(_chunk_rng(1000, idx), MC_CHUNK, *args)
        old.merge(_tally_chunk(data, MC_CHUNK))
        new.merge(_sample_chunk(_chunk_rng(2000, idx), MC_CHUNK, *args))
    assert new.n_pulses == old.n_pulses == 16.0 * MC_CHUNK
    zero = expected_tallies(link, det, src, old.n_pulses, half_width).counts == 0.0
    assert not old.counts[zero].any() and not new.counts[zero].any()
    gap = np.abs(old.counts - new.counts)
    assert np.all(gap <= 5.0 * np.sqrt(old.counts + new.counts)), (old.counts, new.counts)
    n_old, n_new = old.signal_heralded(), new.signal_heralded()
    q = (old.pre_pairing_qber() * n_old + new.pre_pairing_qber() * n_new) / (n_old + n_new)
    sd = math.sqrt(q * (1.0 - q) * (1.0 / n_old + 1.0 / n_new))
    assert abs(old.pre_pairing_qber() - new.pre_pairing_qber()) <= 5.0 * sd


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.one_of(st.sampled_from([1, MC_CHUNK]), st.integers(1, MC_CHUNK)),
    src=_sources(top=45.0),
    link=st.builds(
        LinkModel,
        length_a_km=st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
        length_b_km=st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
        atten_db_per_km=st.floats(0.0, 0.4), station_loss_db=st.floats(0.0, 5.0),
        noise_per_pulse=st.sampled_from([0.0, 1e-6, 1e-2, 0.3]),
    ),
    half_width=st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
)
@example(seed=4, n=MC_CHUNK, src=desk_source(), link=desk_link(), half_width=0.3)
@example(seed=0, n=1, src=desk_source(), link=desk_link(), half_width=0.3)
@example(seed=7, n=MC_CHUNK, src=_BRIGHT_SOURCE, link=_BRIGHT_LINK, half_width=1.5)
def test_chunk_sampler_keeps_the_exact_invariants_in_every_draw(seed, n, src, link, half_width):
    eta_a, eta_b = channel_transmittance(link, desk_detector())
    tally = _sample_chunk(
        _chunk_rng(seed, 0), n, src, eta_a, eta_b, link.noise_per_pulse, half_width
    )
    tally.validate()
    assert tally.n_pulses == float(n)
    bits_a, bits_b = tally.z_bits_alice, tally.z_bits_bob
    assert bits_a.size == bits_b.size == tally.signal_heralded()
    rows = tally.rows
    for combo in ((MUZ, MUZ), (VAC, VAC)):
        assert rows[(SIGNAL, *combo)].error_events == rows[(SIGNAL, *combo)].one_detector_events
    for combo in ((MUZ, VAC), (VAC, MUZ)):
        assert rows[(SIGNAL, *combo)].error_events == 0.0
    assert np.count_nonzero(bits_a != bits_b) == sum(
        rows[(SIGNAL, *combo)].error_events for combo in ((MUZ, MUZ), (VAC, VAC))
    )
    lit = {(DECOY, a, b) for a in (MU1, MU2) for b in (MU1, MU2)}
    for key, row in rows.items():
        if key not in lit:
            assert row.accepted_events == 0.0, key
        assert row.single_photon_events <= row.one_detector_events, key


@pytest.mark.parametrize("nu", [1e-4, 0.3])
def test_dark_clicks_of_a_silent_source_herald_at_two_nu_one_minus_nu(nu):
    # only the dark-count draw can click; a lone click has probability
    # 2 nu (1 - nu) in every slot, whatever its row
    link = LinkModel(length_a_km=50.0, length_b_km=50.0, atten_db_per_km=0.2,
                     station_loss_db=0.0, noise_per_pulse=nu)
    src = SourceParams(mu1=0.1, mu2=0.4, muz=0.45, p_signal_window=0.5, p_mu1=0.0,
                       p_mu2=0.0, p_vac=1.0, epsilon_send=0.0, misalignment=0.0)
    tally = monte_carlo_session(link, desk_detector(), src, 8 * MC_CHUNK, seed=12)
    p = 2.0 * nu * (1.0 - nu)
    for key, row in tally.rows.items():
        sd = math.sqrt(row.pulses_sent * p * (1.0 - p))
        assert abs(row.one_detector_events - row.pulses_sent * p) <= 5.0 * sd, key
        assert row.single_photon_events == 0.0


def test_sessions_past_the_cap_are_refused_before_the_first_chunk():
    link, det, src = desk_link(), desk_detector(), desk_source()
    with pytest.raises(ValueError, match="cap"):
        monte_carlo_session(link, det, src, int(MC_MAX_PULSES) + 1, seed=1)


@pytest.mark.parametrize("n_pulses", [MC_CHUNK - 1, MC_CHUNK + 1, 3 * MC_CHUNK + 7])
def test_session_tally_is_the_chunk_order_sum_of_its_chunks(n_pulses):
    link, det, src = desk_link(), desk_detector(), desk_source()
    eta_a, eta_b = channel_transmittance(link, det)
    seed = 11
    sizes = [min(MC_CHUNK, n_pulses - start) for start in range(0, n_pulses, MC_CHUNK)]
    parts = [
        _sample_chunk(_chunk_rng(seed, idx), size, src, eta_a, eta_b, link.noise_per_pulse, 0.3)
        for idx, size in enumerate(sizes)
    ]
    serial = monte_carlo_session(link, det, src, n_pulses, seed, n_jobs=1)
    threaded = monte_carlo_session(link, det, src, n_pulses, seed, n_jobs=2)
    for tally in (serial, threaded):
        assert tally.n_pulses == float(n_pulses)
        assert np.array_equal(tally.counts, sum(part.counts for part in parts))
        for side in ("z_bits_alice", "z_bits_bob"):
            want = np.concatenate([getattr(part, side) for part in parts])
            assert getattr(tally, side).tobytes() == want.tobytes()
