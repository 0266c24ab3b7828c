import math

import numpy as np
import pytest

from snslab import (
    DetectorModel,
    LinkModel,
    SecurityParams,
    SourceParams,
    binary_entropy,
    channel_transmittance,
    transmittance,
)


def test_transmittance_values():
    assert transmittance(0.0) == 1.0
    assert transmittance(10.0) == pytest.approx(0.1, rel=1e-12)
    assert transmittance(106.0) == pytest.approx(10.0**-10.6, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        transmittance(-1.0)
    with pytest.raises(ValueError):
        transmittance(float("nan"))


def test_transmittance_monotone():
    losses = np.linspace(0.0, 200.0, 41)
    etas = [transmittance(l) for l in losses]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_binary_entropy_anchors():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    # frozen: -x log2 x - (1-x) log2 (1-x) at x = 0.1336
    assert binary_entropy(0.1336) == pytest.approx(0.5672291801550613, rel=1e-12)


def test_binary_entropy_symmetry():
    for x in (0.02, 0.17, 0.31, 0.49):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_link_totals():
    link = LinkModel(length_a_km=329.3, length_b_km=329.4,
                     atten_db_per_km=106.0 / 658.7, station_loss_db=1.3)
    assert link.total_length_km == pytest.approx(658.7)
    assert link.atten_db_per_km * link.total_length_km == pytest.approx(106.0, rel=1e-12)
    # station optics charged once per arm, on the station side
    assert link.arm_loss_db("a") == pytest.approx(329.3 * 106.0 / 658.7 + 1.3)
    assert link.arm_loss_db("b") == pytest.approx(329.4 * 106.0 / 658.7 + 1.3)
    with pytest.raises(ValueError):
        link.arm_loss_db("c")


def test_link_validation():
    with pytest.raises(ValueError):
        LinkModel(length_a_km=-1.0, length_b_km=1.0, atten_db_per_km=0.2)
    with pytest.raises(ValueError):
        LinkModel(length_a_km=1.0, length_b_km=1.0, atten_db_per_km=-0.2)
    with pytest.raises(ValueError):
        LinkModel(length_a_km=1.0, length_b_km=1.0, atten_db_per_km=0.2,
                  noise_per_pulse=1.0)
    # an arm loss that overflows, or is undefined (0 dB/km over infinite fiber)
    with pytest.raises(ValueError, match="loss of each arm must be finite"):
        LinkModel(length_a_km=1e308, length_b_km=1.0, atten_db_per_km=10.0)
    with pytest.raises(ValueError, match="loss of each arm must be finite"):
        LinkModel(length_a_km=1.0, length_b_km=math.inf, atten_db_per_km=0.0)


def test_detector_efficiency_range():
    # endpoints are legal: a dead detector and a perfect one
    DetectorModel(efficiency=0.0, pulse_rate_hz=1e6)
    DetectorModel(efficiency=1.0, pulse_rate_hz=1e6)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.01, pulse_rate_hz=1e6)


def test_channel_transmittance_composition():
    link = LinkModel(length_a_km=50.0, length_b_km=100.0, atten_db_per_km=0.2,
                     station_loss_db=3.0)
    det = DetectorModel(efficiency=0.5, pulse_rate_hz=1e6)
    eta_a, eta_b = channel_transmittance(link, det)
    assert eta_a == pytest.approx(transmittance(13.0) * 0.5, rel=1e-12, abs=0.0)
    assert eta_b == pytest.approx(transmittance(23.0) * 0.5, rel=1e-12, abs=0.0)
    assert eta_a > eta_b


def _source(**overrides):
    base = dict(mu1=0.1, mu2=0.4, muz=0.45, p_signal_window=0.7, p_mu1=0.6,
                p_mu2=0.05, p_vac=0.35, epsilon_send=0.2717, misalignment=0.028)
    base.update(overrides)
    return SourceParams(**base)


def test_source_validation():
    with pytest.raises(ValueError):
        _source(mu1=0.5)  # must stay below mu2
    with pytest.raises(ValueError):
        _source(mu1=0.0)
    with pytest.raises(ValueError):
        _source(muz=-0.1)
    with pytest.raises(ValueError):
        _source(p_mu1=0.7, p_mu2=0.2, p_vac=0.2)  # mix must sum to one
    with pytest.raises(ValueError):
        _source(misalignment=0.5)
    # probability endpoints are legal
    _source(epsilon_send=0.0)
    _source(epsilon_send=1.0)
    _source(p_signal_window=0.0)
    _source(p_signal_window=1.0)
    _source(p_mu1=0.0, p_mu2=0.0, p_vac=1.0)


@pytest.mark.parametrize("half_width", [0.0, math.pi / 2, 2.0])
def test_source_refuses_a_bad_slice_half_width(half_width):
    with pytest.raises(ValueError, match=r"slice_half_width_rad must lie in \(0, pi/2\)"):
        _source(slice_half_width_rad=half_width)


def test_jitter_sigma_matches_misalignment():
    # the sigma is defined so that a zero-mean Gaussian phase error of that
    # width produces exactly the configured baseline wrong-port fraction
    src = _source(misalignment=0.028)
    sigma = src.jitter_sigma_rad
    assert 0.5 * (1.0 - math.exp(-0.5 * sigma**2)) == pytest.approx(0.028, rel=1e-12)
    assert _source(misalignment=0.0).jitter_sigma_rad == 0.0


def test_security_params_validation():
    SecurityParams(f_ec=1.16, eps_cor=1e-10, eps_pa=1e-10, eps_hat=1e-10,
                   xi_decoy=1e-10)
    with pytest.raises(ValueError):
        SecurityParams(f_ec=0.99, eps_cor=1e-10, eps_pa=1e-10, eps_hat=1e-10,
                       xi_decoy=1e-10)
    with pytest.raises(ValueError):
        SecurityParams(f_ec=1.16, eps_cor=0.0, eps_pa=1e-10, eps_hat=1e-10,
                       xi_decoy=1e-10)
    with pytest.raises(ValueError):
        SecurityParams(f_ec=1.16, eps_cor=1e-10, eps_pa=1e-10, eps_hat=1e-10,
                       xi_decoy=1.0)
