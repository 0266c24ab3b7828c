"""Ready-made hardware and protocol configurations.

Two families: a long-haul configuration sized like a record-chasing
field setup (hundreds of km of ultra-low-loss fiber, cooled detectors,
1e13 pulses per session), and a desk-scale one whose sessions run in
seconds on a laptop while exercising the same code paths.
"""

from __future__ import annotations

from .model import DetectorModel, LinkModel, SecurityParams, SourceParams


def reference_link() -> LinkModel:
    # 658.7 km total at 106 dB end to end, split almost evenly
    return LinkModel(
        length_a_km=329.3,
        length_b_km=329.4,
        atten_db_per_km=106.0 / 658.7,
        station_loss_db=1.3,
        noise_per_pulse=6e-9,
    )


def reference_detector() -> DetectorModel:
    return DetectorModel(efficiency=0.82, pulse_rate_hz=1e8)


def reference_source() -> SourceParams:
    return SourceParams(
        mu1=0.1,
        mu2=0.4,
        muz=0.45,
        p_signal_window=0.7,
        p_mu1=0.6,
        p_mu2=0.05,
        p_vac=0.35,
        epsilon_send=0.2717,
        misalignment=0.028,
    )


def reference_security() -> SecurityParams:
    return SecurityParams(
        f_ec=1.16,
        eps_cor=1e-10,
        eps_pa=1e-10,
        eps_hat=1e-10,
        xi_decoy=1e-10,
    )


def desk_link(total_db: float = 20.0) -> LinkModel:
    """Short link with the same structure; noise is set high enough that
    every tally row stays populated in minute-long sessions."""
    if total_db <= 0.0:
        raise ValueError("total_db must be > 0")
    atten = 0.2
    length = total_db / atten / 2.0
    return LinkModel(
        length_a_km=length,
        length_b_km=length,
        atten_db_per_km=atten,
        station_loss_db=0.0,
        noise_per_pulse=1e-4,
    )


def desk_detector() -> DetectorModel:
    return DetectorModel(efficiency=0.9, pulse_rate_hz=1e6)


def desk_source() -> SourceParams:
    """The desk runs the long-haul source program unchanged."""
    return reference_source()


def desk_security() -> SecurityParams:
    """The same failure budgets as the long-haul session."""
    return reference_security()
