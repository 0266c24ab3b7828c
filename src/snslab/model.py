"""Shared physical model: link budget, detectors, source mix, security targets.

Conventions used throughout the package:

* Losses are in dB, transmittances are dimensionless probabilities.
* The interfering station sits between the two fiber arms; detector
  efficiency is folded into the arm transmittance seen from each source.
* All per-pulse probabilities refer to one clock period of the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Largest mean photon number per pulse any source or click model accepts.
# It keeps exp(mu) finite in the decoy analysis and bounds the number of
# harmonics the closed-form click probabilities sum.
MAX_INTENSITY = 100.0
# half width of the announced-phase slice that post-selects decoy windows
DEFAULT_SLICE_HALF_WIDTH_RAD = 0.3


class Infeasible(RuntimeError):
    """A valid request that the physics, the statistics or a size cap cannot serve.

    Every such refusal in the package raises this type, and only such
    refusals do; the command line reports it as exit code 3. A ValueError
    means the input itself is invalid.
    """


def transmittance(loss_db: float) -> float:
    """Convert a loss budget in dB to a transmittance in (0, 1].

    Args:
        loss_db: non-negative attenuation in dB.

    Returns:
        10 ** (-loss_db / 10).
    """
    if loss_db < 0.0 or not math.isfinite(loss_db):
        raise ValueError(f"loss_db must be finite and >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def binary_entropy(x: float) -> float:
    """Binary entropy H(x) in bits, with H(0) = H(1) = 0.

    Args:
        x: probability in [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


@dataclass(frozen=True)
class LinkModel:
    """Two-arm fiber link meeting at the measurement station.

    noise_per_pulse is the aggregate spurious-click probability per detector
    per clock period (dark counts plus any scattering floor).
    """

    length_a_km: float
    length_b_km: float
    atten_db_per_km: float
    station_loss_db: float = 0.0
    noise_per_pulse: float = 0.0

    def __post_init__(self) -> None:
        if self.length_a_km < 0.0 or self.length_b_km < 0.0:
            raise ValueError("fiber lengths must be >= 0")
        if self.atten_db_per_km < 0.0:
            raise ValueError("atten_db_per_km must be >= 0")
        if self.station_loss_db < 0.0:
            raise ValueError("station_loss_db must be >= 0")
        if not 0.0 <= self.noise_per_pulse < 1.0:
            raise ValueError("noise_per_pulse must lie in [0, 1)")
        if not all(math.isfinite(self.arm_loss_db(side)) for side in "ab"):
            raise ValueError("the loss of each arm must be finite")

    @property
    def total_length_km(self) -> float:
        return self.length_a_km + self.length_b_km

    def arm_loss_db(self, side: str) -> float:
        """Loss from one source to the station input, station optics included."""
        if side == "a":
            return self.length_a_km * self.atten_db_per_km + self.station_loss_db
        if side == "b":
            return self.length_b_km * self.atten_db_per_km + self.station_loss_db
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")


@dataclass(frozen=True)
class DetectorModel:
    """Threshold single-photon detectors at the measurement station."""

    efficiency: float
    pulse_rate_hz: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.pulse_rate_hz <= 0.0:
            raise ValueError("pulse_rate_hz must be > 0")
        if not math.isfinite(self.pulse_rate_hz):  # NaN and inf
            raise ValueError("pulse_rate_hz must be finite")


def channel_transmittance(link: LinkModel, det: DetectorModel) -> tuple[float, float]:
    """Per-arm transmittance from each source to a detection event.

    Detector efficiency is composed into the station-side transmittance, so
    the returned values are the probabilities that a photon leaving a source
    produces a detectable excitation.
    """
    eta_a = transmittance(link.arm_loss_db("a")) * det.efficiency
    eta_b = transmittance(link.arm_loss_db("b")) * det.efficiency
    return eta_a, eta_b


@dataclass(frozen=True)
class SourceParams:
    """Four-intensity source program for both senders.

    Decoy windows emit one of {vacuum, mu1, mu2} with the given mix and an
    announced random phase. Signal windows emit muz with probability
    epsilon_send and nothing otherwise. misalignment is the baseline
    wrong-port fraction contributed by residual phase jitter; it fixes the
    standard deviation of the Gaussian jitter model via jitter_sigma_rad.
    The decoy analysis keeps the lit decoy windows whose announced phase
    difference lies within slice_half_width_rad of 0 or of pi, so the
    sampled tallies and their analysis read the one slice of this program.
    """

    mu1: float
    mu2: float
    muz: float
    p_signal_window: float
    p_mu1: float
    p_mu2: float
    p_vac: float
    epsilon_send: float
    misalignment: float = 0.0
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD

    def __post_init__(self) -> None:
        if not 0.0 < self.mu1 < self.mu2:
            raise ValueError("intensities must satisfy 0 < mu1 < mu2")
        # the decoy analysis divides by this product
        if self.mu1 * self.mu2 * (self.mu2 - self.mu1) == 0.0:
            raise ValueError("mu1 is too small: mu1 * mu2 * (mu2 - mu1) underflows to 0")
        if not self.muz >= 0.0:  # NaN included
            raise ValueError("muz must be >= 0")
        if max(self.mu2, self.muz) > MAX_INTENSITY:
            raise ValueError(f"intensities must be <= {MAX_INTENSITY:g} photons per pulse")
        if not 0.0 <= self.p_signal_window <= 1.0:
            raise ValueError("p_signal_window must lie in [0, 1]")
        for name in ("p_mu1", "p_mu2", "p_vac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if abs(self.p_mu1 + self.p_mu2 + self.p_vac - 1.0) > 1e-9:
            raise ValueError("decoy mix p_mu1 + p_mu2 + p_vac must sum to 1")
        if not 0.0 <= self.epsilon_send <= 1.0:
            raise ValueError("epsilon_send must lie in [0, 1]")
        if not 0.0 <= self.misalignment < 0.5:
            raise ValueError("misalignment must lie in [0, 0.5)")
        if not 0.0 < self.slice_half_width_rad < math.pi / 2.0:
            raise ValueError("slice_half_width_rad must lie in (0, pi/2)")

    @property
    def p_decoy_window(self) -> float:
        return 1.0 - self.p_signal_window

    @property
    def slice_acceptance(self) -> float:
        """Share of lit decoy windows whose announced phase difference falls
        in the slice around 0 or pi: 2 w / pi for half width w."""
        return 2.0 * self.slice_half_width_rad / math.pi

    @property
    def jitter_sigma_rad(self) -> float:
        """Gaussian phase-jitter width reproducing the baseline misalignment.

        A jitter e ~ N(0, sigma^2) flips the port with probability
        E[sin^2(e/2)] = (1 - exp(-sigma^2 / 2)) / 2, so sigma is recovered by
        inverting that relation.
        """
        if self.misalignment == 0.0:
            return 0.0
        return math.sqrt(-2.0 * math.log(1.0 - 2.0 * self.misalignment))


@dataclass(frozen=True)
class SecurityParams:
    """Failure budgets and efficiency factors of the finite-size analysis."""

    f_ec: float
    eps_cor: float
    eps_pa: float
    eps_hat: float
    xi_decoy: float

    def __post_init__(self) -> None:
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")
        if not math.isfinite(self.f_ec):  # NaN and inf
            raise ValueError("f_ec must be finite")
        for name in ("eps_cor", "eps_pa", "eps_hat", "xi_decoy"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        # key_rate charges 2 log2(2 / eps_cor) and 2 log2(1 / (sqrt(2) eps_pa eps_hat)):
        # each quotient must be finite, and its divisor must not underflow to 0
        if math.isinf(2.0 / self.eps_cor):
            raise ValueError("eps_cor is too small: 2 / eps_cor overflows")
        smoothing = math.sqrt(2.0) * self.eps_pa * self.eps_hat
        if smoothing == 0.0 or math.isinf(1.0 / smoothing):
            raise ValueError("eps_pa * eps_hat is too small: "
                             "1 / (sqrt(2) * eps_pa * eps_hat) is not finite")
