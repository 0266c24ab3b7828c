"""Finite-size security analysis of a tallied session.

The pipeline mirrors what a real deployment would publish: per-row counts
go in, composable failure probabilities and a secret fraction come out.
Stages:

1. fluctuation_bounds: two-sided Chernoff bounds on an expected count,
2. decoy_bounds: single-photon yield and phase-error bounds from the
   decoy rows of a SessionTally,
3. aopp: random odd-parity pairing of the raw key, which trades half the
   key length for a quadratic error suppression,
4. key_rate: the final secret length from the post-pairing quantities.

expected_post_processing and mc_post_processing run the whole chain on
deterministic and sampled tallies respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Infeasible, SecurityParams, SourceParams, binary_entropy
from .simulate import (
    DECOY,
    MU1,
    MU2,
    MUZ,
    SIGNAL,
    VAC,
    SessionTally,
    row_keys,
)

# position of each tally row in SessionTally.counts
ROW_INDEX = {key: i for i, key in enumerate(row_keys())}


def plob_bound(channel_transmittance: float) -> float:
    """Repeaterless secret-capacity ceiling -log2(1 - transmittance)."""
    if not 0.0 <= channel_transmittance < 1.0:
        raise ValueError("channel_transmittance must lie in [0, 1)")
    if channel_transmittance == 0.0:
        return 0.0
    # log1p keeps precision where the transmittance is many orders below 1
    return -math.log1p(-channel_transmittance) / math.log(2.0)


def fluctuation_bounds(observed: float, failure_prob: float) -> tuple[float, float]:
    """Two-sided Chernoff interval for the mean behind an observed count.

    Each side individually fails with probability at most failure_prob.
    Both sides solve observed - m + observed*ln(m/observed) = ln(failure_prob)
    for the mean m; the left-hand side peaks at 0 when m equals the
    observation and falls off on both sides.

    With m = observed*e^v and c = ln(failure_prob)/observed < 0 the
    equation reads f(v) = v - expm1(v) - c = 0. f is concave and peaks at
    -c > 0 when v = 0, so it has one root on each side of 0 (the two real
    branches of Lambert W). Newton's method solves each from a start
    where f <= 0, lower root first:

    * for c < -1, v = c - 1, where f = -e^(c-1), and v = log1p(-c)*(1 - 1/c),
      where e^d >= 1 + d with d = log1p(-c)/(-c) gives f <= 0;
    * otherwise v = c - s and v = s with s = sqrt(-2c), where
      e^-t - 1 + t >= t^2/(2 + t) at t = s - c and expm1(s) >= s + s^2/2
      give f <= 0.

    No start exceeds ln of the largest float, so expm1 stays finite.

    A concave function lies below its tangents, so every Newton iterate
    from such a start stays on the outer side of its root and moves
    monotonically onto it: each bound is safe wherever the loop stops. It
    stops when f is no longer negative, so that a step would not move
    toward v = 0, or when a step falls below 1e-15*max(1, |v|); the
    absolute precision of v is the relative precision of m. Where c
    overflows (observed below |ln(failure_prob)|/1.8e308) the roots take
    their observed -> 0 limits, as for observed = 0.
    """
    if observed < 0.0 or not math.isfinite(observed):
        raise ValueError("observed must be a finite count >= 0")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError("failure_prob must lie strictly between 0 and 1")
    target = math.log(failure_prob)
    c = target / observed if observed > 0.0 else -math.inf
    if c == -math.inf:
        return 0.0, -target
    if c < -1.0:
        starts = (c - 1.0, math.log1p(-c) * (1.0 - 1.0 / c))
    else:
        s = math.sqrt(-2.0 * c)
        starts = (c - s, s)
    roots = []
    for v in starts:
        while True:
            e = math.expm1(v)
            f = v - e - c
            if not f < 0.0:
                break
            step = f / e
            v += step
            if abs(step) <= 1e-15 * max(1.0, abs(v)):
                break
        roots.append(observed * math.exp(v))
    return roots[0], roots[1]


@dataclass(frozen=True)
class DecoyBounds:
    """Single-photon bounds extracted from the decoy rows."""

    y0_low: float
    y0_up: float
    y1_alice_low: float
    y1_bob_low: float
    n1_alice_low: float
    n1_bob_low: float
    n1_low: float
    phase_error_up: float
    feasible: bool


def decoy_bounds(
    tally: SessionTally,
    src: SourceParams,
    sec: SecurityParams,
) -> DecoyBounds:
    """Bound the single-photon contribution of a session from below.

    Uses the vacuum row for the no-photon yield, the two single-side decoy
    rows per sender for a two-level yield bound, and the phase-sifted
    matched-intensity row for the phase-error rate of single-photon pairs.
    A statistically starved session comes back with feasible=False, zero
    untagged events and a phase error pinned at one half; callers should
    treat that as "no provable key", not as an exception. A decoy so dim
    that a single-photon yield bound is not finite, or a tally with no
    pulses in a row the bounds read, raises Infeasible.
    """
    xi = sec.xi_decoy
    mu1, mu2, muz = src.mu1, src.mu2, src.muz
    counts = tally.counts.tolist()

    def row(kind: str, la: str, lb: str) -> list[float]:
        r = counts[ROW_INDEX[(kind, la, lb)]]
        if r[0] <= 0.0:
            raise Infeasible(f"tally lacks pulses for row ({kind}, {la}, {lb})")
        return r

    def gain_bounds(la: str, lb: str) -> tuple[float, float]:
        pulses, heralds = row(DECOY, la, lb)[:2]
        lo, up = fluctuation_bounds(heralds, xi)
        return lo / pulses, up / pulses

    y0_low, y0_up = gain_bounds(VAC, VAC)

    denom = mu1 * mu2 * (mu2 - mu1)

    def y1_lower(q1_low: float, q2_up: float) -> float:
        return (
            mu2**2 * math.exp(mu1) * q1_low
            - mu1**2 * math.exp(mu2) * q2_up
            - (mu2**2 - mu1**2) * y0_up
        ) / denom

    y1_alice = y1_lower(gain_bounds(MU1, VAC)[0], gain_bounds(MU2, VAC)[1])
    y1_bob = y1_lower(gain_bounds(VAC, MU1)[0], gain_bounds(VAC, MU2)[1])
    if not (math.isfinite(y1_alice) and math.isfinite(y1_bob)):
        # the quotient overflows once denom is subnormal
        raise Infeasible("mu1 is too small: the single-photon yield bound is not finite")

    matched_pulses, _, matched_errors = row(DECOY, MU1, MU1)[:3]
    sifted_windows = matched_pulses * src.slice_acceptance
    # read before the return below: a row with no pulses is refused in a starved session too
    signal_alice, signal_bob = row(SIGNAL, MUZ, VAC)[0], row(SIGNAL, VAC, MUZ)[0]

    if y1_alice <= 0.0 or y1_bob <= 0.0 or sifted_windows <= 0.0:
        return DecoyBounds(y0_low, y0_up, y1_alice, y1_bob, 0.0, 0.0, 0.0, 0.5, False)

    p_single = muz * math.exp(-muz)
    n1_alice = signal_alice * p_single * y1_alice
    n1_bob = signal_bob * p_single * y1_bob

    # wrong-port gain of the sifted matched-intensity windows, decomposed
    # over photon number: vacuum errs half the time, the single-photon
    # pair term is what we solve for, higher terms are dropped
    err_up = fluctuation_bounds(matched_errors, xi)[1]
    t_up = err_up / sifted_windows
    y1_pair = 0.5 * (y1_alice + y1_bob)
    e1 = (math.exp(2.0 * mu1) * t_up - 0.5 * y0_low) / (2.0 * mu1 * y1_pair)
    e1 = min(max(e1, 0.0), 0.5)
    return DecoyBounds(
        y0_low, y0_up, y1_alice, y1_bob, n1_alice, n1_bob, n1_alice + n1_bob, e1, True
    )


@dataclass(frozen=True)
class AoppResult:
    """Outcome of one random odd-parity pairing pass.

    pairs holds original key positions, column 0 the member where the
    receiver recorded 1, column 1 where he recorded 0. kept flags pairs
    whose sender bits had odd parity; the distilled bit of a kept pair is
    read from the member with the lower original position.
    """

    pairs: np.ndarray
    kept: np.ndarray
    bits_alice: np.ndarray
    bits_bob: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.kept))


def aopp(bits_alice, bits_bob, seed) -> AoppResult:
    """Pair the raw key on the receiver's bit values and keep odd parity.

    The receiver matches a random subset of his 1-positions one-to-one
    with a random subset of his 0-positions (as many pairs as the rarer
    value allows), both drawn through rng.permutation in that order. A
    pair survives when the sender's two bits differ, which by construction
    then agree in parity with the receiver's; both sides read their
    distilled bit from the pair member at the lower original position.

    seed is anything numpy.random.default_rng accepts, including an
    already-built Generator.
    """
    rng = np.random.default_rng(seed)
    a = np.asarray(bits_alice, dtype=np.uint8)
    b = np.asarray(bits_bob, dtype=np.uint8)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("bit arrays must be one-dimensional and equally long")
    if a.size and (a.max() > 1 or b.max() > 1):
        raise ValueError("bit arrays must contain only 0 and 1")

    ones = np.flatnonzero(b == 1)
    zeros = np.flatnonzero(b == 0)
    g = min(ones.size, zeros.size)
    ones = rng.permutation(ones)[:g]
    zeros = rng.permutation(zeros)[:g]
    pairs = np.stack([ones, zeros], axis=1).astype(np.int64)
    kept = a[pairs[:, 0]] != a[pairs[:, 1]]
    lead = np.minimum(pairs[:, 0], pairs[:, 1])[kept]
    return AoppResult(pairs=pairs, kept=kept, bits_alice=a[lead], bits_bob=b[lead])


def post_aopp_phase_error(phase_error_before: float) -> float:
    """Map a pre-pairing phase-error rate through the pairing step.

    A distilled pair is phase-wrong when exactly one member was, hence
    2 e (1 - e); rates are capped at one half before mapping.
    """
    e = phase_error_before
    if not 0.0 <= e <= 1.0 or not math.isfinite(e):
        raise ValueError("phase_error_before must lie in [0, 1]")
    e = min(e, 0.5)
    return 2.0 * e * (1.0 - e)


@dataclass(frozen=True)
class KeyRateReport:
    """Secret-length accounting for one session."""

    n_pulses: float
    privacy_bits: float
    error_correction_bits: float
    correctness_bits: float
    secrecy_bits: float
    secret_bits: float
    rate_per_pulse: float


def key_rate(
    n_untagged: float,
    phase_error_rate: float,
    n_sifted: float,
    bit_error_rate: float,
    n_pulses: float,
    sec: SecurityParams,
) -> KeyRateReport:
    """Secret bits per pulse from post-pairing session quantities.

    n_untagged of the n_sifted distilled bits are provably single-photon
    on both sides; only those contribute privacy. Error correction is
    charged on the whole sifted string. The two constant terms pay for
    the correctness check and for privacy-amplification smoothing. The
    result may be negative; callers decide whether to floor it.
    """
    if n_pulses <= 0.0:
        raise ValueError("n_pulses must be > 0")
    if n_sifted < 0.0 or n_untagged < 0.0:
        raise ValueError("counts must be >= 0")
    if n_untagged > n_sifted * (1.0 + 1e-12):
        raise ValueError("n_untagged cannot exceed n_sifted")
    for name, v in (("phase_error_rate", phase_error_rate), ("bit_error_rate", bit_error_rate)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")

    privacy = n_untagged * (1.0 - binary_entropy(phase_error_rate))
    error_correction = sec.f_ec * n_sifted * binary_entropy(bit_error_rate)
    correctness = 2.0 * math.log2(2.0 / sec.eps_cor)
    secrecy = 2.0 * math.log2(1.0 / (math.sqrt(2.0) * sec.eps_pa * sec.eps_hat))
    secret = privacy - error_correction - correctness - secrecy
    return KeyRateReport(
        n_pulses=n_pulses,
        privacy_bits=privacy,
        error_correction_bits=error_correction,
        correctness_bits=correctness,
        secrecy_bits=secrecy,
        secret_bits=secret,
        rate_per_pulse=secret / n_pulses,
    )


@dataclass(frozen=True)
class SessionAnalysis:
    """End-to-end result of the post-processing chain on one tally."""

    decoy: DecoyBounds
    pair_count: float
    survival_fraction: float
    n_sifted: float
    bit_error_rate: float
    n_untagged: float
    phase_error_rate: float
    report: KeyRateReport
    feasible: bool


def _pairing_tail(
    tally: SessionTally,
    sec: SecurityParams,
    bounds: DecoyBounds,
    group1: float,
    group0: float,
    pair_count: float,
    survival: float,
    n_sifted: float,
    bit_error: float,
) -> SessionAnalysis:
    """Untagged count, post-pairing phase error and key rate of one pairing."""
    # untagged pairs need an untagged member on each side; they always
    # survive the parity test, and never more of them than kept pairs
    n_untagged = 0.0
    if group1 > 0.0 and group0 > 0.0:
        n_untagged = pair_count * (bounds.n1_alice_low / group1) * (bounds.n1_bob_low / group0)
    n_untagged = min(n_untagged, n_sifted)
    phase_error = post_aopp_phase_error(bounds.phase_error_up)
    report = key_rate(n_untagged, phase_error, n_sifted, bit_error, tally.n_pulses, sec)
    return SessionAnalysis(
        decoy=bounds,
        pair_count=pair_count,
        survival_fraction=survival,
        n_sifted=n_sifted,
        bit_error_rate=bit_error,
        n_untagged=n_untagged,
        phase_error_rate=phase_error,
        report=report,
        feasible=bounds.feasible,
    )


def expected_post_processing(
    tally: SessionTally,
    src: SourceParams,
    sec: SecurityParams,
) -> SessionAnalysis:
    """Run the full chain on expected tallies without sampling a key.

    The pairing step is applied in expectation: pair count, survival and
    distilled error rate follow from the per-group error fractions, and
    the untagged pair count from the per-group untagged fractions.
    """
    bounds = decoy_bounds(tally, src, sec)
    n = tally.key_bit_cells()
    # the heralds of each receiver bit, summed in row order, and the errors
    # among them: those whose sender bit differs
    group1, err1 = 0.0 + n[1, 1] + n[0, 1], 0.0 + n[0, 1]
    group0, err0 = 0.0 + n[0, 0] + n[1, 0], 0.0 + n[1, 0]
    if group1 <= 0.0 or group0 <= 0.0:
        report = key_rate(0.0, 0.5, 0.0, 0.0, tally.n_pulses, sec)
        return SessionAnalysis(bounds, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, report, False)
    eps1 = err1 / group1
    eps0 = err0 / group0
    g = min(group1, group0)
    survival = (1.0 - eps1) * (1.0 - eps0) + eps1 * eps0
    bit_error = (eps1 * eps0 / survival) if survival > 0.0 else 0.0
    return _pairing_tail(tally, sec, bounds, group1, group0, g, survival, g * survival, bit_error)


def mc_post_processing(
    tally: SessionTally,
    src: SourceParams,
    sec: SecurityParams,
    seed: int,
) -> SessionAnalysis:
    """Run the full chain on a sampled tally with a realized pairing pass.

    The pairing permutations are driven by their own seed so the same
    session can be re-paired independently of how it was sampled.
    """
    bounds = decoy_bounds(tally, src, sec)
    n = tally.key_bit_cells()
    group1, group0 = 0.0 + n[1, 1] + n[0, 1], 0.0 + n[0, 0] + n[1, 0]
    paired = aopp(tally.z_bits_alice, tally.z_bits_bob, seed)
    n_sifted = float(paired.n_kept)
    if n_sifted > 0.0:
        bit_error = float(np.count_nonzero(paired.bits_alice != paired.bits_bob)) / n_sifted
    else:
        bit_error = 0.0
    survival = paired.n_kept / paired.n_pairs if paired.n_pairs else 0.0
    return _pairing_tail(
        tally, sec, bounds, group1, group0, float(paired.n_pairs), survival, n_sifted, bit_error
    )
