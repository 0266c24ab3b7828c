"""Vibration sensing over the interferometric link.

The phase-tracking channel that stabilizes the key exchange doubles as a
distributed sensor: a mechanical disturbance at position x along the
fiber shows up in the phase streams recovered at both ends, delayed by
its optical distance to each end. Cross-correlating the two streams
gives the differential delay and with it the position.

Traces are stored as two-column text (time_s, phase_rad) under a small
key=value header so files round-trip byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DRIFT_RATE_RAD2_PER_S = 0.01
DEFAULT_NOISE_STD_RAD = 0.02


class DegenerateTraceError(RuntimeError):
    """A trace has no usable variance after detrending."""


class DelayOutOfRangeError(RuntimeError):
    """The measured delay exceeds the geometry plus allowed slack."""


@dataclass(frozen=True)
class LinkGeometry:
    length_km: float
    light_speed_km_per_s: float = 2.0e5

    def __post_init__(self) -> None:
        if self.length_km <= 0.0:
            raise ValueError("length_km must be > 0")
        if self.light_speed_km_per_s <= 0.0:
            raise ValueError("light_speed_km_per_s must be > 0")

    @property
    def max_delay_s(self) -> float:
        return self.length_km / self.light_speed_km_per_s


@dataclass(frozen=True)
class VibrationSource:
    """One disturbance acting on the fiber.

    position_km is measured from the first end ("alice"). The waveform is
    dc_offset_rad + amplitude_rad*sin(2*pi*frequency_hz*(t-start_s)+phase_rad)
    while active and zero otherwise; duration_s=None keeps it on for the
    rest of the trace.
    """

    position_km: float
    frequency_hz: float
    amplitude_rad: float
    phase_rad: float = 0.0
    dc_offset_rad: float = 0.0
    start_s: float = 0.0
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.position_km < 0.0:
            raise ValueError("position_km must be >= 0")
        if self.frequency_hz <= 0.0:
            raise ValueError("frequency_hz must be > 0")
        if self.start_s < 0.0:
            raise ValueError("start_s must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError("duration_s must be > 0 when given")

    def waveform(self, t: np.ndarray) -> np.ndarray:
        active = t >= self.start_s
        if self.duration_s is not None:
            active = active & (t < self.start_s + self.duration_s)
        w = self.dc_offset_rad + self.amplitude_rad * np.sin(
            2.0 * np.pi * self.frequency_hz * (t - self.start_s) + self.phase_rad
        )
        return np.where(active, w, 0.0)


@dataclass
class PhaseTrace:
    samples: np.ndarray
    sample_rate_hz: float
    origin: str

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sample_rate_hz <= 0.0:
            raise ValueError("sample_rate_hz must be > 0")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def write_trace(path, trace: PhaseTrace) -> None:
    """Two-column text dump (time_s, phase_rad); repr keeps round trips exact."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# sample_rate_hz={trace.sample_rate_hz!r} origin={trace.origin}\n")
        rate = trace.sample_rate_hz
        fh.writelines(f"{i / rate!r} {v!r}\n" for i, v in enumerate(trace.samples.tolist()))


def read_trace(path) -> PhaseTrace:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing trace header")
        fields = dict(part.split("=", 1) for part in header[2:].split())
        try:
            rate = float(fields["sample_rate_hz"])
            origin = fields["origin"]
        except KeyError as exc:
            raise ValueError(f"{path}: header lacks {exc.args[0]}") from None
        samples = []
        for line in fh:
            if not line.strip():
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"{path}: expected two columns per sample line")
            samples.append(float(cols[1]))
    return PhaseTrace(samples=np.array(samples), sample_rate_hz=rate, origin=origin)


def simulate_phase_traces(
    geometry: LinkGeometry,
    sources,
    duration_s: float,
    sample_rate_hz: float,
    seed: int,
    drift_rate_rad2_per_s: float = DEFAULT_DRIFT_RATE_RAD2_PER_S,
    noise_std_rad: float = DEFAULT_NOISE_STD_RAD,
) -> tuple[PhaseTrace, PhaseTrace]:
    """Phase streams both ends would recover for the given disturbances.

    A source at x reaches the alice-side stream after x/v and the
    bob-side stream after (length - x)/v. Both streams share one slow
    random-walk drift (common-mode fiber and laser wander) and carry
    independent white readout noise.
    """
    if duration_s <= 0.0 or sample_rate_hz <= 0.0:
        raise ValueError("duration_s and sample_rate_hz must be > 0")
    if isinstance(sources, VibrationSource):
        sources = [sources]
    for s in sources:
        if s.position_km > geometry.length_km:
            raise ValueError(
                f"source at {s.position_km} km lies past the {geometry.length_km} km link"
            )
        if 2.0 * s.frequency_hz > sample_rate_hz:
            raise ValueError(
                f"sample_rate_hz {sample_rate_hz} aliases the {s.frequency_hz} Hz "
                "source; need at least twice the highest source frequency"
            )
    if drift_rate_rad2_per_s < 0.0 or noise_std_rad < 0.0:
        raise ValueError("noise magnitudes must be >= 0")

    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    v = geometry.light_speed_km_per_s
    alice = np.zeros(n)
    bob = np.zeros(n)
    for s in sources:
        alice += s.waveform(t - s.position_km / v)
        bob += s.waveform(t - (geometry.length_km - s.position_km) / v)

    rng = np.random.default_rng(seed)
    drift = np.cumsum(
        rng.standard_normal(n) * math.sqrt(drift_rate_rad2_per_s / sample_rate_hz)
    )
    alice = alice + drift + rng.standard_normal(n) * noise_std_rad
    bob = bob + drift + rng.standard_normal(n) * noise_std_rad
    return (
        PhaseTrace(samples=alice, sample_rate_hz=sample_rate_hz, origin="alice"),
        PhaseTrace(samples=bob, sample_rate_hz=sample_rate_hz, origin="bob"),
    )


def synthesize_reference_counts(
    phases: np.ndarray,
    photons_per_frame: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame detector counts for a phase stream on the reference tone.

    The two ports split the frame's photons as (1 +- cos(phase))/2. With
    an rng the counts are Poisson draws; without one the exact means are
    returned, which is handy for checking estimator bias in isolation.
    """
    phases = np.asarray(phases, dtype=float)
    if photons_per_frame <= 0.0:
        raise ValueError("photons_per_frame must be > 0")
    mean_left = photons_per_frame * 0.5 * (1.0 + np.cos(phases))
    mean_right = photons_per_frame * 0.5 * (1.0 - np.cos(phases))
    if rng is None:
        return mean_left, mean_right
    return rng.poisson(mean_left).astype(float), rng.poisson(mean_right).astype(float)


def recover_phase_from_reference(
    counts_left: np.ndarray,
    counts_right: np.ndarray,
    frame_rate_hz: float,
    origin: str = "recovered",
) -> PhaseTrace:
    """Phase trace from per-frame port counts, tracked across folds.

    The contrast (left-right)/(left+right) pins cos(phase); the sign and
    winding are resolved by picking, per frame, the candidate
    +-acos + 2*pi*k closest to a linear prediction from the two previous
    frames. Predicting (rather than holding) is what carries the track
    through the folds at 0 and pi, where the two candidate branches meet.
    The first frame takes the principal value in [0, pi]. Frames with no
    photons on either port carry no phase information and are rejected.
    """
    nl = np.asarray(counts_left, dtype=float)
    nr = np.asarray(counts_right, dtype=float)
    if nl.shape != nr.shape or nl.ndim != 1:
        raise ValueError("count arrays must be one-dimensional and equally long")
    if nl.size == 0:
        raise ValueError("need at least one frame")
    if frame_rate_hz <= 0.0:
        raise ValueError("frame_rate_hz must be > 0")
    total = nl + nr
    if np.any(total <= 0.0):
        raise ValueError("a frame recorded no photons on either port")
    base = np.arccos(np.clip((nl - nr) / total, -1.0, 1.0))
    out = np.empty_like(base)
    # Python floats: on numpy scalars the per-frame arithmetic costs several times more
    prev = prev2 = float(base[0])
    two_pi = 2.0 * np.pi
    for i, b in enumerate(map(float, base)):
        predicted = 2.0 * prev - prev2
        k_plus = round((predicted - b) / two_pi)
        c_plus = b + two_pi * k_plus
        k_minus = round((predicted + b) / two_pi)
        c_minus = -b + two_pi * k_minus
        current = c_plus if abs(c_plus - predicted) <= abs(c_minus - predicted) else c_minus
        out[i] = current
        prev2, prev = prev, current
    return PhaseTrace(samples=out, sample_rate_hz=frame_rate_hz, origin=origin)


def cross_correlate_delay(
    trace_a: PhaseTrace,
    trace_b: PhaseTrace,
    max_lag_s: float | None = None,
) -> tuple[float, float]:
    """Differential delay of trace_b behind trace_a, in seconds.

    Both traces are linearly detrended, cross-correlated over all lags
    (or only |lag| <= max_lag_s when given), and the integer peak is
    refined by a parabolic fit through its neighbors. A positive delay
    means trace_b lags. The second return value is the peak correlation
    after global normalization, in [-1, 1].
    """
    if trace_a.sample_rate_hz != trace_b.sample_rate_hz:
        raise ValueError("traces must share one sample rate")
    if trace_a.n_samples != trace_b.n_samples:
        raise ValueError("traces must be equally long")
    n = trace_a.n_samples
    if n < 3:
        raise ValueError("traces must hold at least 3 samples")
    fs = trace_a.sample_rate_hz

    t = np.arange(n, dtype=float)
    a = trace_a.samples - np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyfit(t, trace_a.samples, 1)
    )
    b = trace_b.samples - np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyfit(t, trace_b.samples, 1)
    )
    norm = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    if norm == 0.0:
        raise DegenerateTraceError("a trace is constant after detrending")

    size = 1
    while size < 2 * n - 1:
        size *= 2
    spectrum = np.conj(np.fft.rfft(a, size)) * np.fft.rfft(b, size)
    corr = np.fft.irfft(spectrum, size)
    # corr[lag mod size] = sum_n a[n] b[n+lag]
    lags = np.arange(-(n - 1), n)
    values = np.concatenate([corr[size - (n - 1):], corr[:n]])

    if max_lag_s is not None:
        if max_lag_s < 0.0:
            raise ValueError("max_lag_s must be >= 0")
        cap = int(math.floor(max_lag_s * fs))
        keep = np.abs(lags) <= cap
        lags = lags[keep]
        values = values[keep]

    peak = int(np.argmax(values))
    offset = 0.0
    if 0 < peak < len(values) - 1:
        r0, rp, rm = values[peak], values[peak + 1], values[peak - 1]
        denom = 2.0 * (2.0 * r0 - rp - rm)
        if denom > 0.0:
            offset = float(np.clip((rp - rm) / denom, -0.5, 0.5))
    delay = (float(lags[peak]) + offset) / fs
    return delay, float(values[peak] / norm)


@dataclass(frozen=True)
class LocalizationResult:
    """Where a measured differential delay puts the disturbance.

    position_from_bob_km is clamped onto the fiber; the unclamped field
    keeps the raw formula value so callers can see how far past an end a
    slightly-out-of-range delay would have landed. out_of_range marks
    that clamping happened.
    """

    delay_s: float
    position_from_bob_km: float
    position_from_alice_km: float
    position_from_bob_unclamped_km: float
    correlation_peak: float
    out_of_range: bool


def locate(
    delay_s: float,
    geometry: LinkGeometry,
    slack_s: float = 0.0,
    correlation_peak: float = float("nan"),
) -> LocalizationResult:
    """Map a differential delay to a position on the fiber.

    A positive delay means the bob-side stream lags, putting the source
    at (length + v*delay)/2 from the bob end. Delays up to slack_s
    beyond the physical maximum length/v are tolerated (measurement
    jitter of a source right at an end); the position is then clamped
    onto the fiber with out_of_range set. Anything further raises
    DelayOutOfRangeError. The optional correlation_peak is carried into
    the result untouched for reporting.
    """
    if slack_s < 0.0:
        raise ValueError("slack_s must be >= 0")
    limit = geometry.max_delay_s
    if abs(delay_s) > limit + slack_s:
        raise DelayOutOfRangeError(
            f"delay {delay_s:.3e} s exceeds the link's {limit:.3e} s plus slack"
        )
    raw = 0.5 * (geometry.length_km + geometry.light_speed_km_per_s * delay_s)
    clamped = min(max(raw, 0.0), geometry.length_km)
    return LocalizationResult(
        delay_s=delay_s,
        position_from_bob_km=clamped,
        position_from_alice_km=geometry.length_km - clamped,
        position_from_bob_unclamped_km=raw,
        correlation_peak=correlation_peak,
        out_of_range=raw != clamped,
    )


def locate_traces(
    trace_alice: PhaseTrace,
    trace_bob: PhaseTrace,
    geometry: LinkGeometry,
    max_lag_s: float | None = None,
    slack_s: float | None = None,
) -> LocalizationResult:
    """Correlate two end-point traces and place the disturbance.

    Unless overridden, the lag search is capped at the physical maximum
    delay plus slack, and slack defaults to one sample period.
    """
    if slack_s is None:
        slack_s = 1.0 / trace_alice.sample_rate_hz
    if slack_s < 0.0:
        raise ValueError("slack_s must be >= 0")
    if max_lag_s is None:
        max_lag_s = geometry.max_delay_s + slack_s
    delay, peak = cross_correlate_delay(trace_alice, trace_bob, max_lag_s)
    return locate(delay, geometry, slack_s=slack_s, correlation_peak=peak)
