"""Vibration sensing over the interferometric link.

The phase-tracking channel that stabilizes the key exchange doubles as a
distributed sensor: a mechanical disturbance at position x along the
fiber shows up in the phase streams recovered at both ends, delayed by
its optical distance to each end. locate_traces, the one localization
call, cross-correlates the two streams over the delays the link allows
and maps the differential delay to a position. A SensePlan declares one
run's inputs, their defaults and every check on them; simulate_phase_traces
and sense read it.

Traces are stored as text, one sample per line under a small key=value
header that holds the sample rate, so files round-trip byte for byte.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import Infeasible

# the most samples a SensePlan accepts per trace. README derives it
# from the time sense takes to write its traces as text, 14-30 s at the cap;
# sense peaks there near 0.8 GB, so memory alone would allow more
MAX_TRACE_SAMPLES = 10**7


@dataclass(frozen=True)
class LinkGeometry:
    length_km: float
    light_speed_km_per_s: float = 2.0e5

    def __post_init__(self) -> None:
        if not self.length_km > 0.0:
            raise ValueError("length_km must be > 0")
        if not self.light_speed_km_per_s > 0.0:
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
        if not self.position_km >= 0.0:
            raise ValueError("position_km must be >= 0")
        if not self.frequency_hz > 0.0:
            raise ValueError("frequency_hz must be > 0")
        if not self.start_s >= 0.0:
            raise ValueError("start_s must be >= 0")
        if self.duration_s is not None and not self.duration_s > 0.0:
            raise ValueError("duration_s must be > 0 when given")
        if not math.isfinite(self.phase_rad):
            raise ValueError("phase_rad must be finite")

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
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ValueError("sample_rate_hz must be finite and > 0")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


# samples per block of the trace-line loop: the per-block calls are amortized
# and no Python object spans the whole trace. At 4096 two-column lines a block's
# text (~160 kB) crossed malloc's mmap threshold, and the sense bench's peak RSS
# then crept up by as much as 9 MB over repeated writes
_BLOCK = 512


def write_trace(path, trace: PhaseTrace) -> None:
    """One-column text dump: the header, then repr(samples[i]) on line i.

    Sample i lies at i / sample_rate_hz, so the file holds no time column,
    and repr keeps the round trip exact. Each block of lines is formatted by
    one %-operation from C. The origin is checked before the file is opened.
    """
    if not trace.origin.isascii() or any(ch.isspace() for ch in trace.origin):
        raise ValueError(f"origin {trace.origin!r} must be ASCII without whitespace")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# sample_rate_hz={trace.sample_rate_hz!r} origin={trace.origin}\n")
        for start in range(0, trace.n_samples, _BLOCK):
            block = trace.samples[start : start + _BLOCK].tolist()
            fh.write("%r\n" * len(block) % tuple(block))


def read_trace(path) -> PhaseTrace:
    """Read a write_trace file; blank lines are skipped, every other holds one number."""
    path = os.fsdecode(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
    if not header.startswith("# "):
        raise ValueError(f"{path}: missing trace header")
    try:
        fields = dict(part.split("=", 1) for part in header[2:].split())
        head = PhaseTrace(samples=np.empty(0), sample_rate_hz=float(fields["sample_rate_hz"]),
                          origin=fields["origin"])
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: bad trace header: {exc}") from None
    with warnings.catch_warnings():
        # a header-only trace is valid and holds no samples
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            # by name, not by handle: numpy then reads the file in chunks from C
            body = np.loadtxt(path, skiprows=1, encoding="ascii", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: expected one number per sample line: {exc}") from None
    if body.shape[1] > 1:
        raise ValueError(f"{path}: expected one number per sample line, not {body.shape[1]}")
    return replace(head, samples=body.reshape(-1))


@dataclass(frozen=True)
class SensePlan:
    """One sensing run: its inputs, their defaults and every check on them.

    Building the plan makes every check on its inputs, in the order the run
    meets them, before any array exists. Traces longer than MAX_TRACE_SAMPLES
    raise Infeasible; every other refusal is a ValueError.
    """

    geometry: LinkGeometry
    sources: tuple[VibrationSource, ...]
    seed: int
    duration_s: float
    sample_rate_hz: float
    drift_rate_rad2_per_s: float = 0.01
    noise_std_rad: float = 0.02
    photons_per_frame: float = 1e4

    def __post_init__(self) -> None:
        fs = self.sample_rate_hz
        if not (0.0 < self.duration_s < math.inf and 0.0 < fs < math.inf):
            raise ValueError("duration_s and sample_rate_hz must be > 0 and finite")
        for s in self.sources:
            if s.position_km > self.geometry.length_km:
                raise ValueError(
                    f"source at {s.position_km} km lies past the {self.geometry.length_km} km link"
                )
            if 2.0 * s.frequency_hz > fs:
                raise ValueError(
                    f"sample_rate_hz {fs} aliases the {s.frequency_hz} Hz "
                    "source; need at least twice the highest source frequency"
                )
        if not (self.drift_rate_rad2_per_s >= 0.0 and self.noise_std_rad >= 0.0):
            raise ValueError("noise magnitudes must be >= 0")

        n_samples = self.duration_s * fs
        if not math.isfinite(n_samples):
            raise ValueError(f"duration_s * sample_rate_hz = {n_samples} samples is not finite")
        n = self.n_samples
        if n == 0:
            raise ValueError(f"duration_s * sample_rate_hz = {n_samples!r} rounds to no samples")
        if n > MAX_TRACE_SAMPLES:
            raise Infeasible(
                f"duration_s * sample_rate_hz = {n_samples:g} samples is past the trace cap of "
                f"{MAX_TRACE_SAMPLES:g} samples (MAX_TRACE_SAMPLES)"
            )
        # |sin| <= 1 bounds each waveform by |dc_offset_rad| + |amplitude_rad|, and K = 64 each
        # normal draw, noise or drift step, with room for rounding (numpy's ziggurat normal stays
        # below about 13.7 in magnitude): a finite bound keeps every sample finite
        bound = sum(abs(s.dc_offset_rad) + abs(s.amplitude_rad) for s in self.sources)
        bound += 64.0 * (self.noise_std_rad + n * math.sqrt(self.drift_rate_rad2_per_s / fs))
        if not math.isfinite(bound):
            raise ValueError("the simulated phase is not finite: amplitude_rad, dc_offset_rad, "
                             "drift_rate_rad2_per_s or noise_std_rad is too large")
        _check_photons(self.photons_per_frame)
        _check_lag(n)
        _check_window(self.geometry, fs)
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed {self.seed!r} must be an integer >= 0")

    @property
    def n_samples(self) -> int:
        """Samples per trace: duration_s * sample_rate_hz, rounded."""
        return int(round(self.duration_s * self.sample_rate_hz))


def simulate_phase_traces(plan: SensePlan) -> tuple[PhaseTrace, PhaseTrace]:
    """Phase streams both ends would recover for the plan's disturbances.

    A source at x reaches the alice-side stream after x/v and the
    bob-side stream after (length - x)/v. Both streams share one slow
    random-walk drift (common-mode fiber and laser wander) and carry
    independent white readout noise.
    """
    geometry, sample_rate_hz = plan.geometry, plan.sample_rate_hz
    n = plan.n_samples
    t = np.arange(n) / sample_rate_hz
    v = geometry.light_speed_km_per_s
    alice = np.zeros(n)
    bob = np.zeros(n)
    # a source that starts, or arrives, far past the trace overflows the sine's
    # argument in the samples where it is not active, which the waveform masks
    with np.errstate(over="ignore", invalid="ignore"):
        for s in plan.sources:
            alice += s.waveform(t - s.position_km / v)
            bob += s.waveform(t - (geometry.length_km - s.position_km) / v)

    # in place, with each sum in the order alice + drift + noise
    rng = np.random.default_rng(plan.seed)
    drift = rng.standard_normal(n)
    drift *= math.sqrt(plan.drift_rate_rad2_per_s / sample_rate_hz)
    np.cumsum(drift, out=drift)
    noise = np.empty(n)
    for samples in (alice, bob):
        samples += drift
        rng.standard_normal(out=noise)
        noise *= plan.noise_std_rad
        samples += noise
    return (
        PhaseTrace(samples=alice, sample_rate_hz=sample_rate_hz, origin="alice"),
        PhaseTrace(samples=bob, sample_rate_hz=sample_rate_hz, origin="bob"),
    )


def _check_photons(photons_per_frame: float) -> None:
    if not photons_per_frame > 0.0:
        raise ValueError("photons_per_frame must be > 0")
    if photons_per_frame > 2.0**53:
        raise ValueError(f"photons_per_frame {photons_per_frame:g} is past 2**53, "
                         "where the counts stop being exact in float")


def synthesize_reference_counts(
    phases: np.ndarray,
    photons_per_frame: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame detector counts for a phase stream on the reference tone.

    Each frame's photons go half to an in-phase frame and half to a frame
    offset by pi/2, so the counts have shape (2, frames): in row 0 the two
    ports split as (1 +- cos(phase))/2, in row 1 as (1 +- sin(phase))/2.
    With an rng the counts are the Poisson draws as drawn (int64), all of
    the left port before the right; without one the exact float means are
    returned, which is handy for checking estimator bias in isolation.
    photons_per_frame is at most 2**53, so that every count, and the sum of
    the two ports of a frame, stays exact in float.
    """
    phases = np.asarray(phases, dtype=float)
    _check_photons(photons_per_frame)
    quarter = 0.25 * photons_per_frame
    mean_left = np.empty((2, phases.size))
    np.cos(phases, out=mean_left[0])
    np.sin(phases, out=mean_left[1])
    mean_right = np.subtract(1.0, mean_left)
    mean_right *= quarter
    mean_left += 1.0
    mean_left *= quarter
    if rng is None:
        return mean_left, mean_right
    counts_left = rng.poisson(mean_left)
    del mean_left  # the right port draws without it
    return counts_left, rng.poisson(mean_right)


# frames per block of the phase recovery and its unwrap: their temporaries
# stay a fixed size (about 1 MB), whatever the trace length
_PHASE_BLOCK = 1 << 14


def _unwrap(phase: np.ndarray) -> None:
    """np.unwrap(phase) written over phase, one block of samples at a time.

    Each block repeats np.unwrap's arithmetic on its steps, its tie rule at a
    step of exactly +-pi included. The correction summed over the blocks
    before is added to the block's first term before its cumsum, so the sum
    runs in one sequence as np.unwrap's does and every sample is the same.
    """
    prev, carry = phase[0], 0.0
    for start in range(1, phase.size, _PHASE_BLOCK):
        block = phase[start : start + _PHASE_BLOCK]
        step = np.diff(block, prepend=prev)
        prev = block[-1]
        correction = np.mod(step + math.pi, 2.0 * math.pi) - math.pi
        np.copyto(correction, math.pi, where=(correction == -math.pi) & (step > 0))
        correction -= step
        np.copyto(correction, 0.0, where=abs(step) < math.pi)
        correction[0] += carry
        np.cumsum(correction, out=correction)
        carry = correction[-1]
        block += correction


def recover_phase_from_reference(
    counts_left: np.ndarray,
    counts_right: np.ndarray,
    frame_rate_hz: float,
    origin: str = "recovered",
) -> PhaseTrace:
    """Phase trace from the port counts of the two quadrature frames.

    Each row's contrast (left-right)/(left+right) reads cos(phase) in row 0
    and sin(phase) in row 1; arctan2 of the pair gives the phase mod 2*pi,
    and an unwrap that gives np.unwrap's every sample restores the winding,
    which holds while the phase moves less than pi per frame. The first
    frame takes the principal value in (-pi, pi]. A frame with no photons
    on either port of either row carries no phase information and raises
    Infeasible. Both steps run over blocks of frames, so beside the trace
    they hold only a block's temporaries. Integer counts are read as they
    are, with no float copy of either array: the sum and the difference
    are formed in float, exactly while the counts stay below 2**53.
    """
    nl = np.asarray(counts_left)
    nr = np.asarray(counts_right)
    if nl.shape != nr.shape or nl.ndim != 2 or nl.shape[0] != 2:
        raise ValueError("count arrays must both have shape (2, frames)")
    if nl.shape[1] == 0:
        raise ValueError("need at least one frame")
    if not frame_rate_hz > 0.0:
        raise ValueError("frame_rate_hz must be > 0")
    samples = np.empty(nl.shape[1])
    for start in range(0, samples.size, _PHASE_BLOCK):
        frames = slice(start, start + _PHASE_BLOCK)
        total = np.add(nl[:, frames], nr[:, frames], dtype=float)
        if np.any(total <= 0.0):
            raise Infeasible("a frame recorded no photons on either port")
        contrast = np.subtract(nl[:, frames], nr[:, frames], dtype=float)
        contrast /= total
        np.arctan2(contrast[1], contrast[0], out=samples[frames])
    _unwrap(samples)
    return PhaseTrace(samples=samples, sample_rate_hz=frame_rate_hz, origin=origin)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * y) in numpy's own loop, on the calling thread.

    np.dot hands long vectors to the threaded BLAS, which wakes its worker
    threads on every call: inside a `sense` run on a 2-core Xeon, two such
    dots over 120k samples took 15 ms, against 0.1 ms on one thread.
    """
    return float(np.einsum("i,i->", x, y))


def _check_lag(n: int) -> None:
    if n < 3:
        raise ValueError("traces must hold at least 3 samples")


def _correlate(trace_a: PhaseTrace, trace_b: PhaseTrace, cap: int) -> tuple[float, float]:
    """Differential delay of trace_b behind trace_a, in seconds, over |lag| <= cap samples.

    Both traces are linearly detrended, cross-correlated over the lags up to
    +-cap, and the integer peak is refined by a parabolic fit through its
    neighbors. The detrend is the closed-form least-squares line: the mean,
    then the slope against the centred sample index. The correlation is one
    FFT at the smallest power of two >= n + cap, the shortest length at which
    the lags up to +-cap do not wrap. A trace whose detrended energy is zero
    or not finite raises Infeasible. A positive delay means trace_b lags. The
    second return value is the peak correlation after global normalization,
    in [-1, 1].
    """
    n, fs = trace_a.n_samples, trace_a.sample_rate_hz
    centred = np.arange(n) - 0.5 * (n - 1)
    slope_scale = 12.0 / ((n - 1) * n * (n + 1))  # 1 / sum(centred**2)
    # a NaN or infinite sample turns the detrended trace into NaN, which the
    # energy check below refuses
    with np.errstate(invalid="ignore", over="ignore"):
        a = trace_a.samples - trace_a.samples.mean()
        a -= _dot(centred, a) * slope_scale * centred
        b = trace_b.samples - trace_b.samples.mean()
        b -= _dot(centred, b) * slope_scale * centred
    norm = math.sqrt(_dot(a, a) * _dot(b, b))
    if norm == 0.0:
        raise Infeasible("a trace is constant after detrending")
    if not math.isfinite(norm):  # a NaN or infinite sample, or an energy that overflows
        raise Infeasible(f"a trace's energy after detrending is {norm!r}, not finite")

    # the detrend's arrays are dropped once used, and the spectrum is formed in place
    del centred
    size = 1 << (n + cap - 1).bit_length()
    spectrum = np.fft.rfft(a, size)
    del a
    np.conjugate(spectrum, out=spectrum)
    spectrum *= np.fft.rfft(b, size)
    del b
    corr = np.fft.irfft(spectrum, size)
    # corr[lag mod size] = sum_n a[n] b[n+lag]; values[i] holds lag i - cap
    values = np.concatenate([corr[size - cap:], corr[: cap + 1]])

    peak = int(np.argmax(values))
    offset = 0.0
    if 0 < peak < len(values) - 1:
        r0, rp, rm = values[peak], values[peak + 1], values[peak - 1]
        denom = 2.0 * (2.0 * r0 - rp - rm)
        if denom > 0.0:
            offset = float(np.clip((rp - rm) / denom, -0.5, 0.5))
    delay = (float(peak - cap) + offset) / fs
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


def _check_window(geometry: LinkGeometry, sample_rate_hz: float) -> float:
    """The end of the delay window, the link's max_delay_s plus one sample period, in s.

    A window whose end maps to a non-finite position is refused: the position
    grows with |delay|, so every delay inside maps to a finite one."""
    end_s, v = geometry.max_delay_s + 1.0 / sample_rate_hz, geometry.light_speed_km_per_s
    if not math.isfinite(geometry.length_km + v * end_s):
        raise ValueError(f"the delay window's end, max_delay_s plus one sample period = "
                         f"{end_s:g} s, maps to a non-finite position at "
                         f"light_speed_km_per_s {v:g}")
    return end_s


def locate_traces(
    trace_alice: PhaseTrace,
    trace_bob: PhaseTrace,
    geometry: LinkGeometry,
) -> LocalizationResult:
    """Correlate two end-point traces and place the disturbance.

    The traces must share one sample rate and one length of at least 3
    samples. The delay can only lie within the link's max_delay_s of zero,
    give or take a sample: the lag search stops at max_delay_s plus one
    sample period, the slack. A positive delay means the bob-side stream
    lags, putting the source at (length + v*delay)/2 from the bob end. A
    delay within the slack past the link is clamped onto the fiber with
    out_of_range set; one further out, which only the rounding of the
    window's end in samples lets through, raises Infeasible, as does a trace
    that is constant or not finite after detrending. A window whose end maps
    to a non-finite position raises ValueError.
    """
    if trace_alice.sample_rate_hz != trace_bob.sample_rate_hz:
        raise ValueError("traces must share one sample rate")
    if trace_alice.n_samples != trace_bob.n_samples:
        raise ValueError("traces must be equally long")
    n, fs = trace_alice.n_samples, trace_alice.sample_rate_hz
    _check_lag(n)
    window_s = _check_window(geometry, fs)
    cap = n - 1
    if window_s * fs < cap:  # a window wider than the trace leaves every lag
        cap = math.floor(window_s * fs)
    delay_s, peak = _correlate(trace_alice, trace_bob, cap)
    if abs(delay_s) > window_s:
        raise Infeasible(f"delay {delay_s:.3e} s exceeds the link's "
                         f"{geometry.max_delay_s:.3e} s plus slack")
    raw = 0.5 * (geometry.length_km + geometry.light_speed_km_per_s * delay_s)
    clamped = min(max(raw, 0.0), geometry.length_km)
    return LocalizationResult(
        delay_s=delay_s,
        position_from_bob_km=clamped,
        position_from_alice_km=geometry.length_km - clamped,
        position_from_bob_unclamped_km=raw,
        correlation_peak=peak,
        out_of_range=raw != clamped,
    )


def sense(plan: SensePlan) -> tuple[PhaseTrace, PhaseTrace, LocalizationResult]:
    """Simulate both ends, recover each from its reference counts, and localize.

    Each end's counts are drawn on a substream of the seed of its own: alice's
    spawn key is 2 and bob's 1.
    """
    traces = list(simulate_phase_traces(plan))
    for i, key in enumerate((2, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(key,)))
        counts = synthesize_reference_counts(traces[i].samples, plan.photons_per_frame, rng)
        # the raw trace is freed before the recovered one is allocated, which
        # can then take its place, and the counts before the next end's are drawn
        origin, traces[i] = traces[i].origin, None
        traces[i] = recover_phase_from_reference(*counts, plan.sample_rate_hz, origin)
        del counts
    return (*traces, locate_traces(*traces, plan.geometry))
