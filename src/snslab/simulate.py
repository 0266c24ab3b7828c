"""Session simulation for the four-intensity sending-or-not-sending protocol.

Both senders emit phase-randomized weak coherent pulses toward the middle
station, which interferes them on a balanced beam splitter and announces
which single detector fired. Decoy windows (both sides chose the decoy role)
carry announced phases and feed the yield analysis; signal windows (both
sides chose the signal role) carry the raw key; mixed windows are discarded.

Two views of a session are provided with identical bookkeeping:

* expected_tallies: exact expectations by deterministic quadrature,
* monte_carlo_session: sampled counts, reproducible and partitionable.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import DetectorModel, LinkModel, SourceParams, channel_transmittance

PHASE_GRID_POINTS = 2048
DEFAULT_SLICE_HALF_WIDTH_RAD = 0.3
MC_CHUNK = 1 << 17

DECOY = "decoy"
SIGNAL = "signal"

VAC = "vac"
MU1 = "mu1"
MU2 = "mu2"
MUZ = "muz"

_DECOY_LABELS = (VAC, MU1, MU2)
_SIGNAL_COMBOS = ((MUZ, VAC), (VAC, MUZ), (MUZ, MUZ), (VAC, VAC))
_N_DECOY_ROWS = len(_DECOY_LABELS) ** 2
_N_ROWS = _N_DECOY_ROWS + len(_SIGNAL_COMBOS)

RowKey = tuple[str, str, str]


def row_keys() -> list[RowKey]:
    """Canonical ordering of all tally rows."""
    keys = [(DECOY, la, lb) for la in _DECOY_LABELS for lb in _DECOY_LABELS]
    keys += [(SIGNAL, la, lb) for la, lb in _SIGNAL_COMBOS]
    return keys


def z_bit_assignment(alice_sent, bob_sent):
    """Key-bit convention for a heralded signal-window event.

    Alice's bit is 1 iff she sent; Bob's bit is 0 iff he sent, so the bits
    agree exactly when one and only one side sent. Accepts scalars or
    boolean arrays.

    Returns:
        (bit_alice, bit_bob, is_error)
    """
    a = np.asarray(alice_sent, dtype=bool)
    b = np.asarray(bob_sent, dtype=bool)
    bit_a = a.astype(np.uint8)
    bit_b = (~b).astype(np.uint8)
    err = bit_a != bit_b
    if np.ndim(alice_sent) == 0 and np.ndim(bob_sent) == 0:
        return int(bit_a), int(bit_b), bool(err)
    return bit_a, bit_b, err


@dataclass
class TallyRow:
    """Counters for one (window kind, intensity pair) cell.

    accepted_events and error_events are only populated for decoy rows with
    light on both sides (phase-slice post-selection) and for signal rows
    (key-bit errors). single_photon_events counts heralded events whose
    total emitted photon number was exactly one.
    """

    pulses_sent: float = 0.0
    one_detector_events: float = 0.0
    error_events: float = 0.0
    accepted_events: float = 0.0
    single_photon_events: float = 0.0


@dataclass
class SessionTally:
    """Aggregated session statistics plus the ordered signal-window bits.

    counts has one row per row_keys() entry and one column per TallyRow
    field, in declaration order.
    """

    n_pulses: float
    counts: np.ndarray = field(default_factory=lambda: np.zeros((_N_ROWS, 5)))
    z_bits_alice: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    z_bits_bob: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    @property
    def rows(self) -> dict[RowKey, TallyRow]:
        """Copy of counts as one TallyRow per key, in row_keys() order."""
        return {key: TallyRow(*row) for key, row in zip(row_keys(), self.counts.tolist())}

    def merge(self, other: "SessionTally") -> None:
        self.n_pulses += other.n_pulses
        self.counts = self.counts + other.counts
        self.z_bits_alice = np.concatenate([self.z_bits_alice, other.z_bits_alice])
        self.z_bits_bob = np.concatenate([self.z_bits_bob, other.z_bits_bob])

    def validate(self) -> None:
        pulses, heralds, errors, accepted, _ = self.counts.T
        if np.any(heralds > pulses + 1e-9):
            raise ValueError("one_detector_events exceeds pulses_sent")
        if np.any(errors > heralds + 1e-9):
            raise ValueError("error_events exceeds one_detector_events")
        if np.any(errors > np.where(accepted > 0, accepted, heralds) + 1e-9):
            raise ValueError("error_events exceeds their parent count")
        # mixed-role windows are discarded, so tallied pulses undershoot n_pulses
        if pulses.sum() > self.n_pulses + 1e-6:
            raise ValueError("tallied pulses exceed the session length")

    def total_one_detector_events(self) -> float:
        return sum(self.counts[:, 1].tolist())

    def signal_heralded(self) -> float:
        return sum(self.counts[_N_DECOY_ROWS:, 1].tolist())

    def pre_pairing_qber(self) -> float:
        """Raw key error rate before pairing, from the signal rows."""
        heralded = self.signal_heralded()
        if heralded == 0:
            return 0.0
        return sum(self.counts[_N_DECOY_ROWS:, 2].tolist()) / heralded


def _port_clicks(x, y, theta, noise):
    """Per-angle exclusive and coincident click probabilities of the two ports.

    x, y are the arriving intensities and theta the relative phase; all
    three broadcast against each other.

    Returns:
        (lone_left, lone_right, both) at every broadcast point.
    """
    cross = 2.0 * np.sqrt(x * y) * np.cos(theta)
    p_l = 1.0 - (1.0 - noise) * np.exp(-0.5 * (x + y + cross))
    p_r = 1.0 - (1.0 - noise) * np.exp(-0.5 * (x + y - cross))
    return p_l * (1.0 - p_r), p_r * (1.0 - p_l), p_l * p_r


def click_probabilities(
    intensity_a: float | np.ndarray,
    intensity_b: float | np.ndarray,
    eta_a: float,
    eta_b: float,
    phase_sigma: float = 0.0,
    noise: float = 0.0,
) -> tuple:
    """Single-side and coincidence click probabilities of the interferometer.

    For arriving intensities x = intensity_a * eta_a and y = intensity_b *
    eta_b and relative phase theta, the two output ports see mean photon
    numbers (x + y +- 2 sqrt(x y) cos theta) / 2, and each threshold
    detector fires with probability 1 - (1 - noise) exp(-port intensity).
    The return values are averaged over theta uniform on [0, 2 pi)
    convolved with N(0, phase_sigma^2); the uniform circular measure is
    invariant under that convolution, so a single fixed quadrature over the
    circle evaluates the average exactly.

    The intensities may be equally shaped arrays; the results then have
    that shape, one entry per intensity pair.

    Returns:
        (p_left_only, p_right_only, p_both): the two exclusive one-detector
        probabilities and the discarded coincidence probability.
    """
    ia = np.asarray(intensity_a, dtype=float)
    ib = np.asarray(intensity_b, dtype=float)
    for name, v in (("intensity_a", ia), ("intensity_b", ib)):
        if np.any(v < 0.0):
            raise ValueError(f"{name} must be >= 0")
    for name, v in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must lie in [0, 1)")
    if phase_sigma < 0.0:
        raise ValueError("phase_sigma must be >= 0")

    x = (ia * eta_a)[..., None]
    y = (ib * eta_b)[..., None]
    theta = (np.arange(PHASE_GRID_POINTS) + 0.5) * (2.0 * np.pi / PHASE_GRID_POINTS)
    probs = tuple(p.mean(axis=-1) for p in _port_clicks(x, y, theta, noise))
    if probs[0].ndim == 0:
        return tuple(float(p) for p in probs)
    return probs


_SLICE_DELTA_POINTS = 201


def _check_slice_half_width(half_width: float) -> None:
    if not 0.0 < half_width < math.pi / 2.0:
        raise ValueError("slice_half_width_rad must lie in (0, pi/2)")


@functools.cache
def _jitter_rule() -> tuple[np.ndarray, np.ndarray]:
    """41-point Gauss-Hermite nodes and weights for a standard normal jitter."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(41)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def expected_tallies(
    link: LinkModel,
    det: DetectorModel,
    src: SourceParams,
    n_pulses: float,
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD,
) -> SessionTally:
    """Exact expected counters for every tally row.

    All values are expectations of the Monte Carlo counters, computed by
    the same fixed quadratures used elsewhere in the package. The bit
    arrays stay empty; error expectations live in the row counters.

    All rows are evaluated at once, one array entry per row in row_keys()
    order. Decoy rows lit on both sides also get the post-selected slice:
    the announced phase delta within the half width of 0, actual phase
    delta + jitter, constructive port on the left. The slice around pi
    contributes identically with ports swapped, so the slice averages are
    scaled by the total acceptance fraction.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    _check_slice_half_width(slice_half_width_rad)
    eta_a, eta_b = channel_transmittance(link, det)
    nu = link.noise_per_pulse
    sigma = src.jitter_sigma_rad
    accept_frac = 2.0 * slice_half_width_rad / math.pi

    keys = row_keys()
    level = {VAC: 0.0, MU1: src.mu1, MU2: src.mu2, MUZ: src.muz}
    ia = np.array([level[a] for _, a, _ in keys])
    ib = np.array([level[b] for _, _, b in keys])
    mix = {VAC: src.p_vac, MU1: src.p_mu1, MU2: src.p_mu2}
    n_decoy = n_pulses * src.p_decoy_window**2
    n_signal = n_pulses * src.p_signal_window**2
    eps = src.epsilon_send
    # _SIGNAL_COMBOS order: one side sent (twice), both sent, neither sent
    combos = (eps * (1.0 - eps), eps * (1.0 - eps), eps * eps, (1.0 - eps) ** 2)
    pulses = np.array(
        [n_decoy * mix[a] * mix[b] for a in _DECOY_LABELS for b in _DECOY_LABELS]
        + [n_signal * p for p in combos]
    )

    lone_l, lone_r, _ = click_probabilities(ia, ib, eta_a, eta_b, sigma, nu)
    heralds = pulses * (lone_l + lone_r)
    # a signal row's heralds are all bit errors when both or neither side sent
    errors = np.where([k == SIGNAL and a == b for k, a, b in keys], heralds, 0.0)
    accepted = np.zeros(len(keys))

    lit = np.array([k == DECOY for k, _, _ in keys]) & (ia > 0.0) & (ib > 0.0)
    delta = (np.arange(_SLICE_DELTA_POINTS) + 0.5) / _SLICE_DELTA_POINTS
    delta = (2.0 * delta - 1.0) * slice_half_width_rad
    nodes, weights = _jitter_rule()
    theta = delta[:, None] + sigma * nodes[None, :]
    x = (ia[lit] * eta_a)[:, None, None]
    y = (ib[lit] * eta_b)[:, None, None]
    slice_l, slice_r, _ = _port_clicks(x, y, theta, nu)
    slice_l, slice_r = slice_l @ weights, slice_r @ weights
    accepted[lit] = pulses[lit] * accept_frac * np.mean(slice_l + slice_r, axis=-1)
    errors[lit] = pulses[lit] * accept_frac * np.mean(slice_r, axis=-1)

    # P(exactly one detector fires | one photon emitted in total)
    total = ia + ib  # a dark row has no single-photon term; 1 avoids 0 / 0
    arrive = (ia * eta_a + ib * eta_b) / np.where(total > 0.0, total, 1.0)
    p1 = arrive * (1.0 - nu) + (1.0 - arrive) * 2.0 * nu * (1.0 - nu)
    single = pulses * np.exp(-total) * total * p1

    counts = np.stack([pulses, heralds, errors, accepted, single], axis=1)
    return SessionTally(float(n_pulses), counts)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    )


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


def monte_carlo_session(
    link: LinkModel,
    det: DetectorModel,
    src: SourceParams,
    n_pulses: int,
    seed: int,
    n_jobs: int = 1,
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD,
) -> SessionTally:
    """Sample a full session of n_pulses time slots.

    The pulse range is cut into fixed-size chunks, each driven by a
    substream derived from (seed, chunk index), so the result is
    bit-identical for any n_jobs and any partitioning of chunks over
    workers. Ground-truth photon numbers are recorded per row so the decoy
    analysis can be audited against the simulator.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    _check_slice_half_width(slice_half_width_rad)
    eta_a, eta_b = channel_transmittance(link, det)
    nu = link.noise_per_pulse
    n_pulses = int(n_pulses)
    # the chunk partition is fixed by n_pulses alone, never by the job count
    chunks = range(-(-n_pulses // MC_CHUNK))

    def run(idx: int) -> SessionTally:
        size = min(MC_CHUNK, n_pulses - idx * MC_CHUNK)
        rng = _chunk_rng(seed, idx)
        data = _simulate_chunk(rng, size, src, eta_a, eta_b, nu, slice_half_width_rad)
        return _tally_chunk(data, size)

    if n_jobs == 1 or len(chunks) <= 1:
        partials = [run(idx) for idx in chunks]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            partials = list(pool.map(run, chunks))

    tally = SessionTally(n_pulses=0.0)
    for part in partials:  # merge in chunk order to keep bit streams stable
        tally.merge(part)
    tally.validate()
    return tally

