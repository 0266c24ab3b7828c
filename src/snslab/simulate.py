"""Session simulation for the four-intensity sending-or-not-sending protocol.

Both senders emit phase-randomized weak coherent pulses toward the middle
station, which interferes them on a balanced beam splitter and announces
which single detector fired. Decoy windows (both sides chose the decoy role)
carry announced phases and feed the yield analysis; signal windows (both
sides chose the signal role) carry the raw key; mixed windows are discarded.

Two views of a session are provided with identical bookkeeping:

* expected_tallies: exact expectations in closed form (Jacobi-Anger,
  Abramowitz & Stegun 9.6.34 and 9.6.37),
* monte_carlo_session: sampled counts, reproducible and partitionable.

The sampler's draw order is part of its contract, because it fixes the
seeded stream. Each chunk draws, in this order:

1. one uniform per slot, mapped to the slot's row code (13 tally rows plus
   discarded) by thresholds on the row probabilities of _row_pulses;
2. for Alice, then for Bob: the photon number, only where the side's
   intensity is > 0, then its channel survival, only where it emitted;
3. the dark clicks of each detector: a binomial(n, noise) count, then that
   many slot positions without replacement;
4. one uniform phase per slot where a click can be read (a photon arrived
   or a detector clicked dark), read as the announced phase in decoy
   windows and as the relative phase in signal windows, then the jitter
   of each slot a photon reached;
5. the port split of the arrived photons.

The row code carries the roles, decoy picks and send decisions, so the
tallies and the slot-ordered key bits have the law that independent
per-slot draws of each of them would give. The sampler reads no click
probability: every click comes from photons or from the dark-count draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .model import (
    MAX_INTENSITY, DetectorModel, LinkModel, SourceParams, channel_transmittance,
)

DEFAULT_SLICE_HALF_WIDTH_RAD = 0.3
MC_CHUNK = 1 << 17
# the largest session monte_carlo_session accepts; README derives it from
# the sampler's measured cost per pulse
MC_MAX_PULSES = 1e9

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


def _row_intensities(src: SourceParams) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's intensity in every tally row, in row_keys() order."""
    level = {VAC: 0.0, MU1: src.mu1, MU2: src.mu2, MUZ: src.muz}
    keys = row_keys()
    return np.array([level[a] for _, a, _ in keys]), np.array([level[b] for _, _, b in keys])


def _row_pulses(src: SourceParams, n_pulses: float) -> np.ndarray:
    """Expected pulses of every tally row in a session of n_pulses, in row_keys() order.

    At n_pulses = 1 these are the row probabilities; the remaining
    2 p_signal_window (1 - p_signal_window) are the discarded mixed windows.
    """
    mix = {VAC: src.p_vac, MU1: src.p_mu1, MU2: src.p_mu2}
    n_decoy = n_pulses * src.p_decoy_window**2
    n_signal = n_pulses * src.p_signal_window**2
    eps = src.epsilon_send
    # _SIGNAL_COMBOS order: one side sent (twice), both sent, neither sent
    combos = (eps * (1.0 - eps), eps * (1.0 - eps), eps * eps, (1.0 - eps) ** 2)
    return np.array(
        [n_decoy * mix[a] * mix[b] for a in _DECOY_LABELS for b in _DECOY_LABELS]
        + [n_signal * p for p in combos]
    )


# the send decisions of Alice and Bob that each row code stands for
_SENDS = np.array([(a == MUZ, b == MUZ) for _, a, b in row_keys()]).T


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


def _lone_clicks(x, y, noise, gain=None):
    """Phase-averaged click probabilities of the two ports, in closed form.

    x, y are equally shaped arrays of arriving intensities. At relative
    phase theta the left port alone fires with probability
    A exp(r cos theta) - A^2, where A = (1 - noise) exp(-(x + y) / 2) and
    r = sqrt(x y); the right port alone fires so at theta + pi. gain maps an
    array of harmonic numbers k >= 1 to the mean of cos k theta under the
    phase measure; None is the uniform circle, where every gain is 0.

    By Jacobi-Anger (Abramowitz & Stegun 9.6.34), a measure with gains g_k
    averages exp(r cos theta) to I_0 (1 + 2 sum_k g_k rho_k), where
    rho_k = I_k(r) / I_0(r). So

        lone_+- = A (1 - A) + A (I_0 - 1) + 2 A I_0 sum_k (+-1)^k g_k rho_k.

    The point measures at theta = 0 and theta = pi / 2 give (9.6.37)
    exp(-r) I_0 = 1 / (1 + 2 sum_k rho_k) and, without cancellation for
    r < 1, I_0 - 1 = 2 I_0 (rho_2 - rho_4 + rho_6 - ...). Hence
    A I_0 = (1 - noise) exp(-(sqrt x - sqrt y)^2 / 2) exp(-r) I_0 never
    overflows. Every rho_k comes from the backward continued fraction
    t_k = I_k / I_(k-1) = r / (2 k + r t_(k+1)), each t_k in [0, 1).

    Returns:
        (lone_left, lone_right, both), both being the coincidence.
    """
    log_a = math.log1p(-noise) - 0.5 * (x + y)
    a = np.exp(log_a)
    one_minus_a = -np.expm1(log_a)
    root_x, root_y = np.sqrt(x), np.sqrt(y)
    r = root_x * root_y
    # rho_k is below 1e-17 from harmonic 16 on for r <= 1, 33 at r = 10 and
    # 91 at r = 100; 12 + 12 sqrt(r) stays 45% above that, so the fraction,
    # started at 0, has settled. Each entry sums its own count of harmonics,
    # so no entry's result depends on another's.
    n_harmonics = np.floor(12.0 + 12.0 * np.sqrt(r))
    k = np.arange(1, int(np.max(n_harmonics, initial=0.0)) + 1)
    axes = (1,) * r.ndim
    r_k = np.where(k.reshape(-1, *axes) <= n_harmonics, r, 0.0)
    # gains of the point measures at theta = 0 and pi / 2, then of the
    # caller's measure and of its shift by pi
    g = np.zeros(k.size) if gain is None else gain(k)
    rows = (np.ones(k.size), np.array([1.0, 0.0, -1.0, 0.0])[k % 4], g, np.where(k % 2, -g, g))
    gains = np.stack(rows, axis=1).reshape(k.size, 4, *axes)
    # sum_k g_k rho_k = t_1 (g_1 + t_2 (g_2 + ...)), one backward pass for all rows
    t = np.zeros_like(r)
    sums = np.zeros((4,) + r.shape)
    for j in range(k.size - 1, -1, -1):
        t = r_k[j] / (2.0 * k[j] + r_k[j] * t)
        sums = t * (gains[j] + sums)

    gap = root_x - root_y
    a_i0 = (1.0 - noise) * np.exp(-0.5 * gap * gap) / (1.0 + 2.0 * sums[0])
    a_i0_excess = np.where(r < 1.0, -2.0 * a_i0 * sums[1], a_i0 - a)
    base = a * one_minus_a + a_i0_excess
    plus, minus = 2.0 * a_i0 * sums[2], 2.0 * a_i0 * sums[3]
    # numpy's scalar ** rounds differently from its array **, so multiply
    both = one_minus_a * one_minus_a - 2.0 * a_i0_excess - plus - minus
    return base + plus, base + minus, both


def click_probabilities(
    intensity_a: float | np.ndarray,
    intensity_b: float | np.ndarray,
    eta_a: float,
    eta_b: float,
    noise: float = 0.0,
) -> tuple:
    """Single-side and coincidence click probabilities of the interferometer.

    For arriving intensities x = intensity_a * eta_a and y = intensity_b *
    eta_b and relative phase theta, the two output ports see mean photon
    numbers (x + y +- 2 sqrt(x y) cos theta) / 2, and each threshold
    detector fires with probability 1 - (1 - noise) exp(-port intensity).
    The return values are averaged over theta uniform on [0, 2 pi), in
    closed form (see _lone_clicks); phase jitter leaves that average as it
    is.

    The intensities may be equally shaped arrays; the results then have
    that shape, one entry per intensity pair.

    Returns:
        (p_left_only, p_right_only, p_both): the two exclusive one-detector
        probabilities and the discarded coincidence probability.
    """
    ia = np.asarray(intensity_a, dtype=float)
    ib = np.asarray(intensity_b, dtype=float)
    for name, v in (("intensity_a", ia), ("intensity_b", ib)):
        if not np.all((v >= 0.0) & (v <= MAX_INTENSITY)):
            raise ValueError(f"{name} must lie in [0, {MAX_INTENSITY:g}]")
    for name, v in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must lie in [0, 1)")

    probs = _lone_clicks(ia * eta_a, ib * eta_b, noise)
    if probs[0].ndim == 0:
        return tuple(float(p) for p in probs)
    return probs


def _check_slice_half_width(half_width: float) -> None:
    if not 0.0 < half_width < math.pi / 2.0:
        raise ValueError("slice_half_width_rad must lie in (0, pi/2)")


def expected_tallies(
    link: LinkModel,
    det: DetectorModel,
    src: SourceParams,
    n_pulses: float,
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD,
) -> SessionTally:
    """Exact expected counters for every tally row.

    All values are expectations of the Monte Carlo counters, computed in
    closed form: the phase averages are Jacobi-Anger series of modified
    Bessel functions (Abramowitz & Stegun 9.6.34 and 9.6.37, see
    _lone_clicks). The bit arrays stay empty; error expectations live in
    the row counters.

    All rows are evaluated at once, one array entry per row in row_keys()
    order. Decoy rows lit on both sides also get the post-selected slice:
    the announced phase delta within the half width of 0, actual phase
    delta + jitter, constructive port on the left. The slice around pi
    contributes identically with ports swapped, so the slice averages are
    scaled by the total acceptance fraction. The slice scales harmonic k
    of the phase by sin(k w) / (k w) for the announced window of half
    width w and by exp(-k^2 sigma^2 / 2) for the jitter.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    _check_slice_half_width(slice_half_width_rad)
    eta_a, eta_b = channel_transmittance(link, det)
    nu = link.noise_per_pulse
    sigma = src.jitter_sigma_rad
    accept_frac = 2.0 * slice_half_width_rad / math.pi

    keys = row_keys()
    ia, ib = _row_intensities(src)
    pulses = _row_pulses(src, n_pulses)

    lone_l, lone_r, _ = click_probabilities(ia, ib, eta_a, eta_b, nu)
    heralds = pulses * (lone_l + lone_r)
    # a signal row's heralds are all bit errors when both or neither side sent
    errors = np.where([k == SIGNAL and a == b for k, a, b in keys], heralds, 0.0)
    accepted = np.zeros(len(keys))

    lit = np.array([k == DECOY for k, _, _ in keys]) & (ia > 0.0) & (ib > 0.0)

    def slice_gain(k):
        # uniform announced phase on [-w, w] times Gaussian jitter
        w = slice_half_width_rad
        return np.sinc(k * (w / math.pi)) * np.exp(-0.5 * (k * sigma) ** 2)

    slice_l, slice_r, _ = _lone_clicks(ia[lit] * eta_a, ib[lit] * eta_b, nu, slice_gain)
    accepted[lit] = pulses[lit] * accept_frac * (slice_l + slice_r)
    errors[lit] = pulses[lit] * accept_frac * slice_r

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


def _sample_chunk(
    rng: np.random.Generator,
    n: int,
    src: SourceParams,
    eta_a: float,
    eta_b: float,
    nu: float,
    half_width: float,
) -> SessionTally:
    """Sample one block of n time slots and tally it.

    The draws, in this order, fix the seeded stream (see the module
    docstring): the row code of every slot, from one uniform each; for each
    side in turn, the photon number where its intensity is > 0, then the
    channel survival where it emitted; each detector's dark clicks, a
    binomial(n, nu) count placed on that many distinct slots; one phase per
    slot where a click can be read, then the jitter of each slot a photon
    reached; the port split of the arrived photons. Everything after the
    photon draws works on the readable slots only, in slot order.
    """
    thresholds = np.cumsum(_row_pulses(src, 1.0))
    # where no window is discarded the last threshold becomes exactly 1
    thresholds /= thresholds[-1] + 2.0 * src.p_signal_window * src.p_decoy_window
    # row codes: decoy pairs 0..8, signal combos 9..12, discarded 13; the
    # number of slots at or past each threshold gives the pulse column
    u = rng.random(n)
    row = np.zeros(n, dtype=np.uint8)
    past = [n]
    for threshold in thresholds:
        beyond = u >= threshold
        row += beyond
        past.append(np.count_nonzero(beyond))
    pulses = -np.diff(past)
    ia, ib = (np.append(levels, 0.0) for levels in _row_intensities(src))

    emitted = np.zeros(n, dtype=np.int64)  # both sides' photons, for the single-photon column
    reached = []
    for levels, eta in ((ia, eta_a), (ib, eta_b)):
        slots = np.flatnonzero((levels > 0.0).take(row))
        photons = rng.poisson(levels.take(row.take(slots)))
        fired = photons > 0
        slots, photons = slots[fired], photons[fired]
        emitted[slots] += photons
        arrivals = rng.binomial(photons, eta)
        reached.append((slots[arrivals > 0], arrivals[arrivals > 0]))

    dark = [rng.choice(n, rng.binomial(n, nu), replace=False, shuffle=False) for _ in range(2)]
    # from here on, one entry per slot where a click can be read, in slot order
    slot = np.sort(np.concatenate([slots for slots, _ in reached] + dark))
    slot = slot[np.diff(slot, prepend=-1) > 0]  # np.unique costs ten times more here
    arrived = np.zeros(slot.size, dtype=np.int64)
    for slots, arrivals in reached:
        arrived[np.searchsorted(slot, slots)] += arrivals
    r = row[slot]
    # in turns: the announced phase of a decoy window, the phase of a signal window
    turn = rng.random(slot.size)
    hit = np.flatnonzero(arrived)
    n_hit = arrived[hit]
    # a uniform phase plus jitter is still uniform, so signal windows take
    # the jitter as well without changing their law
    theta = turn[hit] * (2.0 * np.pi) + rng.standard_normal(hit.size) * src.jitter_sigma_rad
    x = ia.take(r[hit]) * eta_a
    y = ib.take(r[hit]) * eta_b
    p_left_port = 0.5 + np.sqrt(x * y) * np.cos(theta) / (x + y)  # x + y > 0 where photons arrive
    n_left = rng.binomial(n_hit, np.clip(p_left_port, 0.0, 1.0))
    click_l = np.zeros(slot.size, dtype=bool)
    click_r = np.zeros(slot.size, dtype=bool)
    click_l[hit] = n_left > 0
    click_r[hit] = n_left < n_hit
    for click, positions in zip((click_l, click_r), dark):
        click[np.searchsorted(slot, positions)] = True

    # classify the lone heralds of tallied windows
    herald = np.flatnonzero((click_l ^ click_r) & (r < _N_ROWS))
    r = r[herald]
    phase = turn[herald] * (2.0 * np.pi)
    in0 = np.abs((phase + np.pi) % (2.0 * np.pi) - np.pi) <= half_width
    inpi = np.abs(phase - np.pi) <= half_width
    lit = (ia > 0.0) & (ib > 0.0)
    lit[_N_DECOY_ROWS:] = False  # the slice applies to decoy rows only
    accepted = lit[r] & (in0 | inpi)
    error = accepted & np.where(click_l[herald], inpi, in0)
    z = r >= _N_DECOY_ROWS
    bits_a, bits_b, z_error = z_bit_assignment(*_SENDS[:, r[z]])
    # wrong-port errors occur only in decoy rows and key-bit errors only in
    # signal rows, so one error column serves both row kinds
    error[z] = z_error
    single = emitted[slot[herald]] == 1

    columns = [pulses, np.bincount(r, minlength=_N_ROWS)]
    columns += [np.bincount(r[mask], minlength=_N_ROWS) for mask in (error, accepted, single)]
    return SessionTally(float(n), np.stack(columns, axis=1, dtype=float), bits_a, bits_b)


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
    analysis can be audited against the simulator. A session longer than
    MC_MAX_PULSES is refused before the first chunk.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    if n_pulses > MC_MAX_PULSES:
        raise ValueError(
            f"n_pulses {n_pulses:g} is past the sampler's cap of {MC_MAX_PULSES:g} pulses"
            " (MC_MAX_PULSES)"
        )
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
        return _sample_chunk(rng, size, src, eta_a, eta_b, nu, slice_half_width_rad)

    tally = SessionTally(n_pulses=0.0)
    threaded = n_jobs > 1 and len(chunks) > 1
    with ThreadPoolExecutor(max_workers=n_jobs) if threaded else nullcontext() as pool:
        for part in (pool.map if threaded else map)(run, chunks):
            tally.merge(part)  # in chunk order, to keep the bit streams stable
    tally.validate()
    return tally

