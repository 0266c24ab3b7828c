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
seeded stream. A slot can click only where a photon reaches the station or
a detector fires dark; such a slot is readable, and the sampler draws
nothing for the others. The draws of each chunk, in order and with their
formulas, are listed in _sample_run's docstring.

The tallies have the law that independent per-slot draws of roles, decoy
picks, send decisions, photons and dark clicks would give: a slot that is
not readable cannot click, and a readable slot's arrivals and dark clicks
get their joint law given that one of them happened. The slots of a chunk
are iid, so the slot order of its signal heralds is a uniform order, and a
permutation gives the key bits the law of slot-ordered bits. The sampler
reads no click probability: a row's readable share only says that some
photon arrived or some detector fired dark, and every click comes from
photons or from the dark clicks.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    MAX_INTENSITY, DetectorModel, Infeasible, LinkModel, SourceParams, channel_transmittance,
)

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


# each row's level on Alice's and on Bob's side, as an index into (0, mu1, mu2, muz)
_LEVELS = (VAC, MU1, MU2, MUZ)
_SIDE_A = np.array([_LEVELS.index(a) for _, a, _ in row_keys()])
_SIDE_B = np.array([_LEVELS.index(b) for _, _, b in row_keys()])


def _row_intensities(src: SourceParams, triples=None) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's intensity in every tally row, in row_keys() order.

    They are src's own, or with triples, an (n, 3) array of (mu1, mu2, muz)
    rows, one row of intensities per triple.
    """
    mu = np.array([src.mu1, src.mu2, src.muz]) if triples is None else np.asarray(triples, float)
    levels = np.concatenate([np.zeros(mu.shape[:-1] + (1,)), mu], axis=-1)
    return levels[..., _SIDE_A], levels[..., _SIDE_B]


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


# decoy rows with light on both sides; mu1 and mu2 are > 0 in every SourceParams
_LIT = np.array([k == DECOY and a != VAC and b != VAC for k, a, b in row_keys()])


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


# the key bits of Alice and Bob that each row code stands for, from the
# send decisions of its signal combo; a signal row's heralds are all bit
# errors where its two bits differ
_BITS_A, _BITS_B, _ALL_ERRORS = z_bit_assignment(
    *np.array([(a == MUZ, b == MUZ) for _, a, b in row_keys()]).T
)
_ALL_ERRORS[:_N_DECOY_ROWS] = False


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
    field, in declaration order. A sampled session holds its bits chunk by
    chunk, in chunk order; within a chunk they come in a uniformly random
    order, which is the law of slot order for iid slots (see _sample_run).
    """

    n_pulses: float
    counts: np.ndarray = field(default_factory=lambda: np.zeros((_N_ROWS, 5)))
    z_bits_alice: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    z_bits_bob: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    @property
    def rows(self) -> dict[RowKey, TallyRow]:
        """Copy of counts as one TallyRow per key, in row_keys() order."""
        return {key: TallyRow(*row) for key, row in zip(row_keys(), self.counts.tolist())}

    def merge(self, *others: "SessionTally") -> None:
        """Add the others' counts in argument order and append their bits in that order.

        Each bit stream is joined by one concatenation, so merging many parts
        in one call costs time linear in the bits.
        """
        for other in others:
            self.n_pulses += other.n_pulses
            self.counts = self.counts + other.counts
        self.z_bits_alice = np.concatenate([self.z_bits_alice, *(o.z_bits_alice for o in others)])
        self.z_bits_bob = np.concatenate([self.z_bits_bob, *(o.z_bits_bob for o in others)])

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

    def key_bit_cells(self) -> dict[tuple[int, int], float]:
        """Signal heralds by (Alice bit, Bob bit) cell, as z_bit_assignment assigns them.

        Each signal row is one cell, and the cells come in row order. A cell
        is a bit error where its two bits differ.
        """
        signal = slice(_N_DECOY_ROWS, None)
        cells = zip(_BITS_A[signal].tolist(), _BITS_B[signal].tolist())
        return dict(zip(cells, self.counts[signal, 1].tolist()))

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
    r = sqrt(x y); the right port alone fires so at theta + pi. gain maps a
    column of harmonic numbers k >= 1, of shape (K, 1, ..., 1) with one
    axis per axis of x, to the mean of cos k theta under the phase measure;
    its result broadcasts against (K,) + x.shape, so each entry may have
    its own measure. None is the uniform circle, where every gain is 0.

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
    k_col = k.reshape(-1, *(1,) * r.ndim)
    r_k = np.where(k_col <= n_harmonics, r, 0.0)
    # gains of the point measures at theta = 0 and pi / 2, then of the
    # caller's measure and of its shift by pi
    g = 0.0 if gain is None else gain(k_col)
    gains = np.empty((k.size, 4) + np.broadcast_shapes(k_col.shape, np.shape(g))[1:])
    gains[:, 0] = 1.0
    gains[:, 1] = np.array([1.0, 0.0, -1.0, 0.0])[k_col % 4]
    gains[:, 2] = g
    gains[:, 3] = np.where(k_col % 2, -g, g)
    # sum_k g_k rho_k = t_1 (g_1 + t_2 (g_2 + ...)), one backward pass for all rows
    t = np.zeros_like(r)
    sums = np.zeros((4,) + r.shape)
    for r_j, two_k, g_j in zip(r_k[::-1], (2.0 * k[::-1]).tolist(), gains[::-1]):
        t = r_j / (two_k + r_j * t)
        sums += g_j
        sums *= t

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
    eta_a: float | np.ndarray,
    eta_b: float | np.ndarray,
    noise: float = 0.0,
    *,
    phase_gain=None,
) -> tuple:
    """Single-side and coincidence click probabilities of the interferometer.

    For arriving intensities x = intensity_a * eta_a and y = intensity_b *
    eta_b and relative phase theta, the two output ports see mean photon
    numbers (x + y +- 2 sqrt(x y) cos theta) / 2, and each threshold
    detector fires with probability 1 - (1 - noise) exp(-port intensity).
    The return values are averaged over the phase measure, in closed form
    (see _lone_clicks). By default (phase_gain None) theta is uniform on
    [0, 2 pi), and phase jitter leaves that average as it is.

    phase_gain gives another measure by its harmonics: it maps a column of
    harmonic numbers k >= 1, of shape (K, 1, ..., 1) with one axis per axis
    of the broadcast entries, to the mean of cos k theta. Its result
    broadcasts against (K,) + the entries' shape, so it may hold one gain
    per harmonic and entry; an entry whose gains are all 0 gets the uniform
    circle.

    The intensities and transmittances may be arrays that broadcast
    together, such as a row of intensity pairs against a column of
    transmittances; the results then have the broadcast shape, and each
    entry is bit for bit the result of its own scalar call under its own
    gains.

    Returns:
        (p_left_only, p_right_only, p_both): the two exclusive one-detector
        probabilities and the discarded coincidence probability.
    """
    ia, ib, ea, eb = (np.asarray(v, dtype=float)
                      for v in (intensity_a, intensity_b, eta_a, eta_b))
    for name, v, top in (("intensity_a", ia, MAX_INTENSITY), ("intensity_b", ib, MAX_INTENSITY),
                         ("eta_a", ea, 1.0), ("eta_b", eb, 1.0)):
        if not np.all((v >= 0.0) & (v <= top)):
            raise ValueError(f"{name} must lie in [0, {top:g}]")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must lie in [0, 1)")

    probs = _lone_clicks(ia * ea, ib * eb, noise, phase_gain)
    if probs[0].ndim == 0:
        return tuple(float(p) for p in probs)
    return probs


# the most points one call of the kernel _click_table covers: a larger block
# spreads the per-call cost of the kernel further, but its arrays grow with it
# (about 1 MB of working set at 256)
_CLICK_BLOCK = 256


class _ClickTable(NamedTuple):
    """The part of expected_tallies that no mixing probability reaches.

    One entry per tally row, in row_keys() order, except slice_l and slice_r,
    which hold the lit decoy rows only. It reads the channel, the three
    intensities, the jitter (from misalignment) and the slice half width.
    _click_table builds one such row per point in every field, and
    _click_tables hands each point's rows out as a table of its own.
    """

    lone_l: np.ndarray
    lone_r: np.ndarray
    slice_l: np.ndarray
    slice_r: np.ndarray
    exp_total: np.ndarray
    total: np.ndarray
    p1: np.ndarray


def _click_table(
    eta_a: np.ndarray,
    eta_b: np.ndarray,
    nu: float,
    src: SourceParams,
    triples: np.ndarray,
) -> _ClickTable:
    """Click and single-photon factors of every row of expected_tallies, at n points.

    Point i has the arm transmittances eta_a[i, 0] and eta_b[i, 0] of
    channel_transmittance and the intensities (mu1, mu2, muz) of triples[i];
    nu is the link's noise per pulse, and src gives the jitter and the
    slice. Row i of every field is bit for bit the table of point i built
    alone: _lone_clicks works entry by entry, and the harmonics past an
    entry's own count add exact zeros.

    One click_probabilities call covers every row under the uniform phase
    and then the lit decoy rows again under the announced-phase slice.
    """
    sigma, w = src.jitter_sigma_rad, src.slice_half_width_rad
    ia, ib = _row_intensities(src, triples)
    sliced = np.arange(_N_ROWS + np.count_nonzero(_LIT)) >= _N_ROWS

    def phase_gain(k):
        # uniform announced phase on [-w, w] times Gaussian jitter on the
        # slice entries, the uniform circle on the others
        return np.where(sliced, np.sinc(k * (w / math.pi)) * np.exp(-0.5 * (k * sigma) ** 2), 0.0)

    left, right, _ = click_probabilities(
        np.concatenate([ia, ia[..., _LIT]], axis=-1),
        np.concatenate([ib, ib[..., _LIT]], axis=-1),
        eta_a, eta_b, nu, phase_gain=phase_gain,
    )
    lone_l, slice_l = left[..., :_N_ROWS], left[..., _N_ROWS:]
    lone_r, slice_r = right[..., :_N_ROWS], right[..., _N_ROWS:]

    # P(exactly one detector fires | one photon emitted in total)
    total = ia + ib  # a dark row has no single-photon term; 1 avoids 0 / 0
    arrive = (ia * eta_a + ib * eta_b) / np.where(total > 0.0, total, 1.0)
    p1 = arrive * (1.0 - nu) + (1.0 - arrive) * 2.0 * nu * (1.0 - nu)
    return _ClickTable(lone_l, lone_r, slice_l, slice_r, np.exp(-total), total, p1)


def _click_tables(
    eta_a, eta_b, nu: float, src: SourceParams, triples=None,
) -> Iterator[_ClickTable]:
    """The click table of each point, built _CLICK_BLOCK points per kernel call.

    A point is a pair of arm transmittances and an intensity triple
    (mu1, mu2, muz). eta_a, eta_b and triples each give one value that
    every point shares, or an array with one value per point: eta_a and
    eta_b a float or an (n,) array, triples src's own triple (None), one
    triple or an (n, 3) array. nu and src's jitter and slice are shared.
    Yields the n tables in point order, one block at a time, each bit for
    bit the table of its point built alone.
    """
    values = [np.array(v, dtype=float).reshape(-1, width) for v, width in (
        (eta_a, 1), (eta_b, 1), ([src.mu1, src.mu2, src.muz] if triples is None else triples, 3))]
    # every value has one row or one row per point; two point counts do not unpack
    n, = {len(v) for v in values} - {1} or {1}
    for lo in range(0, n, _CLICK_BLOCK):
        size = min(n - lo, _CLICK_BLOCK)
        ea, eb, mu = (v.repeat(size, axis=0) if len(v) == 1 else v[lo:lo + size] for v in values)
        yield from map(_ClickTable._make, zip(*_click_table(ea, eb, nu, src, mu)))


def _mix_tallies(table: _ClickTable, src: SourceParams, n_pulses: float) -> SessionTally:
    """Weigh a click table by the row pulses of src's mixing probabilities,
    and its slice rows also by src's slice acceptance."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    pulses = _row_pulses(src, n_pulses)
    heralds = pulses * (table.lone_l + table.lone_r)
    errors = np.where(_ALL_ERRORS, heralds, 0.0)
    accepted = np.zeros(_N_ROWS)
    lit_pulses = pulses[_LIT] * src.slice_acceptance
    accepted[_LIT] = lit_pulses * (table.slice_l + table.slice_r)
    errors[_LIT] = lit_pulses * table.slice_r
    single = pulses * table.exp_total * table.total * table.p1
    counts = np.stack([pulses, heralds, errors, accepted, single], axis=1)
    return SessionTally(float(n_pulses), counts)


def expected_tallies(
    link: LinkModel,
    det: DetectorModel,
    src: SourceParams,
    n_pulses: float,
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

    The work is split in two: _click_tables reads only the channel, the
    intensities, the jitter and the slice, and _mix_tallies weighs a table
    by the row pulses, so a caller that varies only the mixing
    probabilities can build the table once, and a caller that varies only
    the transmittances or the intensities can build the tables of many
    points in one call.
    """
    table, = _click_tables(*channel_transmittance(link, det), link.noise_per_pulse, src)
    return _mix_tallies(table, src, n_pulses)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    )


def _first_event_weights(
    src: SourceParams, eta_a: float, eta_b: float, nu: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the arriving intensities x and y, a = 1 - exp(-x) and
    b = 1 - exp(-y), and the running sums of the four first-event weights
    of _sample_run, the last of which is the readable share q_r.

    q_r is summed without cancellation; a trailing zero weight gives a
    normalized edge of exactly 1, which no uniform reaches.
    """
    ia, ib = _row_intensities(src)
    intensity = np.stack([ia * eta_a, ib * eta_b])  # x and y
    arrive, stay = -np.expm1(-intensity), np.exp(-intensity)  # a and b, 1 - a and 1 - b
    silent = stay[0] * stay[1]
    weights = np.stack([arrive[0], stay[0] * arrive[1], silent * nu, silent * (1.0 - nu) * nu])
    return intensity, arrive, np.cumsum(weights, axis=0)


# a run of chunks holds about this many expected readable slots, and at
# most _RUN_MAX_CHUNKS chunks, because each chunk's generator costs ~1.6 kB
_RUN_READABLE = 8192
_RUN_MAX_CHUNKS = 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_runs(
    n_chunks: int, n_jobs: int, src: SourceParams, eta_a: float, eta_b: float, nu: float,
) -> list[range]:
    """Cut chunks 0 .. n_chunks - 1 into runs of consecutive chunks.

    A run holds as many chunks as keep its expected readable slots at most
    _RUN_READABLE, and at least one; it holds at most _RUN_MAX_CHUNKS
    chunks, and at most its share of n_chunks over n_jobs workers, so that
    every worker gets a run.
    """
    q = _first_event_weights(src, eta_a, eta_b, nu)[2][3]
    per_chunk = MC_CHUNK * float(_row_pulses(src, 1.0) @ q)
    size = max(1, int(min(_RUN_READABLE // max(per_chunk, 1.0), -(-n_chunks // n_jobs),
                          _RUN_MAX_CHUNKS)))
    return [range(lo, min(lo + size, n_chunks)) for lo in range(0, n_chunks, size)]


def _sample_run(
    rngs: list[np.random.Generator],
    sizes: list[int],
    src: SourceParams,
    eta_a: float,
    eta_b: float,
    nu: float,
) -> SessionTally:
    """Sample a run of consecutive chunks of sizes[i] time slots and tally them.

    The chunks of a run draw in step, chunk i from its own generator
    rngs[i]: each chunk makes the draw calls that it would make alone, in
    the same order and with the same parameters, so its stream does not
    depend on the run that holds it. The arithmetic between the draws runs
    once over the run's slots, which lie chunk after chunk, so the bits
    come in chunk order.

    A slot is readable when a photon reaches the station or a detector
    fires dark; no other slot can click, so only the readable slots of the
    tallied rows are drawn. With x = ia eta_a and y = ib eta_b the arriving
    intensities of a row, a = 1 - exp(-x) and b = 1 - exp(-y), the draws
    of each chunk, in this order, fix the seeded stream:

    1. the row counts, one multinomial(n, row probabilities + discarded);
    2. the readable slots of each row, binomial(n_r, q_r) with
       q_r = 1 - (1 - nu)^2 exp(-(x_r + y_r)); the slots are then grouped by
       row, in row order;
    3. one uniform per readable slot, picking its first active event among
       an arrival at A, an arrival at B, a dark click left and a dark click
       right, of weights a, (1 - a) b, (1 - a)(1 - b) nu and
       (1 - a)(1 - b)(1 - nu) nu;
    4. one uniform U per slot whose first event is an arrival, giving its
       first photon's time T = -log1p(-U a) / x (b and y at B);
    5. the arrivals at A, then at B, of every readable slot: 1 +
       Poisson(x (1 - T)) at the first active side, Poisson(y) at B after
       an arrival at A, none before the first active event;
    6. one uniform per readable slot for the dark click left, then one for
       the right, read only after the first active event;
    7. one uniform phase per readable slot, the jitter of each slot a
       photon reached, and the port split of its arrived photons;
    8. the lost photons of each herald, Poisson(ia (1 - eta_a) +
       ib (1 - eta_b)), for the single-photon column;
    9. one uniform permutation of the signal heralds, which gives the key
       bits their order.
    """
    # row codes: decoy pairs 0..8, signal combos 9..12; the discarded mixed
    # windows take the remainder and are never read
    discarded = 2.0 * src.p_signal_window * src.p_decoy_window
    p_rows = np.append(_row_pulses(src, 1.0), discarded)
    intensity, arrive, cum = _first_event_weights(src, eta_a, eta_b, nu)
    q = cum[3]
    q_draw = np.minimum(q, 1.0)  # q may round past 1
    norm = cum[:3] / np.where(q > 0.0, q, 1.0)
    pulses = np.empty((len(rngs), _N_ROWS), dtype=np.int64)
    readable = np.empty_like(pulses)
    for i, (rng, n) in enumerate(zip(rngs, sizes)):
        pulses[i] = rng.multinomial(n, p_rows)[:_N_ROWS]
        readable[i] = rng.binomial(pulses[i], q_draw)
    # chunk i holds the slots bounds[i]:bounds[i + 1], grouped by row
    bounds = np.concatenate(([0], np.cumsum(readable.sum(axis=1))))
    r = np.repeat(np.tile(np.arange(_N_ROWS), len(rngs)), readable.ravel())

    def per_chunk(draw, index=None):
        """draw(rng, lo, hi) of every chunk, joined in chunk order, where
        lo:hi are the entries of the sorted slot list index (all slots by
        default) that fall in the chunk."""
        cuts = (bounds if index is None else np.searchsorted(index, bounds)).tolist()
        parts = [draw(rng, lo, hi) for rng, lo, hi in zip(rngs, cuts, cuts[1:])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

    # 0 arrival at A, 1 arrival at B, 2 dark left, 3 dark right
    u = per_chunk(lambda rng, lo, hi: rng.random(hi - lo))
    first = (u >= norm[0][r]).astype(np.int8)
    first += u >= norm[1][r]
    first += u >= norm[2][r]
    del u

    # the mean arrivals of every readable slot, none before its first event
    lam = np.take(intensity, r, axis=1)
    lam *= first <= np.array([[0], [1]], dtype=np.int8)
    lead = np.flatnonzero(first < 2)
    side = first[lead].astype(np.intp)
    cell = side * _N_ROWS + r[lead]  # (side, row) of the first photon, in intensity
    at = side * r.size + lead  # (side, slot) of the first photon, in lam and arrived
    del side
    # x (1 - T): what is left of the first side's intensity after its first photon
    t = per_chunk(lambda rng, lo, hi: rng.random(hi - lo), lead)
    lam.reshape(-1)[at] = intensity.reshape(-1)[cell] + np.log1p(-t * arrive.reshape(-1)[cell])
    del t, cell, lead
    np.maximum(lam, 0.0, out=lam)
    arrived = per_chunk(lambda rng, lo, hi: rng.poisson(lam[:, lo:hi]))
    del lam
    arrived.reshape(-1)[at] += 1
    del at
    dark = per_chunk(lambda rng, lo, hi: rng.random((2, hi - lo)) < nu)
    ends = np.array([[2], [3]], dtype=np.int8)
    dark &= first < ends
    dark |= first == ends
    del first

    # in turns: the announced phase of a decoy window, the phase of a signal window
    turn = per_chunk(lambda rng, lo, hi: rng.random(hi - lo))
    n_arrived = arrived.sum(axis=0)
    del arrived
    hit = np.flatnonzero(n_arrived)
    n_hit = n_arrived[hit]
    # a uniform phase plus jitter is still uniform, so signal windows take
    # the jitter as well without changing their law
    jitter = per_chunk(lambda rng, lo, hi: rng.standard_normal(hi - lo), hit)
    theta = turn[hit] * (2.0 * np.pi) + jitter * src.jitter_sigma_rad
    del jitter
    x, y = intensity
    r_hit = r[hit]
    # x + y > 0 where photons arrive
    p_left_port = 0.5 + np.sqrt(x * y)[r_hit] * np.cos(theta) / (x + y)[r_hit]
    del r_hit, theta
    np.clip(p_left_port, 0.0, 1.0, out=p_left_port)
    n_left = per_chunk(lambda rng, lo, hi: rng.binomial(n_hit[lo:hi], p_left_port[lo:hi]), hit)
    click_l, click_r = dark
    click_l[hit] |= n_left > 0
    click_r[hit] |= n_left < n_hit
    del n_left, n_hit, p_left_port, hit

    # classify the lone heralds
    herald = np.flatnonzero(click_l ^ click_r)
    left = click_l[herald]
    del dark, click_l, click_r
    r = r[herald]
    ia, ib = _row_intensities(src)
    mean_lost = (ia * (1.0 - eta_a) + ib * (1.0 - eta_b))[r]
    lost = per_chunk(lambda rng, lo, hi: rng.poisson(mean_lost[lo:hi]), herald)
    single = n_arrived[herald] + lost == 1
    phase = turn[herald] * (2.0 * np.pi)  # in [0, 2 pi)
    del n_arrived, turn, mean_lost, lost
    in0 = np.minimum(phase, 2.0 * np.pi - phase) <= src.slice_half_width_rad
    inpi = np.abs(phase - np.pi) <= src.slice_half_width_rad
    accepted = _LIT[r] & (in0 | inpi)
    # wrong-port errors occur only in decoy rows and key-bit errors only in
    # signal rows, so one error column serves both row kinds
    error = (accepted & np.where(left, inpi, in0)) | _ALL_ERRORS[r]
    # iid slots come in a uniformly random row order, so one permutation of
    # each chunk's signal heralds stands for their slot order
    order = per_chunk(
        lambda rng, lo, hi: rng.permutation(r[lo:hi][r[lo:hi] >= _N_DECOY_ROWS]), herald
    )

    # 0/1 weights sum exactly in float64
    columns = [pulses.sum(axis=0)]
    columns += [np.bincount(r, w, _N_ROWS) for w in (None, error, accepted, single)]
    return SessionTally(float(sum(sizes)), np.stack(columns, axis=1, dtype=float),
                        _BITS_A[order], _BITS_B[order])


def monte_carlo_session(
    link: LinkModel,
    det: DetectorModel,
    src: SourceParams,
    n_pulses: int,
    seed: int,
    n_jobs: int = 1,
) -> SessionTally:
    """Sample a full session of n_pulses time slots.

    The pulse range is cut into fixed-size chunks, each driven by a
    substream derived from (seed, chunk index), so the result is
    bit-identical for any n_jobs and any partitioning of chunks over
    workers. Up to n_jobs threads sample, capped at the CPUs this process
    may run on. Workers take runs of consecutive chunks (_chunk_runs); the
    chunks of a run draw in step, each from its own generator, so the
    per-chunk draw order is unchanged. Ground-truth photon numbers are
    recorded per row so the decoy analysis can be audited against the
    simulator. A session longer than MC_MAX_PULSES raises Infeasible
    before the first chunk.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    if n_pulses > MC_MAX_PULSES:
        raise Infeasible(
            f"n_pulses {n_pulses:g} is past the sampler's cap of {MC_MAX_PULSES:g} pulses"
            " (MC_MAX_PULSES)"
        )
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    eta_a, eta_b = channel_transmittance(link, det)
    nu = link.noise_per_pulse
    n_pulses = int(n_pulses)
    # more threads than usable CPUs would only wait for one another
    workers = min(n_jobs, _usable_cpus())
    # the chunks are fixed by n_pulses alone; the worker count only groups them into runs
    runs = _chunk_runs(-(-n_pulses // MC_CHUNK), workers, src, eta_a, eta_b, nu)

    def run(chunks: range) -> SessionTally:
        rngs = [_chunk_rng(seed, idx) for idx in chunks]
        sizes = [min(MC_CHUNK, n_pulses - idx * MC_CHUNK) for idx in chunks]
        return _sample_run(rngs, sizes, src, eta_a, eta_b, nu)

    threaded = workers > 1 and len(runs) > 1
    with ThreadPoolExecutor(max_workers=workers) if threaded else nullcontext() as pool:
        parts = list((pool.map if threaded else map)(run, runs))
    tally = SessionTally(n_pulses=0.0)
    tally.merge(*parts)  # in run order, to keep the bit streams stable
    tally.validate()
    return tally
