"""Deterministic source-parameter search for the expected key rate.

The objective is the full analytic chain (expected tallies, decoy bounds,
pairing in expectation, key rate) at a fixed link, detector and session
length: the rate_per_pulse of expected_post_processing(expected_tallies(...)).
Everything is driven by one seed: Latin hypercube starts, then a
shrinking coordinate descent from the best start only. Two runs with the
same arguments return identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_INTENSITY, DetectorModel, Infeasible, LinkModel, SecurityParams, SourceParams,
    channel_transmittance,
)
from .security import expected_post_processing
from .simulate import _click_tables, _mix_tallies

PARAM_NAMES = (
    "mu1",
    "mu2",
    "muz",
    "p_signal_window",
    "p_mu1",
    "p_mu2",
    "epsilon_send",
)

_MAX_DECOY_SEND_PROB = 0.98

# the most Latin hypercube starts optimize_params draws; README derives it
# from the measured cost of drawing and repairing one start
MAX_STARTS = 100_000
# the search size of optimize_params, and of `optimize` where no key or flag sets it
DEFAULT_N_STARTS = 12
DEFAULT_BUDGET = 20000


@dataclass(frozen=True)
class SearchSpace:
    """Box constraints over the tunable source parameters."""

    bounds: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            if name not in self.bounds:
                raise ValueError(f"missing bounds for {name}")
            lo, hi = self.bounds[name]
            if not lo < hi:
                raise ValueError(f"bounds for {name} must satisfy lo < hi")

    @classmethod
    def default(cls) -> "SearchSpace":
        return cls(
            bounds={
                "mu1": (0.01, 0.3),
                "mu2": (0.05, 0.8),
                "muz": (0.05, 1.0),
                "p_signal_window": (0.2, 0.95),
                "p_mu1": (0.05, 0.7),
                "p_mu2": (0.02, 0.5),
                "epsilon_send": (0.02, 0.6),
            }
        )

    def lows(self) -> np.ndarray:
        return np.array([self.bounds[n][0] for n in PARAM_NAMES])

    def highs(self) -> np.ndarray:
        return np.array([self.bounds[n][1] for n in PARAM_NAMES])

    def clip(self, vec: np.ndarray) -> np.ndarray:
        return np.clip(vec, self.lows(), self.highs())


def repair(vec: np.ndarray) -> np.ndarray:
    """Project a clipped vector onto the valid parameter region.

    Deterministic: the weaker decoy level is capped below the stronger
    one, and the two decoy send probabilities are rescaled together when
    they would starve the vacuum fraction.
    """
    out = np.array(vec, dtype=float)
    mu1, mu2 = out[0], out[1]
    out[0] = min(mu1, 0.9 * mu2)
    s = out[4] + out[5]
    if s > _MAX_DECOY_SEND_PROB:
        scale = _MAX_DECOY_SEND_PROB / s
        out[4] *= scale
        out[5] *= scale
    return out


def params_to_source(vec, base: SourceParams) -> SourceParams:
    """Build SourceParams from a vector in PARAM_NAMES order.

    p_vac is the complement of the two decoy send probabilities; every
    other field the search does not tune comes from base.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape != (len(PARAM_NAMES),):
        raise ValueError(f"expected {len(PARAM_NAMES)} values in PARAM_NAMES order")
    mu1, mu2, muz, p_sig, p_mu1, p_mu2, eps = (float(x) for x in v)
    return SourceParams(
        mu1=mu1,
        mu2=mu2,
        muz=muz,
        p_signal_window=p_sig,
        p_mu1=p_mu1,
        p_mu2=p_mu2,
        p_vac=1.0 - p_mu1 - p_mu2,
        epsilon_send=eps,
        misalignment=base.misalignment,
        slice_half_width_rad=base.slice_half_width_rad,
    )


@dataclass(frozen=True)
class OptimizeResult:
    params: dict[str, float]
    rate: float
    evaluations: int
    start_index: int


def optimize_params(
    link: LinkModel,
    det: DetectorModel,
    sec: SecurityParams,
    n_pulses: float,
    seed: int,
    base: SourceParams,
    n_starts: int = DEFAULT_N_STARTS,
    budget: int = DEFAULT_BUDGET,
    space: SearchSpace | None = None,
    initial=None,
) -> OptimizeResult:
    """Search the source parameters maximizing the expected key rate.

    The search tunes the PARAM_NAMES fields. Every point takes the fields
    it does not tune (the misalignment and the slice half width) from base,
    through params_to_source; base's own PARAM_NAMES fields and p_vac are
    not read. Starts from a seeded Latin hypercube (plus the optional
    initial vector, in PARAM_NAMES order, at index 0), then refines only
    the best start by coordinate descent with a step that halves after each
    sweep without improvement.
    A point whose decoy bounds are feasible (decoy.feasible) beats every
    infeasible one, then the higher rate wins. Of equal scores the first
    evaluated is kept: the earliest of tied starts wins, and a descent
    move is taken only when it scores strictly higher.
    budget caps the total number of objective evaluations; a budget of 1
    returns the single evaluated start. If no evaluated point is feasible
    the search raises Infeasible. Every start is drawn before the first
    evaluation, so more than MAX_STARTS starts raise Infeasible before any is.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if n_starts > MAX_STARTS:
        raise Infeasible(
            f"n_starts {n_starts} is past the optimizer's cap of {MAX_STARTS} starts (MAX_STARTS)"
        )
    if budget < 1:
        raise ValueError("budget must allow at least one evaluation")
    space = space or SearchSpace.default()
    lows, highs = space.lows(), space.highs()
    width = highs - lows
    rng = np.random.default_rng(seed)

    dim = len(PARAM_NAMES)
    points = np.empty((n_starts, dim))
    for d in range(dim):
        strata = rng.permutation(n_starts)
        offsets = rng.random(n_starts)
        points[:, d] = lows[d] + (strata + offsets) / n_starts * width[d]
    starts = [repair(space.clip(p)) for p in points]
    if initial is not None:
        starts.insert(0, repair(space.clip(np.asarray(initial, dtype=float))))

    # the click tables of this search only, one per intensity triple: the
    # coordinate descent moves one coordinate at a time, and 4 of the 7
    # never change the table
    tables = {}
    eta_a, eta_b = channel_transmittance(link, det)

    def build(vecs) -> None:
        """Build the missing tables of the points vecs. A triple is keyed as
        params_to_source reads it; one the kernel would refuse is left out,
        since params_to_source refuses its point before score reads a table."""
        triples = dict.fromkeys(tuple(vec[:3].tolist()) for vec in vecs)
        todo = [t for t in triples
                if t not in tables and all(0.0 <= mu <= MAX_INTENSITY for mu in t)]
        tables.update(zip(todo, _click_tables(eta_a, eta_b, link.noise_per_pulse, base, todo)))

    # scores compare as (feasible, rate) tuples
    def score(vec: np.ndarray) -> tuple[bool, float]:
        src = params_to_source(vec, base)
        tally = _mix_tallies(tables[src.mu1, src.mu2, src.muz], src, n_pulses)
        analysis = expected_post_processing(tally, src, sec)
        return analysis.decoy.feasible, analysis.report.rate_per_pulse

    build(starts[:budget])
    scores = [score(vec) for vec in starts[:budget]]
    evals = len(scores)
    # max keeps the first of equal scores
    best_start = max(range(evals), key=scores.__getitem__)
    best_vec, best_score = starts[best_start], scores[best_start]

    def move(vec: np.ndarray, d: int, sign: float) -> np.ndarray:
        cand = vec.copy()
        cand[d] += sign * step_frac * width[d]
        return repair(space.clip(cand))

    # one sweep, in order; only the moves of mu1, mu2 and muz (d < 3) can
    # reach a new click table
    moves = [(d, sign) for d in range(dim) for sign in (1.0, -1.0)]
    step_frac = 0.25
    while step_frac >= 1e-3 and evals < budget:
        improved = False
        for k, (d, sign) in enumerate(moves):
            if evals >= budget:
                break
            cand = move(best_vec, d, sign)
            if np.array_equal(cand, best_vec):
                continue
            if tuple(cand[:3].tolist()) not in tables:
                # built with the other intensity moves this sweep still makes from this best
                build(move(best_vec, *later) for later in moves[k:] if later[0] < 3)
            s = score(cand)
            evals += 1
            if s > best_score:
                best_vec, best_score = cand, s
                improved = True
        if not improved:
            step_frac *= 0.5

    feasible, rate = best_score
    if not feasible:
        raise Infeasible("no parameter vector produced usable decoy statistics")
    return OptimizeResult(
        params={n: float(v) for n, v in zip(PARAM_NAMES, best_vec)},
        rate=rate,
        evaluations=evals,
        start_index=best_start,
    )
