"""Deterministic source-parameter search for the expected key rate.

The objective is the full analytic chain (expected tallies, decoy bounds,
pairing in expectation, key rate) at a fixed link, detector and session
length. Everything is driven by one seed: Latin hypercube starts, then a
shrinking coordinate descent from the best start only. Two runs with the
same arguments return identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_SLICE_HALF_WIDTH_RAD, DetectorModel, LinkModel, SecurityParams, SourceParams,
    channel_transmittance,
)
from .security import SessionAnalysis, expected_post_processing
from .simulate import _click_table, _mix_tallies

PARAM_NAMES = (
    "mu1",
    "mu2",
    "muz",
    "p_signal_window",
    "p_mu1",
    "p_mu2",
    "epsilon_send",
)

# far below any physical rate per pulse, so it can never shadow a real value
INFEASIBLE_RATE = -1.0e6

_MAX_DECOY_SEND_PROB = 0.98


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


def params_to_source(
    vec,
    misalignment: float = 0.0,
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD,
) -> SourceParams:
    """Build SourceParams from a vector in PARAM_NAMES order and the two fixed fields."""
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
        misalignment=misalignment,
        slice_half_width_rad=slice_half_width_rad,
    )


def _analyze(
    src: SourceParams,
    link: LinkModel,
    det: DetectorModel,
    sec: SecurityParams,
    n_pulses: float,
    tables: dict,
) -> SessionAnalysis:
    """The full chain at one point. tables holds the click tables built so far
    at this link, keyed by the only fields of src they read."""
    key = (src.mu1, src.mu2, src.muz, src.misalignment, src.slice_half_width_rad)
    table = tables.get(key)
    if table is None:
        table = tables[key] = _click_table(*channel_transmittance(link, det),
                                           link.noise_per_pulse, src)
    tally = _mix_tallies(table, src, n_pulses)
    return expected_post_processing(tally, src, sec)


def evaluate(
    params,
    link: LinkModel,
    det: DetectorModel,
    sec: SecurityParams,
    n_pulses: float,
    misalignment: float = 0.0,
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD,
) -> float:
    """Expected key rate of one parameter point.

    params is either a ready SourceParams (whose own misalignment and
    slice half width win) or a vector in PARAM_NAMES order. Returns the
    (possibly negative) rate per pulse, or INFEASIBLE_RATE when the decoy
    statistics cannot certify any single-photon events at all. Malformed
    vectors raise ValueError.
    """
    if isinstance(params, SourceParams):
        src = params
    else:
        src = params_to_source(params, misalignment, slice_half_width_rad)
    analysis = _analyze(src, link, det, sec, n_pulses, tables={})
    if not analysis.feasible:
        return INFEASIBLE_RATE
    return analysis.report.rate_per_pulse


@dataclass(frozen=True)
class OptimizeResult:
    params: dict[str, float]
    rate: float
    feasible: bool
    evaluations: int
    start_index: int


def optimize_params(
    link: LinkModel,
    det: DetectorModel,
    sec: SecurityParams,
    n_pulses: float,
    seed: int,
    n_starts: int = 12,
    budget: int = 20000,
    space: SearchSpace | None = None,
    initial=None,
    misalignment: float = 0.0,
    slice_half_width_rad: float = DEFAULT_SLICE_HALF_WIDTH_RAD,
) -> OptimizeResult:
    """Search the source parameters maximizing the expected key rate.

    Starts from a seeded Latin hypercube (plus the optional initial
    vector at index 0), then refines only the best start by coordinate
    descent with a step that halves after each sweep without improvement.
    budget caps the total number of objective evaluations; a budget of 1
    returns the single evaluated start. If no evaluation is feasible the
    result carries rate -inf.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
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
        if isinstance(initial, dict):
            initial = [initial[n] for n in PARAM_NAMES]
        starts.insert(0, repair(space.clip(np.asarray(initial, dtype=float))))

    # the click tables of this search only: the coordinate descent moves one
    # coordinate at a time, and 4 of the 7 never change the table
    tables = {}

    # scores compare as (feasible, rate) tuples: any feasible point beats
    # every infeasible one, then the higher rate wins
    def score(vec: np.ndarray) -> tuple[bool, float]:
        src = params_to_source(vec, misalignment, slice_half_width_rad)
        analysis = _analyze(src, link, det, sec, n_pulses, tables)
        return analysis.feasible, analysis.report.rate_per_pulse

    evals = 0
    best_vec = starts[0]
    best_score = score(best_vec)
    best_start = 0
    evals += 1
    for i, vec in enumerate(starts[1:], start=1):
        if evals >= budget:
            break
        s = score(vec)
        evals += 1
        if s > best_score:
            best_vec, best_score, best_start = vec, s, i

    step_frac = 0.25
    while step_frac >= 1e-3 and evals < budget:
        improved = False
        for d in range(dim):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = best_vec.copy()
                cand[d] += sign * step_frac * width[d]
                cand = repair(space.clip(cand))
                if np.array_equal(cand, best_vec):
                    continue
                s = score(cand)
                evals += 1
                if s > best_score:
                    best_vec, best_score = cand, s
                    improved = True
            if evals >= budget:
                break
        if not improved:
            step_frac *= 0.5

    feasible, rate = best_score
    return OptimizeResult(
        params={n: float(v) for n, v in zip(PARAM_NAMES, best_vec)},
        rate=rate if feasible else -math.inf,
        feasible=feasible,
        evaluations=evals,
        start_index=best_start,
    )
