import dataclasses

import numpy as np
import pytest

import snslab.optimize
import snslab.simulate
from snslab import Infeasible, SourceParams, expected_post_processing, expected_tallies
from snslab.optimize import (
    MAX_STARTS,
    PARAM_NAMES,
    SearchSpace,
    optimize_params,
    params_to_source,
    repair,
)
from snslab.model import channel_transmittance
from snslab.presets import (
    desk_detector,
    desk_link,
    desk_security,
    desk_source,
    reference_detector,
    reference_link,
    reference_security,
    reference_source,
)
from snslab.simulate import _CLICK_BLOCK

from conftest import REFERENCE_PULSES, expected_rate

DESK_VEC = np.array([0.1, 0.4, 0.45, 0.7, 0.6, 0.05, 0.2717])


def test_evaluate_of_a_vector_is_evaluate_of_its_source(desk):
    link, det, src, sec = desk
    # params_to_source derives p_vac = 1 - p_mu1 - p_mu2, which is not the preset's 0.35
    src = dataclasses.replace(src, p_vac=1.0 - 0.6 - 0.05)
    r_src = expected_rate(src, link, det, sec, 1e9)
    r_vec = expected_rate(params_to_source(DESK_VEC, src), link, det, sec, 1e9)
    assert r_src == r_vec
    assert r_src > 0.0


@pytest.mark.parametrize("half_width", [0.05, 1.2])
def test_evaluate_reads_the_slice_of_its_source(desk, half_width):
    link, det, src, sec = desk
    src = dataclasses.replace(src, slice_half_width_rad=half_width)
    # a vector takes the slice from its base, as it takes the misalignment
    vec = [getattr(src, name) for name in PARAM_NAMES]
    point = dataclasses.replace(src, p_vac=1.0 - src.p_mu1 - src.p_mu2)
    assert expected_rate(params_to_source(vec, src), link, det, sec, 1e9) == \
        expected_rate(point, link, det, sec, 1e9)
    assert params_to_source(vec, src) == point


def test_evaluate_negative_but_feasible_for_weak_signal(desk):
    link, det, src, sec = desk
    vec = DESK_VEC.copy()
    vec[2] = 0.05  # signal windows barely emit; decoy statistics still fine
    rate = expected_rate(params_to_source(vec, src), link, det, sec, 1e9)
    assert rate < 0.0
    # feasible: a search of this one point returns it rather than raising Infeasible
    res = optimize_params(link, det, sec, 1e9, seed=0, base=src, n_starts=1, budget=1,
                          initial=vec)
    assert res.rate == rate


def test_evaluate_improves_with_session_length(desk):
    link, det, src, sec = desk
    r_short = expected_rate(src, link, det, sec, 1e9)
    r_long = expected_rate(src, link, det, sec, 8e9)
    assert r_long >= r_short


def test_repair_caps_weak_decoy_below_strong():
    vec = np.array([0.5, 0.4, 0.45, 0.7, 0.6, 0.05, 0.3])
    out = repair(vec)
    assert out[0] == pytest.approx(0.9 * 0.4)
    assert np.array_equal(out[1:], vec[1:])
    # already-valid vectors pass through untouched
    assert np.array_equal(repair(DESK_VEC), DESK_VEC)


def test_repair_rescales_greedy_decoy_mix():
    vec = np.array([0.1, 0.4, 0.45, 0.7, 0.8, 0.4, 0.3])
    out = repair(vec)
    assert out[4] + out[5] == pytest.approx(0.98)
    assert out[4] / out[5] == pytest.approx(0.8 / 0.4)


def test_params_to_source_fills_vacuum_complement():
    src = params_to_source(DESK_VEC, dataclasses.replace(desk_source(), misalignment=0.01))
    assert src.p_vac == pytest.approx(1.0 - 0.6 - 0.05)
    assert src.misalignment == 0.01
    assert src.mu1 == 0.1 and src.muz == 0.45
    with pytest.raises(ValueError):
        params_to_source(np.zeros(6), desk_source())


def test_params_to_source_takes_every_untuned_field_from_base():
    # driven by the dataclass fields, so a fixed field added later is covered
    base = dataclasses.replace(desk_source(), misalignment=0.1, slice_half_width_rad=1.1)
    point = params_to_source(DESK_VEC, base)
    fixed = [f for f in dataclasses.fields(SourceParams)
             if f.name not in PARAM_NAMES and f.name != "p_vac"]
    assert {f.name for f in fixed} >= {"misalignment", "slice_half_width_rad"}
    for f in fixed:
        # a base value off the default, or a field left at it would pass
        assert getattr(base, f.name) != f.default, f.name
        assert getattr(point, f.name) == getattr(base, f.name), f.name


def test_search_space_validation():
    good = SearchSpace.default()
    assert set(good.bounds) == set(PARAM_NAMES)
    bad = dict(good.bounds)
    del bad["muz"]
    with pytest.raises(ValueError):
        SearchSpace(bounds=bad)
    flipped = dict(good.bounds)
    flipped["mu1"] = (0.3, 0.3)
    with pytest.raises(ValueError):
        SearchSpace(bounds=flipped)
    clipped = good.clip(np.full(len(PARAM_NAMES), 99.0))
    assert np.array_equal(clipped, good.highs())


def _pinned_space(muz_bounds=(0.05, 1.0)):
    pinned = dict(zip(PARAM_NAMES, DESK_VEC))
    bounds = {n: (v, v * (1 + 1e-9)) for n, v in pinned.items()}
    bounds["muz"] = muz_bounds
    return SearchSpace(bounds=bounds)


def test_optimizer_finds_the_one_dimensional_optimum(desk):
    # all parameters but the signal intensity are pinned to a hairline
    # interval, so the search is effectively one-dimensional and can be
    # checked against a dense grid of the same objective
    link, det, src, sec = desk
    grid = np.linspace(0.05, 1.0, 300)
    vecs = np.tile(DESK_VEC, (grid.size, 1))
    vecs[:, 2] = grid
    rates = np.array(
        [expected_rate(params_to_source(v, src), link, det, sec, 1e9) for v in vecs]
    )
    k = int(np.argmax(rates))
    assert 0 < k < grid.size - 1  # interior optimum, the test is meaningful

    res = optimize_params(
        link, det, sec, 1e9, seed=3, n_starts=6, budget=300,
        space=_pinned_space(), base=src,
    )
    spacing = grid[1] - grid[0]
    assert abs(res.params["muz"] - grid[k]) <= 2.0 * spacing
    assert res.rate >= rates[k] - abs(rates[k]) * 1e-3


def test_optimizer_budget_one_returns_the_initial_point(desk):
    link, det, src, sec = desk
    res = optimize_params(
        link, det, sec, 1e9, seed=0, n_starts=4, budget=1,
        initial=DESK_VEC, base=src,
    )
    assert res.evaluations == 1
    assert res.start_index == 0
    assert np.allclose([res.params[n] for n in PARAM_NAMES], DESK_VEC)
    assert res.rate == expected_rate(params_to_source(DESK_VEC, src), link, det, sec, 1e9)


def test_optimizer_validation(desk):
    link, det, src, sec = desk
    with pytest.raises(ValueError):
        optimize_params(link, det, sec, 1e9, seed=0, base=src, budget=0)
    with pytest.raises(ValueError):
        optimize_params(link, det, sec, 1e9, seed=0, base=src, n_starts=0)
    with pytest.raises(Infeasible, match="cap of 100000 starts"):
        optimize_params(link, det, sec, 1e9, seed=0, base=src, n_starts=MAX_STARTS + 1)


def test_optimizer_is_deterministic(desk):
    link, det, src, sec = desk
    kwargs = dict(seed=11, n_starts=4, budget=60, base=src)
    a = optimize_params(link, det, sec, 1e9, **kwargs)
    b = optimize_params(link, det, sec, 1e9, **kwargs)
    assert a.params == b.params
    assert a.rate == b.rate
    assert a.evaluations == b.evaluations


def test_optimizer_never_loses_to_its_initial_point(desk):
    link, det, src, sec = desk
    start_rate = expected_rate(params_to_source(DESK_VEC, src), link, det, sec, 1e9)
    res = optimize_params(
        link, det, sec, 1e9, seed=5, n_starts=3, budget=80,
        initial=DESK_VEC, base=src,
    )
    assert res.rate >= start_rate


def test_optimizer_reports_infeasible_when_nothing_works(desk):
    _, det, src, sec = desk
    dead_link = desk_link(total_db=400.0)
    base = dataclasses.replace(src, misalignment=0.0)
    with pytest.raises(Infeasible, match="no parameter vector"):
        optimize_params(dead_link, det, sec, 1e5, seed=1, base=base, n_starts=3, budget=10)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("presets, n_pulses", [
    ((desk_link, desk_detector, desk_security, desk_source), 1e9),
    ((reference_link, reference_detector, reference_security, reference_source), REFERENCE_PULSES),
], ids=["desk", "long-haul"])
def test_optimizer_stops_on_its_step_floor(presets, n_pulses, seed):
    # a budget no search reaches: the descent ends once its step falls below
    # 1e-3 of each range (261 to 348 evaluations on these presets)
    link, det, sec, base = (preset() for preset in presets)
    res = optimize_params(link, det, sec, n_pulses, seed=seed, base=base, n_starts=12,
                          budget=10**18)
    assert 12 < res.evaluations < 1000


@pytest.mark.parametrize("seed", range(4))
def test_optimizer_keeps_the_first_of_tied_starts(desk, seed):
    link, det, src, sec = desk
    first = optimize_params(link, det, sec, 1e9, seed=seed, base=src, n_starts=4, budget=4)
    assert first.start_index > 0  # the tied copy below is not the only best start
    # the best start again at index 0, and the same four starts behind it
    best = [first.params[n] for n in PARAM_NAMES]
    tied = optimize_params(link, det, sec, 1e9, seed=seed, base=src, n_starts=4, budget=5,
                           initial=best)
    assert tied.start_index == 0
    assert tied.params == first.params
    assert tied.rate == first.rate


def test_desk_source_vector_matches_preset():
    src = desk_source()
    assert [getattr(src, n) for n in PARAM_NAMES] == list(DESK_VEC)


def test_optimizer_result_is_pinned(desk):
    # one exact search on the desk presets; a change that only speeds the
    # objective up must reproduce it bit for bit
    link, det, src, sec = desk
    res = optimize_params(
        link, det, sec, 1e9, seed=0, base=src, n_starts=4, budget=150,
    )
    assert res.params == {
        "mu1": 0.06557325357581835,
        "mu2": 0.48313857946020655,
        "muz": 0.49048066852711164,
        "p_signal_window": 0.7912474383397743,
        "p_mu1": 0.5776716145657467,
        "p_mu2": 0.03667057087749245,
        "epsilon_send": 0.275850735980605,
    }
    assert res.rate == 0.00028144133416000783
    assert res.evaluations == 150
    assert res.start_index == 1


@pytest.mark.parametrize("n_starts, budget", [(4, 60), (_CLICK_BLOCK + 2, _CLICK_BLOCK + 12)])
def test_optimizer_builds_each_triple_once_and_several_per_kernel_call(
    desk, monkeypatch, n_starts, budget
):
    # the pinned desk search (budget 60), then one whose starts fill more
    # than a block
    link, det, src, sec = desk
    calls, built, scored = [], [], []
    click_probabilities = snslab.simulate.click_probabilities
    click_tables = snslab.optimize._click_tables
    mix_tallies = snslab.optimize._mix_tallies

    def counted(*args, **kwargs):
        calls.append(args)
        return click_probabilities(*args, **kwargs)

    def building(eta_a, eta_b, nu, point, triples=None):
        built.extend(map(tuple, np.reshape(triples, (-1, 3)).tolist()) if triples is not None
                     else [(point.mu1, point.mu2, point.muz)])
        return click_tables(eta_a, eta_b, nu, point, triples)

    def recorded(table, point, n_pulses):
        scored.append((point, table))
        return mix_tallies(table, point, n_pulses)

    monkeypatch.setattr(snslab.simulate, "click_probabilities", counted)
    monkeypatch.setattr(snslab.optimize, "_click_tables", building)
    monkeypatch.setattr(snslab.optimize, "_mix_tallies", recorded)
    res = optimize_params(
        link, det, sec, 1e9, seed=0, base=src, n_starts=n_starts, budget=budget,
    )
    assert len(scored) == res.evaluations == budget
    assert len(built) == len(set(built))
    triples = {(point.mu1, point.mu2, point.muz) for point, _ in scored}
    assert len(calls) < len(triples)
    # the starts come in one call per block, a full block first; then the
    # descent too builds several triples in some call
    sizes = [np.atleast_2d(args[0]).shape[0] for args in calls]
    n_start_calls = -(-n_starts // _CLICK_BLOCK)
    assert sizes[0] == min(n_starts, _CLICK_BLOCK)
    assert max(sizes[n_start_calls:]) > 1
    eta = channel_transmittance(link, det)
    for point, table in scored:
        own, = click_tables(*eta, link.noise_per_pulse, point)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(table, own))


def test_each_search_reads_the_slice_of_its_base(desk):
    # a search keys its click tables by the intensity triple alone, so the
    # rest of every table must come from the base of that search
    link, det, src, sec = desk
    rates = []
    for half_width in (0.05, 1.2):
        base = dataclasses.replace(src, slice_half_width_rad=half_width)
        res = optimize_params(
            link, det, sec, 1e9, seed=0, base=base, n_starts=4, budget=60,
        )
        best = params_to_source([res.params[n] for n in PARAM_NAMES], base)
        want = expected_post_processing(expected_tallies(link, det, best, 1e9), best, sec)
        assert res.rate == want.report.rate_per_pulse
        rates.append(res.rate)
    assert rates[0] != rates[1]
