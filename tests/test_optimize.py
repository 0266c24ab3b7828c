import dataclasses

import numpy as np
import pytest

import snslab.optimize
import snslab.simulate
from snslab import expected_post_processing, expected_tallies
from snslab.optimize import (
    INFEASIBLE_RATE,
    PARAM_NAMES,
    SearchSpace,
    evaluate,
    optimize_params,
    params_to_source,
    repair,
)
from snslab.presets import desk_link, desk_source

DESK_VEC = np.array([0.1, 0.4, 0.45, 0.7, 0.6, 0.05, 0.2717])


def test_evaluate_accepts_both_parameter_forms(desk):
    link, det, src, sec = desk
    # params_to_source derives p_vac = 1 - p_mu1 - p_mu2, which is not the preset's 0.35
    src = dataclasses.replace(src, p_vac=1.0 - 0.6 - 0.05)
    r_src = evaluate(src, link, det, sec, 1e9)
    r_vec = evaluate(DESK_VEC, link, det, sec, 1e9, misalignment=src.misalignment)
    assert r_src == r_vec
    assert r_src > 0.0
    # the ready-made object carries its own misalignment
    assert evaluate(src, link, det, sec, 1e9, misalignment=0.2) == r_src


@pytest.mark.parametrize("half_width", [0.05, 1.2])
def test_evaluate_reads_the_slice_of_its_source(desk, half_width):
    link, det, src, sec = desk
    src = dataclasses.replace(src, slice_half_width_rad=half_width)
    tally = expected_tallies(link, det, src, 1e9)
    rate = expected_post_processing(tally, src, sec).report.rate_per_pulse
    assert evaluate(src, link, det, sec, 1e9) == rate
    # a vector takes the slice from the keyword, as it takes the misalignment
    vec = [getattr(src, name) for name in PARAM_NAMES]
    point = dataclasses.replace(src, p_vac=1.0 - src.p_mu1 - src.p_mu2)
    assert evaluate(vec, link, det, sec, 1e9, misalignment=src.misalignment,
                    slice_half_width_rad=half_width) == evaluate(point, link, det, sec, 1e9)
    assert params_to_source(vec, src.misalignment, half_width) == point


def test_evaluate_rejects_malformed_vectors(desk):
    link, det, _, sec = desk
    with pytest.raises(ValueError):
        evaluate(DESK_VEC[:5], link, det, sec, 1e9)


def test_evaluate_infeasible_sentinel(desk):
    _, det, src, sec = desk
    dead_link = desk_link(total_db=400.0)
    rate = evaluate(src, dead_link, det, sec, 1e6)
    assert rate == INFEASIBLE_RATE == -1.0e6


def test_evaluate_negative_but_feasible_for_weak_signal(desk):
    link, det, _, sec = desk
    vec = DESK_VEC.copy()
    vec[2] = 0.05  # signal windows barely emit; decoy statistics still fine
    rate = evaluate(vec, link, det, sec, 1e9, misalignment=0.028)
    assert rate < 0.0
    assert rate > INFEASIBLE_RATE


def test_evaluate_improves_with_session_length(desk):
    link, det, src, sec = desk
    r_short = evaluate(src, link, det, sec, 1e9)
    r_long = evaluate(src, link, det, sec, 8e9)
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
    src = params_to_source(DESK_VEC, misalignment=0.01)
    assert src.p_vac == pytest.approx(1.0 - 0.6 - 0.05)
    assert src.misalignment == 0.01
    assert src.mu1 == 0.1 and src.muz == 0.45
    with pytest.raises(ValueError):
        params_to_source(np.zeros(6))


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
    link, det, _, sec = desk
    grid = np.linspace(0.05, 1.0, 300)
    vecs = np.tile(DESK_VEC, (grid.size, 1))
    vecs[:, 2] = grid
    rates = np.array(
        [evaluate(v, link, det, sec, 1e9, misalignment=0.028) for v in vecs]
    )
    k = int(np.argmax(rates))
    assert 0 < k < grid.size - 1  # interior optimum, the test is meaningful

    res = optimize_params(
        link, det, sec, 1e9, seed=3, n_starts=6, budget=300,
        space=_pinned_space(), misalignment=0.028,
    )
    assert res.feasible
    spacing = grid[1] - grid[0]
    assert abs(res.params["muz"] - grid[k]) <= 2.0 * spacing
    assert res.rate >= rates[k] - abs(rates[k]) * 1e-3


def test_optimizer_budget_one_returns_the_initial_point(desk):
    link, det, _, sec = desk
    res = optimize_params(
        link, det, sec, 1e9, seed=0, n_starts=4, budget=1,
        initial=DESK_VEC, misalignment=0.028,
    )
    assert res.evaluations == 1
    assert res.start_index == 0
    assert np.allclose([res.params[n] for n in PARAM_NAMES], DESK_VEC)
    assert res.rate == evaluate(DESK_VEC, link, det, sec, 1e9, misalignment=0.028)


def test_optimizer_validation(desk):
    link, det, _, sec = desk
    with pytest.raises(ValueError):
        optimize_params(link, det, sec, 1e9, seed=0, budget=0)
    with pytest.raises(ValueError):
        optimize_params(link, det, sec, 1e9, seed=0, n_starts=0)


def test_optimizer_is_deterministic(desk):
    link, det, _, sec = desk
    kwargs = dict(seed=11, n_starts=4, budget=60, misalignment=0.028)
    a = optimize_params(link, det, sec, 1e9, **kwargs)
    b = optimize_params(link, det, sec, 1e9, **kwargs)
    assert a.params == b.params
    assert a.rate == b.rate
    assert a.evaluations == b.evaluations


def test_optimizer_never_loses_to_its_initial_point(desk):
    link, det, _, sec = desk
    start_rate = evaluate(DESK_VEC, link, det, sec, 1e9, misalignment=0.028)
    res = optimize_params(
        link, det, sec, 1e9, seed=5, n_starts=3, budget=80,
        initial=DESK_VEC, misalignment=0.028,
    )
    assert res.feasible
    assert res.rate >= start_rate


def test_optimizer_accepts_dict_initial(desk):
    link, det, _, sec = desk
    initial = dict(zip(PARAM_NAMES, DESK_VEC))
    res = optimize_params(
        link, det, sec, 1e9, seed=2, n_starts=2, budget=2,
        initial=initial, misalignment=0.028,
    )
    assert res.evaluations == 2


def test_optimizer_reports_infeasible_when_nothing_works(desk):
    _, det, _, sec = desk
    dead_link = desk_link(total_db=400.0)
    res = optimize_params(dead_link, det, sec, 1e5, seed=1, n_starts=3, budget=10)
    assert not res.feasible
    assert res.rate == -np.inf


def test_desk_source_vector_matches_preset():
    src = desk_source()
    assert [getattr(src, n) for n in PARAM_NAMES] == list(DESK_VEC)


def test_optimizer_result_is_pinned(desk):
    # one exact search on the desk presets; a change that only speeds the
    # objective up must reproduce it bit for bit
    link, det, src, sec = desk
    res = optimize_params(
        link, det, sec, 1e9, seed=0, n_starts=4, budget=150, misalignment=src.misalignment,
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


def test_optimizer_builds_one_click_table_per_intensity_triple(desk, monkeypatch):
    link, det, src, sec = desk
    builds, scored = [], []
    click_probabilities = snslab.simulate.click_probabilities
    params_to_source = snslab.optimize.params_to_source

    def counted(*args, **kwargs):
        builds.append(args)
        return click_probabilities(*args, **kwargs)

    def recorded(vec, *fixed):
        point = params_to_source(vec, *fixed)
        scored.append((point.mu1, point.mu2, point.muz))
        return point

    monkeypatch.setattr(snslab.simulate, "click_probabilities", counted)
    monkeypatch.setattr(snslab.optimize, "params_to_source", recorded)
    res = optimize_params(
        link, det, sec, 1e9, seed=0, n_starts=4, budget=60, misalignment=src.misalignment,
    )
    assert len(scored) == res.evaluations
    assert len(builds) == len(set(scored)) < res.evaluations


def test_one_tables_dict_keeps_a_table_per_slice_half_width(desk):
    # two points that share the intensity triple and the misalignment but
    # not the slice must not share a click table
    link, det, src, sec = desk
    narrow = dataclasses.replace(src, slice_half_width_rad=0.05)
    wide = dataclasses.replace(src, slice_half_width_rad=1.2)
    tables = {}
    for point in (narrow, wide):
        got = snslab.optimize._analyze(point, link, det, sec, 1e9, tables)
        want = expected_post_processing(expected_tallies(link, det, point, 1e9), point, sec)
        assert got == want
    assert len(tables) == 2
    first, second = tables.values()
    assert first.accept_frac != second.accept_frac
    assert not np.array_equal(first.slice_l, second.slice_l)
