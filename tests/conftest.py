import math

import numpy as np
import pytest
from hypothesis import strategies as st

from snslab import (
    SensePlan, SourceParams, expected_post_processing, expected_tallies, monte_carlo_session,
)
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

REFERENCE_PULSES = 1.007e13


def trace_line_reference(value):
    """One sample's trace line from float.hex(), padded to the fixed width of 25 bytes."""
    sign = "-" if math.copysign(1.0, value) < 0.0 else "+"
    if not math.isfinite(value):
        return f"{sign}{'nan' if math.isnan(value) else 'inf':<23}\n"
    if value == 0.0:  # float.hex gives 0x0.0p+0; the trace form takes the subnormals' exponent
        return f"{sign}0x0.0000000000000p-1022\n"
    digits, power = float.hex(abs(value)).split("p")
    return f"{sign}{digits}p{int(power):+05d}\n"


def write_trace_reference(path, trace):
    """The per-line trace writer, one file per call: the byte reference for trace files."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# sample_rate_hz={trace.sample_rate_hz!r} origin={trace.origin}\n")
        fh.writelines(map(trace_line_reference, trace.samples.tolist()))


def expected_rate(src, link, det, sec, n_pulses):
    """The optimizer's objective at src: the key rate per pulse of the
    post-processing of its expected tallies."""
    analysis = expected_post_processing(expected_tallies(link, det, src, n_pulses), src, sec)
    return analysis.report.rate_per_pulse


def sense_plan(geometry, sources, duration_s, sample_rate_hz, seed, **settings):
    """The SensePlan of a link, its sources, the trace length and rate, and the seed."""
    return SensePlan(geometry=geometry, sources=tuple(sources), seed=seed, duration_s=duration_s,
                     sample_rate_hz=sample_rate_hz, **settings)


@pytest.fixture
def ref_link():
    return reference_link()


@pytest.fixture
def ref_det():
    return reference_detector()


@pytest.fixture
def ref_src():
    return reference_source()


@pytest.fixture
def ref_sec():
    return reference_security()


@pytest.fixture
def desk():
    return desk_link(), desk_detector(), desk_source(), desk_security()


def balanced_source() -> SourceParams:
    """Decoy mix with enough weight on every row for tight statistics."""
    return SourceParams(
        mu1=0.1,
        mu2=0.4,
        muz=0.45,
        p_signal_window=0.5,
        p_mu1=0.4,
        p_mu2=0.3,
        p_vac=0.3,
        epsilon_send=0.2717,
        misalignment=0.028,
    )


@st.composite
def sources(draw, top=1.5):
    """Any SourceParams with intensities up to top: mu1 up to a third of it,
    mu2 - mu1 up to two thirds, muz up to all of it."""
    unit = st.floats(0.0, 1.0)
    mu1 = draw(st.floats(1e-3, top / 3.0))
    p_mu1 = draw(unit)
    p_mu2 = draw(unit) * (1.0 - p_mu1)
    return SourceParams(
        mu1=mu1, mu2=min(mu1 + draw(st.floats(1e-3, top * 2.0 / 3.0)), top),
        muz=draw(st.floats(0.0, top)),
        p_signal_window=draw(unit), p_mu1=p_mu1, p_mu2=p_mu2, p_vac=1.0 - p_mu1 - p_mu2,
        epsilon_send=draw(unit), misalignment=draw(st.floats(0.0, 0.45)),
    )


@pytest.fixture(scope="session")
def ref_expected():
    return expected_tallies(
        reference_link(), reference_detector(), reference_source(), REFERENCE_PULSES
    )


@pytest.fixture(scope="session")
def big_desk_session():
    """One large sampled session shared by the statistics-hungry tests."""
    src = balanced_source()
    tally = monte_carlo_session(
        desk_link(), desk_detector(), src, 20_000_000, seed=101, n_jobs=4
    )
    return tally, src


@pytest.fixture(scope="session")
def big_desk_expected():
    return expected_tallies(desk_link(), desk_detector(), balanced_source(), 20_000_000)
