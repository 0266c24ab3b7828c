"""Sending-or-not-sending twin-field protocol lab.

Session simulation over lossy fiber, finite-size decoy analysis with
odd-parity pairing, source-parameter optimization, and reuse of the
phase channel for vibration sensing and localization.
"""

from .model import (
    DEFAULT_SLICE_HALF_WIDTH_RAD,
    DetectorModel,
    Infeasible,
    LinkModel,
    SecurityParams,
    SourceParams,
    binary_entropy,
    channel_transmittance,
    transmittance,
)
from .optimize import (
    PARAM_NAMES,
    OptimizeResult,
    SearchSpace,
    evaluate,
    optimize_params,
    params_to_source,
)
from .security import (
    AoppResult,
    DecoyBounds,
    KeyRateReport,
    SessionAnalysis,
    aopp,
    decoy_bounds,
    expected_post_processing,
    fluctuation_bounds,
    key_rate,
    mc_post_processing,
    plob_bound,
    post_aopp_phase_error,
)
from .sensing import (
    LinkGeometry,
    LocalizationResult,
    PhaseTrace,
    SensePlan,
    VibrationSource,
    locate_traces,
    read_trace,
    recover_phase_from_reference,
    sense,
    simulate_phase_traces,
    synthesize_reference_counts,
    write_trace,
)
from .simulate import (
    SessionTally,
    TallyRow,
    click_probabilities,
    expected_tallies,
    monte_carlo_session,
    row_keys,
    z_bit_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "AoppResult",
    "DEFAULT_SLICE_HALF_WIDTH_RAD",
    "DecoyBounds",
    "DetectorModel",
    "Infeasible",
    "KeyRateReport",
    "LinkGeometry",
    "LinkModel",
    "LocalizationResult",
    "OptimizeResult",
    "PARAM_NAMES",
    "PhaseTrace",
    "SearchSpace",
    "SecurityParams",
    "SensePlan",
    "SessionAnalysis",
    "SessionTally",
    "SourceParams",
    "TallyRow",
    "VibrationSource",
    "aopp",
    "binary_entropy",
    "channel_transmittance",
    "click_probabilities",
    "decoy_bounds",
    "evaluate",
    "expected_post_processing",
    "expected_tallies",
    "fluctuation_bounds",
    "key_rate",
    "locate_traces",
    "mc_post_processing",
    "monte_carlo_session",
    "optimize_params",
    "params_to_source",
    "plob_bound",
    "post_aopp_phase_error",
    "read_trace",
    "recover_phase_from_reference",
    "row_keys",
    "sense",
    "simulate_phase_traces",
    "synthesize_reference_counts",
    "transmittance",
    "write_trace",
    "z_bit_assignment",
]
