"""avgfusion: few-photon linear optics with redundantly averaged gates.

A sparse Fock-state simulator for passive interferometers, an N-copy
redundant-encoding (averaging) network builder, fusion/Bell-analyzer
detection models, closed-form benchmark formulas, and a seeded Monte-Carlo
sweep harness with CSV/SVG output.
"""

from .averaging import (
    AveragedNetwork,
    NetworkLayout,
    build_averaged_network,
    postselect_vacuum_ancilla,
    run_averaged,
)
from .closed_form import (
    ReflectivityDraw,
    bsm_fidelity_closed,
    bsm_fnorm_closed,
    bsm_psuccess_closed,
)
from .detection import (
    BSM_PATTERNS,
    FUSION_PATTERNS,
    DetectionPattern,
    FusionOutcome,
    fusion_outcomes,
    pattern_probabilities,
    pattern_support,
    project_pattern,
)
from .fock import (
    FockKet,
    StateVec,
    TransferMatrix,
    apply_transfer,
    fock_dimension,
    inner_product,
    norm_sq,
    tensor,
)
from .interferometers import (
    beamsplitter_layer,
    beamsplitter_layers,
    bsm_matrices,
    bsm_matrix,
    dft_matrix,
    direct_sum,
    effective_average,
    fusion_gate,
    fusion_gates,
    permutation_matrix,
    swap_matrix,
)
from .metrics import (
    BELL_LABELS,
    bell_state,
    fidelity,
    normalized_fidelity,
    trace_distance,
)
from .svgplot import render_sweep_svg, write_svg
from .sweep import (
    METRIC_COLUMNS,
    CellSummary,
    SweepConfig,
    SweepResult,
    TrialRecord,
    run_bsm_trial,
    run_fusion_trial,
    run_sweep,
    run_trace_trial,
    sample_reflectivity,
    trial_rng,
    write_csv,
)
from .verify import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "AveragedNetwork",
    "BELL_LABELS",
    "BSM_PATTERNS",
    "CellSummary",
    "DetectionPattern",
    "FUSION_PATTERNS",
    "FockKet",
    "FusionOutcome",
    "METRIC_COLUMNS",
    "NetworkLayout",
    "ReflectivityDraw",
    "StateVec",
    "SuiteResult",
    "SweepConfig",
    "SweepResult",
    "TransferMatrix",
    "TrialRecord",
    "apply_transfer",
    "beamsplitter_layer",
    "beamsplitter_layers",
    "bell_state",
    "bsm_fidelity_closed",
    "bsm_fnorm_closed",
    "bsm_matrices",
    "bsm_matrix",
    "bsm_psuccess_closed",
    "build_averaged_network",
    "dft_matrix",
    "direct_sum",
    "effective_average",
    "fidelity",
    "fock_dimension",
    "fusion_gate",
    "fusion_gates",
    "fusion_outcomes",
    "inner_product",
    "norm_sq",
    "normalized_fidelity",
    "pattern_probabilities",
    "pattern_support",
    "permutation_matrix",
    "postselect_vacuum_ancilla",
    "project_pattern",
    "render_sweep_svg",
    "run_all",
    "run_averaged",
    "run_bsm_trial",
    "run_fusion_trial",
    "run_sweep",
    "run_trace_trial",
    "sample_reflectivity",
    "swap_matrix",
    "tensor",
    "trace_distance",
    "trial_rng",
    "write_csv",
    "write_svg",
]
