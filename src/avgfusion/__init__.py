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
from .closed_form import bsm_closed_forms
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
    bsm_matrix,
    dft_matrix,
    direct_sum,
    effective_average,
    fusion_gate,
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
    Cell,
    SweepConfig,
    SweepResult,
    run_bsm_trial,
    run_cell,
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
    "Cell",
    "DetectionPattern",
    "FUSION_PATTERNS",
    "FockKet",
    "FusionOutcome",
    "METRIC_COLUMNS",
    "NetworkLayout",
    "StateVec",
    "SuiteResult",
    "SweepConfig",
    "SweepResult",
    "TransferMatrix",
    "apply_transfer",
    "beamsplitter_layer",
    "bell_state",
    "bsm_closed_forms",
    "bsm_matrix",
    "build_averaged_network",
    "dft_matrix",
    "direct_sum",
    "effective_average",
    "fidelity",
    "fock_dimension",
    "fusion_gate",
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
    "run_cell",
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
