"""avgfusion: few-photon linear optics with redundantly averaged gates.

The package has three layers:

engine
    :mod:`sweep`, the seeded Monte-Carlo harness that computes every metric
    from the mean matrix M_N of the N noisy copies, with the M_N builders of
    :mod:`interferometers`, the analyzer formulas of :mod:`closed_form` and
    the Bell states, pattern tables and figures of merit of :mod:`metrics`.
oracle
    the Fock-space simulation the engine is checked against: the sparse
    Fock states and transfer-matrix evolution of :mod:`fock` (which the
    engine also loads, for its matrix type and integer checks), the N-copy
    averaging network of :mod:`averaging`, the detection patterns of
    :mod:`detection`, and the self-check suites of :mod:`verify`.
output
    the CSV writer of :mod:`sweep` with the rows and float kernel of
    :mod:`g17`, the SVG plots of :mod:`svgplot` and the command line of
    :mod:`cli`.

Every public name is importable from the package, but a submodule is loaded
only when one of its names, or the submodule itself, is first used: a sweep
loads the engine, and ``verify`` adds the oracle.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each submodule; each is loaded on first use.
_EXPORTS = {
    "averaging": ("AveragedNetwork", "NetworkLayout", "build_averaged_network", "run_averaged"),
    "closed_form": ("bsm_closed_forms",),
    "detection": ("DetectionPattern", "FusionOutcome", "fusion_outcomes", "pattern_probabilities", "pattern_support", "project_pattern"),
    "fock": ("FockKet", "StateVec", "TransferMatrix", "apply_transfer", "inner_product", "norm_sq", "tensor"),
    "interferometers": ("bsm_matrix", "dft_matrix", "direct_sum", "effective_average", "fusion_gate", "permutation_matrix"),
    "metrics": ("BELL_LABELS", "BSM_PATTERNS", "FUSION_PATTERNS", "bell_state", "fidelity", "normalized_fidelity", "trace_distance"),
    "svgplot": ("render_sweep_svg", "write_svg"),
    "sweep": (
        "METRIC_COLUMNS",
        "Cell",
        "SweepConfig",
        "SweepResult",
        "run_bsm_trial",
        "run_cell",
        "run_fusion_trial",
        "run_sweep",
        "run_trace_trial",
        "sample_reflectivity",
        "trial_rng",
        "write_csv",
    ),
    "verify": ("SuiteResult", "run_all"),
}

_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
