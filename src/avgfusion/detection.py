"""Photon-counting projections and detection-pattern bookkeeping.

A detection pattern fixes the photon count on a subset of modes. Projecting a
state onto a pattern yields the click probability together with the residual
state on the unmeasured modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import StateVec, apply_transfer
from .interferometers import bsm_matrix
from .metrics import bell_state

#: Two-photon click patterns on the four analyzer modes (a, b, c, d) of a
#: Bell-state analyzer: the four doubles and the six coincidences.
BSM_PATTERNS: dict[str, tuple[int, int, int, int]] = {
    "a2": (2, 0, 0, 0),
    "b2": (0, 2, 0, 0),
    "c2": (0, 0, 2, 0),
    "d2": (0, 0, 0, 2),
    "ab": (1, 1, 0, 0),
    "ac": (1, 0, 1, 0),
    "ad": (1, 0, 0, 1),
    "bc": (0, 1, 1, 0),
    "bd": (0, 1, 0, 1),
    "cd": (0, 0, 1, 1),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Balanced-analyzer image of each Bell state, up to one global phase.
BSM_MAP_TARGETS: dict[str, dict[tuple[int, ...], complex]] = {
    "psi+": {(1, 1, 0, 0): -_SQRT_HALF, (0, 0, 1, 1): _SQRT_HALF},
    "psi-": {(1, 0, 0, 1): _SQRT_HALF, (0, 1, 1, 0): -_SQRT_HALF},
    "phi+": {(2, 0, 0, 0): -0.5, (0, 2, 0, 0): -0.5, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): 0.5},
    "phi-": {(2, 0, 0, 0): -0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): -0.5},
}

#: Success patterns of a polarization fusion gate on its (H1, V1, H2, V2)
#: outputs: one photon in each port, keyed by which rails fired.
FUSION_PATTERNS: dict[str, tuple[int, int, int, int]] = {
    "HH": (1, 0, 1, 0),
    "VV": (0, 1, 0, 1),
    "HV": (1, 0, 0, 1),
    "VH": (0, 1, 1, 0),
}


@dataclass(frozen=True)
class DetectionPattern:
    """Fixed photon counts on a chosen subset of modes."""

    modes: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.modes) != len(self.counts):
            raise ValueError("modes and counts must have equal length")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"repeated mode in {self.modes}")
        if any(m < 0 for m in self.modes) or any(c < 0 for c in self.counts):
            raise ValueError("modes and counts must be non-negative")


@dataclass(frozen=True)
class FusionOutcome:
    """One success pattern of a fusion measurement.

    ``residual`` is the unnormalized state left on the unmeasured modes; its
    squared norm equals ``probability``.
    """

    label: str
    probability: float
    residual: StateVec


def project_pattern(state: StateVec, pattern: DetectionPattern) -> tuple[StateVec, float]:
    """Project onto a click pattern; return (unnormalized residual, probability).

    The residual keeps only the unmeasured modes, in their original order. Its
    squared norm equals the returned probability.
    """
    if any(m >= state.mode_count for m in pattern.modes):
        raise ValueError(f"pattern {pattern} references modes beyond {state.mode_count}")
    measured = dict(zip(pattern.modes, pattern.counts))
    keep = [i for i in range(state.mode_count) if i not in measured]
    amp = {}
    prob = 0.0
    for ket, a in state.items():
        if all(ket[m] == c for m, c in measured.items()):
            amp[tuple(ket[i] for i in keep)] = a
            prob += abs(a) ** 2
    return StateVec(len(keep), amp), prob


def fusion_outcomes(state: StateVec, rails: tuple[int, int, int, int]) -> dict[str, FusionOutcome]:
    """Evaluate the four fusion success patterns on the given analyzer rails.

    ``rails`` lists the (H1, V1, H2, V2) output modes of the fusion gate
    within ``state``. Probabilities are taken against the state as given, so
    feed an unnormalized post-selected state to fold its success probability in.
    """
    outcomes = {}
    for label, counts in FUSION_PATTERNS.items():
        residual, prob = project_pattern(state, DetectionPattern(rails, counts))
        outcomes[label] = FusionOutcome(label=label, probability=prob, residual=residual)
    return outcomes


def pattern_probabilities(bell_label: str, eta_h: float, eta_v: float) -> dict[str, float]:
    """Click probability of every analyzer pattern for one Bell state.

    Sends the Bell state through a single Bell-state analyzer with the given
    beam-splitter reflectivities; keys are the labels of :data:`BSM_PATTERNS`.
    """
    out = apply_transfer(bsm_matrix(eta_h, eta_v), bell_state(bell_label))
    return {
        label: project_pattern(out, DetectionPattern((0, 1, 2, 3), counts))[1]
        for label, counts in BSM_PATTERNS.items()
    }


def pattern_support(
    bell_label: str,
    eta_h: float = 0.5,
    eta_v: float = 0.5,
    threshold: float = 1e-12,
) -> set[str]:
    """Which analyzer click patterns a Bell state can produce.

    The labels from :data:`BSM_PATTERNS` whose click probability, by
    :func:`pattern_probabilities`, exceeds ``threshold``.
    """
    probs = pattern_probabilities(bell_label, eta_h, eta_v)
    return {label for label, prob in probs.items() if prob > threshold}
