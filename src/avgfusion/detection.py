"""Photon-counting projections and detection-pattern bookkeeping.

A detection pattern fixes the photon count on a subset of modes. Projecting a
state onto a pattern yields the click probability together with the residual
state on the unmeasured modes. The states of a stacked evolution
(`fock.StateStack`) are projected from its amplitude array, all rows at once,
each probability with the bits its row's own projection gives: both read
`_slot_probabilities`, on the oracle's one modulus (see `fock`). The
analyzer's click probabilities are the same projection onto all four modes
over ``BSM_PATTERNS``, one ket per pattern. The pattern tables ``BSM_PATTERNS``,
``FUSION_PATTERNS`` and ``BSM_MAP_TARGETS`` are defined in :mod:`metrics`,
where the sweep engine reads them without loading this module, and are
importable from here too. ``FUSION_PATTERNS`` is no table of its own: it
names four of the ten ``BSM_PATTERNS`` by their fused rails (HH = ac,
VV = bd, HV = ad, VH = bc), the rows the sweep's fusion reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .fock import StateStack, StateVec, _int_tuple, apply_transfer
from .interferometers import bsm_matrix
from .metrics import BSM_MAP_TARGETS, BSM_PATTERNS, FUSION_PATTERNS, bell_state

@dataclass(frozen=True)
class DetectionPattern:
    """Fixed photon counts on a chosen subset of modes.

    ``modes`` and ``counts`` are stored as tuples of ints; any integral values
    are accepted, and a non-integral one raises ``ValueError``.
    """

    modes: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", _int_tuple(self.modes, "modes"))
        object.__setattr__(self, "counts", _int_tuple(self.counts, "counts"))
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
    return _project_each(state, pattern.modes, (pattern.counts,))[0]


def _project_each(state: StateVec, modes, counts_list) -> list[tuple[StateVec, float]]:
    """`project_pattern` onto the measured ``modes`` for each of several
    distinct count tuples at once.

    Each ket goes to the count tuple its measured modes show, so every
    residual and probability accumulates in ket order, as its own
    projection would.
    """
    slots = _slots(state.kets(), state.mode_count, modes, counts_list)
    keep = [i for i in range(state.mode_count) if i not in modes]
    residual = _picker(keep)
    amps = [{} for _ in counts_list]
    rows = []
    for (ket, a), i in zip(state.items(), slots):
        if i is not None:
            amps[i][residual(ket)] = a
            rows.append((i, (a,)))
    probs = _slot_probabilities(rows, len(amps), 1)[:, 0].tolist()
    return [(StateVec._built(len(keep), amp), prob) for amp, prob in zip(amps, probs)]


def _stack_probabilities(stack: StateStack, modes, counts_list) -> np.ndarray:
    """The (K, len(counts_list)) probabilities of the count tuples on the
    measured ``modes`` for each state of a stack, read from its amplitude
    array: row k has the bits `_project_each` gives ``stack[k]``."""
    slots = _slots(stack.kets, stack.mode_count, modes, counts_list)
    rows = [(i, row) for i, row in zip(slots, stack.amplitudes.T.tolist()) if i is not None]
    return _slot_probabilities(rows, len(counts_list), len(stack)).T


def _slots(kets, mode_count: int, modes, counts_list) -> list:
    """Per ket, the index in `counts_list` of the counts it shows on the
    measured ``modes``, distinct non-negative ints, or None if it shows none of them."""
    if any(m >= mode_count for m in modes):
        raise ValueError(f"measured modes {tuple(modes)} reach beyond the {mode_count} modes of the state")
    measured = _picker(modes)
    slot = {counts: i for i, counts in enumerate(counts_list)}
    return [slot.get(measured(ket)) for ket in kets]


def _slot_probabilities(rows, n: int, k: int) -> np.ndarray:
    """The (n, k) probabilities of n count tuples from (slot, k amplitudes)
    ``rows``, one per ket in ket order: the one implementation behind every
    pattern probability.

    A ket's probability is ``abs(a) ** 2``, and each slot adds its kets' in
    ket order, from 0.0: a cumulative sum over the ket axis, where ``np.sum``
    may pair terms.
    """
    squares = np.zeros((n, len(rows) + 1, k))
    for j, (i, row) in enumerate(rows, start=1):
        squares[i, j] = [abs(a) ** 2 for a in row]
    return np.cumsum(squares, axis=1)[:, -1]


def _picker(indices):
    """ket -> tuple(ket[i] for i in indices), for any number of indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda ket: tuple(ket[i] for i in indices)


def fusion_outcomes(state: StateVec, rails: tuple[int, int, int, int]) -> dict[str, FusionOutcome]:
    """Evaluate the four fusion success patterns on the given analyzer rails.

    ``rails`` lists the (H1, V1, H2, V2) output modes of the fusion gate
    within ``state``, four distinct non-negative integers. Probabilities are taken
    against the state as given, so feed an unnormalized post-selected state to fold
    its success probability in.
    """
    modes = _int_tuple(rails, "rails")
    if len(modes) != 4 or len(set(modes)) != 4 or min(modes) < 0:
        raise ValueError(f"rails must be four distinct non-negative modes, got {modes}")
    projections = _project_each(state, modes, FUSION_PATTERNS.values())
    return {
        label: FusionOutcome(label=label, probability=prob, residual=residual)
        for label, (residual, prob) in zip(FUSION_PATTERNS, projections)
    }


def pattern_probabilities(bell_label: str, eta_h: float, eta_v: float) -> dict[str, float]:
    """Click probability of every analyzer pattern for one Bell state.

    Sends the Bell state through a single Bell-state analyzer with the given
    beam-splitter reflectivities; keys are the labels of :data:`BSM_PATTERNS`.
    The analyzer measures every mode, so each probability is the squared
    modulus of one output amplitude.
    """
    out = apply_transfer(bsm_matrix(eta_h, eta_v).entries[None], bell_state(bell_label))
    return dict(zip(BSM_PATTERNS, _stack_probabilities(out, range(4), BSM_PATTERNS.values())[0].tolist()))


#: Click probability above which a pattern counts as possible.
SUPPORT_THRESHOLD = 1e-12


def pattern_support(bell_label: str, eta_h: float = 0.5, eta_v: float = 0.5) -> set[str]:
    """Which analyzer click patterns a Bell state can produce.

    The labels from :data:`BSM_PATTERNS` whose click probability, by
    :func:`pattern_probabilities`, exceeds :data:`SUPPORT_THRESHOLD`.
    """
    probs = pattern_probabilities(bell_label, eta_h, eta_v)
    return {label for label, prob in probs.items() if prob > SUPPORT_THRESHOLD}
