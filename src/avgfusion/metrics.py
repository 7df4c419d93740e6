"""The one dual-rail convention, Bell states, click-pattern tables and figures of merit."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fock import StateVec, TransferMatrix, inner_product

BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")

_SQRT_HALF = 1.0 / math.sqrt(2.0)

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

#: Exact balanced-analyzer image of each Bell state under the sign convention of `interferometers`.
BSM_MAP_TARGETS: dict[str, dict[tuple[int, ...], complex]] = {
    "psi+": {(1, 1, 0, 0): _SQRT_HALF, (0, 0, 1, 1): -_SQRT_HALF},
    "psi-": {(1, 0, 0, 1): _SQRT_HALF, (0, 1, 1, 0): -_SQRT_HALF},
    "phi+": {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): -0.5},
    "phi-": {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): -0.5, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): 0.5},
}

#: The click patterns each Bell state can produce at the balanced point: the
#: kets of its exact image above, the ✓ cells of Table 2.
_BALANCED_SUPPORT: dict[str, frozenset[str]] = {
    label: frozenset(pat for pat, ket in BSM_PATTERNS.items() if ket in BSM_MAP_TARGETS[label])
    for label in BELL_LABELS
}

#: Success patterns of a polarization fusion gate on its (H1, V1, H2, V2) outputs,
#: keyed by which rails fired: the four ``BSM_PATTERNS`` with one photon per qubit.
FUSION_PATTERNS: dict[str, tuple[int, int, int, int]] = {
    rails: BSM_PATTERNS[label] for rails, label in (("HH", "ac"), ("VV", "bd"), ("HV", "ad"), ("VH", "bc"))
}

#: The one dual-rail convention: photon 1 on rail r (0 = V, 1 = H) is mode _RAILS[0][r] of
#: (H1, V1, H2, V2), photon 2 mode _RAILS[1][r]; a Bell state is its 2x2 rail amplitudes,
#: entry (r1, r2) the amplitude of photon 1 on rail r1 and photon 2 on rail r2.
_RAILS = np.array([[1, 0], [3, 2]])
_BELL_RAILS = {
    "psi+": np.array([[0.0, _SQRT_HALF], [_SQRT_HALF, 0.0]]),
    "psi-": np.array([[0.0, -_SQRT_HALF], [_SQRT_HALF, 0.0]]),
    "phi+": np.array([[_SQRT_HALF, 0.0], [0.0, _SQRT_HALF]]),
    "phi-": np.array([[-_SQRT_HALF, 0.0], [0.0, _SQRT_HALF]]),
}
#: Each Bell state as a StateVec, its kets H first (StateVec drops the zero entries).
_BELL_STATES = {
    label: StateVec(4, {tuple(int(k in _RAILS[[0, 1], [r1, r2]]) for k in range(4)): c[r1, r2] for r1 in (1, 0) for r2 in (1, 0)})
    for label, c in _BELL_RAILS.items()
}


def bell_state(label: str) -> StateVec:
    """Dual-rail Bell state on 4 modes (H1, V1, H2, V2), one immutable instance per label:
    psi+/- = (|1001> +/- |0110>)/sqrt(2), phi+/- = (|1010> +/- |0101>)/sqrt(2)."""
    try:
        return _BELL_STATES[label]
    except KeyError:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}") from None


def fidelity(state, target):
    """|<state|target>|^2 for a normalized target; state may be unnormalized.

    Takes two StateVecs, or two amplitude arrays over one ket basis (last
    axis, of one length); a stack of amplitude arrays gives an array of fidelities.
    """
    if isinstance(state, StateVec):
        return float(abs(inner_product(state, target)) ** 2)
    if np.shape(state)[-1:] != np.shape(target)[-1:]:
        raise ValueError(f"amplitude arrays over different ket bases: {np.shape(state)} vs {np.shape(target)}")
    return np.abs(np.sum(np.conj(state) * target, axis=-1)) ** 2


def normalized_fidelity(f, p):
    """Fidelity conditioned on success: F/P, elementwise over arrays.

    Values beyond 1 + 1e-9 indicate a numerical anomaly and are clamped to 1,
    with one warning per clamped value; tiny float excursions above 1 are
    returned as-is. Scalars give a float. A success probability that is not
    positive and finite (zero, negative, infinite or NaN), or a fidelity that
    is negative or not finite, raises ``ValueError`` naming the value.
    """
    f, p = np.asarray(f, dtype=float), np.asarray(p, dtype=float)
    valid = (p > 0.0) & (p < np.inf)
    if not valid.all():
        raise ValueError(f"success probability must be positive and finite, got {p[~valid][0]}")
    valid = (f >= 0.0) & (f < np.inf)
    if not valid.all():
        raise ValueError(f"fidelity must be non-negative and finite, got {f[~valid][0]}")
    ratio = f / p
    clamped = ratio > 1.0 + 1e-9
    for value in ratio[clamped]:
        warnings.warn(f"normalized fidelity {value} exceeds 1; clamping", RuntimeWarning)
    ratio = np.where(clamped, 1.0, ratio)
    return float(ratio) if ratio.ndim == 0 else ratio


def trace_distance(a, b):
    """Half the nuclear norm of (a - b): 0.5 * sum of singular values.

    Takes TransferMatrix objects or arrays, which must be (..., d, d) with one
    d; stacks of matrices broadcast and give an array of distances of shape (...),
    each matrix with the bits it gets alone.
    """
    a = a.entries if isinstance(a, TransferMatrix) else np.asarray(a)
    b = b.entries if isinstance(b, TransferMatrix) else np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"operands must be (..., d, d) with one d, got {a.shape} and {b.shape}")
    d = 0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False), axis=-1)
    return float(d) if d.ndim == 0 else d
