"""Tests for Bell states and scalar figures of merit."""

import itertools
import math

import numpy as np
import pytest

from avgfusion.fock import StateVec, TransferMatrix, norm_sq
from avgfusion.interferometers import effective_average, fusion_gate
from avgfusion.metrics import (
    BELL_LABELS,
    bell_state,
    fidelity,
    normalized_fidelity,
    trace_distance,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_bell_state_kets():
    """All four Bell states on (H1, V1, H2, V2), written out: their kets, in
    order (H first), and their amplitudes, bit for bit."""
    kets = {
        "psi+": [((1, 0, 0, 1), SQRT_HALF), ((0, 1, 1, 0), SQRT_HALF)],
        "psi-": [((1, 0, 0, 1), SQRT_HALF), ((0, 1, 1, 0), -SQRT_HALF)],
        "phi+": [((1, 0, 1, 0), SQRT_HALF), ((0, 1, 0, 1), SQRT_HALF)],
        "phi-": [((1, 0, 1, 0), SQRT_HALF), ((0, 1, 0, 1), -SQRT_HALF)],
    }
    for label in BELL_LABELS:
        state = bell_state(label)
        assert state.mode_count == 4
        assert list(state.items()) == kets[label], label  # == on finite nonzero floats is bit equality
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_bell_states_orthonormal():
    for a, b in itertools.product(BELL_LABELS, repeat=2):
        expected = 1.0 if a == b else 0.0
        assert fidelity(bell_state(a), bell_state(b)) == pytest.approx(expected, abs=1e-12)
        assert norm_sq(bell_state(a)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_scales_with_norm():
    half = StateVec(4, {(1, 0, 0, 1): 0.5, (0, 1, 1, 0): 0.5})
    assert fidelity(half, bell_state("psi+")) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(StateVec.from_ket((1, 0)), bell_state("psi+"))


def test_fidelity_bounded_by_norm_sq():
    rng = np.random.default_rng(6)
    for _ in range(20):
        kets = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
        amp = {k: complex(*rng.standard_normal(2)) for k in kets}
        s = StateVec(4, amp)
        label = BELL_LABELS[rng.integers(0, 4)]
        assert fidelity(s, bell_state(label)) <= norm_sq(s) + 1e-12


def test_fidelity_of_amplitude_arrays_needs_one_ket_basis():
    assert fidelity(np.full((3, 4), 0.5), np.full(4, 0.5)).tolist() == [1.0] * 3
    for state, target in ((np.ones(1), np.ones(4)), (np.ones((3, 10)), np.ones(4))):
        with pytest.raises(ValueError, match="different ket bases"):
            fidelity(state, target)
        with pytest.raises(ValueError, match="different ket bases"):
            fidelity(target, state)


def test_normalized_fidelity():
    assert normalized_fidelity(0.125, 0.125) == pytest.approx(1.0)
    assert normalized_fidelity(0.0, 0.3) == 0.0
    assert type(normalized_fidelity(0.1, 0.3)) is float
    for p in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            normalized_fidelity(0.5, p)
    for f in (-1.0, -1e-300, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=rf"fidelity must be non-negative and finite, got {f}"):
            normalized_fidelity(f, 0.5)
    with pytest.raises(ValueError, match="got nan"):
        normalized_fidelity(np.array([0.1, math.nan, 0.2]), np.array([0.5, 0.5, 0.5]))
    assert normalized_fidelity(-0.0, 0.5) == 0.0
    with pytest.warns(RuntimeWarning):
        assert normalized_fidelity(0.2, 0.1) == 1.0


def test_normalized_fidelity_is_elementwise_with_one_warning_per_clamp():
    f = np.array([0.1, 0.2, 0.3, 0.5, 0.25])
    p = np.array([0.2, 0.1, 0.3 - 1e-12, 0.25, 0.5])
    with pytest.warns(RuntimeWarning) as caught:
        ratio = normalized_fidelity(f, p)
    assert len(caught) == 2  # 0.2/0.1 and 0.5/0.25; 0.3/(0.3 - 1e-12) is within slack
    np.testing.assert_array_equal(ratio, [0.5, 1.0, 0.3 / (0.3 - 1e-12), 1.0, 0.5])
    with pytest.raises(ValueError):
        normalized_fidelity(f, np.array([0.2, 0.1, 0.0, 0.25, 0.5]))


def test_trace_distance_basics():
    gate = fusion_gate(0.5, 0.5)
    assert trace_distance(gate, gate) == pytest.approx(0.0, abs=1e-12)
    a = TransferMatrix(np.eye(4))
    b = TransferMatrix(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert trace_distance(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        trace_distance(a, TransferMatrix(np.eye(3)))


@pytest.mark.parametrize(
    "a, b, want",
    [
        (np.ones((1, 4)), np.eye(4), None),
        (np.ones(4), np.eye(4), None),
        (
            np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])[:, None],
            np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]), -np.eye(4)]),
            [[0.0, 1.0, 4.0], [1.0, 0.0, 3.0]],
        ),
        (np.zeros((0, 0)), np.zeros((0, 0)), 0.0),
        (np.zeros((0, 4, 4)), np.eye(4), np.zeros(0)),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2), np.nan),
        (np.array([[np.inf, 1.0], [0.0, 1.0]]), np.eye(2), np.nan),
    ],
    ids=["row-vs-square", "vector-vs-square", "stacks-broadcast", "empty", "empty-stack", "inf-hermitian", "inf-general"],
)
def test_trace_distance_needs_square_operands_of_one_size(a, b, want):
    if want is None:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=r"\(\.\.\., d, d\)"):
                trace_distance(x, y)
    else:
        np.testing.assert_allclose(trace_distance(a, b), want, atol=1e-12)


def test_trace_distance_metric_properties():
    rng = np.random.default_rng(14)
    for _ in range(10):
        mats = []
        for _ in range(3):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, r = np.linalg.qr(z)
            mats.append(TransferMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r)))))
        a, b, c = mats
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, b) >= 0
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_trace_distance_of_sampled_average_is_moderate():
    rng = np.random.default_rng(40)
    target = fusion_gate(0.5, 0.5)
    copies = [fusion_gate(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)) for _ in range(3)]
    d = trace_distance(effective_average(copies), target)
    assert 0.0 < d < 1.0


def _hermitian_stack(rng, shape, complex_part):
    x = rng.standard_normal(shape)
    if complex_part:
        x = x + 1j * rng.standard_normal(shape)
    return x + np.swapaxes(x, -1, -2).conj()


@pytest.mark.parametrize("d", [1, 2, 4, 8])
@pytest.mark.parametrize("complex_part", [False, True], ids=["real-symmetric", "complex-hermitian"])
def test_trace_distance_of_hermitian_differences_is_half_the_eigenvalue_moduli(d, complex_part):
    """A Hermitian difference has the moduli of its eigenvalues as singular
    values: 0.5 * sum |eigvalsh| is the textbook trace distance."""
    rng = np.random.default_rng(16 + d)
    a = _hermitian_stack(rng, (300, d, d), complex_part)
    b = _hermitian_stack(rng, (d, d), complex_part)
    eigen = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)
    np.testing.assert_allclose(trace_distance(a, b), eigen, rtol=1e-14, atol=0)


@pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
def test_trace_distance_gives_a_mixed_stack_the_bits_of_each_matrix_alone(complex_part):
    """A stack mixing Hermitian, almost Hermitian and general differences gives
    each matrix the bits it gets on its own: 0.5 * sum of its singular values."""
    rng = np.random.default_rng(19)
    hermitian = [_hermitian_stack(rng, (4, 4), complex_part) for _ in range(4)]
    almost = hermitian[0].copy()
    almost[0, 1] += 1e-15 * almost[0, 1]  # a few ulp off Hermitian
    general = rng.standard_normal((2, 4, 4))
    if complex_part:
        general = general + 1j * rng.standard_normal((2, 4, 4))
    stack = np.stack([hermitian[0], general[0], hermitian[1], almost, hermitian[2], general[1], hermitian[3]])
    assert np.iscomplexobj(stack) == complex_part
    zero = np.zeros((4, 4))
    got = trace_distance(stack, zero)
    for x, d in zip(stack, got.tolist()):
        assert d == trace_distance(x, zero)
        assert d == 0.5 * np.sum(np.linalg.svd(x, compute_uv=False))


@pytest.mark.parametrize(
    "a",
    [
        np.full((4, 4), np.nan),
        np.diag([np.nan, 1.0, 1.0, 1.0]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]),
        np.stack([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), 2.0 * np.eye(2)]),
    ],
    ids=["all-nan", "nan-diagonal", "symmetric-nan", "complex-nan", "stack-with-one-nan"],
)
def test_trace_distance_of_a_nan_difference_raises(a):
    """The SVD fails on a NaN, for the whole stack."""
    with pytest.raises(np.linalg.LinAlgError):
        trace_distance(a, np.eye(a.shape[-1]))
