"""Tests for the single-particle matrix constructors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.fock import StateVec, TransferMatrix, apply_transfer
from avgfusion.interferometers import (
    _FUSION,
    _LAYER,
    _bsm_matrices,
    _features,
    _fusion_gates,
    bsm_matrix,
    dft_matrix,
    direct_sum,
    effective_average,
    fusion_gate,
)
from avgfusion.metrics import bell_state, trace_distance

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_dft_small_cases():
    np.testing.assert_allclose(dft_matrix(1).entries, [[1.0]])
    np.testing.assert_allclose(
        dft_matrix(2).entries, np.array([[1, 1], [1, -1]]) * SQRT_HALF, atol=1e-15
    )
    assert dft_matrix(4).entries[1, 3] == pytest.approx(0.5j)


def test_dft_rejects_nonpositive():
    with pytest.raises(ValueError):
        dft_matrix(0)


@pytest.mark.parametrize("size", [2.5, 1e-9, math.nan, math.inf])
def test_dft_rejects_non_integral_size(size):
    """A fractional size used to build an arange-sized, non-unitary matrix."""
    with pytest.raises(ValueError, match="non-integral"):
        dft_matrix(size)


@pytest.mark.parametrize("size", [np.int64(3), 3.0, np.float32(3)])
def test_dft_accepts_integral_size_of_any_type(size):
    np.testing.assert_array_equal(dft_matrix(size).entries, dft_matrix(3).entries)


@pytest.mark.parametrize("n", range(1, 9))
def test_dft_unitary(n):
    assert dft_matrix(n).unitarity_defect() < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_dft_squared_is_mode_reversal(n):
    twice = dft_matrix(n).entries @ dft_matrix(n).entries
    reversal = np.eye(n)[:, [(-r) % n for r in range(n)]]  # a photon in mode r moves to mode -r
    np.testing.assert_allclose(twice, reversal, atol=1e-12)


def test_constructors_reject_out_of_range():
    for constructor in (fusion_gate, bsm_matrix):
        for eta_1, eta_2 in ((1.2, 0.5), (0.5, -0.01), (float("nan"), 0.5)):
            with pytest.raises(ValueError):
                constructor(eta_1, eta_2)
        for complex_eta in (0.5 + 0.3j, np.array([0.5 + 0.3j])):
            with pytest.raises(ValueError, match="must be real"):
                constructor(0.5, complex_eta)


def _printed_block(eta):
    c, s = math.sqrt(eta), math.sqrt(1.0 - eta)
    return np.array([[c, s], [-s, c]])


def _literal_fusion(eta_x, eta_y):
    """B * SWAP * B, B a printed block on (H1, V1) and one on (H2, V2)."""
    b = np.zeros((4, 4))
    b[:2, :2], b[2:, 2:] = _printed_block(eta_x), _printed_block(eta_y)
    swap = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    return b @ swap @ b


def _literal_bsm(eta_h, eta_v):
    """Printed blocks on the interleaved pairs (H1, H2) and (V1, V2)."""
    t = np.zeros((4, 4))
    t[0::2, 0::2], t[1::2, 1::2] = _printed_block(eta_h), _printed_block(eta_v)
    return t


def test_beamsplitter_layer_entries():
    """The layer basis L_a that the fusion gate and the analyzer are built
    from, summed over the features, against the printed blocks."""

    def layer(eta_1, eta_2):
        return np.tensordot(_features(eta_1, eta_2), _LAYER, axes=1)

    np.testing.assert_allclose(layer(1.0, 1.0), np.eye(4), atol=1e-15)
    half = layer(0.5, 0.5)
    np.testing.assert_allclose(np.abs(half[:2, :2]), SQRT_HALF, atol=1e-15)
    np.testing.assert_allclose(np.abs(half[2:, 2:]), SQRT_HALF, atol=1e-15)
    assert layer(0.3, 0.7)[0, 1] == pytest.approx(math.sqrt(0.7))
    assert layer(0.3, 0.7)[1, 0] == pytest.approx(-math.sqrt(0.7))
    expected = np.kron(np.diag([1.0, 0.0]), _printed_block(0.3)) + np.kron(np.diag([0.0, 1.0]), _printed_block(0.7))
    np.testing.assert_allclose(layer(0.3, 0.7), expected, atol=1e-15)


def test_swap_matrix():
    """At (1, 1) the fusion gate is the bare SWAP of V1 and V2, seen on states."""
    swap = fusion_gate(1.0, 1.0)
    np.testing.assert_allclose(swap.entries[:, 0], [1, 0, 0, 0])
    np.testing.assert_allclose(swap.entries @ swap.entries, np.eye(4), atol=1e-15)
    fixed = apply_transfer(swap, StateVec.from_ket((0, 1, 0, 1)))
    assert fixed.amplitude((0, 1, 0, 1)) == pytest.approx(1)
    moved = apply_transfer(swap, StateVec.from_ket((0, 1, 0, 0)))
    assert moved.amplitude((0, 0, 0, 1)) == pytest.approx(1)


def test_fusion_gate_structure():
    """B * SWAP * B with B built from the printed block by ``np.kron``, not
    from the feature basis the gate itself is built from."""
    swap = np.eye(4)[:, [0, 3, 2, 1]]
    np.testing.assert_allclose(fusion_gate(1.0, 1.0).entries, swap, atol=1e-15)
    b = np.kron(np.diag([1.0, 0.0]), _printed_block(0.37)) + np.kron(np.diag([0.0, 1.0]), _printed_block(0.62))
    np.testing.assert_allclose(fusion_gate(0.37, 0.62).entries, b @ swap @ b, atol=1e-15)


_ETA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(copies=st.lists(st.tuples(_ETA, _ETA), min_size=1, max_size=8))
def test_builders_equal_the_mean_of_literal_copies(copies):
    """M_N from the feature map equals the mean of the N copies written out
    from the printed block; a leading axis (here the copies and their
    reversal) broadcasts."""
    eta_1, eta_2 = np.array(copies).T

    def bsm_builder(eta_h, eta_v):
        return _bsm_matrices(_features(eta_h, eta_v).mean(axis=-2))

    for builder, literal in ((_fusion_gates, _literal_fusion), (bsm_builder, _literal_bsm)):
        want = np.mean([literal(a, b) for a, b in copies], axis=0)
        got = builder(np.stack([eta_1, eta_1[::-1]]), np.stack([eta_2, eta_2[::-1]]))
        assert got.dtype == np.float64 and got.shape == (2, 4, 4)
        np.testing.assert_allclose(got, np.stack([want, want]), rtol=0, atol=1e-15)


def test_signed_fusion_basis_is_transposed_by_swapping_its_layers():
    """P * (L_a SWAP L_b) == (P * L_b SWAP L_a).T, P = diag(1, -1, 1, -1), and the
    16 products have disjoint supports with entries +-1: each entry of M_N is one
    signed copy mean."""
    signed = np.array([1.0, -1.0, 1.0, -1.0])[:, None] * _FUSION
    for a in range(4):
        for b in range(4):
            np.testing.assert_array_equal(signed[4 * a + b], signed[4 * b + a].T)
    np.testing.assert_array_equal(np.abs(_FUSION).sum(axis=0), np.ones((4, 4)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_copies=st.integers(min_value=1, max_value=8),
    trials=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_signed_averaged_fusion_gates_are_exactly_symmetric(n_copies, trials, data):
    """P * M_N equals its transpose bit for bit, P = diag(1, -1, 1, -1), as the
    copy means of f_a f_b have the same bits at (a, b) and (b, a).
    Reflectivities include 0, 1/2 and 1; trials are stacked as the sweep
    stacks them."""
    eta = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    etas = np.array(data.draw(st.lists(eta, min_size=2 * trials * n_copies, max_size=2 * trials * n_copies)))
    eta_x, eta_y = etas.reshape(2, trials, n_copies)
    signed = np.array([1.0, -1.0, 1.0, -1.0])[:, None] * _fusion_gates(eta_x, eta_y)
    np.testing.assert_array_equal(signed, np.swapaxes(signed, -1, -2))


@pytest.mark.parametrize("eta", np.linspace(0.0, 1.0, 20))
def test_fusion_and_bsm_unitary_across_grid(eta):
    assert fusion_gate(eta, 1.0 - eta).unitarity_defect() < 1e-12
    assert bsm_matrix(eta, 1.0 - eta).unitarity_defect() < 1e-12


def _assert_amplitudes(state, target_amp, atol=1e-12):
    for ket in set(state.kets()) | set(target_amp):
        assert state.amplitude(ket) == pytest.approx(target_amp.get(ket, 0.0), abs=atol)


def test_bsm_maps_psi_plus():
    out = apply_transfer(bsm_matrix(0.5, 0.5), bell_state("psi+"))
    _assert_amplitudes(out, {(1, 1, 0, 0): SQRT_HALF, (0, 0, 1, 1): -SQRT_HALF})


def test_bsm_maps_phi_plus():
    out = apply_transfer(bsm_matrix(0.5, 0.5), bell_state("phi+"))
    _assert_amplitudes(
        out,
        {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): -0.5},
    )


def test_bsm_maps_phi_minus():
    out = apply_transfer(bsm_matrix(0.5, 0.5), bell_state("phi-"))
    _assert_amplitudes(
        out,
        {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): -0.5, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): 0.5},
    )


def test_bsm_leaves_psi_minus_invariant_for_any_common_reflectivity():
    rng = np.random.default_rng(5)
    psi_minus = bell_state("psi-")
    for eta in rng.uniform(0.0, 1.0, size=20):
        out = apply_transfer(bsm_matrix(float(eta), float(eta)), psi_minus)
        for ket in psi_minus.kets():
            assert out.amplitude(ket) == pytest.approx(psi_minus.amplitude(ket), abs=1e-12)


def test_direct_sum():
    both = direct_sum([dft_matrix(2), dft_matrix(3)])
    assert both.dim == 5
    assert both.unitary
    np.testing.assert_allclose(both.entries[:2, :2], dft_matrix(2).entries)
    np.testing.assert_allclose(both.entries[2:, 2:], dft_matrix(3).entries)
    np.testing.assert_allclose(both.entries[:2, 2:], 0)
    eye8 = direct_sum([TransferMatrix(np.eye(2))] * 4)
    np.testing.assert_allclose(eye8.entries, np.eye(8))


def test_direct_sum_with_the_empty_block():
    empty = TransferMatrix(np.zeros((0, 0)))
    both = direct_sum([empty, dft_matrix(3), empty])
    assert both.dim == 3
    assert both.unitary
    np.testing.assert_array_equal(both.entries, dft_matrix(3).entries)
    assert direct_sum([empty]).dim == 0
    assert direct_sum([empty]).unitary
    with pytest.raises(ValueError, match="at least one block"):
        direct_sum([])


def test_effective_average_identities():
    u = fusion_gate(0.4, 0.7)
    same = effective_average([u, u, u])
    np.testing.assert_allclose(same.entries, u.entries, atol=1e-15)
    dagger = np.conj(u.entries.T)
    from avgfusion.fock import TransferMatrix

    hermitian_part = effective_average([u, TransferMatrix(dagger)])
    np.testing.assert_allclose(hermitian_part.entries, (u.entries + dagger) / 2)
    with pytest.raises(ValueError):
        effective_average([])
    with pytest.raises(ValueError, match=r"copies must share dimension, got \[4, 2\]"):
        effective_average([u, dft_matrix(2)])


def test_effective_average_cancels_symmetric_errors():
    target = fusion_gate(0.5, 0.5)
    low = fusion_gate(0.4, 0.5)
    high = fusion_gate(0.6, 0.5)
    averaged = effective_average([low, high])
    assert trace_distance(averaged, target) < trace_distance(low, target)
    assert trace_distance(averaged, target) < trace_distance(high, target)


def test_effective_average_converges_with_more_copies():
    rng = np.random.default_rng(99)
    target = fusion_gate(0.5, 0.5)
    mean_distance = []
    for n in (1, 2, 4, 8):
        dists = []
        for _ in range(60):
            copies = [
                fusion_gate(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)) for _ in range(n)
            ]
            dists.append(trace_distance(effective_average(copies), target))
        mean_distance.append(np.mean(dists))
    assert all(a > b for a, b in zip(mean_distance, mean_distance[1:]))
