"""Tests for the N-copy redundant-encoding network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.averaging import (
    NetworkLayout,
    build_averaged_network,
    postselect_vacuum_ancilla,
    run_averaged,
)
from avgfusion.fock import StateVec, TransferMatrix, apply_transfer, norm_sq
from avgfusion.interferometers import dft_matrix, direct_sum, effective_average, fusion_gate, permutation_matrix
from avgfusion.metrics import bell_state
from avgfusion.verify import _fusion_input


def random_unitary(rng, dim):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return TransferMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def assert_states_close(a, b, atol=1e-10):
    for ket in set(a.kets()) | set(b.kets()):
        assert a.amplitude(ket) == pytest.approx(b.amplitude(ket), abs=atol)


def test_layout_index_map():
    layout = NetworkLayout(n_copies=2, n_logical=4, n_passthrough=3)
    assert layout.ancilla_modes() == (1, 3, 5, 7)
    assert layout.encoded_modes == 8
    assert layout.total_modes == 11


@pytest.mark.parametrize("sizes", [(2.5, 4), (2, 4.5), (2, 4, 0.5), (2, 4, np.nan), (2, 4, np.inf)])
def test_layout_rejects_non_integral_sizes(sizes):
    """NetworkLayout(2.5, 4) used to give encoded_modes == 10.0."""
    with pytest.raises(ValueError, match="non-integral"):
        NetworkLayout(*sizes)


@pytest.mark.parametrize("sizes", [(0, 4), (2, 0), (2, 4, -1)])
def test_layout_rejects_sizes_below_their_minimum(sizes):
    with pytest.raises(ValueError, match="invalid layout"):
        NetworkLayout(*sizes)


def test_layout_normalizes_integral_sizes_to_int():
    layout = NetworkLayout(np.int64(3), 2.0, np.float64(1))
    assert layout == NetworkLayout(3, 2, 1)
    for size in (layout.n_copies, layout.n_logical, layout.n_passthrough, layout.encoded_modes, layout.total_modes):
        assert type(size) is int
    assert layout.ancilla_modes() == (1, 2, 4, 5)


def test_single_copy_network_is_the_bare_gate():
    gate = fusion_gate(0.3, 0.8)
    net = build_averaged_network([gate], n_passthrough=2)
    np.testing.assert_allclose(net.total.entries[:4, :4], gate.entries, atol=1e-12)
    np.testing.assert_allclose(net.total.entries[4:, 4:], np.eye(2), atol=1e-12)
    state = StateVec(6, {(1, 0, 1, 0, 1, 0): 1.0})
    out = postselect_vacuum_ancilla(run_averaged(net, state), net.layout)
    direct = apply_transfer(net.total, state)
    assert_states_close(out, direct, atol=1e-12)


def test_identical_copies_pass_postselection_with_certainty():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 4)
    net = build_averaged_network([u, u, u])
    state = bell_state("phi+")
    full = run_averaged(net, state)
    for ket in full.kets():
        assert all(ket[i] == 0 for i in net.layout.ancilla_modes())
    kept = postselect_vacuum_ancilla(full, net.layout)
    assert norm_sq(kept) == pytest.approx(1.0, abs=1e-12)
    assert_states_close(kept, apply_transfer(u, state), atol=1e-10)


def test_opposite_sign_copies_interfere_to_zero():
    plus = TransferMatrix(np.array([[1.0]]))
    minus = TransferMatrix(np.array([[-1.0]]))
    net = build_averaged_network([plus, minus])
    out = postselect_vacuum_ancilla(run_averaged(net, StateVec.from_ket((1,))), net.layout)
    assert len(out) == 0


def test_network_total_is_unitary():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        copies = [random_unitary(rng, 3) for _ in range(n)]
        net = build_averaged_network(copies, n_passthrough=1)
        assert net.total.unitarity_defect() < 1e-12
        assert net.total.dim == 3 * n + 1


def test_build_rejects_bad_copy_lists():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        build_averaged_network([])
    with pytest.raises(ValueError):
        build_averaged_network([random_unitary(rng, 2), random_unitary(rng, 3)])
    with pytest.raises(ValueError):
        build_averaged_network([TransferMatrix(np.eye(2) * 0.5)])


#: One gate copy: a Haar-random 4-mode unitary (from a seed) or a fusion gate.
_copies = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: random_unitary(np.random.default_rng(seed), 4)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda etas: fusion_gate(*etas)),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(_copies, min_size=1, max_size=5))
def test_postselected_network_equals_mean_gate_evolution(copies):
    """The operational averaging identity for N = 1..5 mixed Haar and fusion
    copies, on one- to four-photon inputs, bunched ones included."""
    inputs = [
        bell_state("psi+"),
        StateVec(4, {(2, 0, 0, 0): 0.6, (0, 1, 1, 0): -0.8j}),
        StateVec(4, {(1, 1, 1, 1): 1.0}),
        StateVec(4, {(1, 0, 0, 0): 0.5, (0, 0, 1, 0): 0.5j, (0, 1, 0, 0): -0.70710678}),
    ]
    net = build_averaged_network(copies)
    mean_gate = effective_average(copies)
    for state in inputs:
        kept = postselect_vacuum_ancilla(run_averaged(net, state), net.layout)
        assert_states_close(kept, apply_transfer(mean_gate, state), atol=1e-10)


#: A reflectivity in [0, 1], the ends and the balanced point drawn often.
_eta = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def one_copy_cases(draw):
    """A fusion gate, 0-4 passthrough modes and 1-3 few-photon input states;
    with 4 passthrough modes the sweeps' two-pair input is one of them."""
    gate = fusion_gate(draw(_eta), draw(_eta))
    k = draw(st.integers(min_value=0, max_value=4))
    mode = st.integers(min_value=0, max_value=3 + k)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    states = [_fusion_input()] if k == 4 else []
    for kets in draw(st.lists(st.lists(st.lists(mode, max_size=3), min_size=1, max_size=4), min_size=1, max_size=3)):
        amp = {tuple(photons.count(j) for j in range(4 + k)): complex(*rng.standard_normal(2)) for photons in kets}
        states.append(StateVec(4 + k, amp))
    return gate, k, states


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(one_copy_cases())
def test_one_copy_network_equals_direct_evolution_bit_for_bit(case):
    """The one-copy network, post-selected over its zero ancillas, is the
    gate (+) identity: same kets in the same order with == amplitudes. The
    fusion table of `verify` evolves that matrix directly on this identity."""
    gate, k, states = case
    net = build_averaged_network([gate], n_passthrough=k)
    direct = direct_sum([gate, TransferMatrix(np.eye(k))] if k else [gate])
    for state in states:
        kept = postselect_vacuum_ancilla(run_averaged(net, state), net.layout)
        assert list(kept.items()) == list(apply_transfer(direct, state).items())
        assert kept.mode_count == 4 + k


def test_postselection_probability_is_one_only_for_equal_copies():
    rng = np.random.default_rng(21)
    u = random_unitary(rng, 4)
    state = bell_state("psi-")
    same = build_averaged_network([u, u])
    kept = postselect_vacuum_ancilla(run_averaged(same, state), same.layout)
    assert norm_sq(kept) == pytest.approx(1.0, abs=1e-12)
    different = build_averaged_network([u, random_unitary(rng, 4)])
    kept = postselect_vacuum_ancilla(run_averaged(different, state), different.layout)
    assert 0.0 < norm_sq(kept) < 1.0 - 1e-6


def test_passthrough_modes_are_untouched():
    rng = np.random.default_rng(33)
    copies = [random_unitary(rng, 2) for _ in range(2)]
    net = build_averaged_network(copies, n_passthrough=2)
    state = StateVec(4, {(1, 0, 0, 1): 1.0})
    kept = postselect_vacuum_ancilla(run_averaged(net, state), net.layout)
    mean_gate = effective_average(copies)
    expected = {}
    evolved = apply_transfer(mean_gate, StateVec.from_ket((1, 0)))
    for ket, amp in evolved.items():
        expected[ket + (0, 1)] = amp
    assert_states_close(kept, StateVec(4, expected), atol=1e-10)


def test_run_averaged_validates_mode_count():
    net = build_averaged_network([fusion_gate(0.5, 0.5)], n_passthrough=1)
    with pytest.raises(ValueError):
        run_averaged(net, bell_state("phi+"))
    with pytest.raises(ValueError):
        postselect_vacuum_ancilla(bell_state("phi+"), net.layout)


def _copy_major_network(copies, n_passthrough):
    """Reference builder: the gates as a direct sum in copy-major order
    (index r*m + j), conjugated into the logical-major layout by a
    permutation pair."""
    m, n = copies[0].dim, len(copies)
    encode = direct_sum([dft_matrix(n)] * m)
    to_copy_major = [0] * (m * n)
    for j in range(m):
        for r in range(n):
            to_copy_major[j * n + r] = r * m + j
    p = permutation_matrix(to_copy_major)
    p_inv = permutation_matrix(np.argsort(to_copy_major))
    core = encode @ p_inv @ direct_sum(copies) @ p @ encode
    return direct_sum([core, TransferMatrix(np.eye(n_passthrough))]) if n_passthrough else core


def _copy_major_input(layout, ket):
    """Reference placement: logical mode j onto index j * N, replica 0 of the
    module docstring's layout, then the passthrough modes after the encoded block."""
    full = [0] * layout.total_modes
    for j in range(layout.n_logical):
        full[j * layout.n_copies] = ket[j]
    for i in range(layout.n_passthrough):
        full[layout.encoded_modes + i] = ket[layout.n_logical + i]
    return tuple(full)


@st.composite
def network_cases(draw):
    """1-6 Haar or fusion copies of a 1-, 2- or 4-mode gate, 0-4 passthrough
    modes and a 1-3 ket input of up to two photons."""
    m = draw(st.sampled_from([1, 2, 4]))
    haar = st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: random_unitary(np.random.default_rng(seed), m))
    copy = st.one_of(haar, st.tuples(_eta, _eta).map(lambda etas: fusion_gate(*etas))) if m == 4 else haar
    copies = draw(st.lists(copy, min_size=1, max_size=6))
    k = draw(st.integers(min_value=0, max_value=4))
    mode = st.integers(min_value=0, max_value=m + k - 1)
    kets = draw(st.lists(st.lists(mode, min_size=1, max_size=2), min_size=1, max_size=3))
    amp = {tuple(photons.count(j) for j in range(m + k)): 1.0 + i for i, photons in enumerate(kets)}
    return copies, k, StateVec(m + k, amp)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(network_cases())
def test_network_equals_copy_major_reference(case):
    """The replica-diagonal build is the copy-major permutation round trip,
    and run_averaged places every input ket exactly where the per-mode
    placement does: same output kets, order and amplitudes.

    The matrices agree to rounding, not always to the bit: each entry of
    encode @ gates is one complex product, and a BLAS kernel may order the
    fused multiply-adds of that product differently depending on where the
    entry sits in its tile, which the two layouts place differently."""
    copies, k, state = case
    net = build_averaged_network(copies, n_passthrough=k)
    reference = _copy_major_network(copies, k)
    np.testing.assert_allclose(net.total.entries, reference.entries, rtol=0, atol=1e-15)
    placed = StateVec(net.layout.total_modes, {_copy_major_input(net.layout, ket): a for ket, a in state.items()})
    assert list(run_averaged(net, state).items()) == list(apply_transfer(net.total, placed).items())
