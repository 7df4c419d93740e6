"""Tests for the N-copy redundant-encoding network."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion import averaging
from avgfusion.averaging import (
    build_averaged_network,
    run_averaged,
)
from avgfusion.detection import DetectionPattern, project_pattern
from avgfusion.fock import StateVec, TransferMatrix, apply_transfer, norm_sq
from avgfusion.interferometers import dft_matrix, direct_sum, effective_average, fusion_gate
from avgfusion.metrics import bell_state
from avgfusion.verify import _fusion_input


def random_unitary(rng, dim):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return TransferMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def assert_states_close(a, b, atol=1e-10):
    for ket in set(a.kets()) | set(b.kets()):
        assert a.amplitude(ket) == pytest.approx(b.amplitude(ket), abs=atol)


def test_network_records_its_sizes():
    net = build_averaged_network([fusion_gate(0.5, 0.5)] * 2, n_passthrough=3)
    assert (net.n_copies, net.n_logical, net.n_passthrough) == (2, 4, 3)
    assert net.total.dim == 11
    assert net.kept_block.dim == 7


@pytest.mark.parametrize("n_passthrough", [2.5, 0.5, np.nan, np.inf])
def test_build_rejects_a_non_integral_passthrough_count(n_passthrough):
    """2.5, NaN or infinitely many passthrough modes size no network."""
    with pytest.raises(ValueError, match="non-integral"):
        build_averaged_network([fusion_gate(0.5, 0.5)] * 2, n_passthrough=n_passthrough)


@pytest.mark.parametrize(
    "copies, n_passthrough",
    [([], 0), ([TransferMatrix(np.zeros((0, 0)))] * 2, 0), ([fusion_gate(0.5, 0.5)] * 2, -1)],
    ids=["no-copies", "0-mode-copies", "negative-passthrough"],
)
def test_build_rejects_sizes_below_their_minimum(copies, n_passthrough):
    with pytest.raises(ValueError):
        build_averaged_network(copies, n_passthrough=n_passthrough)


@pytest.mark.parametrize("n_passthrough", [np.int64(1), 1.0, np.float64(1)], ids=["int64", "float", "float64"])
def test_build_stores_an_integral_passthrough_count_as_int(n_passthrough):
    net = build_averaged_network([fusion_gate(0.5, 0.5)] * 3, n_passthrough=n_passthrough)
    assert (net.n_copies, net.n_logical, net.n_passthrough) == (3, 4, 1)
    for size in (net.n_copies, net.n_logical, net.n_passthrough, net.total.dim, net.kept_block.dim):
        assert type(size) is int


@pytest.mark.parametrize("n_copies, n_passthrough", [(1, 0), (2, 3), (3, 4)])
def test_run_averaged_evolves_by_the_kept_block_built_once(monkeypatch, n_copies, n_passthrough):
    """The record's kept block is total[kept, kept] on the replica-0 and
    passthrough modes, bit for bit, and run_averaged evolves each of three
    inputs by that one block object, building no matrix per call."""
    rng = np.random.default_rng(40 + n_copies)
    net = build_averaged_network([random_unitary(rng, 4) for _ in range(n_copies)], n_passthrough=n_passthrough)
    kept = [j * n_copies for j in range(4)] + [4 * n_copies + i for i in range(n_passthrough)]
    want = net.total.entries[np.ix_(kept, kept)]
    assert net.kept_block.entries.shape == want.shape
    assert net.kept_block.entries.tobytes() == want.tobytes()

    pad = (0,) * n_passthrough
    inputs = [
        StateVec.from_ket((1, 0, 0, 1) + pad),
        StateVec(4 + n_passthrough, {(2, 0, 0, 0) + pad: 0.6, (0, 1, 1, 0) + pad: -0.8j}),
        StateVec.from_ket((0, 1, 0, 1) + (1,) * n_passthrough),
    ]
    expected = [list(apply_transfer(net.kept_block, state).items()) for state in inputs]
    evolved_by, built = [], []

    def spy(matrix, state):
        evolved_by.append(matrix)
        return apply_transfer(matrix, state)

    class Counted(TransferMatrix):
        __slots__ = ()

        def __init__(self, entries):
            built.append(entries)
            super().__init__(entries)

    monkeypatch.setattr(averaging, "apply_transfer", spy)
    monkeypatch.setattr(averaging, "TransferMatrix", Counted)
    for state, want_items in zip(inputs, expected, strict=True):
        assert list(run_averaged(net, state).items()) == want_items
    assert built == []
    assert len(evolved_by) == 3 and all(matrix is net.kept_block for matrix in evolved_by)


def test_single_copy_network_is_the_bare_gate():
    gate = fusion_gate(0.3, 0.8)
    net = build_averaged_network([gate], n_passthrough=2)
    np.testing.assert_allclose(net.total.entries[:4, :4], gate.entries, atol=1e-12)
    np.testing.assert_allclose(net.total.entries[4:, 4:], np.eye(2), atol=1e-12)
    state = StateVec(6, {(1, 0, 1, 0, 1, 0): 1.0})
    out = run_averaged(net, state)
    direct = apply_transfer(net.total, state)
    assert_states_close(out, direct, atol=1e-12)


def test_identical_copies_pass_postselection_with_certainty():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 4)
    net = build_averaged_network([u, u, u])
    state = bell_state("phi+")
    placed = StateVec(net.total.dim, {_copy_major_input(net, ket): a for ket, a in state.items()})
    full = apply_transfer(net.total, placed)
    for ket in full.kets():
        assert all(ket[i] == 0 for i in _ancilla_modes(net))
    kept = run_averaged(net, state)
    assert norm_sq(kept) == pytest.approx(1.0, abs=1e-12)
    assert_states_close(kept, apply_transfer(u, state), atol=1e-10)


def test_opposite_sign_copies_interfere_to_zero():
    plus = TransferMatrix(np.array([[1.0]]))
    minus = TransferMatrix(np.array([[-1.0]]))
    net = build_averaged_network([plus, minus])
    out = run_averaged(net, StateVec.from_ket((1,)))
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


def _one_set_build(copies, n_passthrough):
    """Reference total and kept block of one (N, m, m) copy set, built as one
    network at a time: the replica-diagonal block filled copy by copy, two
    dense matmuls and an ``np.ix_`` gather."""
    n, m = len(copies), copies.shape[-1]
    enc, k = m * n, n_passthrough
    encode = direct_sum([dft_matrix(n)] * m).entries
    gates = np.zeros((m, n, m, n), dtype=complex)
    for r, c in enumerate(copies):
        gates[:, r, :, r] = c
    total = np.eye(enc + k, dtype=complex)
    total[:enc, :enc] = encode @ gates.reshape(enc, enc) @ encode
    kept = [*range(0, enc, n), *range(enc, enc + k)]
    return total, total[np.ix_(kept, kept)]


@pytest.mark.parametrize("n_passthrough", [0, 1, 2, 3])
@pytest.mark.parametrize("n_copies", [1, 2, 3, 4])
def test_stacked_build_equals_one_set_builds_bit_for_bit(n_copies, n_passthrough):
    """K sets of Haar copies in one (K, N, m, m) stack give K networks in
    stack order, each the one-set build of its set to the bit: the same
    sizes, ``total`` and ``kept_block`` as the reference and as the set
    built alone from a sequence."""
    rng = np.random.default_rng(100 * n_copies + n_passthrough)
    stack = np.array([[random_unitary(rng, 4).entries for _ in range(n_copies)] for _ in range(5)])
    nets = build_averaged_network(stack, n_passthrough=n_passthrough)
    assert isinstance(nets, list) and len(nets) == 5
    for copies, net in zip(stack, nets, strict=True):
        alone = build_averaged_network([TransferMatrix(c) for c in copies], n_passthrough=n_passthrough)
        total, kept_block = _one_set_build(copies, n_passthrough)
        for built in (net, alone):
            assert (built.n_copies, built.n_logical, built.n_passthrough) == (n_copies, 4, n_passthrough)
            assert built.total.entries.shape == total.shape
            assert built.total.entries.tobytes() == total.tobytes()
            assert built.kept_block.entries.shape == kept_block.shape
            assert built.kept_block.entries.tobytes() == kept_block.tobytes()


@pytest.mark.parametrize("n_copies", [1, 3])
def test_empty_stack_builds_no_network(n_copies):
    assert build_averaged_network(np.zeros((0, n_copies, 4, 4)), n_passthrough=2) == []


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf), 0.5], ids=["nan", "inf", "-inf", "inf-j", "non-unitary"]
)
def test_stack_rejects_a_bad_copy_in_its_last_set(bad):
    """One non-finite or non-unitary entry, in the last copy of the last of
    four sets, fails the one unitarity check over the whole stack, with no
    RuntimeWarning from a product of non-finite entries."""
    rng = np.random.default_rng(12)
    stack = np.array([[random_unitary(rng, 4).entries for _ in range(3)] for _ in range(4)])
    stack[-1, -1, 0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be unitary"):
            build_averaged_network(stack)


@pytest.mark.parametrize(
    "copies, shape",
    [
        ([np.eye(2)], (2, 2)),
        ([TransferMatrix(np.eye(2)), np.eye(2)], (2, 2)),
        (np.eye(2), (2, 2)),
        (np.eye(2)[None], (1, 2, 2)),
        (np.ones((1, 2, 2, 3)), (1, 2, 2, 3)),
        (np.eye(2)[None, None, None], (1, 1, 1, 2, 2)),
    ],
    ids=["bare-matrix", "bare-matrix-second", "2-D", "3-D", "not-square", "5-D"],
)
def test_build_names_the_shape_of_a_bare_matrix_or_a_bad_stack(copies, shape):
    """A sequence takes TransferMatrix copies and a stack is (K, N, m, m):
    anything else is a ValueError naming its shape."""
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        build_averaged_network(copies)


def test_one_set_stack_builds_a_list_of_one_network():
    (net,) = build_averaged_network(np.eye(2)[None, None], n_passthrough=1)
    assert (net.n_copies, net.n_logical, net.n_passthrough) == (1, 2, 1)
    np.testing.assert_array_equal(net.total.entries, np.eye(3))


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
        kept = run_averaged(net, state)
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
        kept = run_averaged(net, state)
        assert list(kept.items()) == list(apply_transfer(direct, state).items())
        assert kept.mode_count == 4 + k


def test_postselection_probability_is_one_only_for_equal_copies():
    rng = np.random.default_rng(21)
    u = random_unitary(rng, 4)
    state = bell_state("psi-")
    same = build_averaged_network([u, u])
    kept = run_averaged(same, state)
    assert norm_sq(kept) == pytest.approx(1.0, abs=1e-12)
    different = build_averaged_network([u, random_unitary(rng, 4)])
    kept = run_averaged(different, state)
    assert 0.0 < norm_sq(kept) < 1.0 - 1e-6


def test_passthrough_modes_are_untouched():
    rng = np.random.default_rng(33)
    copies = [random_unitary(rng, 2) for _ in range(2)]
    net = build_averaged_network(copies, n_passthrough=2)
    state = StateVec(4, {(1, 0, 0, 1): 1.0})
    kept = run_averaged(net, state)
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


@pytest.mark.parametrize(
    "n_copies, n_passthrough, mode_count",
    [(2, 0, 3), (2, 0, 5), (2, 0, 8), (3, 4, 7), (3, 4, 9), (3, 4, 16)],
)
def test_run_averaged_takes_only_states_on_the_kept_modes(n_copies, n_passthrough, mode_count):
    """The input lives on the m + k kept modes: one mode short, one over, or
    already placed on every mode of the network, it raises ValueError."""
    net = build_averaged_network([fusion_gate(0.5, 0.5)] * n_copies, n_passthrough=n_passthrough)
    with pytest.raises(ValueError, match="mode count"):
        run_averaged(net, StateVec.from_ket((1,) + (0,) * (mode_count - 1)))


@pytest.mark.parametrize("n_copies", [1, 2, 3, 4])
def test_fusion_input_post_selects_like_the_projected_full_network(n_copies):
    """The fusion input (four fused rails, four passthrough spectators)
    through N fusion gates of different efficiencies: run_averaged is the
    full network output projected onto vacuum on every ancilla, bit for bit,
    and its squared norm is that projection's probability."""
    copies = [fusion_gate(1.0 - 0.1 * r, 1.0 - 0.05 * r) for r in range(n_copies)]
    net = build_averaged_network(copies, n_passthrough=4)
    state = _fusion_input()
    placed = StateVec(net.total.dim, {_copy_major_input(net, ket): a for ket, a in state.items()})
    ancillas = _ancilla_modes(net)
    projected, prob = project_pattern(apply_transfer(net.total, placed), DetectionPattern(ancillas, (0,) * len(ancillas)))
    kept = run_averaged(net, state)
    assert list(kept.items()) == list(projected.items())
    assert norm_sq(kept) == pytest.approx(prob, rel=1e-12)
    assert (prob == pytest.approx(1.0, abs=1e-12)) == (n_copies == 1)


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
    p = np.eye(m * n)[:, to_copy_major]  # a photon in mode i moves to to_copy_major[i]
    p_inv = np.eye(m * n)[:, np.argsort(to_copy_major)]
    core = TransferMatrix(encode.entries @ p_inv @ direct_sum(copies).entries @ p @ encode.entries)
    return direct_sum([core, TransferMatrix(np.eye(n_passthrough))]) if n_passthrough else core


def _copy_major_input(net, ket):
    """Reference placement: logical mode j onto index j * N, replica 0 of the
    module docstring's layout, then the passthrough modes after the encoded block."""
    full = [0] * net.total.dim
    for j in range(net.n_logical):
        full[j * net.n_copies] = ket[j]
    for i in range(net.n_passthrough):
        full[net.n_logical * net.n_copies + i] = ket[net.n_logical + i]
    return tuple(full)


def _ancilla_modes(net):
    """Reference ancillas: replicas r = 1..N-1 of each logical mode j, at j * N + r."""
    return [j * net.n_copies + r for j in range(net.n_logical) for r in range(1, net.n_copies)]


@st.composite
def network_cases(draw):
    """1-6 Haar or fusion copies of a 1-, 2- or 4-mode gate, 0-4 passthrough
    modes and a 1-3 ket input of up to three photons."""
    m = draw(st.sampled_from([1, 2, 4]))
    haar = st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: random_unitary(np.random.default_rng(seed), m))
    copy = st.one_of(haar, st.tuples(_eta, _eta).map(lambda etas: fusion_gate(*etas))) if m == 4 else haar
    copies = draw(st.lists(copy, min_size=1, max_size=6))
    k = draw(st.integers(min_value=0, max_value=4))
    mode = st.integers(min_value=0, max_value=m + k - 1)
    kets = draw(st.lists(st.lists(mode, min_size=1, max_size=3), min_size=1, max_size=3))
    amp = {tuple(photons.count(j) for j in range(m + k)): 1.0 + i for i, photons in enumerate(kets)}
    return copies, k, StateVec(m + k, amp)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(network_cases())
def test_network_equals_copy_major_reference(case):
    """The replica-diagonal build is the copy-major permutation round trip,
    and run_averaged is the full network output, from the per-mode
    placement, projected onto vacuum on every ancilla replica: same kets on
    the input's modes, same order and == amplitudes.

    The matrices agree to rounding, not always to the bit: each entry of
    encode @ gates is one complex product, and a BLAS kernel may order the
    fused multiply-adds of that product differently depending on where the
    entry sits in its tile, which the two layouts place differently."""
    copies, k, state = case
    net = build_averaged_network(copies, n_passthrough=k)
    reference = _copy_major_network(copies, k)
    np.testing.assert_allclose(net.total.entries, reference.entries, rtol=0, atol=1e-15)
    placed = StateVec(net.total.dim, {_copy_major_input(net, ket): a for ket, a in state.items()})
    ancillas = _ancilla_modes(net)
    projected = project_pattern(apply_transfer(net.total, placed), DetectionPattern(ancillas, (0,) * len(ancillas)))[0]
    kept = run_averaged(net, state)
    assert list(kept.items()) == list(projected.items())
    assert kept.mode_count == projected.mode_count == state.mode_count
