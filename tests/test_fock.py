"""Tests for the sparse Fock-state simulator core."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.fock import (
    StateVec,
    TransferMatrix,
    apply_transfer,
    fock_dimension,
    inner_product,
    norm_sq,
    tensor,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_unitary(rng, dim):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return TransferMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def random_state(rng, n_modes, n_photons, n_terms=6):
    amp = {}
    for _ in range(n_terms):
        ket = [0] * n_modes
        for mode in rng.integers(0, n_modes, size=n_photons):
            ket[mode] += 1
        amp[tuple(ket)] = complex(rng.standard_normal(), rng.standard_normal())
    return StateVec(n_modes, amp)


def permanent(mat):
    """Naive permanent by permutation expansion (fine for dim <= 4)."""
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0j
    return sum(
        np.prod([mat[i, p[i]] for i in range(n)]) for p in itertools.permutations(range(n))
    )


def amplitude_by_permanent(t, ket_in, ket_out):
    """Independent oracle: <out|T|in> via the permanent of the repeated submatrix."""
    rows = [i for i, n in enumerate(ket_out) for _ in range(n)]
    cols = [j for j, n in enumerate(ket_in) for _ in range(n)]
    sub = t.entries[np.ix_(rows, cols)]
    norm = math.prod(math.factorial(n) for n in ket_in)
    norm *= math.prod(math.factorial(n) for n in ket_out)
    return permanent(sub) / math.sqrt(norm)


@pytest.mark.parametrize(
    "n_modes,n_photons,expected",
    [(1, 0, 1), (2, 1, 2), (4, 2, 10), (24, 4, 17550)],
)
def test_fock_dimension(n_modes, n_photons, expected):
    assert fock_dimension(n_modes, n_photons) == expected


def test_fock_dimension_validates():
    with pytest.raises(ValueError):
        fock_dimension(0, 2)
    with pytest.raises(ValueError):
        fock_dimension(3, -1)


def test_statevec_construction_and_pruning():
    s = StateVec(2, {(1, 0): 0.6, (0, 1): 0.8, (2, 0): 1e-17})
    assert len(s) == 2
    assert s.amplitude((2, 0)) == 0
    assert s.amplitude((1, 0)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        StateVec(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        StateVec(2, {(-1, 1): 1.0})


def test_statevec_from_ket():
    s = StateVec.from_ket((0, 2, 1))
    assert s.mode_count == 3
    assert s.amplitude((0, 2, 1)) == 1
    assert s.total_photons() == 3


def test_bell_pair_tensor_product():
    pair = StateVec(4, {(1, 0, 1, 0): SQRT_HALF, (0, 1, 0, 1): SQRT_HALF})
    both = tensor(pair, pair)
    assert both.mode_count == 8
    assert len(both) == 4
    for ket, a in both.items():
        assert abs(a) == pytest.approx(0.5)
        assert sum(ket) == 4


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (StateVec.from_ket((1, 0)), StateVec.from_ket((1, 0)), 1),
        (StateVec.from_ket((1, 0)), StateVec.from_ket((0, 1)), 0),
    ],
)
def test_inner_product_basics(a, b, expected):
    assert inner_product(a, b) == pytest.approx(expected)


def test_inner_product_conjugates_first_argument():
    plus_i = StateVec(2, {(1, 0): SQRT_HALF, (0, 1): 1j * SQRT_HALF})
    got = inner_product(plus_i, StateVec.from_ket((0, 1)))
    assert got == pytest.approx(-1j * SQRT_HALF)


def test_inner_product_rejects_mode_mismatch():
    with pytest.raises(ValueError):
        inner_product(StateVec.from_ket((1, 0)), StateVec.from_ket((1, 0, 0)))


def test_norm_sq():
    assert norm_sq(StateVec.from_ket((1, 0, 0, 1))) == pytest.approx(1)
    s = StateVec(2, {(1, 0): 0.5, (0, 1): 0.5})
    assert norm_sq(s) == pytest.approx(0.5)


def test_apply_identity():
    rng = np.random.default_rng(3)
    s = random_state(rng, 3, 2)
    out = apply_transfer(TransferMatrix(np.eye(3)), s)
    assert out.mode_count == 3
    for ket in set(s.kets()) | set(out.kets()):
        assert out.amplitude(ket) == pytest.approx(s.amplitude(ket))


def beamsplitter(eta):
    c, s = math.sqrt(eta), math.sqrt(1 - eta)
    return TransferMatrix(np.array([[c, s], [-s, c]]))


def test_single_photon_beamsplitter():
    out = apply_transfer(beamsplitter(0.5), StateVec.from_ket((1, 0)))
    assert out.amplitude((1, 0)) == pytest.approx(SQRT_HALF)
    assert out.amplitude((0, 1)) == pytest.approx(-SQRT_HALF)


def test_hong_ou_mandel():
    out = apply_transfer(beamsplitter(0.5), StateVec.from_ket((1, 1)))
    assert out.amplitude((1, 1)) == pytest.approx(0)
    assert out.amplitude((2, 0)) == pytest.approx(SQRT_HALF)
    assert out.amplitude((0, 2)) == pytest.approx(-SQRT_HALF)


def test_apply_transfer_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        apply_transfer(beamsplitter(0.5), StateVec.from_ket((1, 0, 0)))


@st.composite
def transfer_cases(draw):
    """Random complex non-unitary matrix on 1-5 modes, some columns zeroed,
    and an input ket of 0-4 photons, bunched ones included."""
    n_modes = draw(st.integers(min_value=1, max_value=5))
    mode = st.integers(min_value=0, max_value=n_modes - 1)
    photons = draw(st.lists(mode, max_size=4))
    zeroed = draw(st.sets(mode))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (n_modes, n_modes)
    entries = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    entries[:, sorted(zeroed)] = 0.0
    return TransferMatrix(entries), tuple(photons.count(j) for j in range(n_modes))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(transfer_cases())
def test_amplitudes_match_permanent_oracle(case):
    """Every output ket of the input's photon number, absent kets read as 0."""
    t, ket_in = case
    out = apply_transfer(t, StateVec.from_ket(ket_in))
    every_ket = {
        tuple(modes.count(j) for j in range(t.dim))
        for modes in itertools.combinations_with_replacement(range(t.dim), sum(ket_in))
    }
    assert set(out.kets()) <= every_ket
    for ket_out in every_ket:
        expected = amplitude_by_permanent(t, ket_in, ket_out)
        assert out.amplitude(ket_out) == pytest.approx(expected, abs=1e-12)


def test_composition_matches_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(5):
        t1 = random_unitary(rng, 4)
        t2 = random_unitary(rng, 4)
        s = random_state(rng, 4, int(rng.integers(2, 5)))
        once = apply_transfer(t2 @ t1, s)
        twice = apply_transfer(t2, apply_transfer(t1, s))
        for ket in set(once.kets()) | set(twice.kets()):
            assert twice.amplitude(ket) == pytest.approx(once.amplitude(ket), abs=1e-12)


def test_photon_number_conservation_and_norm():
    rng = np.random.default_rng(19)
    for _ in range(5):
        t = random_unitary(rng, 5)
        n_photons = int(rng.integers(1, 5))
        s = random_state(rng, 5, n_photons)
        out = apply_transfer(t, s)
        assert out.total_photons() == n_photons
        assert norm_sq(out) == pytest.approx(norm_sq(s), abs=1e-12)


def test_apply_transfer_is_linear():
    rng = np.random.default_rng(23)
    t = random_unitary(rng, 3)
    a = random_state(rng, 3, 2)
    b = random_state(rng, 3, 2)
    combined = StateVec(
        3, {k: 2.0 * a.amplitude(k) - 1j * b.amplitude(k) for k in set(a.kets()) | set(b.kets())}
    )
    lhs = apply_transfer(t, combined)
    out_a = apply_transfer(t, a)
    out_b = apply_transfer(t, b)
    for ket in set(lhs.kets()) | set(out_a.kets()) | set(out_b.kets()):
        rhs = 2.0 * out_a.amplitude(ket) - 1j * out_b.amplitude(ket)
        assert lhs.amplitude(ket) == pytest.approx(rhs, abs=1e-12)


def test_transfer_matrix_flags_and_defect():
    u = beamsplitter(0.3)
    assert u.unitary
    assert u.unitarity_defect() < 1e-12
    m = TransferMatrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert not m.unitary
    with pytest.raises(ValueError):
        TransferMatrix(np.zeros((2, 3)))


def test_transfer_matrix_entries_read_only():
    u = beamsplitter(0.3)
    with pytest.raises(ValueError):
        u.entries[0, 0] = 2.0
