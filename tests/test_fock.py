"""Tests for the sparse Fock-state simulator core."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.averaging import build_averaged_network
from avgfusion.detection import (
    _CLICKS,
    DetectionPattern,
    _stack_probabilities,
    project_pattern,
)
from avgfusion.interferometers import bsm_matrix, fusion_gate
from avgfusion.metrics import BSM_PATTERNS
from avgfusion.fock import (
    PRUNE_TOL,
    StateStack,
    StateVec,
    TransferMatrix,
    apply_transfer,
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
    """All photons in mode 0 through a Haar unitary, whose column 0 has no
    zero entry, reach every ket of the C(m + n - 1, n)-dimensional space."""
    assert math.comb(n_modes + n_photons - 1, n_photons) == expected
    t = random_unitary(np.random.default_rng(n_modes), n_modes)
    out = apply_transfer(t, StateVec.from_ket((n_photons,) + (0,) * (n_modes - 1)))
    assert len(out) == expected
    assert {sum(k) for k in out.kets()} == {n_photons}


def test_statevec_construction_and_pruning():
    s = StateVec(2, {(1, 0): 0.6, (0, 1): 0.8, (2, 0): 1e-17})
    assert len(s) == 2
    assert s.amplitude((2, 0)) == 0
    assert s.amplitude((1, 0)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        StateVec(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        StateVec(2, {(-1, 1): 1.0})


@pytest.mark.parametrize(
    "bad", [2.5, math.nan, math.inf, -math.inf, np.float64(2.5)], ids=["2.5", "nan", "inf", "-inf", "np2.5"]
)
def test_statevec_rejects_non_integral_mode_count(bad):
    """A fractional mode count must not be truncated to a smaller state."""
    with pytest.raises(ValueError, match=r"non-integral value in mode_count"):
        StateVec(bad, {(1, 0): 1.0})


def test_statevec_rejects_negative_mode_count():
    with pytest.raises(ValueError, match="mode_count must be >= 0, got -1"):
        StateVec(-1)


def test_statevec_repr_lists_sorted_kets():
    s = StateVec(2, {(0, 1): 0.8, (1, 0): 0.6})
    assert repr(s) == "StateVec(2 modes, {01: 0.8+0j, 10: 0.6+0j})"
    assert repr(StateVec(0)) == "StateVec(0 modes, {})"


@pytest.mark.parametrize("two", [2, 2.0, np.int64(2), np.uint8(2), np.float32(2.0)])
def test_statevec_accepts_integral_mode_count_of_any_type(two):
    s = StateVec(two, {(1, 0): 1.0})
    assert s.mode_count == 2
    assert type(s.mode_count) is int


@pytest.mark.parametrize(
    "ket,match",
    [
        ((1, 0, 0), r"has 3 modes, expected 2"),
        ((-1, 1), r"negative occupation"),
        ((0.5, 0), r"non-integral value in ket"),
    ],
    ids=["long", "negative", "fractional"],
)
@pytest.mark.parametrize("tiny", [1e-17, 0.0])
def test_statevec_checks_kets_the_prune_drops(ket, match, tiny):
    """A malformed ket raises whatever its amplitude, not only when it survives the prune."""
    with pytest.raises(ValueError, match=match):
        StateVec(2, {ket: tiny, (1, 0): 1.0})


@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, np.float64(0.25)])
def test_statevec_rejects_non_integral_occupations(bad):
    """A fractional occupation must not be truncated to a neighbouring ket."""
    with pytest.raises(ValueError, match=r"non-integral value in ket \("):
        StateVec(2, {(bad, 0): 1.0})


@pytest.mark.parametrize("one", [1, True, 1.0, np.int64(1), np.uint8(1), np.float32(1.0)])
def test_statevec_accepts_integral_occupations_of_any_type(one):
    s = StateVec(2, {(one, 0): 1.0})
    (ket,) = s.kets()
    assert ket == (1, 0)
    assert all(type(n) is int for n in ket)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)])
def test_statevec_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match=r"non-finite amplitude .* for ket \(1, 0\)"):
        StateVec(2, {(1, 0): bad, (0, 1): 1})


def test_apply_transfer_rejects_non_finite_entries():
    """A NaN in the matrix must not evolve |1,0> into the zero state."""
    with pytest.raises(ValueError, match="non-finite amplitude"):
        apply_transfer(TransferMatrix([[math.nan, 0], [0, 1]]), StateVec.from_ket((1, 0)))


def test_statevec_from_ket():
    s = StateVec.from_ket((0, 2, 1))
    assert s.mode_count == 3
    assert s.amplitude((0, 2, 1)) == 1
    assert {sum(k) for k in s.kets()} == {3}


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
        assert {sum(k) for k in out.kets()} == {n_photons}
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
    assert u.unitary is True
    assert u.unitary is True  # computed again on a second read
    assert u.unitarity_defect() < 1e-12
    apply_transfer(u, StateVec.from_ket((1, 1)))
    assert u.unitary is True
    m = TransferMatrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert m.unitary is False
    assert m.unitary is False
    apply_transfer(m, StateVec.from_ket((2, 0)))
    assert m.unitary is False
    with pytest.raises(ValueError):
        TransferMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_non_finite_transfer_matrix_is_not_unitary(bad):
    """Defined answers, no RuntimeWarning (the suite turns warnings into errors)."""
    t = TransferMatrix([[bad, 0], [0, 1]])
    assert t.unitary is False
    assert t.unitarity_defect() == math.inf
    with pytest.raises(ValueError, match="must be unitary"):
        build_averaged_network([t])


def test_empty_transfer_matrix_is_unitary():
    """The 0-mode map has a defined defect, 0.0, so it is unitary, has a
    repr and evolves the 0-mode vacuum to itself."""
    t = TransferMatrix(np.zeros((0, 0)))
    assert t.unitarity_defect() == 0.0
    assert t.unitary
    assert repr(t) == "TransferMatrix(dim=0, unitary)"
    out = apply_transfer(t, StateVec(0, {(): 1}))
    assert out.mode_count == 0
    assert list(out.items()) == [((), 1 + 0j)]


def test_transfer_matrix_entries_read_only():
    u = beamsplitter(0.3)
    with pytest.raises(ValueError):
        u.entries[0, 0] = 2.0


@pytest.mark.parametrize("name, value", [("entries", np.array([[0, 1], [1, 0]], dtype=complex)), ("dim", 3)])
def test_transfer_matrix_attributes_cannot_be_reassigned(name, value):
    """An evolved matrix keeps its cached unitary flag and column lists, so
    they must not outlive a reassignment: there is none."""
    t = TransferMatrix(np.eye(2))
    state = StateVec.from_ket((1, 0))
    assert t.unitary
    apply_transfer(t, state)
    with pytest.raises(AttributeError):
        setattr(t, name, value)
    assert t.dim == 2
    np.testing.assert_array_equal(t.entries, np.eye(2))
    assert list(apply_transfer(t, state).items()) == list(apply_transfer(TransferMatrix(np.eye(2)), state).items())


def occupation_keyed_apply_transfer(T, s):
    """Reference copy of the occupation-keyed expansion `apply_transfer` used
    before it keyed terms by photon modes; kept to pin order and bits.

    Like the kernel, it expands once over a (K, d, d) stack, a `TransferMatrix`
    as K = 1: a coefficient is a (K,) complex array, and each column walks the
    union of the stack's nonzero entries."""

    def sqrt_fact_prod(ket):
        return math.sqrt(math.prod(math.factorial(n) for n in ket))

    stack = T.entries[None] if isinstance(T, TransferMatrix) else np.asarray(T, dtype=complex)
    m = s.mode_count
    support = (stack != 0).any(axis=0)
    columns = [[(l, stack[:, l, j]) for l in range(m) if support[l, j]] for j in range(m)]
    acc = {}
    for ket, amp in s.items():
        terms = {(0,) * m: amp / sqrt_fact_prod(ket)}
        for j, n in enumerate(ket):
            for _ in range(n):
                expanded = {}
                for key, c in terms.items():
                    for l, t in columns[j]:
                        out = key[:l] + (key[l] + 1,) + key[l + 1 :]
                        expanded[out] = expanded.get(out, 0j) + c * t
                terms = expanded
        for key, c in terms.items():
            acc[key] = acc.get(key, 0j) + c * sqrt_fact_prod(key)
    states = [StateVec(m, {key: np.broadcast_to(c, len(stack))[k] for key, c in acc.items()}) for k in range(len(stack))]
    return states[0] if isinstance(T, TransferMatrix) else states


@st.composite
def superposition_cases(draw):
    """Complex non-unitary matrix on 1-8 modes with zeroed columns and entries,
    and a superposition of 1-4 kets of 0-4 photons each, bunched ones included."""
    n_modes = draw(st.integers(min_value=1, max_value=8))
    mode = st.integers(min_value=0, max_value=n_modes - 1)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (n_modes, n_modes)
    entries = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    entries[:, sorted(draw(st.sets(mode)))] = 0.0
    entries[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    amp = {}
    for photons in draw(st.lists(st.lists(mode, max_size=4), min_size=1, max_size=4)):
        ket = tuple(photons.count(j) for j in range(n_modes))
        amp[ket] = complex(rng.standard_normal(), rng.standard_normal())
    return TransferMatrix(entries), StateVec(n_modes, amp)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(superposition_cases())
def test_apply_transfer_equals_occupation_keyed_reference_bit_for_bit(case):
    """Same kets in the same order with == amplitudes: norm_sq and
    project_pattern sum in this order, so a reordering would move bits."""
    t, state = case
    out = apply_transfer(t, state)
    ref = occupation_keyed_apply_transfer(t, state)
    assert list(out.items()) == list(ref.items())
    assert out.mode_count == ref.mode_count


@st.composite
def kept_mode_cases(draw):
    """A dense Haar unitary, or a dense or sparse complex non-unitary matrix
    with zeroed columns, on 1-7 modes; a kept mode set anywhere from empty to
    every mode; and the photon modes of 1-4 kets of 0-3 photons, all kept,
    with their amplitudes."""
    n_modes = draw(st.integers(min_value=1, max_value=7))
    mode = st.integers(min_value=0, max_value=n_modes - 1)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        t = random_unitary(rng, n_modes)
    else:
        shape = (n_modes, n_modes)
        entries = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        entries[:, sorted(draw(st.sets(mode)))] = 0.0
        entries[rng.random(shape) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
        t = TransferMatrix(entries)
    kept = tuple(sorted(draw(st.sets(mode))))
    photons = st.lists(st.sampled_from(kept), max_size=3) if kept else st.just([])
    terms = [(p, complex(rng.standard_normal(), rng.standard_normal())) for p in draw(st.lists(photons, min_size=1, max_size=4))]
    return t, kept, terms


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kept_mode_cases())
def test_apply_transfer_onto_kept_modes_equals_vacuum_projection_bit_for_bit(case):
    """A state on the kept modes evolved by the kept block T[kept, kept] is
    the full output of the state embedded in all modes, projected onto
    vacuum on every other mode: same kets in the same order with ==
    amplitudes. `run_averaged` post-selects by this identity."""
    t, kept, terms = case
    dropped = tuple(i for i in range(t.dim) if i not in kept)
    state = StateVec(len(kept), {tuple(p.count(l) for l in kept): a for p, a in terms})
    embedded = StateVec(t.dim, {tuple(p.count(i) for i in range(t.dim)): a for p, a in terms})
    out = apply_transfer(TransferMatrix(t.entries[np.ix_(kept, kept)]), state)
    ref = project_pattern(apply_transfer(t, embedded), DetectionPattern(dropped, (0,) * len(dropped)))[0]
    assert list(out.items()) == list(ref.items())
    assert out.mode_count == ref.mode_count == len(kept)


def test_empty_kept_block_carries_the_vacuum_amplitude():
    """With no kept mode the block is 0 x 0, and the zero-mode vacuum keeps
    its amplitude: the post-selection of a photon-free input always succeeds."""
    out = apply_transfer(TransferMatrix(np.zeros((0, 0), dtype=complex)), StateVec(0, {(): 0.5 - 0.25j}))
    assert list(out.items()) == [((), 0.5 - 0.25j)]
    assert out.mode_count == 0


def test_apply_transfer_has_no_kept_mode_option():
    """Post-selection onto kept modes is the caller's kept block, not an
    option of the evolution."""
    with pytest.raises(TypeError):
        apply_transfer(beamsplitter(0.5), StateVec.from_ket((1, 0)), modes=(0,))


def test_one_matrix_evolves_several_states_like_fresh_matrices():
    """One matrix evolving several states in turn gives each the same items,
    in order, as a fresh matrix for that state."""
    rng = np.random.default_rng(17)
    entries = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2)
    entries[:, 3] = 0.0
    entries[rng.random((5, 5)) < 0.3] = 0.0
    shared = TransferMatrix(entries)
    states = [random_state(rng, 5, n) for n in (0, 1, 2, 3, 4, 2, 1)]
    for state in states:
        fresh = apply_transfer(TransferMatrix(entries), state)
        assert list(apply_transfer(shared, state).items()) == list(fresh.items())


@pytest.mark.parametrize("evolve_first", [False, True])
def test_mutating_the_source_array_changes_nothing(evolve_first):
    rng = np.random.default_rng(23)
    source = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    original = source.copy()
    state = random_state(rng, 4, 3)
    t = TransferMatrix(source)
    if evolve_first:
        apply_transfer(t, state)
    source[:, 0] = 0.0
    source[1] *= 2.0
    expected = apply_transfer(TransferMatrix(original), state)
    assert list(apply_transfer(t, state).items()) == list(expected.items())
    np.testing.assert_array_equal(t.entries, original)


#: Tolerance of a stacked state against its matrix alone, in units of the
#: double-precision epsilon times the ket's absolute evolution (below).
STACK_ULPS = 4


def absolute_evolution(entries, state):
    """The state with every amplitude and matrix entry replaced by its modulus,
    evolved: per output ket, a bound on the sum of the moduli of its
    contributions, the scale of its rounding error."""
    moduli = StateVec(state.mode_count, {ket: abs(a) for ket, a in state.items()})
    return apply_transfer(TransferMatrix(np.abs(entries)), moduli)


@st.composite
def stack_cases(draw):
    """A stack of 1-6 matrices of one family: Haar unitaries, fusion gates,
    analyzers (both at reflectivities that include 0 and 1, where entries
    vanish), or complex non-unitary matrices with independently zeroed
    entries; in some stacks only a later matrix has entries the first lacks.
    The input is a superposition of 1-3 kets of 0-3 photons, bunched ones included."""
    k = draw(st.integers(min_value=1, max_value=6))
    family = draw(st.sampled_from(["haar", "fusion", "analyzer", "non-unitary"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if family in ("fusion", "analyzer"):
        eta = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
        build = fusion_gate if family == "fusion" else bsm_matrix
        stack = np.array([build(draw(eta), draw(eta)).entries for _ in range(k)])
    else:
        n_modes = draw(st.integers(min_value=1, max_value=6))
        if family == "haar":
            stack = np.array([random_unitary(rng, n_modes).entries for _ in range(k)])
        else:
            shape = (k, n_modes, n_modes)
            stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
            stack[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        stack[0][rng.random(stack[0].shape) < 0.5] = 0.0
    mode = st.integers(min_value=0, max_value=stack.shape[-1] - 1)
    amp = {}
    for photons in draw(st.lists(st.lists(mode, max_size=3), min_size=1, max_size=3)):
        amp[tuple(photons.count(j) for j in range(stack.shape[-1]))] = complex(rng.standard_normal(), rng.standard_normal())
    return stack, StateVec(stack.shape[-1], amp)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stack_cases())
def test_stacked_evolution_matches_one_matrix_at_a_time(case):
    """Each state of a stacked evolution is its matrix's own state to
    STACK_ULPS ulps of the ket's absolute evolution; a stack of one support
    also keeps its kets in the same order."""
    stack, state = case
    outs = apply_transfer(stack, state)
    assert isinstance(outs, StateStack) and len(outs) == len(stack)
    one_support = all(((m != 0) == (stack[0] != 0)).all() for m in stack)
    for entries, out in zip(stack, outs):
        ref = apply_transfer(TransferMatrix(entries), state)
        scale = absolute_evolution(entries, state)
        assert out.mode_count == ref.mode_count
        assert set(out.kets()) | set(ref.kets()) <= set(scale.kets())
        for ket in set(out.kets()) | set(ref.kets()):
            tol = STACK_ULPS * np.finfo(float).eps * scale.amplitude(ket).real
            assert abs(out.amplitude(ket) - ref.amplitude(ket)) <= tol, (ket, out.amplitude(ket), ref.amplitude(ket))
        if one_support:
            assert list(out.kets()) == list(ref.kets())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stack_cases())
def test_stacked_apply_transfer_equals_occupation_keyed_reference_bit_for_bit(case):
    """Each state of a stacked evolution has the kets, in order, and the ==
    amplitudes of the reference's expansion over the same stack."""
    stack, state = case
    outs = apply_transfer(stack, state)
    refs = occupation_keyed_apply_transfer(stack, state)
    assert len(outs) == len(refs) == len(stack)
    for out, ref in zip(outs, refs):
        assert list(out.items()) == list(ref.items())
        assert out.mode_count == ref.mode_count


def test_stack_walks_entries_only_a_later_matrix_has():
    """A column's support is the union over the stack, not the first matrix's."""
    stack = np.array([np.eye(2), beamsplitter(0.5).entries])
    first, second = apply_transfer(stack, StateVec.from_ket((1, 0)))
    assert list(first.items()) == [((1, 0), 1.0)]
    assert list(second.items()) == list(apply_transfer(beamsplitter(0.5), StateVec.from_ket((1, 0))).items())


def test_empty_stack_gives_no_states():
    assert len(apply_transfer(np.zeros((0, 3, 3)), StateVec.from_ket((1, 0, 1)))) == 0


@pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2), (1, 2, 3), (2,)], ids=["2-D", "4-D", "non-square", "1-D"])
def test_stack_of_the_wrong_shape_raises(shape):
    with pytest.raises(ValueError, match=r"stack must have shape \(K, d, d\)"):
        apply_transfer(np.ones(shape), StateVec.from_ket((1, 0)))


def test_stack_dimension_mismatch_names_both_sizes():
    with pytest.raises(ValueError, match="matrix dim 3 != state mode count 2"):
        apply_transfer(np.ones((2, 3, 3)), StateVec.from_ket((1, 0)))


def test_stack_with_a_nan_in_one_matrix_raises_like_that_matrix():
    stack = np.array([np.eye(2), [[math.nan, 0], [0, 1]], np.eye(2)])
    state = StateVec.from_ket((1, 0))
    with pytest.raises(ValueError, match="non-finite amplitude"):
        apply_transfer(TransferMatrix(stack[1]), state)
    with pytest.raises(ValueError, match=r"non-finite amplitude .* for ket \(1, 0\)"):
        apply_transfer(stack, state)


def test_photon_free_input_through_a_stack():
    """The vacuum's amplitude is one complex for every matrix of the stack."""
    outs = apply_transfer(np.zeros((3, 2, 2)), StateVec(2, {(0, 0): 0.5j}))
    assert [list(out.items()) for out in outs] == [[((0, 0), 0.5j)]] * 3


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stack_cases(), st.data())
def test_stacked_readers_equal_each_row_state_bit_for_bit(case, data):
    """Pattern probabilities read from a stack's amplitude array are ==
    `project_pattern` on each row's state, for 1-4 distinct count tuples on
    0-all modes; on four modes, so are the ten analyzer click probabilities
    against each row state's squared amplitudes."""
    stack, state = case
    outs = apply_transfer(stack, state)
    m = outs.mode_count
    modes = data.draw(st.permutations(range(m)))[: data.draw(st.integers(0, m))]
    counts = st.tuples(*[st.integers(0, 3)] * len(modes))
    counts_list = data.draw(st.lists(counts, min_size=1, max_size=4, unique=True))
    probs = _stack_probabilities(outs, DetectionPattern(modes, counts_list[0]), counts_list)
    assert probs.shape == (len(stack), len(counts_list))
    for row, out in zip(probs.tolist(), outs, strict=True):
        assert row == [project_pattern(out, DetectionPattern(modes, c))[1] for c in counts_list]
    if m == 4:
        clicks = _stack_probabilities(outs, _CLICKS, BSM_PATTERNS.values())
        for row, out in zip(clicks.tolist(), outs, strict=True):
            assert row == [abs(out.amplitude(ket)) ** 2 for ket in BSM_PATTERNS.values()]


@pytest.mark.parametrize(
    "a", [9.9999985738422e-16 + 5.340707257212924e-19j, 9.999997611555831e-16 + 6.911503287639501e-19j]
)
def test_a_state_and_a_stack_prune_an_amplitude_at_the_tolerance_alike(a):
    """Python's ``abs`` and numpy's complex ``abs`` fall on opposite sides of
    PRUNE_TOL for these amplitudes; a state and a stack keep or drop each alike."""
    state = StateVec(1, {(1,): a})
    out = apply_transfer(np.array([[[a]]]), StateVec.from_ket((1,)))
    assert out.amplitudes.tolist() == [[state.amplitude((1,))]]
    assert list(out[0].items()) == list(state.items())


def test_state_stack_is_an_immutable_sequence_of_pruned_rows():
    """A stack holds the expansion's every ket, an entry at or below
    PRUNE_TOL as exactly 0, and builds each row's state from its nonzero
    entries; neither its array nor its attributes can be changed."""
    stack = np.array([np.eye(2), [[1.0, 0.5 * PRUNE_TOL], [0.0, 1.0]], [[0.6, 0.8], [0.8, -0.6]]])
    outs = apply_transfer(stack, StateVec.from_ket((0, 1)))
    assert outs.kets == ((1, 0), (0, 1)) and outs.mode_count == 2 and len(outs) == 3
    assert outs.amplitudes.tolist() == [[0j, 1 + 0j], [0j, 1 + 0j], [0.8 + 0j, -0.6 + 0j]]
    assert [list(out.items()) for out in outs] == [[((0, 1), 1 + 0j)]] * 2 + [[((1, 0), 0.8 + 0j), ((0, 1), -0.6 + 0j)]]
    assert list(outs[-1].items()) == list(outs[2].items())
    with pytest.raises(IndexError):
        outs[3]
    with pytest.raises(ValueError):
        outs.amplitudes[0, 0] = 1.0
    for name in ("mode_count", "kets", "amplitudes"):
        with pytest.raises(AttributeError):
            setattr(outs, name, None)
