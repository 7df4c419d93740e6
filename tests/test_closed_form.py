"""Tests for the analytic Bell-analyzer expressions.

The expanded pairwise-sum forms below are transcribed term by term for each
copy count (the five-copy pair set is the symmetric one: every unordered pair
exactly once) and pin the general sum-of-roots implementation.
"""

import math

import numpy as np
import pytest

from avgfusion.closed_form import bsm_closed_forms

from avgfusion.averaging import build_averaged_network, run_averaged
from avgfusion.detection import BSM_MAP_TARGETS
from avgfusion.fock import StateVec, norm_sq
from avgfusion.interferometers import bsm_matrix
from avgfusion.metrics import bell_state, fidelity


def _pair_terms(etas, pairs):
    total = 0.0
    for i, j in pairs:
        total += math.sqrt(1 - etas[i - 1]) * math.sqrt(1 - etas[j - 1])
        total += math.sqrt(etas[i - 1]) * math.sqrt(etas[j - 1])
    return total


def psuccess_two_copies(eta_h, eta_v):
    def bracket(e):
        return 1 + math.sqrt(1 - e[0]) * math.sqrt(1 - e[1]) + math.sqrt(e[0]) * math.sqrt(e[1])

    return bracket(eta_h) * bracket(eta_v) / 4


def psuccess_three_copies(eta_h, eta_v):
    pairs = [(1, 2), (1, 3), (2, 3)]
    return (3 + 2 * _pair_terms(eta_h, pairs)) * (3 + 2 * _pair_terms(eta_v, pairs)) / 81


def psuccess_four_copies(eta_h, eta_v):
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return (2 + _pair_terms(eta_h, pairs)) * (2 + _pair_terms(eta_v, pairs)) / 64


def psuccess_five_copies(eta_h, eta_v):
    pairs = [
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
        (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
    ]
    return (5 + 2 * _pair_terms(eta_h, pairs)) * (5 + 2 * _pair_terms(eta_v, pairs)) / 625


EXPANDED_FORMS = {
    2: psuccess_two_copies,
    3: psuccess_three_copies,
    4: psuccess_four_copies,
    5: psuccess_five_copies,
}


def _position(k):
    """Position k of the ``(F, P_success, F_norm)`` tuple, as a function of the draw."""
    return lambda eta_h, eta_v: bsm_closed_forms(eta_h, eta_v)[k]


CLOSED_FORMS = f_closed, p_closed, f_norm_closed = tuple(_position(k) for k in range(3))


def test_reflectivity_draw_validation():
    for fn in CLOSED_FORMS:
        fn((0.5, 0.5), (0.4, 0.6))
        for eta_h, eta_v in (
            ((0.5,), (0.5, 0.5)),  # unequal copy axes
            ((1.2,), (0.5,)),  # outside [0, 1]
            ((0.5,), (-0.1,)),
            ((0.5,), (float("nan"),)),
            ((), ()),  # no copies
            (0.5, 0.5),  # no copy axis at all
            (np.full((3, 2), 0.5), np.full((3, 1), 0.5)),
        ):
            with pytest.raises(ValueError):
                fn(eta_h, eta_v)


def test_closed_forms_broadcast_over_leading_axes():
    rng = np.random.default_rng(12)
    eta_h, eta_v = rng.uniform(0, 1, size=(2, 4, 5, 3))
    for fn in CLOSED_FORMS:
        stacked = fn(eta_h, eta_v)
        assert stacked.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            assert stacked[idx] == fn(eta_h[idx], eta_v[idx])
        # one shared second-layer draw broadcasts against the stack of first layers
        shared = eta_v[0, 0]
        expected = [[fn(h, shared) for h in row] for row in eta_h]
        np.testing.assert_array_equal(fn(eta_h, shared), expected)


def _per_draw_reference(eta_h, eta_v):
    """The closed forms for one draw in Python floats, summed copy by copy."""
    sh = sum(math.sqrt(e) for e in eta_h)
    shc = sum(math.sqrt(1.0 - e) for e in eta_h)
    sv = sum(math.sqrt(e) for e in eta_v)
    svc = sum(math.sqrt(1.0 - e) for e in eta_v)
    n = len(eta_h)
    num = (sh * svc + shc * sv) ** 2
    den = (sh**2 + shc**2) * (sv**2 + svc**2)
    return num / n**4, den / n**4, num / den


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_array_forms_match_the_per_draw_formulas(n):
    """Same root sums; only squaring (x*x vs pow) may move the last bits,
    by at most 2 eps relative."""
    eta_h, eta_v = np.random.default_rng(300 + n).uniform(0, 1, size=(2, 400, n))
    stacked = [fn(eta_h, eta_v) for fn in CLOSED_FORMS]
    for s in range(400):
        expected = _per_draw_reference(eta_h[s].tolist(), eta_v[s].tolist())
        for values, want in zip(stacked, expected):
            assert values[s] == pytest.approx(want, rel=2 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_balanced_point_is_perfect(n):
    for fn in CLOSED_FORMS:
        assert fn((0.5,) * n, (0.5,) * n) == pytest.approx(1.0, abs=1e-12)


def test_single_copy_success_probability_is_always_one():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eta_h, eta_v = (float(rng.uniform()),), (float(rng.uniform()),)
        assert p_closed(eta_h, eta_v) == pytest.approx(1.0, abs=1e-12)


def test_single_copy_fidelity_equal_reflectivities():
    for eta in (0.1, 0.35, 0.5, 0.72, 0.9):
        expected = 4 * eta * (1 - eta)
        assert f_closed((eta,), (eta,)) == pytest.approx(expected, abs=1e-12)
        assert f_norm_closed((eta,), (eta,)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_general_form_matches_expanded_forms(n):
    rng = np.random.default_rng(100 + n)
    expanded = EXPANDED_FORMS[n]
    for _ in range(1000):
        eta_h = tuple(rng.uniform(0, 1, size=n))
        eta_v = tuple(rng.uniform(0, 1, size=n))
        assert p_closed(eta_h, eta_v) == pytest.approx(expanded(eta_h, eta_v), abs=1e-12)


def test_symmetry_under_copy_permutation_and_layer_swap():
    rng = np.random.default_rng(55)
    for _ in range(25):
        eta_h = tuple(rng.uniform(0, 1, size=3))
        eta_v = tuple(rng.uniform(0, 1, size=3))
        shuffled = (eta_h[::-1], (eta_v[1], eta_v[2], eta_v[0]))
        for fn in CLOSED_FORMS:
            assert fn(eta_h, eta_v) == pytest.approx(fn(*shuffled), abs=1e-12)
            assert fn(eta_h, eta_v) == pytest.approx(fn(eta_v, eta_h), abs=1e-12)


def test_normalized_form_bounded_by_one():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        assert f_norm_closed(rng.uniform(0, 1, size=n), rng.uniform(0, 1, size=n)) <= 1.0 + 1e-12


def simulate_bsm(eta_h, eta_v):
    copies = [bsm_matrix(eh, ev) for eh, ev in zip(eta_h, eta_v)]
    net = build_averaged_network(copies)
    kept = run_averaged(net, bell_state("psi+"))
    return fidelity(kept, StateVec(4, BSM_MAP_TARGETS["psi+"])), norm_sq(kept)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_forms_match_full_simulation(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        draw = (rng.uniform(0.1, 0.9, size=n), rng.uniform(0.1, 0.9, size=n))
        f_sim, p_sim = simulate_bsm(*draw)
        assert f_sim == pytest.approx(f_closed(*draw), abs=1e-10)
        assert p_sim == pytest.approx(p_closed(*draw), abs=1e-10)
        assert f_sim / p_sim == pytest.approx(f_norm_closed(*draw), abs=1e-10)


def test_mean_normalized_fidelity_improves_with_copies():
    rng = np.random.default_rng(404)
    m = 0.3
    means = []
    for n in (1, 2, 3):
        values = []
        for _ in range(400):
            eta_h, eta_v = rng.uniform(0.5 - m, 0.5 + m, size=n), rng.uniform(0.5 - m, 0.5 + m, size=n)
            values.append(f_norm_closed(eta_h, eta_v))
        means.append(np.mean(values))
    assert means[0] < means[1] < means[2]
