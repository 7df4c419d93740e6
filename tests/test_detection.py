"""Tests for detection patterns, fusion outcomes, and pattern support."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.averaging import build_averaged_network, run_averaged
from avgfusion.detection import (
    BSM_PATTERNS,
    FUSION_PATTERNS,
    DetectionPattern,
    fusion_outcomes,
    pattern_probabilities,
    pattern_support,
    project_pattern,
)
from avgfusion.fock import StateVec, apply_transfer, norm_sq, tensor
from avgfusion.interferometers import bsm_matrix, fusion_gate
from avgfusion.metrics import _BALANCED_SUPPORT, BELL_LABELS, bell_state, fidelity

SQRT_HALF = 1.0 / math.sqrt(2.0)


def fused_two_pair_state(eta_x, eta_y):
    """Two phi+ pairs through one fusion gate on the middle qubits' rails."""
    net = build_averaged_network([fusion_gate(eta_x, eta_y)], n_passthrough=4)
    raw = tensor(bell_state("phi+"), bell_state("phi+"))
    order = (2, 3, 4, 5, 0, 1, 6, 7)
    state = StateVec(8, {tuple(k[i] for i in order): a for k, a in raw.items()})
    return run_averaged(net, state)


def test_detection_pattern_validation():
    DetectionPattern((0, 2), (1, 0))
    with pytest.raises(ValueError):
        DetectionPattern((0, 0), (1, 1))
    with pytest.raises(ValueError):
        DetectionPattern((0, 1), (1,))
    with pytest.raises(ValueError):
        DetectionPattern((0, 1), (1, -1))


@pytest.mark.parametrize(
    "modes,counts",
    [((0, 1), (1, 1.5)), ((0, 1), (math.nan, 0)), ((0.5, 1), (1, 0)), ((0, 1), (math.inf, 0))],
)
def test_detection_pattern_rejects_non_integral_values(modes, counts):
    """A count of 1.5 would match no ket and read as probability 0."""
    with pytest.raises(ValueError, match="non-integral value"):
        DetectionPattern(modes, counts)


def test_detection_pattern_normalizes_to_tuples_of_ints():
    pattern = DetectionPattern([np.int64(0), 2], [1.0, np.uint8(0)])
    assert pattern.modes == (0, 2) and pattern.counts == (1, 0)
    assert all(type(v) is int for v in pattern.modes + pattern.counts)
    assert pattern == DetectionPattern((0, 2), (1, 0))


def test_project_pattern_single_ket():
    residual, prob = project_pattern(StateVec.from_ket((1, 0, 0, 1)), DetectionPattern((0,), (1,)))
    assert prob == pytest.approx(1.0)
    assert residual.amplitude((0, 0, 1)) == pytest.approx(1.0)


def test_project_pattern_superposition():
    s = StateVec(2, {(1, 0): SQRT_HALF, (0, 1): SQRT_HALF})
    residual, prob = project_pattern(s, DetectionPattern((0,), (1,)))
    assert prob == pytest.approx(0.5)
    assert residual.amplitude((0,)) == pytest.approx(SQRT_HALF)
    assert norm_sq(residual) == pytest.approx(prob)


def test_project_pattern_rejects_out_of_range_mode():
    with pytest.raises(ValueError):
        project_pattern(StateVec.from_ket((1, 0)), DetectionPattern((5,), (1,)))


def test_project_pattern_idempotent_on_empty_pattern():
    s = StateVec(3, {(1, 0, 1): 0.6, (0, 1, 1): 0.8})
    residual, prob = project_pattern(s, DetectionPattern((), ()))
    assert prob == pytest.approx(norm_sq(s))
    for ket in s.kets():
        assert residual.amplitude(ket) == pytest.approx(s.amplitude(ket))


def test_perfect_fusion_pattern_probabilities():
    kept = fused_two_pair_state(0.5, 0.5)
    outcomes = fusion_outcomes(kept, (0, 1, 2, 3))
    assert set(outcomes) == set(FUSION_PATTERNS)
    for outcome in outcomes.values():
        assert outcome.probability == pytest.approx(0.125, abs=1e-12)
        assert norm_sq(outcome.residual) == pytest.approx(outcome.probability, abs=1e-12)


def test_perfect_fusion_residual_states():
    outcomes = fusion_outcomes(fused_two_pair_state(0.5, 0.5), (0, 1, 2, 3))
    for label, target in (("HH", "phi+"), ("VV", "phi+"), ("HV", "psi+"), ("VH", "psi+")):
        outcome = outcomes[label]
        conditional = fidelity(outcome.residual, bell_state(target)) / outcome.probability
        assert conditional == pytest.approx(1.0, abs=1e-12)


def test_parity_sum_constant_across_reflectivities():
    for eta_x in np.linspace(0.05, 0.95, 5):
        for eta_y in np.linspace(0.05, 0.95, 5):
            outcomes = fusion_outcomes(fused_two_pair_state(eta_x, eta_y), (0, 1, 2, 3))
            probs = {label: o.probability for label, o in outcomes.items()}
            assert sum(probs.values()) == pytest.approx(0.5, abs=1e-12)
            assert probs["HH"] == pytest.approx(probs["VV"], abs=1e-12)
            assert probs["HV"] == pytest.approx(probs["VH"], abs=1e-12)


def test_total_probability_over_all_patterns():
    """Every 2-photon count pattern on the rails, plus residual weights, sums to norm²."""
    kept = fused_two_pair_state(0.3, 0.8)
    total = 0.0
    from itertools import product

    for counts in product(range(3), repeat=4):
        if sum(counts) > 2:
            continue
        _, prob = project_pattern(kept, DetectionPattern((0, 1, 2, 3), counts))
        total += prob
    assert total == pytest.approx(norm_sq(kept), abs=1e-12)


def test_pattern_support_perfect_point():
    assert pattern_support("psi+") == {"ab", "cd"}
    assert pattern_support("psi-") == {"ad", "bc"}
    assert pattern_support("phi+") == {"a2", "b2", "c2", "d2"}
    assert pattern_support("phi-") == {"a2", "b2", "c2", "d2"}
    assert _BALANCED_SUPPORT == {label: pattern_support(label) for label in BELL_LABELS}


def test_pattern_support_unbalanced():
    assert pattern_support("psi+", 0.3, 0.3) == {"ab", "cd", "ad", "bc"}
    assert pattern_support("phi+", 0.3, 0.3) == {"a2", "b2", "c2", "d2", "ac", "bd"}
    assert pattern_support("phi-", 0.3, 0.3) == {"a2", "b2", "c2", "d2", "ac", "bd"}
    for eta in (0.1, 0.25, 0.4, 0.45):
        assert pattern_support("psi-", eta, eta) == {"ad", "bc"}


def test_pattern_support_rejects_unknown_label():
    with pytest.raises(ValueError):
        pattern_support("omega+")


def test_bsm_patterns_cover_all_two_photon_coincidences():
    assert len(BSM_PATTERNS) == 10
    assert all(sum(counts) == 2 for counts in BSM_PATTERNS.values())
    assert len({counts for counts in BSM_PATTERNS.values()}) == 10


def all_loop_project_pattern(state, modes, counts):
    """Reference copy of the per-ket ``all(...)`` loop `project_pattern` used
    before its one tuple compare; kept to pin order and bits."""
    measured = dict(zip(modes, counts))
    keep = [i for i in range(state.mode_count) if i not in measured]
    amp = {}
    prob = 0.0
    for ket, a in state.items():
        if all(ket[m] == c for m, c in measured.items()):
            amp[tuple(ket[i] for i in keep)] = a
            prob += abs(a) ** 2
    return StateVec(len(keep), amp), prob


@st.composite
def projection_cases(draw):
    """A superposition of up to 12 kets of 0-4 photons on 1-8 modes and a
    pattern on 0-all of its modes, in shuffled order, as lists or tuples."""
    n_modes = draw(st.integers(min_value=1, max_value=8))
    mode = st.integers(min_value=0, max_value=n_modes - 1)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    amp = {}
    for photons in draw(st.lists(st.lists(mode, max_size=4), min_size=1, max_size=12)):
        amp[tuple(photons.count(j) for j in range(n_modes))] = complex(*rng.standard_normal(2))
    modes = draw(st.permutations(range(n_modes)))[: draw(st.integers(0, n_modes))]
    counts = draw(st.lists(st.integers(0, 2), min_size=len(modes), max_size=len(modes)))
    container = draw(st.sampled_from([list, tuple]))
    return StateVec(n_modes, amp), container(modes), container(counts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(projection_cases())
def test_project_pattern_equals_all_loop_reference_bit_for_bit(case):
    state, modes, counts = case
    residual, prob = project_pattern(state, DetectionPattern(modes, counts))
    ref_residual, ref_prob = all_loop_project_pattern(state, modes, counts)
    assert list(residual.items()) == list(ref_residual.items())
    assert residual.mode_count == ref_residual.mode_count
    assert prob == ref_prob


@st.composite
def fusion_rail_cases(draw):
    """A superposition of up to 12 kets of 0-4 photons on 4-8 modes, many of
    them outside every fusion pattern, and four distinct rails in any order."""
    n_modes = draw(st.integers(min_value=4, max_value=8))
    mode = st.integers(min_value=0, max_value=n_modes - 1)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    amp = {}
    for photons in draw(st.lists(st.lists(mode, max_size=4), min_size=1, max_size=12)):
        amp[tuple(photons.count(j) for j in range(n_modes))] = complex(*rng.standard_normal(2))
    rails = tuple(draw(st.permutations(range(n_modes)))[:4])
    return StateVec(n_modes, amp), rails


def assert_fusion_outcomes_equal_four_projections(state, rails):
    outcomes = fusion_outcomes(state, rails)
    assert list(outcomes) == list(FUSION_PATTERNS)
    for label, counts in FUSION_PATTERNS.items():
        residual, prob = project_pattern(state, DetectionPattern(rails, counts))
        assert outcomes[label].label == label
        assert outcomes[label].probability == prob
        assert list(outcomes[label].residual.items()) == list(residual.items())
        assert outcomes[label].residual.mode_count == residual.mode_count


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fusion_rail_cases())
def test_fusion_outcomes_equal_four_projections(case):
    assert_fusion_outcomes_equal_four_projections(*case)


def test_fusion_outcomes_on_unsorted_rails_and_extra_modes():
    """Rails (H1, V1, H2, V2) = modes (3, 0, 5, 1); modes 2, 4 and 6 are extra."""
    state = StateVec(
        7,
        {
            (0, 1, 0, 1, 0, 0, 0): 0.5,  # HV
            (1, 0, 0, 1, 0, 0, 1): 0.3,  # H1 and V1 fired: no pattern
            (0, 0, 0, 1, 0, 1, 1): -0.5j,  # HH, a photon on extra mode 6
            (1, 1, 0, 0, 0, 0, 0): 0.25,  # VV
            (0, 0, 2, 0, 0, 0, 0): 0.6,  # no rail fired
            (0, 1, 1, 1, 0, 0, 0): 0.1,  # HV, a photon on extra mode 2
            (1, 0, 0, 0, 0, 1, 0): 0.2j,  # VH
        },
    )
    assert_fusion_outcomes_equal_four_projections(state, (3, 0, 5, 1))
    outcomes = fusion_outcomes(state, (3, 0, 5, 1))
    assert {label: len(o.residual) for label, o in outcomes.items()} == {"HH": 1, "VV": 1, "HV": 2, "VH": 1}
    assert list(outcomes["HV"].residual.items()) == [((0, 0, 0), 0.5 + 0j), ((1, 0, 0), 0.1 + 0j)]


@pytest.mark.parametrize(
    "rails, message",
    [
        ((0, 1, 2), "rails must be four distinct non-negative modes, got (0, 1, 2)"),
        ((0, 1, 2, 3, 4), "rails must be four distinct non-negative modes, got (0, 1, 2, 3, 4)"),
        ((0, 1, 1, 2), "rails must be four distinct non-negative modes, got (0, 1, 1, 2)"),
        ((0, -1, 2, 3), "rails must be four distinct non-negative modes, got (0, -1, 2, 3)"),
        ((0, 1, 2, 1.5), "non-integral value in rails (0, 1, 2, 1.5)"),
        ((0, 1, 2, 5), "measured modes (0, 1, 2, 5) reach beyond the 5 modes of the state"),
    ],
)
def test_fusion_outcomes_reject_bad_rails_naming_them(rails, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fusion_outcomes(StateVec.from_ket((1, 0, 1, 0, 0)), rails)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(BELL_LABELS), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_pattern_probabilities_equal_ten_projections(label, eta_h, eta_v):
    out = apply_transfer(bsm_matrix(eta_h, eta_v), bell_state(label))
    expected = {
        name: project_pattern(out, DetectionPattern((0, 1, 2, 3), counts))[1]
        for name, counts in BSM_PATTERNS.items()
    }
    probs = pattern_probabilities(label, eta_h, eta_v)
    assert list(probs) == list(expected)
    assert probs == expected
