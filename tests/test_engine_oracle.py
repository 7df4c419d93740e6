"""Per-trial agreement of the sweep engine with the full Fock-space network.

Sweeps compute each trial from the mean matrix M_N by 2x2 permanents. These
property tests recompute single trials through the (4N+4)-mode averaging
network (build_averaged_network -> run_averaged, which post-selects ancilla vacuum)
for N from 1 to 6 and reflectivities anywhere on [0, 1], endpoints included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.averaging import build_averaged_network, run_averaged
from avgfusion.detection import BSM_MAP_TARGETS, fusion_outcomes
from avgfusion.fock import StateVec, TransferMatrix, apply_transfer, norm_sq
from avgfusion.interferometers import _bsm_matrices, bsm_matrix, effective_average, fusion_gate
from avgfusion.metrics import _SQRT_HALF, BSM_PATTERNS, FUSION_PATTERNS, bell_state, fidelity, trace_distance
from avgfusion.sweep import (
    _FUSION_ROWS,
    _PSI_RAILS,
    _RAIL_BLOCK,
    _feature_sums,
    _pair_amplitudes,
    run_cell,
    sample_reflectivity,
)
from avgfusion.verify import _fusion_input

TOL = 1e-12

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class ScriptedRng:
    """Generator stand-in whose uniform() returns the given reflectivities."""

    def __init__(self, etas):
        self.etas = np.asarray(etas, dtype=float)

    def uniform(self, low, high, size):
        return self.etas.reshape(size)


@st.composite
def reflectivity_draws(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    eta = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    return n, draw(st.lists(eta, min_size=2 * n, max_size=2 * n))


#: The rail convention, written out: photon 1 on modes (V1, H1) = (1, 0), photon 2 on (V2, H2) = (3, 2).
RAIL_MODES = ((1, 0), (3, 2))

#: The phi rail pairs, (1, 1) then (0, 0): the diagonal of the rail block, modes (0, 2) then (1, 3).
PHI_RAILS = ([1, 0], [1, 0])


@PROPERTY
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_amplitudes_match_apply_transfer(seed):
    """All ten rows of the click table, and the fusion's four, at all four
    rail pairs, on a stack of random complex non-unitary matrices, in the
    index shapes the engine and the phi test use: the full 2x2 rail block,
    the psi pairs and the phi pairs. The double clicks carry the table's 1/sqrt(2), which must
    meet the network's sqrt(2!); the ten rows hold the whole output state."""
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    pairs = set()
    for rows, patterns in ((slice(None), BSM_PATTERNS), (_FUSION_ROWS, FUSION_PATTERNS)):
        for rails in (_RAIL_BLOCK, _PSI_RAILS, PHI_RAILS):
            out = _pair_amplitudes(mean, rows, rails)
            r1, r2 = np.broadcast_arrays(*rails)
            assert out.shape == (3, len(patterns), *r1.shape)
            for s, b in itertools.product(range(3), np.ndindex(r1.shape)):
                pairs.add((r1[b], r2[b]))
                i, j = RAIL_MODES[0][r1[b]], RAIL_MODES[1][r2[b]]
                ket = tuple(int(mode in (i, j)) for mode in range(4))
                expected = apply_transfer(TransferMatrix(mean[s]), StateVec.from_ket(ket))
                for p, pattern in enumerate(patterns.values()):
                    assert out[(s, p, *b)] == pytest.approx(expected.amplitude(pattern), abs=TOL)
                if patterns is BSM_PATTERNS:
                    whole = np.sum(np.abs(out[(s, slice(None), *b)]) ** 2)
                    assert whole == pytest.approx(norm_sq(expected), rel=1e-12)
    assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_psi_plus_never_reaches_six_analyzer_patterns(n):
    """psi+ holds one H and one V photon, and the analyzer mixes H rails with H
    and V with V, so its amplitude is exactly 0 on the doubles a2, b2, c2, d2
    and on ac and bd, in the engine and in the Fock network. No CSV column
    reads a double click, so only test_pair_amplitudes_match_apply_transfer
    and the phi test below see their 1/sqrt(2); a phi input reaches them."""
    etas = sample_reflectivity(np.random.default_rng(n), 0.5, (2000, 2, n))
    sums_n = _feature_sums(etas[:, 0], etas[:, 1])
    amp = _SQRT_HALF * _pair_amplitudes(_bsm_matrices(sums_n[:, :4] / n), slice(None), ([1, 0], [0, 1]))
    out = amp[..., 0] + amp[..., 1]  # the analyzer's psi+ image on modes (0, 3) and (1, 2), as _bsm_metrics forms it
    never = ["a2", "b2", "c2", "d2", "ac", "bd"]
    labels = list(BSM_PATTERNS)
    assert not out[:, [labels.index(label) for label in never]].any()
    assert out[:, [labels.index(label) for label in labels if label not in never]].any(axis=0).all()
    for eta_h, eta_v in etas[:20]:
        kept = run_averaged(build_averaged_network(map(bsm_matrix, eta_h, eta_v)), bell_state("psi+"))
        assert all(kept.amplitude(BSM_PATTERNS[label]) == 0 for label in never)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("label, sign", [("phi+", 1.0), ("phi-", -1.0)])
def test_phi_inputs_through_the_averaged_analyzer_match_the_fock_network(n, label, sign):
    """phi+- put both photons on one polarization, so the analyzer sends them
    to the double clicks a2, b2, c2, d2 that psi+ never reaches, where the
    engine's 1/sqrt(2) bunching factor meets the network's sqrt(2!). Per
    trial, the engine's click amplitudes of phi+- (the diagonal rail pairs
    (1, 1) and (0, 0), modes 0, 2 and 1, 3) against the Fock network: one
    stacked evolution of the kept blocks of the sampled averaging networks."""
    etas = sample_reflectivity(np.random.default_rng(100 + n), 0.5, (20, 2, n))
    sums_n = _feature_sums(etas[:, 0], etas[:, 1])
    amp = _SQRT_HALF * _pair_amplitudes(_bsm_matrices(sums_n[:, :4] / n), slice(None), PHI_RAILS)
    out = amp[..., 0] + sign * amp[..., 1]
    blocks = [build_averaged_network(map(bsm_matrix, eta_h, eta_v)).kept_block.entries for eta_h, eta_v in etas]
    kept = apply_transfer(np.array(blocks), bell_state(label))
    labels = list(BSM_PATTERNS)
    assert np.abs(out[:, [labels.index(d) for d in ("a2", "b2", "c2", "d2")]]).max() > 0.1
    for row, state in zip(out, kept, strict=True):
        assert row.tolist() == pytest.approx([state.amplitude(p) for p in BSM_PATTERNS.values()], abs=TOL)
        assert np.sum(np.abs(row) ** 2) == pytest.approx(norm_sq(state), rel=1e-12)  # the ten patterns hold it all


def _compare(cell, oracle: dict) -> None:
    """The one trial of ``cell`` against the oracle; NaN (undefined) must match NaN."""
    for key, want in oracle.items():
        assert cell.metrics[key].shape == (1,)
        assert cell.metrics[key][0] == pytest.approx(want, abs=TOL, nan_ok=True), key


def test_fusion_input_kets_are_pinned():
    """phi+ (x) phi+ on (H2, V2, H3, V3 | H1, V1, H4, V4): the kets q1+q2+q1+q2,
    each with the product amplitude 0.4999999999999999, not 0.5."""
    amp = _SQRT_HALF * _SQRT_HALF
    terms = ((1, 0), (0, 1))
    state = _fusion_input()
    assert state.mode_count == 8
    # == on finite nonzero floats is bit equality
    assert dict(state.items()) == {q1 + q2 + q1 + q2: amp for q1 in terms for q2 in terms}
    assert amp != 0.5


@PROPERTY
@given(reflectivity_draws())
def test_fusion_trial_matches_fock_network(case):
    n, etas = case
    cell = run_cell("fusion", 0.5, sample_reflectivity(ScriptedRng(etas), 0.5, (1, 2, n)))
    assert cell.etas.ravel().tolist() == etas

    copies = [fusion_gate(ex, ey) for ex, ey in zip(etas[:n], etas[n:])]
    net = build_averaged_network(copies, n_passthrough=4)
    kept = run_averaged(net, _fusion_input())
    outcomes = fusion_outcomes(kept, (0, 1, 2, 3))
    f_hh = fidelity(outcomes["HH"].residual, bell_state("phi+"))
    p_hh = outcomes["HH"].probability
    oracle = {
        "F_HH": f_hh,
        "P_HH": p_hh,
        "F_HH_norm": f_hh / p_hh if p_hh > 0 else np.nan,
        "P_single": sum(o.probability for o in outcomes.values()),
        "trace_distance": trace_distance(effective_average(copies), fusion_gate(0.5, 0.5)),
    }
    _compare(cell, oracle)


@PROPERTY
@given(reflectivity_draws())
def test_bsm_trial_matches_fock_network_and_closed_form(case):
    n, etas = case
    cell = run_cell("bsm", 0.5, sample_reflectivity(ScriptedRng(etas), 0.5, (1, 2, n)))
    assert cell.etas.ravel().tolist() == etas

    copies = [bsm_matrix(eh, ev) for eh, ev in zip(etas[:n], etas[n:])]
    net = build_averaged_network(copies)
    kept = run_averaged(net, bell_state("psi+"))
    f, p = fidelity(kept, StateVec(4, BSM_MAP_TARGETS["psi+"])), norm_sq(kept)
    _compare(cell, {"F": f, "P_success": p, "F_norm": f / p})

    m = cell.metrics
    for sim in ("F", "P_success", "F_norm"):
        assert m[sim][0] == pytest.approx(m[f"{sim}_closed"][0], abs=TOL), sim
