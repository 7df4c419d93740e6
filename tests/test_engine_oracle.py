"""Per-trial agreement of the sweep engine with the full Fock-space network.

Sweeps compute each trial from the mean matrix M_N by 2x2 permanents. These
property tests recompute single trials through the (4N+4)-mode averaging
network (build_averaged_network -> run_averaged -> postselect_vacuum_ancilla)
for N from 1 to 6 and reflectivities anywhere on [0, 1], endpoints included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion.averaging import build_averaged_network, postselect_vacuum_ancilla, run_averaged
from avgfusion.detection import BSM_MAP_TARGETS, fusion_outcomes
from avgfusion.fock import StateVec, TransferMatrix, apply_transfer, norm_sq
from avgfusion.interferometers import bsm_matrix, effective_average, fusion_gate
from avgfusion.metrics import _SQRT_HALF, bell_state, fidelity, trace_distance
from avgfusion.sweep import (
    _PATTERNS,
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


@PROPERTY
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_amplitudes_match_apply_transfer(seed):
    """Every click pattern, doubles included, for all six input mode pairs on
    a stack of random non-unitary matrices, in both index shapes the engine
    uses: a (2, 1) x (1, 2) block and a (2,) x (2,) list of pairs."""
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    pairs = set()
    for i, j in (([[0], [1]], [[2, 3]]), ([0, 2], [1, 3])):
        out = _pair_amplitudes(mean, i, j)
        i, j = np.broadcast_arrays(i, j)
        assert out.shape == (3, len(_PATTERNS), *i.shape)
        for s, b in itertools.product(range(3), np.ndindex(i.shape)):
            pairs.add((i[b], j[b]))
            ket = tuple(int(mode in (i[b], j[b])) for mode in range(4))
            expected = apply_transfer(TransferMatrix(mean[s]), StateVec.from_ket(ket))
            for p, pattern in enumerate(_PATTERNS):
                assert out[(s, p, *b)] == pytest.approx(expected.amplitude(pattern), abs=TOL)
            assert np.sum(np.abs(out[(s, slice(None), *b)]) ** 2) == pytest.approx(norm_sq(expected), rel=1e-12)
    assert pairs == set(itertools.combinations(range(4), 2))


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
    kept = postselect_vacuum_ancilla(run_averaged(net, _fusion_input()), net.layout)
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
    kept = postselect_vacuum_ancilla(run_averaged(net, bell_state("psi+")), net.layout)
    f, p = fidelity(kept, StateVec(4, BSM_MAP_TARGETS["psi+"])), norm_sq(kept)
    _compare(cell, {"F": f, "P_success": p, "F_norm": f / p})

    m = cell.metrics
    for sim in ("F", "P_success", "F_norm"):
        assert m[sim][0] == pytest.approx(m[f"{sim}_closed"][0], abs=TOL), sim
