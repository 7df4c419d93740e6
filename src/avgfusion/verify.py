"""Self-check suites: closed forms vs simulation, averaging identity, tables.

Each suite recomputes a known analytic fact, with the full Fock-space
simulator or with the mean-matrix engine the sweeps run on, and reports the
worst deviation. The suites back the ``verify`` CLI subcommand and double as
regression oracles. The Fock suites read each stacked evolution as its
amplitude array: amplitude deviations by `_row_deviations`, pattern and
click probabilities by `detection._stack_probabilities`, both on the
oracle's one modulus (see `fock`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import build_averaged_network
from .cli import DEFAULT_SAMPLES, DEFAULT_SEED
from .detection import (
    SUPPORT_THRESHOLD,
    _stack_probabilities,
    fusion_outcomes,
)
from .fock import StateVec, apply_transfer, tensor
from .interferometers import _bsm_matrices, _features, _fusion_gates
from .metrics import (
    _BALANCED_SUPPORT,
    _SQRT_HALF,
    BELL_LABELS,
    BSM_MAP_TARGETS,
    BSM_PATTERNS,
    FUSION_PATTERNS,
    bell_state,
    fidelity,
)
from .sweep import _run_cells, sample_reflectivity

FUSION_TABLE_GRID = 5  # points per reflectivity axis that check_fusion_table scans

#: The patterns each Bell state adds to its balanced support (``metrics._BALANCED_SUPPORT``)
#: at unbalanced but equal reflectivities.
TABLE2_CROSSES: dict[str, frozenset[str]] = {
    "psi+": frozenset({"ad", "bc"}),
    "psi-": frozenset(),
    "phi+": frozenset({"ac", "bd"}),
    "phi-": frozenset({"ac", "bd"}),
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    threshold: float
    detail: str = ""

    def report_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        rel = "<" if self.max_deviation < self.threshold else ">="
        line = f"{self.name}: {status} (max dev {self.max_deviation:.3e} {rel} {self.threshold:g})"
        if self.detail:
            line += f" [{self.detail}]"
        return line


def _worst(deviations: list) -> float:
    """The largest deviation, 0.0 if none; NaN if any is NaN, which ``max`` may skip."""
    return math.nan if any(map(math.isnan, deviations)) else float(max(deviations, default=0.0))


def _result(name: str, deviations: list, threshold: float, detail: str = "") -> SuiteResult:
    """A suite's result from its deviations; a NaN among them fails the suite."""
    dev = _worst(deviations)
    return SuiteResult(name, dev < threshold and not detail, dev, threshold, detail)


def _row_deviations(amplitudes: np.ndarray, reference) -> list[float]:
    """Largest |amplitude difference| of each row of a (K, kets) amplitude
    array from ``reference``, an array over the same kets, 0.0 for no kets;
    NaN for a row that meets a NaN."""
    diff = amplitudes - reference
    return np.hypot(diff.real, diff.imag).max(axis=1, initial=0.0).tolist()


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from standard normals (..., 2, d, d), the real and
    imaginary parts of each; one stacked QR, the same bits as one per matrix."""
    q, r = np.linalg.qr((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def check_averaging_equivalence(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Post-selected N-copy network == evolution under the plain copy average.

    Exercised on Haar-random 4-mode unitaries and on fusion gates at random
    reflectivities, with two-photon inputs: psi+, phi- and a bunched superposition.
    For N = 2 and then 3, the copy sets alternate Haar and fusion. The suite
    runs in three passes:

    1. Draw: every set's draws come from ``rng`` in set order, (N, 2, 4, 4)
       standard normals for a Haar set and (N, 2) reflectivities for a fusion set.
    2. Build: every Haar copy comes from one stacked QR and every fusion copy
       from one `_fusion_gates` call, the same bits as `fusion_gate`. They
       fill one (sets, N, 4, 4) stack per copy count, in draw order, and
       `build_averaged_network` builds each stack's networks in one call.
    3. Evolve: a kept block has 4 modes whatever N is, so each input goes once
       through one stack of every set's kept block, which is `run_averaged` on
       each, followed by every set's copy average, the stack's mean over its
       copy axis; the two halves of its amplitude array are compared row by row.
    """
    inputs = [
        bell_state("psi+"),
        bell_state("phi-"),
        StateVec(4, {(2, 0, 0, 0): _SQRT_HALF, (0, 1, 0, 1): -0.5j, (0, 0, 1, 1): 0.5}),
    ]
    sets = max(2, samples // 5)
    haar_sets, fusion_sets = (sets + 1) // 2, sets // 2  # sets alternate Haar and fusion, Haar first
    draws = [
        [rng.standard_normal((n, 2, 4, 4)) if k % 2 == 0 else rng.uniform(0.2, 0.8, size=(n, 2)) for k in range(sets)]
        for n in (2, 3)
    ]
    normals = np.concatenate([d for by_n in draws for d in by_n[0::2]])
    etas = np.concatenate([d for by_n in draws for d in by_n[1::2]])
    haar_gates = np.split(_haar_unitaries(normals), [2 * haar_sets])
    fusion_gates = np.split(_fusion_gates(etas[:, :1], etas[:, 1:]), [2 * fusion_sets])
    stacks = []
    for n, haar, fusion in zip((2, 3), haar_gates, fusion_gates):
        stack = np.empty((sets, n, 4, 4), dtype=complex)
        stack[0::2], stack[1::2] = haar.reshape(haar_sets, n, 4, 4), fusion.reshape(fusion_sets, n, 4, 4)
        stacks.append(stack)
    # Only the kept blocks outlive the builds: each network's full matrix is freed with it.
    kept_blocks = [net.kept_block.entries for stack in stacks for net in build_averaged_network(stack)]
    matrices = np.concatenate([kept_blocks, *(stack.mean(axis=1) for stack in stacks)])
    k = len(kept_blocks)
    devs = []
    for state in inputs:
        amps = apply_transfer(matrices, state).amplitudes
        devs += _row_deviations(amps[:k], amps[k:])
    return _result("M_N-equivalence", devs, 1e-10)


def check_closed_form(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Sweep-engine analyzer metrics vs their closed forms, random draws, one engine call."""
    stacks = [sample_reflectivity(rng, 0.3, (1, samples, 2, n_copies)) for n_copies in (1, 2, 3)]
    devs = [
        np.max(np.abs(cell.metrics[sim] - cell.metrics[f"{sim}_closed"]))
        for cell in _run_cells("bsm", (0.3,), *stacks)
        for sim in ("F", "P_success", "F_norm")
    ]
    return _result("closed-form-vs-simulator", devs, 1e-10)


def check_fusion_table() -> SuiteResult:
    """Balanced-gate pattern table and the constant parity sum.

    At the balanced point each success pattern fires with probability 1/8,
    the even residual is the (+)-correlated pair and the odd residual the
    (+)-anticorrelated one; across a reflectivity grid the total success
    probability stays pinned at 1/2 with even/odd symmetric in pattern.

    Each point evolves the 8-mode input through gate (+) identity directly:
    the one-copy averaging network is that matrix bit for bit (a size-1 DFT
    is 1 and post-selection over no ancillas keeps every ket), which
    `tests/test_averaging.py` pins. The perfect gate and the grid's gates
    come from one `_fusion_gates` call, the same bits as `fusion_gate` at
    each point, and the input goes once through the stack of the 26. The
    grid's pattern probabilities come from one stacked projection; only the
    perfect gate's output becomes a state, for its residuals.
    """
    grid = np.linspace(0.05, 0.95, FUSION_TABLE_GRID)
    eta_x, eta_y = (np.concatenate(([0.5], axis.ravel())) for axis in np.meshgrid(grid, grid, indexing="ij"))
    gates = np.zeros((len(eta_x), 8, 8))
    gates[:, :4, :4] = _fusion_gates(eta_x[:, None], eta_y[:, None])
    gates[:, 4:, 4:] = np.eye(4)
    out = apply_transfer(gates, _fusion_input())
    rails = (0, 1, 2, 3)
    perfect = fusion_outcomes(out[0], rails)
    devs = []
    targets = {"HH": "phi+", "VV": "phi+", "HV": "psi+", "VH": "psi+"}
    for label, bell in targets.items():
        outcome = perfect[label]
        devs.append(abs(outcome.probability - 0.125))
        conditional = fidelity(outcome.residual, bell_state(bell)) / outcome.probability
        devs.append(abs(1.0 - conditional))
    probs = _stack_probabilities(out, rails, FUSION_PATTERNS.values())
    p = dict(zip(FUSION_PATTERNS, probs[1:].T))  # each label's column over the grid
    devs += [*abs(sum(p.values()) - 0.5), *abs(p["HH"] - p["VV"]), *abs(p["HV"] - p["VH"])]
    return _result("fusion-pattern-table", devs, 1e-12)


def _fusion_input() -> StateVec:
    """Two dual-rail phi+ pairs, qubits (1, 2) and (3, 4), on (H2, V2, H3, V3 | H1, V1, H4, V4): fused rails first."""
    pairs = tensor(bell_state("phi+"), bell_state("phi+"))  # on (H1, V1, H2, V2, H3, V3, H4, V4)
    return StateVec(8, {ket[2:6] + ket[:2] + ket[6:]: a for ket, a in pairs.items()})


def check_bsm_maps(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Balanced-analyzer Bell-state images, plus psi- invariance off balance.

    The balanced analyzer and the analyzers at the drawn reflectivities come
    from one `_bsm_matrices` call, the same bits as `bsm_matrix` at each.
    psi+, phi+ and phi- each go through the balanced one. psi- is its own
    balanced image, so it goes once through the whole stack, and every row
    has the same target. Each row is compared with its target as one array
    over the stack's kets; a target ket the expansion lacks counts at its
    full modulus.
    """
    eta = np.concatenate(([0.5], rng.uniform(0.0, 1.0, size=samples)))
    analyzers = _bsm_matrices(_features(eta, eta))
    devs = []
    for label in BELL_LABELS:
        out = apply_transfer(analyzers if label == "psi-" else analyzers[:1], bell_state(label))
        target = BSM_MAP_TARGETS[label]
        devs += _row_deviations(out.amplitudes, np.array([target.get(ket, 0.0) for ket in out.kets]))
        devs += [abs(a) for ket, a in target.items() if ket not in out.kets]
    return _result("bsm-state-maps", devs, 1e-12)


def check_table2() -> SuiteResult:
    """Click-pattern support sets at eta = 1/2 and at eta = 0.3.

    Each Bell state goes once through the stack of the two analyzers, whose
    click probabilities are projected as one (2, 10) array. The expected support
    is the kets of the state's exact balanced image
    (``_BALANCED_SUPPORT``), plus ``TABLE2_CROSSES`` at eta = 0.3. The
    deviation is the largest click probability on any blank cell, i.e. on a
    pattern outside the expected support.
    """
    etas = [0.5, 0.3]
    analyzers = _bsm_matrices(_features(etas, etas))
    devs = []
    mismatches = []
    for label in BELL_LABELS:
        expected_at = (_BALANCED_SUPPORT[label], _BALANCED_SUPPORT[label] | TABLE2_CROSSES[label])
        clicks = _stack_probabilities(apply_transfer(analyzers, bell_state(label)), range(4), BSM_PATTERNS.values())
        for eta, expected, probs in zip(etas, expected_at, clicks.tolist()):
            support = {pat for pat, prob in zip(BSM_PATTERNS, probs) if prob > SUPPORT_THRESHOLD}
            devs += [prob for pat, prob in zip(BSM_PATTERNS, probs) if pat not in expected]
            if support != expected:
                mismatches.append(f"{label}@{eta}: {sorted(support)} != {sorted(expected)}")
    return _result("table2-support", devs, 1e-12, "; ".join(mismatches))


def check_perfect_sweep() -> SuiteResult:
    """Noise-free trials land exactly on the analytic values for N up to 3, one engine call each."""
    stacks = [np.full((1, 1, 2, n_copies), 0.5) for n_copies in (1, 2, 3)]
    values = {
        "fusion": {"P_HH": 0.125, "P_single": 0.5, "F_HH_norm": 1.0, "trace_distance": 0.0},
        "bsm": {"P_success": 1.0, "F_norm": 1.0},
    }
    devs = [
        abs(cell.metrics[column][0] - value)
        for experiment, columns in values.items()
        for cell in _run_cells(experiment, (0.0,), *stacks)
        for column, value in columns.items()
    ]
    return _result("perfect-point-values", devs, 1e-10)


def run_all(samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every suite with one shared RNG; deterministic for fixed inputs."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    return [
        check_averaging_equivalence(samples, rng),
        check_closed_form(samples, rng),
        check_fusion_table(),
        check_bsm_maps(samples, rng),
        check_table2(),
        check_perfect_sweep(),
    ]
