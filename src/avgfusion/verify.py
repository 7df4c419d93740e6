"""Self-check suites: closed forms vs simulation, averaging identity, tables.

Each suite recomputes a known analytic fact, with the full Fock-space
simulator or with the mean-matrix engine the sweeps run on, and reports the
worst deviation. The suites back the ``verify`` CLI subcommand and double as
regression oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import build_averaged_network, postselect_vacuum_ancilla, run_averaged
from .detection import BSM_MAP_TARGETS, fusion_outcomes, pattern_probabilities
from .fock import StateVec, TransferMatrix, apply_transfer
from .interferometers import bsm_matrix, effective_average, fusion_gate
from .metrics import BELL_LABELS, bell_state, fidelity
from .sweep import _fusion_input, run_bsm_trial, run_fusion_trial

DEFAULT_SAMPLES = 20
DEFAULT_SEED = 12345

#: Analyzer click patterns each Bell state can produce at the balanced point...
TABLE2_TICKS: dict[str, frozenset[str]] = {
    "psi+": frozenset({"ab", "cd"}),
    "psi-": frozenset({"ad", "bc"}),
    "phi+": frozenset({"a2", "b2", "c2", "d2"}),
    "phi-": frozenset({"a2", "b2", "c2", "d2"}),
}

#: ...and the extra patterns that open up at unbalanced (but equal) reflectivities.
TABLE2_CROSSES: dict[str, frozenset[str]] = {
    "psi+": frozenset({"ad", "bc"}),
    "psi-": frozenset(),
    "phi+": frozenset({"ac", "bd"}),
    "phi-": frozenset({"ac", "bd"}),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)


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


def max_amplitude_deviation(state: StateVec, reference) -> float:
    """Largest |amplitude difference| between a state and a reference.

    ``reference`` may be a StateVec or a raw ket->amplitude mapping.
    """
    ref = dict(reference.items()) if isinstance(reference, StateVec) else dict(reference)
    kets = set(ref) | set(state.kets())
    return max((abs(state.amplitude(k) - ref.get(k, 0.0)) for k in kets), default=0.0)


def phase_aligned_deviation(state: StateVec, reference: dict) -> float:
    """Like :func:`max_amplitude_deviation`, but modulo one global phase.

    The phase is read off the reference's largest-amplitude ket; if the state
    vanishes there, no phase can be extracted and the raw deviation is used.
    """
    anchor = max(reference, key=lambda k: abs(reference[k]))
    a = state.amplitude(anchor)
    if abs(a) < 1e-300:
        return max_amplitude_deviation(state, reference)
    phase = a / abs(a) * abs(reference[anchor]) / reference[anchor]
    aligned = {k: v * phase for k, v in reference.items()}
    return max_amplitude_deviation(state, aligned)


def _haar_unitary(rng: np.random.Generator, dim: int) -> TransferMatrix:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return TransferMatrix(q * (d / np.abs(d)))


def check_averaging_equivalence(samples: int = DEFAULT_SAMPLES, rng=None) -> SuiteResult:
    """Post-selected N-copy network == evolution under the plain copy average.

    Exercised on Haar-random 4-mode unitaries and on fusion gates at random
    reflectivities, with one- and two-photon inputs.
    """
    rng = np.random.default_rng(DEFAULT_SEED) if rng is None else rng
    inputs = [
        bell_state("psi+"),
        bell_state("phi-"),
        StateVec(4, {(2, 0, 0, 0): _SQRT_HALF, (0, 1, 0, 1): -0.5j, (0, 0, 1, 1): 0.5}),
    ]
    sets = max(1, samples // 5)
    dev = 0.0
    for n_copies in (2, 3):
        for k in range(sets):
            if k % 2 == 0:
                copies = [_haar_unitary(rng, 4) for _ in range(n_copies)]
            else:
                etas = rng.uniform(0.2, 0.8, size=(n_copies, 2))
                copies = [fusion_gate(ex, ey) for ex, ey in etas]
            net = build_averaged_network(copies)
            mean_gate = effective_average(copies)
            for state in inputs:
                kept = postselect_vacuum_ancilla(run_averaged(net, state), net.layout)
                dev = max(dev, max_amplitude_deviation(kept, apply_transfer(mean_gate, state)))
    return SuiteResult("M_N-equivalence", dev < 1e-10, dev, 1e-10)


def check_closed_form(samples: int = DEFAULT_SAMPLES, rng=None) -> SuiteResult:
    """Sweep-engine analyzer metrics vs their closed forms, random draws."""
    rng = np.random.default_rng(DEFAULT_SEED) if rng is None else rng
    dev = 0.0
    for n_copies in (1, 2, 3):
        for trial in range(samples):
            rec = run_bsm_trial(n_copies, 0.3, trial, rng)
            for sim, closed in (("F", "F_closed"), ("P_success", "P_success_closed"), ("F_norm", "F_norm_closed")):
                dev = max(dev, abs(rec.metrics[sim] - rec.metrics[closed]))
    return SuiteResult("closed-form-vs-simulator", dev < 1e-10, dev, 1e-10)


def check_fusion_table(grid: int = 5) -> SuiteResult:
    """Balanced-gate pattern table and the constant parity sum.

    At the balanced point each success pattern fires with probability 1/8,
    the even residual is the (+)-correlated pair and the odd residual the
    (+)-anticorrelated one; across a reflectivity grid the total success
    probability stays pinned at 1/2 with even/odd symmetric in pattern.
    """
    dev = 0.0
    perfect = _fusion_patterns_at(0.5, 0.5)
    targets = {"HH": "phi+", "VV": "phi+", "HV": "psi+", "VH": "psi+"}
    for label, bell in targets.items():
        outcome = perfect[label]
        dev = max(dev, abs(outcome.probability - 0.125))
        conditional = fidelity(outcome.residual, bell_state(bell)) / outcome.probability
        dev = max(dev, abs(1.0 - conditional))
    for ex in np.linspace(0.05, 0.95, grid):
        for ey in np.linspace(0.05, 0.95, grid):
            out = _fusion_patterns_at(float(ex), float(ey))
            p = {lbl: o.probability for lbl, o in out.items()}
            dev = max(dev, abs(sum(p.values()) - 0.5))
            dev = max(dev, abs(p["HH"] - p["VV"]), abs(p["HV"] - p["VH"]))
    return SuiteResult("fusion-pattern-table", dev < 1e-12, dev, 1e-12)


def _fusion_patterns_at(eta_x: float, eta_y: float):
    net = build_averaged_network([fusion_gate(eta_x, eta_y)], n_passthrough=4)
    kept = postselect_vacuum_ancilla(run_averaged(net, _fusion_input()), net.layout)
    return fusion_outcomes(kept, (0, 1, 2, 3))


def check_bsm_maps(samples: int = DEFAULT_SAMPLES, rng=None) -> SuiteResult:
    """Balanced-analyzer Bell-state images, plus psi- invariance off balance."""
    rng = np.random.default_rng(DEFAULT_SEED) if rng is None else rng
    dev = 0.0
    for label in BELL_LABELS:
        out = apply_transfer(bsm_matrix(0.5, 0.5), bell_state(label))
        dev = max(dev, phase_aligned_deviation(out, BSM_MAP_TARGETS[label]))
    psi_minus = bell_state("psi-")
    for eta in rng.uniform(0.0, 1.0, size=samples):
        out = apply_transfer(bsm_matrix(float(eta), float(eta)), psi_minus)
        dev = max(dev, max_amplitude_deviation(out, psi_minus))
    return SuiteResult("bsm-state-maps", dev < 1e-12, dev, 1e-12)


def check_table2() -> SuiteResult:
    """Click-pattern support sets at eta = 1/2 and at eta = 0.3.

    The deviation is the largest click probability on any blank cell, i.e.
    on a pattern outside the expected support.
    """
    dev = 0.0
    mismatches = []
    for label in BELL_LABELS:
        for eta, expected in ((0.5, TABLE2_TICKS[label]), (0.3, TABLE2_TICKS[label] | TABLE2_CROSSES[label])):
            probs = pattern_probabilities(label, eta, eta)
            support = {pat for pat, prob in probs.items() if prob > 1e-12}
            dev = max(dev, max(prob for pat, prob in probs.items() if pat not in expected))
            if support != expected:
                mismatches.append(f"{label}@{eta}: {sorted(support)} != {sorted(expected)}")
    passed = not mismatches and dev < 1e-12
    return SuiteResult("table2-support", passed, dev, 1e-12, "; ".join(mismatches))


def check_perfect_sweep() -> SuiteResult:
    """Noise-free trials land exactly on the analytic values for N up to 3."""
    rng = np.random.default_rng(DEFAULT_SEED)
    dev = 0.0
    for n_copies in (1, 2, 3):
        rec = run_fusion_trial(n_copies, 0.0, 0, rng)
        dev = max(dev, abs(rec.metrics["P_HH"] - 0.125))
        dev = max(dev, abs(rec.metrics["P_single"] - 0.5))
        dev = max(dev, abs(rec.metrics["F_HH_norm"] - 1.0))
        dev = max(dev, rec.metrics["trace_distance"])
        bsm = run_bsm_trial(n_copies, 0.0, 0, rng)
        dev = max(dev, abs(bsm.metrics["P_success"] - 1.0))
        dev = max(dev, abs(bsm.metrics["F_norm"] - 1.0))
    return SuiteResult("perfect-point-values", dev < 1e-10, dev, 1e-10)


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
