"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Each test evaluates one criterion end to end, prints a single line of the form
``ACCEPTANCE 07 averaging-improves-fidelity: PASS`` to the live terminal, then
asserts. Statistical criteria pin the exact seeds, sample counts, and noise
grids they are defined with; point criteria pin analytic values.
"""

import math

import numpy as np
import pytest

from avgfusion.averaging import build_averaged_network, postselect_vacuum_ancilla, run_averaged
from avgfusion.cli import main as cli_main
from avgfusion.detection import BSM_MAP_TARGETS, BSM_PATTERNS, DetectionPattern, fusion_outcomes, project_pattern
from avgfusion.fock import StateVec, TransferMatrix, apply_transfer, norm_sq
from avgfusion.interferometers import bsm_matrix, direct_sum, effective_average, fusion_gate
from avgfusion.metrics import BELL_LABELS, bell_state, fidelity
from avgfusion.sweep import (
    SweepConfig,
    run_cell,
    run_sweep,
    sample_reflectivity,
    trial_rng,
)
from avgfusion.verify import _fusion_input


def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _standard_error(values: np.ndarray) -> float:
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def _cell_stats(result, metric: str, n: int, m: float) -> tuple[float, float]:
    values = next(c for c in result.cells if (c.n_copies, c.m) == (n, m)).metrics[metric]
    return float(values.mean()), _standard_error(values)


# --- criterion 1 -----------------------------------------------------------


def test_01_perfect_fusion_values(capsys):
    dev = 0.0
    for n in (1, 2, 3):
        trial = run_cell("fusion", 0.0, sample_reflectivity(trial_rng(42, "fusion", n, 0, 0), 0.0, (1, 2, n))).metrics
        dev = max(dev, abs(trial["P_HH"][0] - 0.125))
        dev = max(dev, abs(trial["P_single"][0] - 0.5))
        dev = max(dev, abs(trial["F_HH_norm"][0] - 1.0))

        copies = [fusion_gate(0.5, 0.5)] * n
        net = build_averaged_network(copies, n_passthrough=4)
        kept = postselect_vacuum_ancilla(run_averaged(net, _fusion_input()), net.layout)
        outcomes = fusion_outcomes(kept, (0, 1, 2, 3))
        even_target = bell_state("phi+")  # (|HH> + |VV>)/sqrt(2) in dual rail
        for label in ("HH", "VV"):
            out = outcomes[label]
            conditional = fidelity(out.residual, even_target) / out.probability
            dev = max(dev, abs(conditional - 1.0))
    _report(capsys, 1, "perfect-fusion-values", dev < 1e-10, f"max dev {dev:.2e}")


# --- criterion 2 -----------------------------------------------------------


def test_02_parity_sum_law(capsys):
    grid = np.linspace(0.05, 0.95, 10)
    passthrough = TransferMatrix(np.eye(4))
    dev = 0.0
    for eta_x in grid:
        for eta_y in grid:
            gate = direct_sum([fusion_gate(eta_x, eta_y), passthrough])
            state = apply_transfer(gate, _fusion_input())
            p = {k: v.probability for k, v in fusion_outcomes(state, (0, 1, 2, 3)).items()}
            dev = max(dev, abs(sum(p.values()) - 0.5))
            dev = max(dev, abs(p["HH"] - p["VV"]))
            dev = max(dev, abs(p["HV"] - p["VH"]))
    _report(capsys, 2, "parity-sum-law", dev < 1e-12, f"max dev {dev:.2e} on 10x10 grid")


# --- criterion 3 -----------------------------------------------------------

_HALF = 1.0 / math.sqrt(2.0)

#: Balanced-analyzer images of the four dual-rail Bell states, each fixed up
#: to one global phase.
_ANALYZER_MAPS = {
    "psi+": {(1, 1, 0, 0): -_HALF, (0, 0, 1, 1): _HALF},
    "psi-": {(1, 0, 0, 1): _HALF, (0, 1, 1, 0): -_HALF},
    "phi+": {(2, 0, 0, 0): -0.5, (0, 2, 0, 0): -0.5, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): 0.5},
    "phi-": {(2, 0, 0, 0): -0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): -0.5},
}


def _phase_aligned_dev(state: StateVec, target: dict) -> float:
    anchor = max(target, key=lambda k: abs(target[k]))
    got = state.amplitude(anchor)
    if abs(got) < 1e-300:
        return float("inf")
    phase = (target[anchor] / abs(target[anchor])) / (got / abs(got))
    kets = set(target) | set(state.kets())
    return max(abs(phase * state.amplitude(k) - target.get(k, 0.0)) for k in kets)


def test_03_bsm_state_maps(capsys):
    balanced = bsm_matrix(0.5, 0.5)
    dev = 0.0
    for label, target in _ANALYZER_MAPS.items():
        image = apply_transfer(balanced, bell_state(label))
        dev = max(dev, _phase_aligned_dev(image, target))

    rng = np.random.default_rng(2024)
    psi_minus = bell_state("psi-")
    target = dict(psi_minus.items())
    for eta in rng.uniform(0.0, 1.0, size=20):
        image = apply_transfer(bsm_matrix(eta, eta), psi_minus)
        dev = max(dev, _phase_aligned_dev(image, target))
    _report(capsys, 3, "bsm-state-maps", dev < 1e-12, f"max amplitude dev {dev:.2e}")


# --- criterion 4 -----------------------------------------------------------

_TICKS = {
    "psi+": {"ab", "cd"},
    "psi-": {"ad", "bc"},
    "phi+": {"a2", "b2", "c2", "d2"},
    "phi-": {"a2", "b2", "c2", "d2"},
}
_CROSSES = {
    "psi+": {"ad", "bc"},
    "psi-": set(),
    "phi+": {"ac", "bd"},
    "phi-": {"ac", "bd"},
}


def _pattern_probs(label: str, eta: float) -> dict[str, float]:
    state = apply_transfer(bsm_matrix(eta, eta), bell_state(label))
    return {
        name: project_pattern(state, DetectionPattern((0, 1, 2, 3), counts))[1]
        for name, counts in BSM_PATTERNS.items()
    }


def test_04_table2_reproduction(capsys):
    ok = True
    blank_dev = 0.0
    for label in BELL_LABELS:
        for eta, expected in ((0.5, _TICKS[label]), (0.3, _TICKS[label] | _CROSSES[label])):
            probs = _pattern_probs(label, eta)
            support = {name for name, p in probs.items() if p > 1e-12}
            ok &= support == expected
            blank_dev = max(
                blank_dev,
                max((p for name, p in probs.items() if name not in expected), default=0.0),
            )
    _report(
        capsys, 4, "table2-reproduction",
        ok and blank_dev < 1e-12,
        f"support sets exact, max blank-cell probability {blank_dev:.2e}",
    )


# --- criterion 5 -----------------------------------------------------------

_PAIRS = {
    2: [(1, 2)],
    3: [(1, 2), (1, 3), (2, 3)],
    4: [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    5: [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
}


def _pair_sum(etas, pairs):
    return sum(
        math.sqrt(1 - etas[i - 1]) * math.sqrt(1 - etas[j - 1])
        + math.sqrt(etas[i - 1]) * math.sqrt(etas[j - 1])
        for i, j in pairs
    )


def _psuccess_expanded(n, eta_h, eta_v):
    """Term-by-term pairwise expansions of the success probability (the
    five-copy pair set is the symmetric one: every unordered pair once)."""
    h, v = _pair_sum(eta_h, _PAIRS[n]), _pair_sum(eta_v, _PAIRS[n])
    if n == 2:
        return (1 + h) * (1 + v) / 4
    if n == 3:
        return (3 + 2 * h) * (3 + 2 * v) / 81
    if n == 4:
        return (2 + h) * (2 + v) / 64
    if n == 5:
        return (5 + 2 * h) * (5 + 2 * v) / 625
    raise ValueError(n)


def _fidelity_rootsum(n, eta_h, eta_v):
    """Sum-of-roots fidelity bracket, scaled by the 1/n^4 mode-count factor."""
    sh = sum(math.sqrt(e) for e in eta_h)
    shc = sum(math.sqrt(1 - e) for e in eta_h)
    sv = sum(math.sqrt(e) for e in eta_v)
    svc = sum(math.sqrt(1 - e) for e in eta_v)
    return (sh * svc + shc * sv) ** 2 / n**4


def _simulate_bsm(eta_h, eta_v):
    copies = [bsm_matrix(eh, ev) for eh, ev in zip(eta_h, eta_v)]
    net = build_averaged_network(copies)
    kept = postselect_vacuum_ancilla(run_averaged(net, bell_state("psi+")), net.layout)
    return fidelity(kept, StateVec(4, BSM_MAP_TARGETS["psi+"])), norm_sq(kept)


def test_05_closed_form_cross_validation(capsys):
    rng = np.random.default_rng(777)
    dev = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(100):
            eta_h = tuple(rng.uniform(0, 1, size=n))
            eta_v = tuple(rng.uniform(0, 1, size=n))
            f_sim, p_sim = _simulate_bsm(eta_h, eta_v)
            dev = max(dev, abs(p_sim - _psuccess_expanded(n, eta_h, eta_v)))
            dev = max(dev, abs(f_sim - _fidelity_rootsum(n, eta_h, eta_v)))
    _report(
        capsys, 5, "closed-form-cross-validation", dev < 1e-10,
        f"max |sim - analytic| {dev:.2e} over 100 draws x N in 2..5",
    )


# --- criterion 6 -----------------------------------------------------------


def _amplitude_dev(a: StateVec, b: StateVec) -> float:
    kets = set(a.kets()) | set(b.kets())
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in kets), default=0.0)


def test_06_average_operator_oracle(capsys):
    rng = np.random.default_rng(606)
    passthrough = TransferMatrix(np.eye(4))
    state_in = _fusion_input()
    dev = 0.0
    for n in (2, 3, 4):
        for _ in range(50):
            etas = rng.uniform(0.2, 0.8, size=(n, 2))
            copies = [fusion_gate(ex, ey) for ex, ey in etas]
            net = build_averaged_network(copies, n_passthrough=4)
            kept = postselect_vacuum_ancilla(run_averaged(net, state_in), net.layout)
            oracle = apply_transfer(
                direct_sum([effective_average(copies), passthrough]), state_in
            )
            dev = max(dev, _amplitude_dev(kept, oracle))
    _report(
        capsys, 6, "average-operator-oracle", dev < 1e-10,
        f"max amplitude dev {dev:.2e} over 50 copy sets x N in 2..4",
    )


# --- criteria 7 and 8 (shared sweep) ----------------------------------------


@pytest.fixture(scope="module")
def fusion_sweep():
    cfg = SweepConfig(
        experiment="fusion",
        n_copies_list=(1, 2, 3),
        m_grid=(0.1, 0.2, 0.3, 0.4),
        samples=200,
        master_seed=42,
    )
    return run_sweep(cfg)


def test_07_averaging_improves_fidelity(capsys, fusion_sweep):
    ok = True
    worst = float("inf")
    for m in fusion_sweep.config.m_grid:
        stats = {
            n: _cell_stats(fusion_sweep, "F_HH_norm", n, m)
            for n in fusion_sweep.config.n_copies_list
        }
        for low, high in ((1, 2), (2, 3)):
            gap = stats[high][0] - stats[low][0]
            gap_se = math.hypot(stats[low][1], stats[high][1])
            ok &= gap > 2 * gap_se
            worst = min(worst, gap / gap_se)
    _report(
        capsys, 7, "averaging-improves-fidelity", ok,
        f"every N step increases mean F_HH_norm; weakest gap {worst:.1f} SE",
    )


def test_08_success_probability_cost(capsys, fusion_sweep):
    ok = True
    worst = float("inf")
    for m in fusion_sweep.config.m_grid:
        stats = {
            n: _cell_stats(fusion_sweep, "P_single", n, m)
            for n in fusion_sweep.config.n_copies_list
        }
        for low, high in ((1, 2), (2, 3)):
            gap = stats[low][0] - stats[high][0]
            gap_se = math.hypot(stats[low][1], stats[high][1])
            ok &= gap > 2 * gap_se
            worst = min(worst, gap / gap_se)
    _report(
        capsys, 8, "success-probability-cost", ok,
        f"mean P_single strictly decreasing in N; weakest gap {worst:.1f} SE",
    )


# --- criterion 9 -----------------------------------------------------------


def test_09_trace_distance_convergence(capsys):
    cfg = SweepConfig(
        experiment="trace-distance",
        n_copies_list=(1, 2, 3, 4, 5, 6),
        m_grid=(0.2,),
        samples=50,
        master_seed=7,
    )
    result = run_sweep(cfg)
    stats = {n: _cell_stats(result, "trace_distance", n, 0.2) for n in cfg.n_copies_list}
    means = [stats[n][0] for n in cfg.n_copies_list]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    gap = stats[1][0] - stats[3][0]
    gap_se = math.hypot(stats[1][1], stats[3][1])
    _report(
        capsys, 9, "trace-distance-convergence",
        decreasing and gap > 2 * gap_se,
        f"means strictly decreasing over N=1..6; N1-N3 gap {gap / gap_se:.1f} SE",
    )


# --- criterion 10 ----------------------------------------------------------


def test_10_bsm_normalized_fidelity(capsys):
    cfg = SweepConfig(
        experiment="bsm",
        n_copies_list=(1, 2, 3),
        m_grid=(0.0, 0.1, 0.2, 0.3, 0.4),
        samples=200,
        master_seed=42,
    )
    result = run_sweep(cfg)
    monotone = True
    for m in cfg.m_grid:
        means = [_cell_stats(result, "F_norm", n, m)[0] for n in cfg.n_copies_list]
        monotone &= means[0] <= means[1] <= means[2]
    p_dev = max(
        np.max(np.abs(c.metrics["P_success"] - 1.0)) for c in result.cells if c.n_copies == 1
    )
    _report(
        capsys, 10, "bsm-normalized-fidelity",
        monotone and p_dev < 1e-12,
        f"mean F_norm non-decreasing at every m; max |P_success(N=1)-1| {p_dev:.1e}",
    )


# --- criterion 11 ----------------------------------------------------------


def test_11_deterministic_csv(capsys, tmp_path):
    trace_flags = ["--n-copies", "1,2,3,4,5,6", "--m", "0.2", "--samples", "50", "--seed", "7"]
    fusion_flags = ["--n-copies", "1,2", "--m-grid", "0:0.2:0.1", "--samples", "10", "--seed", "42"]
    ok = True
    for command, flags in (("trace-distance", trace_flags), ("fusion-sweep", fusion_flags)):
        first, second = tmp_path / f"{command}-1.csv", tmp_path / f"{command}-2.csv"
        assert cli_main([command, *flags, "--out", str(first)]) == 0
        assert cli_main([command, *flags, "--out", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
    _report(capsys, 11, "deterministic-csv", ok, "repeated runs byte-identical")
