"""Seeded Monte-Carlo sweeps over reflectivity noise, with CSV output.

Three experiments share one harness:

``fusion``
    N-copy averaged fusion gate acting on two dual-rail Bell pairs, with the
    spectator rails passed through. Records the HH-pattern overlap and
    probability, the conditional fidelity, the total success probability over
    all four patterns, and the gate-level trace distance to the balanced gate.
``bsm``
    N-copy averaged Bell-state analyzer fed a psi+ pair. Records overlap,
    success probability and conditional fidelity alongside their closed-form
    counterparts.
``trace-distance``
    Matrix-level only: trace distance between the mean of the sampled gate
    copies and the balanced fusion gate.

Every trial draws its reflectivities from an independent, deterministically
derived RNG stream keyed by (master seed, experiment, N, m index, trial), so
results do not depend on execution order.

Sweeps compute from the mean matrix, not from the N-copy network. The
post-selected network acts on the gate modes as M_N = (1/N) sum_r U_r
(see :mod:`averaging`), and every input here puts exactly two photons on the
gate modes, one photon per input mode. So each click-pattern amplitude is a
2x2 permanent of M_N, divided by sqrt(2) for a doubly occupied output mode.
One (N, m) cell runs in three stages: *draw* the reflectivities of every
trial from its own stream, build the *copies* as one (S, N, 4, 4) array and
average them to M_N of shape (S, 4, 4), and compute the *metrics* for all S
trials at once. The full Fock-space network (:mod:`averaging`,
:func:`fock.apply_transfer`) stays the oracle that ``verify`` and the tests
check this engine against.
"""

from __future__ import annotations

import csv
import math
import os
import secrets
from dataclasses import dataclass
from functools import cache

import numpy as np

from .closed_form import (
    ReflectivityDraw,
    bsm_fidelity_closed,
    bsm_fnorm_closed,
    bsm_psuccess_closed,
)
from .detection import BSM_MAP_TARGETS, BSM_PATTERNS, FUSION_PATTERNS
from .fock import StateVec, tensor
from .interferometers import bsm_matrices, fusion_gates
from .metrics import bell_state, fidelity, normalized_fidelity, trace_distance

EXPERIMENTS = ("fusion", "bsm", "trace-distance")

_EXPERIMENT_IDS = {"fusion": 0, "bsm": 1, "trace-distance": 2}

METRIC_COLUMNS: dict[str, tuple[str, ...]] = {
    "fusion": ("F_HH", "P_HH", "F_HH_norm", "P_single", "trace_distance"),
    "bsm": ("F", "P_success", "F_norm", "F_closed", "P_success_closed", "F_norm_closed"),
    "trace-distance": ("trace_distance",),
}

#: Metric a quick-look plot of each experiment should show.
DEFAULT_PLOT_METRIC = {
    "fusion": "F_HH_norm",
    "bsm": "F_norm",
    "trace-distance": "trace_distance",
}

@dataclass(frozen=True)
class SweepConfig:
    """One sweep: an experiment evaluated on a grid of (N, m) cells."""

    experiment: str
    n_copies_list: tuple[int, ...]
    m_grid: tuple[float, ...]
    samples: int
    master_seed: int
    out_path: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if not self.n_copies_list or any(n < 1 for n in self.n_copies_list):
            raise ValueError(f"n_copies_list must be non-empty positive integers, got {self.n_copies_list}")
        if not self.m_grid or any(not 0.0 <= m <= 0.5 for m in self.m_grid):
            raise ValueError(f"m values must lie in [0, 0.5], got {self.m_grid}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")


@dataclass(frozen=True)
class TrialRecord:
    """Sampled reflectivities and computed metrics of a single trial."""

    experiment: str
    n_copies: int
    m: float
    trial: int
    etas: tuple[float, ...]
    metrics: dict[str, float]


@dataclass(frozen=True)
class CellSummary:
    """Per-(N, m) aggregate of a sweep: metric means and standard deviations."""

    experiment: str
    n_copies: int
    m: float
    samples: int
    mean: dict[str, float]
    std: dict[str, float]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    trials: tuple[TrialRecord, ...]
    summaries: tuple[CellSummary, ...]

    def cell_trials(self, n_copies: int, m: float) -> tuple[TrialRecord, ...]:
        return tuple(t for t in self.trials if t.n_copies == n_copies and t.m == m)


def sample_reflectivity(rng: np.random.Generator, m: float, size=None):
    """Draw reflectivities uniform on [0.5 - m, 0.5 + m].

    Returns one float, or with ``size`` an array of that shape holding the
    values (in C order) that as many scalar draws would give.
    """
    if not 0.0 <= m <= 0.5:
        raise ValueError(f"noise half-width m must lie in [0, 0.5], got {m}")
    if size is not None:
        return np.full(size, 0.5) if m == 0.0 else rng.uniform(0.5 - m, 0.5 + m, size)
    if m == 0.0:
        return 0.5
    return float(rng.uniform(0.5 - m, 0.5 + m))


def trial_rng(master_seed: int, experiment: str, n_copies: int, m_index: int, trial: int) -> np.random.Generator:
    """Independent RNG stream for one trial, stable under reordering.

    The stream is keyed by the cell coordinates rather than spawned
    sequentially, so any subset of trials can run in any order and still
    draw identical values.
    """
    seq = np.random.SeedSequence(
        (master_seed, _EXPERIMENT_IDS[experiment], n_copies, m_index, trial)
    )
    return np.random.default_rng(seq)


@cache
def _fusion_input() -> StateVec:
    """Two dual-rail phi+ pairs, reordered to (fused rails, spectator rails).

    The raw tensor product lives on (H1,V1,H2,V2,H3,V3,H4,V4); the averaged
    network wants the four fused rails (H2,V2,H3,V3) first and the spectators
    (H1,V1,H4,V4) as passthrough.
    """
    pair = bell_state("phi+")
    raw = tensor(pair, pair)
    order = (2, 3, 4, 5, 0, 1, 6, 7)
    amp = {tuple(ket[i] for i in order): a for ket, a in raw.items()}
    return StateVec(8, amp)


@cache
def _bsm_target() -> StateVec:
    """Balanced-analyzer image of psi+ (up to global phase): (|0011> - |1100>)/sqrt(2)."""
    return StateVec(4, BSM_MAP_TARGETS["psi+"])


#: Every two-photon click pattern on the four gate modes, and the two modes
#: each one fills (the same mode twice for a double click).
_PATTERNS = tuple(BSM_PATTERNS.values())
_PATTERN_MODES = np.array([[k for k, c in enumerate(p) for _ in range(c)] for p in _PATTERNS]).T
_BUNCHING = np.where(_PATTERN_MODES[0] == _PATTERN_MODES[1], 1.0 / math.sqrt(2.0), 1.0)

_BALANCED_FUSION = fusion_gates(0.5, 0.5)


def _pair_amplitudes(mean: np.ndarray, i: int, j: int) -> np.ndarray:
    """Click amplitudes of one photon entering mode i and one entering mode j.

    ``mean`` has shape (..., 4, 4); the result has shape (..., 10), one entry
    per pattern of ``_PATTERNS``: the permanent M[k,i]M[l,j] + M[l,i]M[k,j]
    of the pattern's modes (k, l), divided by sqrt(2) when k = l.
    """
    k, l = _PATTERN_MODES
    amp = mean[..., k, i] * mean[..., l, j] + mean[..., l, i] * mean[..., k, j]
    return amp * _BUNCHING


def _evolve_pairs(mean: np.ndarray, state: StateVec) -> tuple[np.ndarray, list]:
    """Evolve ``state`` under ``mean`` on its first four modes; pass the rest through.

    Every ket of ``state`` must hold one photon in each of two gate modes.
    Returns the amplitudes, shape (..., 10, K), by click pattern and by
    spectator ket, and the K spectator kets (the unmeasured modes).
    """
    spectators = sorted({ket[4:] for ket in state.kets()})
    out = np.zeros(mean.shape[:-2] + (len(_PATTERNS), len(spectators)), dtype=complex)
    for ket, a in state.items():
        if sorted(ket[:4]) != [0, 0, 1, 1]:
            raise ValueError(f"ket {ket} needs one photon in each of two gate modes")
        i, j = (mode for mode in range(4) if ket[mode])
        out[..., spectators.index(ket[4:])] += a * _pair_amplitudes(mean, i, j)
    return out, spectators


def _copy_mean(gates, etas: np.ndarray) -> np.ndarray:
    """M_N of every trial: the copies, shape (S, N, 4, 4), averaged to (S, 4, 4)."""
    return gates(etas[:, 0], etas[:, 1]).mean(axis=1)


def _trial_records(experiment, n_copies, m, first_trial, etas, columns) -> list[TrialRecord]:
    """One record per trial from a cell's etas (S, 2, N) and per-trial metric lists."""
    return [
        TrialRecord(
            experiment, n_copies, m, first_trial + s, tuple(draw),
            {name: values[s] for name, values in columns.items()},
        )
        for s, draw in enumerate(etas.reshape(len(etas), -1).tolist())
    ]


def _fusion_cell(n_copies: int, m: float, first_trial: int, etas: np.ndarray) -> list[TrialRecord]:
    """Fusion trials on Bell (x) Bell with 4 passthrough modes, one per row of ``etas``."""
    mean = _copy_mean(fusion_gates, etas)
    out, spectators = _evolve_pairs(mean, _fusion_input())
    prob = np.sum(np.abs(out) ** 2, axis=-1)
    hh = _PATTERNS.index(FUSION_PATTERNS["HH"])
    phi_plus = bell_state("phi+")
    f_hh = fidelity(out[:, hh], np.array([phi_plus.amplitude(k) for k in spectators])).tolist()
    p_hh = prob[:, hh].tolist()
    columns = {
        "F_HH": f_hh,
        "P_HH": p_hh,
        "F_HH_norm": [normalized_fidelity(f, p) if p > 0 else 0.0 for f, p in zip(f_hh, p_hh)],
        "P_single": sum(prob[:, _PATTERNS.index(p)] for p in FUSION_PATTERNS.values()).tolist(),
        "trace_distance": trace_distance(mean, _BALANCED_FUSION).tolist(),
    }
    return _trial_records("fusion", n_copies, m, first_trial, etas, columns)


def _bsm_cell(n_copies: int, m: float, first_trial: int, etas: np.ndarray) -> list[TrialRecord]:
    """Bell-state-analyzer trials on a psi+ input, one per row of ``etas``."""
    mean = _copy_mean(bsm_matrices, etas)
    out = _evolve_pairs(mean, bell_state("psi+"))[0][..., 0]
    target = np.array([_bsm_target().amplitude(p) for p in _PATTERNS])
    f = fidelity(out, target).tolist()
    p_success = np.sum(np.abs(out) ** 2, axis=-1).tolist()
    draws = [ReflectivityDraw(tuple(h), tuple(v)) for h, v in etas.tolist()]
    columns = {
        "F": f,
        "P_success": p_success,
        "F_norm": [normalized_fidelity(fs, ps) for fs, ps in zip(f, p_success)],
        "F_closed": [bsm_fidelity_closed(d) for d in draws],
        "P_success_closed": [bsm_psuccess_closed(d) for d in draws],
        "F_norm_closed": [bsm_fnorm_closed(d) for d in draws],
    }
    return _trial_records("bsm", n_copies, m, first_trial, etas, columns)


def _trace_cell(n_copies: int, m: float, first_trial: int, etas: np.ndarray) -> list[TrialRecord]:
    """Matrix-level trials: distance of the copy average to the balanced gate."""
    mean = _copy_mean(fusion_gates, etas)
    columns = {"trace_distance": trace_distance(mean, _BALANCED_FUSION).tolist()}
    return _trial_records("trace-distance", n_copies, m, first_trial, etas, columns)


_CELL_FNS = {
    "fusion": _fusion_cell,
    "bsm": _bsm_cell,
    "trace-distance": _trace_cell,
}


def _run_trial(experiment: str, n_copies: int, m: float, trial: int, rng) -> TrialRecord:
    etas = sample_reflectivity(rng, m, (1, 2, n_copies))
    return _CELL_FNS[experiment](n_copies, m, trial, etas)[0]


def run_fusion_trial(n_copies: int, m: float, trial: int, rng: np.random.Generator) -> TrialRecord:
    """One averaged-fusion trial on Bell⊗Bell with 4 passthrough modes."""
    return _run_trial("fusion", n_copies, m, trial, rng)


def run_bsm_trial(n_copies: int, m: float, trial: int, rng: np.random.Generator) -> TrialRecord:
    """One averaged Bell-state-analyzer trial on a psi+ input."""
    return _run_trial("bsm", n_copies, m, trial, rng)


def run_trace_trial(n_copies: int, m: float, trial: int, rng: np.random.Generator) -> TrialRecord:
    """One matrix-level trial: distance of the copy average to the balanced gate."""
    return _run_trial("trace-distance", n_copies, m, trial, rng)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every (N, m) cell, aggregate per cell, optionally write CSV.

    Each cell draws the reflectivities of its trials, in trial order, from
    their own streams and computes all of the cell's trials in one pass.
    """
    cell_fn = _CELL_FNS[cfg.experiment]
    columns = METRIC_COLUMNS[cfg.experiment]
    trials = []
    summaries = []
    for n in cfg.n_copies_list:
        for mi, m in enumerate(cfg.m_grid):
            etas = np.stack([
                sample_reflectivity(trial_rng(cfg.master_seed, cfg.experiment, n, mi, t), m, (2, n))
                for t in range(cfg.samples)
            ])
            chunk = cell_fn(n, m, 0, etas)
            trials += chunk
            mean = {}
            std = {}
            for col in columns:
                values = np.array([t.metrics[col] for t in chunk])
                mean[col] = float(values.mean())
                std[col] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
            summaries.append(CellSummary(cfg.experiment, n, m, cfg.samples, mean, std))

    result = SweepResult(cfg, tuple(trials), tuple(summaries))
    if cfg.out_path is not None:
        write_csv(result, cfg.out_path)
    return result


def _fmt(x: float) -> str:
    """Round-trip (17-significant-digit) float serialization."""
    return "%.17g" % x


def write_csv(result: SweepResult, path) -> None:
    """Write per-trial rows plus mean/std rows per cell (UTF-8, LF endings).

    Aggregate rows leave the trial and eta columns empty and set row_kind to
    ``mean`` or ``std``; trial rows set it to ``trial``. The file is written
    under a temporary name in the target directory and then renamed over
    ``path``, so a failed write leaves any previous file as it was.
    """
    cfg = result.config
    columns = METRIC_COLUMNS[cfg.experiment]
    header = ["experiment", "N", "m", "trial", "eta", *columns, "row_kind"]
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for i, summary in enumerate(result.summaries):
                chunk = result.trials[i * cfg.samples : (i + 1) * cfg.samples]
                for t in chunk:
                    eta = ";".join(_fmt(e) for e in t.etas)
                    row = [t.experiment, t.n_copies, _fmt(t.m), t.trial, eta]
                    row += [_fmt(t.metrics[c]) for c in columns]
                    writer.writerow(row + ["trial"])
                for kind, values in (("mean", summary.mean), ("std", summary.std)):
                    row = [cfg.experiment, summary.n_copies, _fmt(summary.m), "", ""]
                    row += [_fmt(values[c]) for c in columns]
                    writer.writerow(row + [kind])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
