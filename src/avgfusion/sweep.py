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

Every (N, m) cell draws its reflectivities from one independent,
deterministically derived numpy stream keyed by (master seed, experiment, N,
m index), so results do not depend on execution order. Trial t reads draws
t * 2N to t * 2N + 2N - 1 of its cell's stream, so a run with more samples
extends each cell and keeps the earlier trials. :func:`trial_rng` gives the
stream positioned at any one trial; a sweep draws each cell in one call from
the stream at trial 0.

Sweeps compute from the mean matrix, not from the N-copy network. The
post-selected network acts on the gate modes as M_N = (1/N) sum_r U_r
(see :mod:`averaging`), and every input here puts exactly two photons on the
gate modes, one photon per input mode. So the click amplitudes A[p, i, j]
of photons entering modes i and j are 2x2 permanents of M_N (over sqrt(2) for
a doubly occupied output mode), and each experiment reads an index slice of
them: fusion the 2x2 Kraus block of each pattern p, which maps the phi+ (x)
phi+ spectator rails to the heralded pair; bsm the psi+ amplitudes
(A[p, 0, 3] + A[p, 1, 2]) / sqrt(2).
A sweep *draws* each cell's reflectivities in one call, then makes one
engine call per copy count N: the (S, 2, N) draws of its C cells (one per m)
are stacked to C * S trials, M_N is built for every trial straight from
its copies' reflectivities (:mod:`interferometers` averages per-copy
features, never copy matrices), and the *metrics* are computed for all
trials at once and split back into C cells. Each metric is computed trial by
trial, so a stacked cell equals a one-cell run bit for bit.
:func:`run_cell` is the engine's boundary, its one-cell case and its only
check: it reads N from the (S, 2, N) reflectivities and checks them, m and
the experiment; the bsm metrics read M_N and the closed forms from one set of
feature copy sums. The cell, with its trial axis intact, is what a sweep
returns (:class:`Cell`); its per-column mean and std are computed when the
cell is made, so the CSV and the plots only format it.
This module builds no Fock state: the full Fock-space network
(:mod:`averaging`, :func:`fock.apply_transfer`) and its input states live in
the oracle that ``verify`` and the tests check this engine against.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .closed_form import _bsm_closed
from .detection import BSM_MAP_TARGETS, BSM_PATTERNS, FUSION_PATTERNS
from .fock import _int_tuple
from .interferometers import _V_SIGNS, _bsm_matrices, _check_reflectivity, _features, _fusion_gates
from .metrics import _SQRT_HALF, fidelity, normalized_fidelity, trace_distance

EXPERIMENTS = ("fusion", "bsm", "trace-distance")


def _experiment_id(experiment: str) -> int:
    """The stream id of ``experiment``, which must be one of :data:`EXPERIMENTS`."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    return EXPERIMENTS.index(experiment)


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

    def __post_init__(self):
        _experiment_id(self.experiment)
        object.__setattr__(self, "n_copies_list", _int_tuple(self.n_copies_list, "n_copies_list"))
        for name in ("samples", "master_seed"):
            object.__setattr__(self, name, *_int_tuple((getattr(self, name),), name))
        if not self.n_copies_list or any(n < 1 for n in self.n_copies_list):
            raise ValueError(f"n_copies_list must be non-empty positive integers, got {self.n_copies_list}")
        if not self.m_grid:
            raise ValueError("m_grid must not be empty")
        for m in self.m_grid:
            _check_m(m)
        if len(set(self.n_copies_list)) < len(self.n_copies_list) or len(set(self.m_grid)) < len(self.m_grid):
            raise ValueError(f"copy counts and m values must not repeat, got {self.n_copies_list} and {self.m_grid}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")


@dataclass(frozen=True)
class Cell:
    """One (N, m) cell of a sweep, its S trials along the first axis.

    ``etas`` has shape (S, 2, N): per trial, the N first-layer then the N
    second-layer reflectivities. ``metrics`` maps each metric column to an
    (S,) array. A NaN marks a trial where the metric is undefined (a
    conditional fidelity whose heralding probability is 0).

    ``mean`` and ``std`` map each column to its mean and sample standard
    deviation (ddof=1; 0.0 for a single defined trial) over the defined
    trials, NaN when there are none. They are computed when the cell is
    made, so later writes to ``metrics`` do not change them.
    """

    n_copies: int
    m: float
    etas: np.ndarray
    metrics: dict[str, np.ndarray]
    mean: dict[str, float] = field(init=False)
    std: dict[str, float] = field(init=False)

    def __post_init__(self):
        # numpy reduces each contiguous row of the (columns, S) table with
        # the pairwise sums of a 1-D column: the bits are those of _mean_std
        table = np.stack(list(self.metrics.values()))
        if table.shape[1] < 2 or np.isnan(table).any():
            means, stds = zip(*map(_mean_std, self.metrics.values()))
        else:
            means, stds = table.mean(axis=1).tolist(), table.std(axis=1, ddof=1).tolist()
        object.__setattr__(self, "mean", dict(zip(self.metrics, means)))
        object.__setattr__(self, "std", dict(zip(self.metrics, stds)))


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    defined = values[~np.isnan(values)]
    if not len(defined):
        return math.nan, math.nan
    return float(defined.mean()), float(defined.std(ddof=1)) if len(defined) > 1 else 0.0


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[Cell, ...]


def sample_reflectivity(rng: np.random.Generator, m: float, size=None):
    """Draw reflectivities uniform on [0.5 - m, 0.5 + m].

    Returns one float, or with ``size`` an array of that shape holding the
    values (in C order) that as many scalar draws would give. m = 0 draws like
    any other m and gives exactly 0.5.
    """
    _check_m(m)
    return rng.uniform(0.5 - m, 0.5 + m, size)


def _check_m(m) -> None:
    if not 0.0 <= m <= 0.5:
        raise ValueError(f"noise half-width m must lie in [0, 0.5], got {m}")


def trial_rng(master_seed: int, experiment: str, n_copies: int, m_index: int, trial: int) -> np.random.Generator:
    """The RNG of one trial: its (N, m) cell's stream, advanced to the trial.

    The stream is keyed by (master seed, experiment, N, m index) rather than
    spawned sequentially, and trial t reads its 2 * N draws from position
    t * 2 * N, so any subset of trials can run in any order and still draw
    identical values. ``trial`` must be a non-negative integer.
    """
    trial = operator.index(trial)
    if trial < 0:
        raise ValueError(f"trial must be >= 0, got {trial}")
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, _experiment_id(experiment), n_copies, m_index)))
    rng.bit_generator.advance(trial * 2 * operator.index(n_copies))
    return rng


#: Every two-photon click pattern on the four gate modes, and the two modes
#: each one fills (the same mode twice for a double click).
_PATTERNS = tuple(BSM_PATTERNS.values())
_PATTERN_MODES = np.array([[k for k, c in enumerate(p) for _ in range(c)] for p in _PATTERNS]).T
_BUNCHING = np.where(_PATTERN_MODES[0] == _PATTERN_MODES[1], _SQRT_HALF, 1.0)

#: The balanced gate under the row signs that make every fusion M_N symmetric,
#: so ``trace_distance`` takes its symmetric-eigenvalue path.
_SIGNED_BALANCED = _V_SIGNS * _fusion_gates([0.5], [0.5])

#: phi+ on a fusion Kraus block's diagonal (HH, VV); the analyzer's psi+ image per pattern.
_PHI_PLUS_DIAGONAL = np.full(2, _SQRT_HALF)
_BSM_TARGET = np.array([BSM_MAP_TARGETS["psi+"].get(p, 0.0) for p in _PATTERNS])


def _pair_amplitudes(mean: np.ndarray, i, j) -> np.ndarray:
    """Click amplitudes of one photon entering mode i and one entering mode j.

    ``mean`` has shape (S, 4, 4) and the mode indices broadcast to a shape B.
    Entry (s, p, *b) is the permanent M[k,i]M[l,j] + M[l,i]M[k,j] of trial s
    for the modes (k, l) of pattern p of ``_PATTERNS``, over sqrt(2) if k = l.
    """
    shape = (-1,) + (1,) * np.broadcast(i, j).ndim
    k, l = _PATTERN_MODES.reshape(2, *shape)
    m = mean.transpose(1, 2, 0).copy()  # trials last: each product runs along contiguous trials
    amp = (m[k, i] * m[l, j] + m[l, i] * m[k, j]) * _BUNCHING.reshape(*shape, 1)
    return np.moveaxis(amp, -1, 0).copy()  # C order: the metrics sum along contiguous axes


def _fusion_metrics(etas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fusion on Bell (x) Bell with 4 passthrough modes, one trial per row of ``etas``.

    Each phi+ (x) phi+ ket has amplitude 1/sqrt(2) * 1/sqrt(2), so pattern p heralds
    the spectators in the Kraus block ``kraus[:, p]``, rows (V1, H1) and columns
    (V4, H4): the sorted spectator-ket order, which fixes how P_HH and P_single sum.
    """
    mean = _fusion_gates(etas[:, 0], etas[:, 1])
    kraus = _SQRT_HALF * _SQRT_HALF * _pair_amplitudes(mean, [[1], [0]], [[3, 2]])
    prob = np.sum(np.abs(kraus) ** 2, axis=(-2, -1))
    hh = _PATTERNS.index(FUSION_PATTERNS["HH"])
    f_hh = fidelity(np.diagonal(kraus[:, hh], axis1=-2, axis2=-1), _PHI_PLUS_DIAGONAL)
    p_hh = prob[:, hh]
    heralded = p_hh > 0
    f_hh_norm = np.full(len(p_hh), math.nan)
    f_hh_norm[heralded] = normalized_fidelity(f_hh[heralded], p_hh[heralded])
    p_single = sum(prob[:, _PATTERNS.index(p)] for p in FUSION_PATTERNS.values())
    return f_hh, p_hh, f_hh_norm, p_single, trace_distance(_V_SIGNS * mean, _SIGNED_BALANCED)


def _bsm_metrics(etas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bell-state analyzer on a psi+ input, one trial per row of ``etas``."""
    sums = _features(etas[:, 0], etas[:, 1]).sum(axis=-2)
    amp = _SQRT_HALF * _pair_amplitudes(_bsm_matrices(sums / etas.shape[-1]), [0, 1], [3, 2])
    out = amp[..., 0] + amp[..., 1]
    f = fidelity(out, _BSM_TARGET)
    p_success = np.sum(np.abs(out) ** 2, axis=-1)
    return f, p_success, normalized_fidelity(f, p_success), *_bsm_closed(sums, etas.shape[-1])


def _trace_metrics(etas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Matrix level: distance of the copy average to the balanced gate."""
    return (trace_distance(_V_SIGNS * _fusion_gates(etas[:, 0], etas[:, 1]), _SIGNED_BALANCED),)


#: Each metric function returns its (S,) columns in ``METRIC_COLUMNS`` order.
_METRICS = {
    "fusion": _fusion_metrics,
    "bsm": _bsm_metrics,
    "trace-distance": _trace_metrics,
}


def _metric_columns(experiment: str, etas: np.ndarray) -> dict[str, np.ndarray]:
    """Each metric column of ``experiment`` over the trials of ``etas`` (S, 2, N), unchecked."""
    return dict(zip(METRIC_COLUMNS[experiment], _METRICS[experiment](etas), strict=True))


def run_cell(experiment: str, m: float, etas: np.ndarray) -> Cell:
    """Every trial of one (N, m) cell from its reflectivities ``etas``.

    ``etas`` must be a float array of shape (S >= 1, 2, N >= 1) with values in
    [0, 1]; N is read from its last axis. ``m`` must lie in [0, 0.5] and
    ``experiment`` in :data:`EXPERIMENTS`. Nothing below this check checks
    the reflectivities again.
    """
    return _run_cells(experiment, (m,), np.asarray(etas, dtype=float)[None])[0]


def _run_cells(experiment: str, ms, etas: np.ndarray) -> list[Cell]:
    """One engine call for the cells of one copy count: cell i has m ``ms[i]``
    and the reflectivities ``etas[i]`` of the (C, S, 2, N) stack."""
    _experiment_id(experiment)
    for m in ms:
        _check_m(m)
    etas = _check_reflectivity("etas", etas)
    if etas.ndim != 4 or etas.shape[2] != 2 or 0 in etas.shape:
        raise ValueError(f"etas must have shape (S >= 1, 2, N >= 1), got {etas.shape[1:]}")
    c, s, _, n = etas.shape
    values = _metric_columns(experiment, etas.reshape(c * s, 2, n))
    metrics = {col: v.reshape(c, s) for col, v in values.items()}
    return [Cell(n, m, etas[i], {col: v[i] for col, v in metrics.items()}) for i, m in enumerate(ms)]


# The single-trial runners draw from ``rng`` as one trial of a sweep cell
# does; ``trial`` only keeps their call signature and is not recorded. The
# package itself no longer calls them, only ``perfbench/setup_probe.py`` and
# the tests do; they go when that probe moves to ``run_cell`` (ROADMAP item 1).


def run_fusion_trial(n_copies: int, m: float, trial: int, rng: np.random.Generator) -> Cell:
    """One averaged-fusion trial on Bell⊗Bell with 4 passthrough modes, as a one-trial cell."""
    return run_cell("fusion", m, sample_reflectivity(rng, m, (1, 2, n_copies)))


def run_bsm_trial(n_copies: int, m: float, trial: int, rng: np.random.Generator) -> Cell:
    """One averaged Bell-state-analyzer trial on a psi+ input, as a one-trial cell."""
    return run_cell("bsm", m, sample_reflectivity(rng, m, (1, 2, n_copies)))


def run_trace_trial(n_copies: int, m: float, trial: int, rng: np.random.Generator) -> Cell:
    """One matrix-level trial, as a one-trial cell: copy average vs balanced gate."""
    return run_cell("trace-distance", m, sample_reflectivity(rng, m, (1, 2, n_copies)))


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every (N, m) cell; :func:`write_csv` writes the result.

    The reflectivities of each cell come from its own stream in one draw; the
    cells of each copy count N then run in one engine call.
    Cells come out N-major, then in ``m_grid`` order.
    """
    cells = []
    for n in cfg.n_copies_list:
        etas = np.stack([
            sample_reflectivity(trial_rng(cfg.master_seed, cfg.experiment, n, mi, 0), m, (cfg.samples, 2, n))
            for mi, m in enumerate(cfg.m_grid)
        ])
        cells += _run_cells(cfg.experiment, cfg.m_grid, etas)
    return SweepResult(cfg, tuple(cells))


_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    """Round-trip (17-significant-digit) float serialization."""
    return _FLOAT % x


def write_text_atomic(path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` (UTF-8, no newline translation).

    The text goes to a temporary file in the target directory, which is then
    renamed over ``path``, so a failed write leaves any previous file as it
    was and no temporary file behind.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(result: SweepResult, path) -> None:
    """Write per-trial rows plus mean/std rows per cell (UTF-8, LF endings).

    An undefined metric of a trial is written as ``nan``. Aggregate rows leave
    the trial and eta columns empty and set row_kind to ``mean`` or ``std``;
    trial rows set it to ``trial``. No field needs CSV quoting: names, numbers
    and ``;``-joined reflectivities hold no comma, quote or newline. The rows
    go through :func:`write_text_atomic`, so a failed write leaves any
    previous file as it was.
    """
    write_text_atomic(path, _csv_chunks(result))


def _csv_chunks(result: SweepResult):
    cfg = result.config
    columns = METRIC_COLUMNS[cfg.experiment]
    yield ",".join(["experiment", "N", "m", "trial", "eta", *columns, "row_kind"]) + "\n"
    for cell in result.cells:
        key = f"{cfg.experiment},{cell.n_copies},{_fmt(cell.m)}"
        eta_fmt = ";".join([_FLOAT] * cell.etas[0].size)
        row_fmt = f"{key},%d,{eta_fmt}," + ",".join([_FLOAT] * len(columns)) + ",trial\n"
        draws = cell.etas.reshape(len(cell.etas), -1).tolist()
        values = zip(*(cell.metrics[c].tolist() for c in columns))
        yield "".join(row_fmt % (t, *d, *v) for t, (d, v) in enumerate(zip(draws, values)))
        for kind, stats in (("mean", cell.mean), ("std", cell.std)):
            yield f"{key},,," + ",".join(_fmt(stats[c]) for c in columns) + f",{kind}\n"
