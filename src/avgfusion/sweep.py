"""Seeded Monte-Carlo sweeps over reflectivity noise, with CSV output.

Three experiments share one engine: ``fusion``, an N-copy averaged fusion
gate on two dual-rail Bell pairs; ``bsm``, an N-copy averaged Bell-state
analyzer on psi+, next to its closed forms; and ``trace-distance``, the
matrix-level distance of the copy average to the balanced gate alone.
:data:`METRIC_COLUMNS` names what each records per trial.

Streams: every (N, m) cell draws from its own numpy stream, keyed by
(master seed, experiment, N, m index), so results do not depend on execution
order. Trial t reads draws t * 2N to t * 2N + 2N - 1, so more samples extend
each cell and keep the earlier trials. :func:`trial_rng` positions a stream
at any trial; a sweep draws each cell in one call from trial 0.

Stages: the engine evaluates the mean matrix M_N = (1/N) sum_r U_r, which
the post-selected N-copy network applies to the gate modes, and M_N is
linear in the copy means of the per-copy features (:mod:`interferometers`
derives both). Stage 1 runs once per copy count N on the (S, 2, N) draws of
all its cells and takes those copy means: mean(f f^T) for fusion and
trace-distance, the feature sums and N for bsm. It is the only step that
reads the copy axis. Stage 2 builds M_N from them and every metric column of
every cell, from the 2x2 permanents of M_N per click pattern.

Blocks: stage 2 runs over fixed blocks of ``_BLOCK`` trials that cross copy
counts, into one (columns, trials) table, and one stacked pass over that
table takes every cell's mean and std. Each metric is computed trial by
trial, so neither blocks nor stacking change a bit, and the largest arrays
the engine holds are those stage 1 makes for one N.

Boundary: :func:`run_cell` checks outside input; :func:`run_sweep` draws
from a :class:`SweepConfig` that has already checked its own, so nothing
below these two checks again. A :class:`Cell` keeps its trial axis next to
the mean and std the engine's one stats pass took, so the CSV and the plots
only format it. This module builds no Fock state: the Fock network and
its input states belong to the oracle that ``verify`` and the tests check
this engine against.

CSV: :func:`write_csv` spells every float ``"%.17g" % v`` (:func:`_fmt`);
:mod:`g17` makes its rows, and is loaded on the first CSV.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

from .closed_form import _bsm_closed
from .fock import _int_tuple
from .interferometers import (
    _V_SIGNS,
    _bsm_matrices,
    _check_reflectivity,
    _features,
    _fusion_gates,
    _fusion_matrices,
    _fusion_products,
)
from .metrics import (
    _SQRT_HALF,
    BSM_MAP_TARGETS,
    BSM_PATTERNS,
    FUSION_PATTERNS,
    fidelity,
    normalized_fidelity,
    trace_distance,
)

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
        m_grid = tuple(self.m_grid)  # a numpy array has no single truth value
        if not m_grid:
            raise ValueError("m_grid must not be empty")
        object.__setattr__(self, "m_grid", tuple(map(_check_m, m_grid)))
        if len(set(self.n_copies_list)) < len(self.n_copies_list) or len(set(self.m_grid)) < len(self.m_grid):
            raise ValueError(f"copy counts and m values must not repeat, got {self.n_copies_list} and {self.m_grid}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")


@dataclass(frozen=True, eq=False)
class Cell:
    """One (N, m) cell of a sweep, its S trials along the first axis.

    ``etas`` has shape (S, 2, N): per trial, the N first-layer then the N
    second-layer reflectivities. ``metrics`` maps each metric column to an
    (S,) array. A NaN marks a trial where the metric is undefined (a
    conditional fidelity whose heralding probability is 0).

    ``mean`` and ``std`` map each column to its mean and sample standard
    deviation (ddof=1; 0.0 for a single defined trial) over the defined
    trials, NaN when there are none. The engine's stats pass computes them
    when it makes the cell, so later writes to ``metrics`` do not change them.

    A cell equals only itself and hashes by identity, as its arrays have no
    single truth value to compare by.
    """

    n_copies: int
    m: float
    etas: np.ndarray
    metrics: dict[str, np.ndarray]
    mean: dict[str, float]
    std: dict[str, float]


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    defined = values[~np.isnan(values)]
    if not len(defined):
        return math.nan, math.nan
    return float(defined.mean()), float(defined.std(ddof=1)) if len(defined) > 1 else 0.0


def _stats(table: np.ndarray) -> tuple[list, list]:
    """Mean and std of each column of each cell of the (columns, cells, S) ``table``.

    Returns two (cells, columns) nested lists of floats. One stacked pass
    covers every row; a row holding a NaN, and every row when S < 2, takes
    the per-column :func:`_mean_std` instead.
    """
    # numpy reduces each contiguous length-S row with the pairwise sums of a
    # 1-D column, so a stacked row has the bits _mean_std gives it
    if table.shape[-1] < 2:
        fallback = np.ones(table.shape[:-1], dtype=bool)
        mean, std = np.empty(table.shape[:-1]), np.empty(table.shape[:-1])
    else:
        fallback = np.isnan(table).any(axis=-1)
        mean, std = table.mean(axis=-1), table.std(axis=-1, ddof=1)
    for row in zip(*np.nonzero(fallback)):
        mean[row], std[row] = _mean_std(table[row])
    return mean.T.tolist(), std.T.tolist()


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The cells of one sweep, N-major, then in ``m_grid`` order.

    A result equals only itself and hashes by identity; two sweeps are the
    same when :func:`write_csv` writes the same bytes for both.
    """

    config: SweepConfig
    cells: tuple[Cell, ...]


def sample_reflectivity(rng: np.random.Generator, m: float, size=None):
    """Draw reflectivities uniform on [0.5 - m, 0.5 + m].

    Returns one float, or with ``size`` an array of that shape holding the
    values (in C order) that as many scalar draws would give. m = 0 draws like
    any other m and gives exactly 0.5.
    """
    m = _check_m(m)
    return rng.uniform(0.5 - m, 0.5 + m, size)


def _check_m(m) -> float:
    """``m`` as a Python float, a real number in [0, 0.5]; -0.0 becomes 0.0,
    so the noise-free cell has one ``m`` key in the CSV."""
    if not isinstance(m, numbers.Real):
        raise ValueError(f"noise half-width m must be a real number, got {m!r}")
    if not 0.0 <= m <= 0.5:
        raise ValueError(f"noise half-width m must lie in [0, 0.5], got {m}")
    return float(m) + 0.0


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


def _fusion_metrics(products: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fusion on Bell (x) Bell with 4 passthrough modes, one trial per row of the (B, 16) copy means.

    Each phi+ (x) phi+ ket has amplitude 1/sqrt(2) * 1/sqrt(2), so pattern p heralds
    the spectators in the Kraus block ``kraus[:, p]``, rows (V1, H1) and columns
    (V4, H4): the sorted spectator-ket order, which fixes how P_HH and P_single sum.
    """
    mean = _fusion_matrices(products)
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


def _bsm_metrics(sums_n: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bell-state analyzer on a psi+ input, one trial per row of the (B, 5)
    feature copy sums, each followed by its copy count N."""
    sums, n = sums_n[:, :4], sums_n[:, 4]
    amp = _SQRT_HALF * _pair_amplitudes(_bsm_matrices(sums / n[:, None]), [0, 1], [3, 2])
    out = amp[..., 0] + amp[..., 1]
    f = fidelity(out, _BSM_TARGET)
    p_success = np.sum(np.abs(out) ** 2, axis=-1)
    return f, p_success, normalized_fidelity(f, p_success), *_bsm_closed(sums, n)


def _trace_metrics(products: np.ndarray) -> tuple[np.ndarray, ...]:
    """Matrix level: distance of the copy average to the balanced gate, from the (B, 16) copy means."""
    return (trace_distance(_V_SIGNS * _fusion_matrices(products), _SIGNED_BALANCED),)


def _feature_sums(eta_1: np.ndarray, eta_2: np.ndarray) -> np.ndarray:
    """The (S, 5) feature copy sums of the two layers' (S, N) reflectivities, each followed by N."""
    sums = _features(eta_1, eta_2).sum(axis=-2)
    return np.concatenate((sums, np.full((len(sums), 1), float(eta_1.shape[-1]))), axis=1)


#: Stage 1, once per copy count N, on the two layers' (S, N) reflectivities:
#: the only step that reads the copy axis.
_COPY_MEANS = {
    "fusion": _fusion_products,
    "bsm": _feature_sums,
    "trace-distance": _fusion_products,
}

#: Stage 2 on a block of stage-1 rows of any copy counts: each function
#: returns its (B,) columns in ``METRIC_COLUMNS`` order.
_METRICS = {
    "fusion": _fusion_metrics,
    "bsm": _bsm_metrics,
    "trace-distance": _trace_metrics,
}

#: Trials per stage-2 call, not a knob. On a 600k-trial sweep, blocks of
#: 2**12 to 2**16 trials kept ``run_sweep``'s peak RSS at 130-220 MB where one
#: pass over every trial took 470-920 MB; 2**12 and 2**13 were the fastest
#: and smallest, within noise of each other, and 2**13 makes half the calls.
_BLOCK = 1 << 13


def _blocks(parts, size: int):
    """The rows of the arrays ``parts``, in order, cut into blocks of ``size``
    rows (the last block may be shorter); a block may span several parts.

    No reference to a part is left when the next one is requested: a tail
    that waits for it is copied, so it holds only its own rows.
    """
    held, count = [], 0
    for part in parts:
        while len(part):
            take, part = part[: size - count], part[size - count :]
            held.append(take)
            count += len(take)
            if count == size:
                yield held[0] if len(held) == 1 else np.concatenate(held)
                held, count = [], 0
        part = take = None
        if held:
            held = [np.concatenate(held)]
    if held:
        yield held[0] if len(held) == 1 else np.concatenate(held)


def _metric_table(experiment: str, stacks) -> np.ndarray:
    """Every metric column over every trial of the (C, S, 2, N) ``stacks``,
    unchecked: a (columns, trials) array, trials in stack then C then S order.

    Stage 1 takes each stack's copy means in one call, when stage 2 first
    needs them; stage 2 reads them in blocks of ``_BLOCK`` trials that run
    across copy counts, and writes each block's columns into the table.
    """
    copy_means, metrics = _COPY_MEANS[experiment], _METRICS[experiment]
    trials = [etas.reshape(-1, *etas.shape[-2:]) for etas in stacks]
    table = np.empty((len(METRIC_COLUMNS[experiment]), sum(map(len, trials))))
    done = 0
    for block in _blocks((copy_means(etas[:, 0], etas[:, 1]) for etas in trials), _BLOCK):
        for row, values in zip(table[:, done : done + len(block)], metrics(block), strict=True):
            row[...] = values
        done += len(block)
        del block  # the next block may run the next stage 1
    return table


def _metric_columns(experiment: str, etas: np.ndarray) -> dict[str, np.ndarray]:
    """Each metric column of ``experiment`` over the trials of ``etas`` (S, 2, N), unchecked."""
    return dict(zip(METRIC_COLUMNS[experiment], _metric_table(experiment, (etas[None],))))


def run_cell(experiment: str, m: float, etas: np.ndarray) -> Cell:
    """Every trial of one (N, m) cell from its reflectivities ``etas``.

    ``etas`` must be a float array of shape (S >= 1, 2, N >= 1) with values in
    [0, 1]; N is read from its last axis. ``m`` must be a real number in
    [0, 0.5] and ``experiment`` in :data:`EXPERIMENTS`. Nothing below this
    check checks the reflectivities again.

    This is the one-cell case of the path :func:`run_sweep` takes, through
    the stages and blocks of the module docstring.
    """
    _experiment_id(experiment)
    m = _check_m(m)
    etas = _check_reflectivity("etas", etas)
    if etas.ndim != 3 or etas.shape[1] != 2 or 0 in etas.shape:
        raise ValueError(f"etas must have shape (S >= 1, 2, N >= 1), got {etas.shape}")
    return _run_cells(experiment, (m,), etas[None])[0]


def _run_cells(experiment: str, ms, *stacks: np.ndarray) -> list[Cell]:
    """The cells of one or more copy counts, in one metric pass and one stats pass, unchecked.

    Each (C, S, 2, N) stack holds the cells of one copy count: cell i has m
    ``ms[i]`` and the reflectivities ``stack[i]``. Every stack has C = len(ms)
    and one S. Cells come out stack by stack, then in ``ms`` order.
    """
    columns = METRIC_COLUMNS[experiment]
    table = _metric_table(experiment, stacks).reshape(len(columns), -1, stacks[0].shape[1])
    means, stds = _stats(table)
    cells = [(etas[i], m) for etas in stacks for i, m in enumerate(ms)]
    return [
        Cell(etas.shape[-1], m, etas, dict(zip(columns, rows)), dict(zip(columns, mean)), dict(zip(columns, std)))
        for (etas, m), rows, mean, std in zip(cells, table.swapaxes(0, 1), means, stds, strict=True)
    ]


# The single-trial runners draw from ``rng`` as one trial of a sweep cell
# does; ``trial`` only keeps their call signature and is not recorded. Only
# ``perfbench/setup_probe.py`` calls them, and one test pins them to
# ``run_cell``; they go when that probe moves to ``run_cell`` (ROADMAP item 1).


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
    whole sweep then runs in one metric pass and one stats pass, unchecked:
    ``cfg`` has checked its fields, and its draws lie in [0, 1] by construction.
    Cells come out N-major, then in ``m_grid`` order.
    """
    stacks = [
        np.stack([
            sample_reflectivity(trial_rng(cfg.master_seed, cfg.experiment, n, mi, 0), m, (cfg.samples, 2, n))
            for mi, m in enumerate(cfg.m_grid)
        ])
        for n in cfg.n_copies_list
    ]
    return SweepResult(cfg, tuple(_run_cells(cfg.experiment, cfg.m_grid, *stacks)))


def _fmt(x: float) -> str:
    """``x`` as the CSV spells a float: ``"%.17g" % x``, 17 significant digits
    rounded half-even (not the shortest repr), fixed notation from 1e-4 up to
    1e17 and exponent notation outside. :mod:`g17` spells the trial, mean
    and std rows with the same bytes."""
    return "%.17g" % x


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
    from . import g17  # the CSV rows and their float kernel, loaded on the first CSV

    write_text_atomic(path, g17.chunks(result))
