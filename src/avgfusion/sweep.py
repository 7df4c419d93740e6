"""Seeded Monte-Carlo sweeps over reflectivity noise, with CSV output.

Three experiments share one engine: ``fusion``, an N-copy averaged fusion
gate on two dual-rail Bell pairs; ``bsm``, an N-copy averaged Bell-state
analyzer on psi+, next to its closed forms; and ``trace-distance``, the
matrix-level distance of the copy average to the balanced gate alone.
:data:`METRIC_COLUMNS` names what each records per trial.

Streams: every (N, m) cell draws from its own numpy stream, keyed by
(master seed, experiment, N, m index), so results do not depend on execution
order. Trial t reads draws t * 2N to t * 2N + 2N - 1, so more samples extend
each cell and keep the earlier trials. :func:`_stream` alone builds a stream
from its key. :func:`trial_rng` positions a stream at any trial; a sweep
draws each cell in one call from trial 0, straight into its copy count's
(C, S, 2, N) array.

Stages: the engine evaluates the mean matrix M_N = (1/N) sum_r U_r, which
the post-selected N-copy network applies to the gate modes, and M_N is
linear in the copy means of the per-copy features (:mod:`interferometers`
derives both). Stage 1 takes those copy means from the (B, 2, N) draws of
one block and one copy count N: mean(f f^T) for fusion and trace-distance,
the feature sums and N for bsm. It is the only step that reads the copy
axis. Stage 2 builds M_N from them and every metric column of a block, from
rows of one ten-pattern amplitude table: the 2x2 permanents of M_N per click
pattern, one photon per qubit on the rails of :mod:`metrics` (:func:`_pair_amplitudes`).
The trace column reads stage 1 directly: :func:`trace_distance` takes the
largest eigenvalue of J/2 - mean(f f^T), so ``trace-distance`` builds no M_N.

Blocks: both stages run over fixed blocks of ``_BLOCK`` trials that cross
cells and copy counts (stage 1 once per copy count in a block) into one
(columns, trials) table, and one stacked pass over that table takes every
cell's mean and std. Each metric is computed trial by trial, so neither
blocks nor stacking change a bit; the largest arrays are one block's.

Boundary: :func:`run_cell` checks outside input; :func:`run_sweep` draws
from a :class:`SweepConfig` that has already checked its own, through the
unchecked :func:`_stream` and :func:`_reflectivities` that
:func:`trial_rng` and :func:`sample_reflectivity` wrap, so nothing below
these two checks again. Both, and the engine suites of ``verify``, go
through :func:`_run_cells`, the engine's one walker from (C, S, 2, N) draws
to cells. A :class:`Cell` keeps its trial axis next to the mean and std the
engine's one stats pass took, so the CSV and the plots only format it. This
module builds no Fock state: the Fock network and its input states belong to
the oracle that ``verify`` and the tests check this engine against.

CSV: :mod:`g17` owns the layout and spelling of :func:`write_csv`'s rows.
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
    _bsm_matrices,
    _check_reflectivity,
    _features,
    _fusion_matrices,
    _fusion_products,
)
from .metrics import (
    _BELL_RAILS,
    _RAILS,
    _SQRT_HALF,
    BSM_MAP_TARGETS,
    BSM_PATTERNS,
    FUSION_PATTERNS,
    fidelity,
    normalized_fidelity,
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

    Returns two (cells, columns) nested lists of floats. At S = 1 a row's mean
    is its value and its std 0.0, both NaN for a NaN. At S >= 2 one stacked
    pass covers every row; a row holding a NaN takes :func:`_mean_std`.
    """
    if table.shape[-1] == 1:
        undefined = np.isnan(table[..., 0])
        mean = np.where(undefined, math.nan, table[..., 0] + 0.0)  # a mean turns -0.0 into 0.0
        std = np.where(undefined, math.nan, 0.0)
    else:
        # numpy reduces each contiguous length-S row with the pairwise sums of
        # a 1-D column, so a stacked row has the bits _mean_std gives it
        mean, std = table.mean(axis=-1), table.std(axis=-1, ddof=1)
        for row in zip(*np.nonzero(np.isnan(table).any(axis=-1))):
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
    return _reflectivities(rng, _check_m(m), size)


def _reflectivities(rng: np.random.Generator, m: float, size):
    """:func:`sample_reflectivity` for an ``m`` that :func:`_check_m` has given."""
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
    identical values. The seed, N and m index must be non-negative integers,
    and so must ``trial``.
    """
    trial = operator.index(trial)
    if trial < 0:
        raise ValueError(f"trial must be >= 0, got {trial}")
    master_seed, n_copies, m_index = key = tuple(map(operator.index, (master_seed, n_copies, m_index)))
    if min(key) < 0:
        raise ValueError(f"master_seed, n_copies and m_index must be non-negative, got {key}")
    rng = _stream(master_seed, _experiment_id(experiment), n_copies, m_index)
    rng.bit_generator.advance(trial * 2 * operator.index(n_copies))
    return rng


def _stream(master_seed: int, experiment_id: int, n_copies: int, m_index: int) -> np.random.Generator:
    """The stream of one (N, m) cell at trial 0, from non-negative Python ints, unchecked.

    It is ``np.random.default_rng(np.random.SeedSequence((master_seed,
    experiment_id, n_copies, m_index)))``: SeedSequence reads a tuple of ints
    as each one's 32-bit words, least significant first (one word for 0), and
    handed those words as a uint32 array it mixes the same entropy without
    converting the tuple element by element.
    """
    words = []
    for value in (master_seed, experiment_id, n_copies, m_index):
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32))))


#: The one click table, over the ten ``BSM_PATTERNS`` in order: the (2, 10) modes
#: each fills (one mode twice for a double click) and each one's bunching factor
#: (1/sqrt(2) for a double click). The fusion reads its four success rows, HH first,
#: on the full 2x2 rail block, weighted by phi+ (x) phi+ (phi+ is diagonal, so the fused
#: rails of an entry are its spectators'), and takes phi+ on the diagonal (V, H) as the
#: heralded target; the analyzer reads all ten rows on psi+'s two nonzero rail pairs.
_CLICK_MODES = np.array([[k for k, c in enumerate(p) for _ in range(c)] for p in BSM_PATTERNS.values()]).T
_BUNCHING = np.where(_CLICK_MODES[0] == _CLICK_MODES[1], _SQRT_HALF, 1.0)
_FUSION_ROWS = [list(BSM_PATTERNS.values()).index(p) for p in FUSION_PATTERNS.values()]
_RAIL_BLOCK, _PSI_RAILS = ([[0], [1]], [[0, 1]]), np.nonzero(_BELL_RAILS["psi+"])
_PSI_WEIGHTS = _BELL_RAILS["psi+"][_PSI_RAILS]
_PHI_PLUS_DIAGONAL = np.diagonal(_BELL_RAILS["phi+"])
_FUSION_WEIGHTS = np.multiply.outer(_PHI_PLUS_DIAGONAL, _PHI_PLUS_DIAGONAL)
_BSM_TARGET = np.array([BSM_MAP_TARGETS["psi+"].get(p, 0.0) for p in BSM_PATTERNS.values()])  # psi+'s analyzer image

#: The balanced gate's copy means, J/2 as rounded: a noise-free trial has D = 0.
_BALANCED_PRODUCTS = _fusion_products([0.5], [0.5])


def _pair_amplitudes(mean: np.ndarray, rows, rails, weights=1.0) -> np.ndarray:
    """Rows of the one click table for photon 1 on rail r1 and photon 2 on rail r2.

    ``mean`` is (S, 4, 4), ``rows`` indexes P rows, and ``rails`` = (r1, r2)
    broadcast to a shape B. Entry (s, p, *b) is the permanent
    M[k,i]M[l,j] + M[l,i]M[k,j] of trial s, for the modes (k, l) of row p and
    i = _RAILS[0][r1], j = _RAILS[1][r2], times the row's bunching factor and
    the input's amplitude ``weights`` on the rail pair, which broadcast to B.
    """
    i, j = _RAILS[0][rails[0]], _RAILS[1][rails[1]]
    shape = (-1,) + (1,) * np.broadcast(i, j).ndim
    k, l = _CLICK_MODES[:, rows].reshape(2, *shape)
    m = mean.transpose(1, 2, 0).copy()  # trials last: each product runs along contiguous trials
    amp = (m[k, i] * m[l, j] + m[l, i] * m[k, j]) * (_BUNCHING[rows].reshape(shape) * weights)[..., None]
    return np.moveaxis(amp, -1, 0).copy()  # C order: the metrics sum along contiguous axes


def trace_distance(products: np.ndarray) -> np.ndarray:
    """The trace distance 0.5 * ||M_N - U_bal||_1 to the balanced gate, per row of the (B, 16) copy means.

    Seen as 4x4, a row is G, the copy mean of f f^T, and M_N - U_bal has the
    singular values of the symmetric D = J/2 - G, J the all-ones matrix
    (:mod:`interferometers`); J/2 is taken as U_bal's own rounded copy means.
    G is positive semidefinite and J/2 = f0 f0^T has rank one, so D has at
    most one positive eigenvalue, and the distance is half the sum of the
    eigenvalues' moduli: lambda_max(D) - tr(D) / 2.

    One stacked D @ D gives the power sums t_k = tr D^k, Newton's identities
    turn them into the characteristic polynomial of D, and six Newton steps
    find its largest root from above. The start (t_1 + sqrt(12 t_2 - 3 t_1^2)) / 4,
    the eigenvalues' mean plus sqrt(3) times their standard deviation, bounds
    lambda_max of every symmetric 4x4 matrix. As tr D = tr J/2 - mean |f|^2 = 0,
    lambda_max >= ||D||_F / sqrt(2), so the start is within 23 % of the root;
    the root is simple and at least lambda_max from the other three, so the
    steps converge quadratically, and six bring the worst start to rounding.
    D = 0, a noise-free trial's, gives 0.0.
    """
    d = (_BALANCED_PRODUCTS - products).reshape(-1, 4, 4)
    d2 = d @ d
    t1, t2 = np.einsum("bii->b", d), np.einsum("bii->b", d2)
    t3, t4 = np.einsum("bij,bij->b", d2, d), np.einsum("bij,bij->b", d2, d2)  # D is symmetric
    e2 = (t1 * t1 - t2) / 2  # e_1 = t_1
    e3 = (e2 * t1 - t1 * t2 + t3) / 3
    e4 = (e3 * t1 - e2 * t2 + t1 * t3 - t4) / 4
    x = (t1 + np.sqrt(np.maximum(12 * t2 - 3 * t1 * t1, 0.0))) / 4  # rounding may dip below 0
    for _ in range(6):
        p = (((x - t1) * x + e2) * x - e3) * x + e4
        dp = ((4 * x - 3 * t1) * x + 2 * e2) * x - e3
        x = x - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)  # dp = 0 only at D = 0
    return x - t1 / 2


def _fusion_metrics(products: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fusion on Bell (x) Bell with 4 passthrough modes, one trial per row of the (B, 16) copy means.

    Each phi+ (x) phi+ ket has its ``_FUSION_WEIGHTS`` amplitude, so success pattern p
    of ``FUSION_PATTERNS`` (HH first) heralds the spectators in the Kraus block
    ``kraus[:, p]`` of the (B, 4, 2, 2) table, rows (V1, H1) and columns (V4, H4):
    the sorted spectator-ket order, which fixes how P_HH and P_single sum.
    """
    mean = _fusion_matrices(products)
    kraus = _pair_amplitudes(mean, _FUSION_ROWS, _RAIL_BLOCK, _FUSION_WEIGHTS)
    prob = np.sum(np.abs(kraus) ** 2, axis=(-2, -1))
    f_hh = fidelity(np.diagonal(kraus[:, 0], axis1=-2, axis2=-1), _PHI_PLUS_DIAGONAL)
    p_hh = prob[:, 0]
    heralded = p_hh > 0
    f_hh_norm = np.full(len(p_hh), math.nan)
    f_hh_norm[heralded] = normalized_fidelity(f_hh[heralded], p_hh[heralded])
    return f_hh, p_hh, f_hh_norm, prob.sum(axis=1), trace_distance(products)


def _bsm_metrics(sums_n: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bell-state analyzer on a psi+ input, one trial per row of the (B, 5)
    feature copy sums, each followed by its copy count N."""
    sums, n = sums_n[:, :4], sums_n[:, 4]
    amp = _pair_amplitudes(_bsm_matrices(sums / n[:, None]), slice(None), _PSI_RAILS, _PSI_WEIGHTS)
    out = amp[..., 0] + amp[..., 1]
    f = fidelity(out, _BSM_TARGET)
    p_success = np.sum(np.abs(out) ** 2, axis=-1)
    return f, p_success, normalized_fidelity(f, p_success), *_bsm_closed(sums, n)


def _trace_metrics(products: np.ndarray) -> tuple[np.ndarray, ...]:
    """Matrix level: distance of the copy average to the balanced gate, from the (B, 16) copy means."""
    return (trace_distance(products),)


def _feature_sums(eta_1: np.ndarray, eta_2: np.ndarray) -> np.ndarray:
    """The (S, 5) feature copy sums of the two layers' (S, N) reflectivities, each followed by N."""
    sums = _features(eta_1, eta_2).sum(axis=-2)
    return np.concatenate((sums, np.full((len(sums), 1), float(eta_1.shape[-1]))), axis=1)


#: Stage 1, per block and copy count N, on the two layers' (B, N)
#: reflectivities: the only step that reads the copy axis.
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

#: Trials per block, not a knob. On a 600k-trial sweep, 2**12 took 18 % (fusion)
#: and 41 % (bsm) less time than 2**13, and trace-distance within noise, with a
#: peak RSS at most 3 MB higher (``BENCH_stage_blocks.json``).
_BLOCK = 1 << 12


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

    Blocks run in stack, then C, then S order, as the module docstring says.
    """
    columns = METRIC_COLUMNS[experiment]
    copy_means, metrics = _COPY_MEANS[experiment], _METRICS[experiment]
    trials = [etas.reshape(-1, *etas.shape[-2:]) for etas in stacks]
    starts = np.cumsum([0, *map(len, trials)]).tolist()
    table = np.empty((len(columns), starts[-1]))
    for lo in range(0, starts[-1], _BLOCK):
        hi = min(lo + _BLOCK, starts[-1])
        parts = []
        for etas, start in zip(trials, starts):
            if start < hi and lo < start + len(etas):
                part = etas[max(lo - start, 0) : hi - start]
                parts.append(copy_means(part[:, 0], part[:, 1]))
        block = parts[0] if len(parts) == 1 else np.concatenate(parts)
        for row, values in zip(table[:, lo:hi], metrics(block), strict=True):
            row[...] = values
        del parts, block  # the next block's stage 1 runs with no stage-1 rows held
    table = table.reshape(len(columns), -1, stacks[0].shape[1])
    means, stds = _stats(table)
    cells = [(etas[i], m) for etas in stacks for i, m in enumerate(ms)]
    return [
        Cell(etas.shape[-1], m, etas, dict(zip(columns, rows)), dict(zip(columns, mean)), dict(zip(columns, std)))
        for (etas, m), rows, mean, std in zip(cells, table.swapaxes(0, 1), means, stds, strict=True)
    ]


# The single-trial runners draw from ``rng`` as one trial of a sweep cell
# does; ``trial`` only keeps their call signature and is not recorded. Only
# ``perfbench/setup_probe.py`` calls them, and one test pins them to
# ``run_cell``; they go when that probe moves to ``run_cell`` (ROADMAP item 16).


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
    experiment_id = EXPERIMENTS.index(cfg.experiment)
    stacks = []
    for n in cfg.n_copies_list:
        stack = np.empty((len(cfg.m_grid), cfg.samples, 2, n))
        for mi, m in enumerate(cfg.m_grid):
            stack[mi] = _reflectivities(_stream(cfg.master_seed, experiment_id, n, mi), m, stack.shape[1:])
        stacks.append(stack)
    return SweepResult(cfg, tuple(_run_cells(cfg.experiment, cfg.m_grid, *stacks)))


def write_atomic(path, chunks) -> None:
    """Write the bytes ``chunks`` to ``path`` as they are; a file has LF line
    endings only because its chunks contain no other.

    The bytes go to a temporary file in the target directory, which is then
    renamed over ``path``, so a failed write leaves any previous file as it
    was and no temporary file behind. An ``OSError`` on the temporary file
    names ``path``.
    """
    tmp = f"{os.fsdecode(path)}.{os.urandom(4).hex()}.tmp"  # a bytes path's name, not its repr
    try:
        with open(tmp, "xb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_csv(result: SweepResult, path) -> None:
    """Write the CSV of ``result``: a header, then per cell its trial rows and
    a mean and a std row, in the layout :mod:`g17` gives.

    The bytes go through :func:`write_atomic`, so a failed write leaves any
    previous file as it was.
    """
    from . import g17  # the CSV rows and their float kernel, loaded on the first CSV

    write_atomic(path, g17.chunks(result))
