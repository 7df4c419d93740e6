"""Tests for the Monte-Carlo sweep harness and its CSV output."""

import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os
import pathlib
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion import cli, g17, sweep
from avgfusion.averaging import build_averaged_network, run_averaged
from avgfusion.closed_form import bsm_closed_forms
from avgfusion.detection import BSM_PATTERNS, FUSION_PATTERNS, fusion_outcomes
from avgfusion.fock import TransferMatrix, apply_transfer
from avgfusion.interferometers import (
    _ANALYZER,
    _FUSION,
    _fusion_matrices,
    _fusion_products,
    _linear,
    direct_sum,
    effective_average,
    fusion_gate,
)
from avgfusion.metrics import _SQRT_HALF, bell_state, fidelity, normalized_fidelity
from avgfusion.svgplot import render_sweep_svg, write_svg
from avgfusion.sweep import (
    EXPERIMENTS,
    METRIC_COLUMNS,
    SweepConfig,
    SweepResult,
    run_cell,
    run_sweep,
    sample_reflectivity,
    trial_rng,
    write_csv,
)
from avgfusion.verify import _fusion_input


def test_sample_reflectivity_zero_width_is_exactly_balanced():
    rng = np.random.default_rng(0)
    assert all(sample_reflectivity(rng, 0.0) == 0.5 for _ in range(10))


def test_sample_reflectivity_array_matches_scalar_draws():
    for m in (0.0, 0.3, 0.5):
        rng = np.random.default_rng(8)
        scalars = [sample_reflectivity(rng, m) for _ in range(6)]
        array = sample_reflectivity(np.random.default_rng(8), m, (2, 3))
        assert array.shape == (2, 3)
        assert array.ravel().tolist() == scalars


def test_sample_reflectivity_support_and_mean():
    rng = np.random.default_rng(1)
    draws = np.array([sample_reflectivity(rng, 0.3) for _ in range(100_000)])
    assert draws.min() >= 0.2 and draws.max() <= 0.8
    assert abs(draws.mean() - 0.5) < 3e-3
    full = np.array([sample_reflectivity(rng, 0.5) for _ in range(1000)])
    assert full.min() >= 0.0 and full.max() <= 1.0


@pytest.mark.parametrize("m", [-0.1, 0.51, 1.0])
def test_sample_reflectivity_rejects_bad_width(m):
    with pytest.raises(ValueError):
        sample_reflectivity(np.random.default_rng(0), m)


def test_trial_rng_is_deterministic_and_stream_independent():
    a = trial_rng(42, "fusion", 2, 1, 7).uniform(size=4)
    b = trial_rng(42, "fusion", 2, 1, 7).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    for other in [
        trial_rng(42, "fusion", 2, 1, 8),
        trial_rng(42, "fusion", 3, 1, 7),
        trial_rng(42, "fusion", 2, 0, 7),
        trial_rng(42, "bsm", 2, 1, 7),
        trial_rng(43, "fusion", 2, 1, 7),
    ]:
        assert not np.array_equal(a, other.uniform(size=4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fusion_trial_balanced_point(n):
    cell = run_cell("fusion", 0.0, sample_reflectivity(trial_rng(42, "fusion", n, 0, 0), 0.0, (1, 2, n)))
    assert (cell.n_copies, cell.m) == (n, 0.0)
    np.testing.assert_array_equal(cell.etas, np.full((1, 2, n), 0.5))
    expected = {"F_HH": 0.125, "P_HH": 0.125, "F_HH_norm": 1.0, "P_single": 0.5, "trace_distance": 0.0}
    assert set(cell.metrics) == set(expected)
    for key, want in expected.items():
        assert cell.metrics[key].shape == (1,)
        assert cell.metrics[key][0] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_bsm_trial_balanced_point(n):
    cell = run_cell("bsm", 0.0, sample_reflectivity(trial_rng(42, "bsm", n, 0, 0), 0.0, (1, 2, n)))
    for key in ("F", "P_success", "F_norm", "F_closed", "P_success_closed", "F_norm_closed"):
        assert cell.metrics[key].shape == (1,)
        assert cell.metrics[key][0] == pytest.approx(1.0, abs=1e-10)


def test_trial_record_invariants_under_noise():
    for trial in range(20):
        cell = run_cell("fusion", 0.4, sample_reflectivity(trial_rng(9, "fusion", 2, 0, trial), 0.4, (1, 2, 2)))
        m = {key: values[0] for key, values in cell.metrics.items()}
        assert 0.0 <= m["P_HH"] <= 1.0
        assert 0.0 <= m["P_single"] <= 1.0
        assert m["F_HH"] <= m["P_HH"] + 1e-12
        assert 0.0 <= m["F_HH_norm"] <= 1.0 + 1e-12
        assert cell.etas.shape == (1, 2, 2) and np.all((0.1 <= cell.etas) & (cell.etas <= 0.9))

        cell = run_cell("bsm", 0.4, sample_reflectivity(trial_rng(9, "bsm", 2, 0, trial), 0.4, (1, 2, 2)))
        m = {key: values[0] for key, values in cell.metrics.items()}
        assert m["F"] <= m["P_success"] + 1e-12
        assert m["F"] == pytest.approx(m["F_closed"], abs=1e-9)
        assert m["P_success"] == pytest.approx(m["P_success_closed"], abs=1e-9)
        assert m["F_norm"] == pytest.approx(m["F_norm_closed"], abs=1e-9)


def test_fusion_trial_matches_average_operator_oracle():
    """Recompute a fusion trial from its logged reflectivities via the
    mean-of-copies operator applied as a single (non-unitary) transfer."""
    for trial in range(5):
        cell = run_cell("fusion", 0.2, sample_reflectivity(trial_rng(11, "fusion", 2, 0, trial), 0.2, (1, 2, 2)))
        rec = {key: values[0] for key, values in cell.metrics.items()}
        eta_x, eta_y = cell.etas[0]
        copies = [fusion_gate(ex, ey) for ex, ey in zip(eta_x, eta_y)]
        averaged = direct_sum([effective_average(copies), TransferMatrix(np.eye(4))])
        state = apply_transfer(averaged, _fusion_input())
        outcomes = fusion_outcomes(state, (0, 1, 2, 3))
        assert outcomes["HH"].probability == pytest.approx(rec["P_HH"], abs=1e-10)
        f_hh = fidelity(outcomes["HH"].residual, bell_state("phi+"))
        assert f_hh == pytest.approx(rec["F_HH"], abs=1e-10)
        p_single = sum(o.probability for o in outcomes.values())
        assert p_single == pytest.approx(rec["P_single"], abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    experiment=st.sampled_from(["fusion", "trace-distance"]),
    n_copies=st.integers(min_value=1, max_value=8),
    m=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=0.5)),
    samples=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trace_distance_column_matches_the_svd_of_literal_copies(experiment, n_copies, m, samples, seed):
    """Per trial, the engine's trace column against
    0.5 * sum of the singular values of the mean of N fusion_gate copies minus
    fusion_gate(0.5, 0.5); m = 0 cells, whose difference is about 1e-17, included."""
    etas = sample_reflectivity(np.random.default_rng(seed), m, (samples, 2, n_copies))
    got = run_cell(experiment, m, etas).metrics["trace_distance"]
    balanced = fusion_gate(0.5, 0.5).entries
    for trial, (eta_x, eta_y) in enumerate(etas):
        mean = effective_average([fusion_gate(ex, ey) for ex, ey in zip(eta_x, eta_y)]).entries
        want = 0.5 * np.sum(np.linalg.svd(mean - balanced, compute_uv=False))
        assert abs(got[trial] - want) <= 4e-15


#: The row signs P and the signed permutation S of the identity
#: P * M_N = I - S G S^T in :mod:`avgfusion.interferometers`.
_P = np.diag([1.0, -1.0, 1.0, -1.0])
_S = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


@st.composite
def _copy_means(draw):
    """(trials, 16) fusion copy means of 1 to 64 copies, trials stacked; each
    reflectivity is 0, 1/2 or 1, or uniform on [0, 1], at a drawn share."""
    n_copies, trials = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    grid_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, trials, n_copies)
    etas = np.where(rng.random(shape) < grid_share, rng.choice([0.0, 0.5, 1.0], shape), rng.uniform(0.0, 1.0, shape))
    return _fusion_products(*etas)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(products=_copy_means())
def test_trace_distance_is_half_the_eigenvalue_moduli_of_the_signed_difference(products):
    """sweep.trace_distance against 0.5 * sum |lambda| of eigvalsh(P * (M_N - U_bal))."""
    signed = _P @ (_fusion_matrices(products) - fusion_gate(0.5, 0.5).entries)
    want = 0.5 * np.abs(np.linalg.eigvalsh(signed)).sum(axis=-1)
    got = sweep.trace_distance(products)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, want)), (got, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(products=_copy_means())
def test_signed_mean_gate_is_identity_minus_the_permuted_copy_mean(products):
    """P * M_N = I - S G S^T, and D = J/2 - G has at most one positive
    eigenvalue: the premises of sweep.trace_distance."""
    g = products.reshape(-1, 4, 4)
    np.testing.assert_allclose(_P @ _fusion_matrices(products), np.eye(4) - _S @ g @ _S.T, rtol=0, atol=1e-15)
    eigenvalues = np.linalg.eigvalsh(0.5 - g)
    assert np.all((eigenvalues > 1e-14).sum(axis=-1) <= 1), eigenvalues


def test_trace_distance_of_the_balanced_copy_means_is_zero():
    """D = 0, a noise-free trial's for every N, gives exactly 0.0 with no NaN
    and no warning, and the other rows of its stack keep the bits they have alone."""
    rows = _fusion_products(np.array([[0.3, 0.9], [1.0, 0.0]]), np.array([[0.5, 0.2], [0.0, 1.0]]))
    noise_free = [_fusion_products(np.full(n, 0.5), np.full(n, 0.5)) for n in range(1, 65)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sweep.trace_distance(np.concatenate([noise_free, rows]))
    assert got[:64].tolist() == [0.0] * 64
    assert got[64:].tolist() == [sweep.trace_distance(row[None])[0] for row in rows]


def test_trace_trial_decreases_with_copies_on_average():
    means = []
    for n in (1, 3):
        values = [
            run_cell("trace-distance", 0.2, sample_reflectivity(trial_rng(5, "trace-distance", n, 0, t), 0.2, (1, 2, n)))
            .metrics["trace_distance"][0]
            for t in range(60)
        ]
        means.append(np.mean(values))
    assert means[1] < means[0]


def test_sweep_config_validation():
    good = dict(experiment="bsm", n_copies_list=(1,), m_grid=(0.1,), samples=1, master_seed=0)
    SweepConfig(**good)
    for bad in (
        {**good, "experiment": "nope"},
        {**good, "n_copies_list": ()},
        {**good, "n_copies_list": (0,)},
        {**good, "m_grid": (0.6,)},
        {**good, "m_grid": ()},
        {**good, "n_copies_list": (1, 2, 1)},
        {**good, "m_grid": (0.1, 0.2, 0.1)},
        {**good, "samples": 0},
        {**good, "master_seed": -1},
        {**good, "master_seed": 2**64},
        {**good, "n_copies_list": (2.5,)},
        {**good, "samples": 2.5},
        {**good, "master_seed": 1.5},
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)
    for n in (2.0, np.int64(2)):
        cfg = SweepConfig(**{**good, "n_copies_list": (n,)})
        assert cfg.n_copies_list == (2,) and type(cfg.n_copies_list[0]) is int
        assert run_sweep(cfg).cells[0].n_copies == 2
    cfg = SweepConfig(**{**good, "samples": 2.0, "master_seed": np.uint64(2**64 - 1)})
    assert (cfg.samples, cfg.master_seed) == (2, 2**64 - 1)
    assert type(cfg.samples) is int and type(cfg.master_seed) is int
    for m, name in (("0.1", "'0.1'"), (None, "None"), (b"0.1", "b'0.1'"), (np.array([0.1]), r"array\(\[0.1\]\)")):
        with pytest.raises(ValueError, match=f"real number, got {name}"):
            SweepConfig(**{**good, "m_grid": (m,)})


@pytest.mark.parametrize("m", [0.1, 0, np.float64(0.1), np.float32(0.1), np.int64(0)])
def test_sweep_config_keeps_m_grid_as_a_tuple_of_python_floats(m):
    """A list grid and numpy scalars are stored as a tuple of Python floats of
    the same values, so the frozen config hashes."""
    cfg = SweepConfig("fusion", (1,), [m, 0.3], 2, 1)
    assert cfg.m_grid == (float(m), 0.3) and all(type(x) is float for x in cfg.m_grid)
    assert hash(cfg) == hash(SweepConfig("fusion", (1,), (float(m), 0.3), 2, 1))


def test_sweep_config_takes_a_numpy_array_grid():
    """A two-point array grid used to raise numpy's "truth value of an array
    ... is ambiguous", and an empty one that error's empty-array form."""
    with pytest.raises(ValueError, match="m_grid must not be empty"):
        SweepConfig("fusion", (1, 2), np.array([]), 3, 1)
    for grid in ((0.1,), (0.1, 0.2)):
        cfg = SweepConfig("fusion", (1, 2), np.array(grid), 3, 1)
        assert cfg.m_grid == grid and all(type(x) is float for x in cfg.m_grid)
        assert hash(cfg) == hash(SweepConfig("fusion", (1, 2), grid, 3, 1))


def test_negative_zero_m_is_stored_as_zero():
    cfg = SweepConfig("bsm", (1,), (-0.0, 0.1), 2, 1)
    cell = run_cell("bsm", np.float64(-0.0), np.full((1, 2, 1), 0.5))
    assert math.copysign(1.0, cfg.m_grid[0]) == math.copysign(1.0, cell.m) == 1.0


def _tiny_config(experiment="bsm"):
    return SweepConfig(
        experiment=experiment,
        n_copies_list=(1, 2),
        m_grid=(0.0, 0.3),
        samples=3,
        master_seed=42,
    )


def test_run_sweep_shape_and_aggregates():
    result = run_sweep(_tiny_config())
    assert [(c.n_copies, c.m) for c in result.cells] == [(1, 0.0), (1, 0.3), (2, 0.0), (2, 0.3)]
    for cell in result.cells:
        assert cell.etas.shape == (3, 2, cell.n_copies)
        assert set(cell.metrics) == set(METRIC_COLUMNS["bsm"])
        assert all(values.shape == (3,) for values in cell.metrics.values())

    perfect = result.cells[0]
    assert perfect.mean["P_success"] == pytest.approx(1.0, abs=1e-10)
    assert perfect.std["P_success"] == pytest.approx(0.0, abs=1e-10)

    noisy = result.cells[3]
    values = noisy.metrics["F_norm"].tolist()
    assert noisy.mean["F_norm"] == pytest.approx(np.mean(values))
    assert noisy.std["F_norm"] == pytest.approx(np.std(values, ddof=1))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    n_copies=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3, unique=True),
    m_grid=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=0.5)),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    samples=st.one_of(st.integers(min_value=1, max_value=12), st.sampled_from([299, 300])),
)
def test_every_trial_row_equals_its_own_trial_rng(seed, experiment, n_copies, m_grid, samples):
    """Row t of a sweep cell's draw equals the stream ``trial_rng`` gives trial t,
    bit for bit, and a reversed ``n_copies_list`` gives the same cells (1- and
    2-word seeds, N up to 8, m = 0 cells mixed with noisy ones)."""
    cfg = SweepConfig(experiment, tuple(n_copies), tuple(m_grid), samples, seed)
    cells = run_sweep(cfg).cells
    assert [(c.n_copies, c.m) for c in cells] == [(n, m) for n in n_copies for m in m_grid]
    for i, cell in enumerate(cells):
        n, mi = cell.n_copies, i % len(m_grid)
        ref = np.stack([
            sample_reflectivity(trial_rng(seed, experiment, n, mi, t), m_grid[mi], (2, n)) for t in range(samples)
        ])
        assert cell.etas.shape == ref.shape and cell.etas.dtype == ref.dtype
        assert cell.etas.tobytes() == ref.tobytes()
    reversed_cells = run_sweep(dataclasses.replace(cfg, n_copies_list=cfg.n_copies_list[::-1])).cells
    by_key = {(c.n_copies, c.m): c for c in reversed_cells}
    for cell in cells:
        _assert_cells_identical(by_key[cell.n_copies, cell.m], cell)


_KEY_WORDS = [0, 1, 2**32 - 1, 2**32]  # one- and two-word key entries


@pytest.mark.parametrize("seed", [*_KEY_WORDS, 2**64 - 1])
def test_stream_draws_what_seedsequence_gives_the_key_tuple(seed):
    """The one stream builder hands SeedSequence the key's uint32 words; its
    generator draws exactly what numpy's own reading of the tuple gives."""
    for experiment_id, n_copies, m_index in itertools.product(range(len(EXPERIMENTS)), _KEY_WORDS, _KEY_WORDS):
        want = np.random.default_rng(np.random.SeedSequence((seed, experiment_id, n_copies, m_index)))
        got = sweep._stream(seed, experiment_id, n_copies, m_index)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(5).tobytes() == want.random(5).tobytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sweep_cells_equal_trial_rng_draws_from_trial_0(experiment):
    """Each cell of a sweep is the one draw sample_reflectivity makes from
    trial_rng(..., 0), bit for bit, m = 0 and m = 0.5 cells included."""
    cfg = SweepConfig(experiment, (3, 1), (0.0, 0.5, 0.2), samples=5, master_seed=2**64 - 1)
    cells = run_sweep(cfg).cells
    for cell, (n, (mi, m)) in zip(cells, itertools.product(cfg.n_copies_list, enumerate(cfg.m_grid)), strict=True):
        want = sample_reflectivity(trial_rng(cfg.master_seed, experiment, n, mi, 0), m, (cfg.samples, 2, n))
        assert (cell.n_copies, cell.m) == (n, m)
        assert cell.etas.tobytes() == want.tobytes()


def test_trial_rng_accepts_numpy_integers():
    for t in (0, 1, 4):
        want = trial_rng(7, "bsm", 3, 1, t).uniform(size=6)
        got = trial_rng(np.uint64(7), "bsm", np.int64(3), np.int64(1), np.int64(t)).uniform(size=6)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_more_samples_keep_the_earlier_trials(experiment):
    """A cell's trial t is the same at any sample count above t."""
    small, large = (
        run_sweep(SweepConfig(experiment, (1, 3), (0.0, 0.25, 0.5), samples=s, master_seed=11)) for s in (3, 7)
    )
    for a, b in zip(small.cells, large.cells, strict=True):
        assert (a.n_copies, a.m) == (b.n_copies, b.m)
        assert a.etas.tobytes() == b.etas[:3].tobytes()
        for col in METRIC_COLUMNS[experiment]:
            assert a.metrics[col].tobytes() == b.metrics[col][:3].tobytes(), col


# sha256 of the N,m,trial,eta columns (header and mean/std rows included) of
# one small sweep per experiment. These columns hold only stream draws and
# their formatting, so the digests are platform-independent.
_DRAW_COLUMN_DIGESTS = {
    "fusion": "d0e882c1b887388fec94953a904fe5dfbb26a303eba56155cde2006783cbe029",
    "bsm": "f59581ad0cae84ddf3f21bebeef18b524f4984e2bc7ea286e480d9c7ff740b63",
    "trace-distance": "d00f7e902bffdf50faf3cbeaca7274f59c9dce870358cd463cf34d2056a50a88",
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_draw_columns_are_pinned(tmp_path, experiment):
    path = tmp_path / "sweep.csv"
    write_csv(run_sweep(SweepConfig(experiment, (1, 3), (0.0, 0.25, 0.5), samples=4, master_seed=2**64 - 1)), path)
    with open(path, encoding="utf-8", newline="") as f:
        text = "".join(f"{r['N']},{r['m']},{r['trial']},{r['eta']}\n" for r in csv.DictReader(f))
    assert hashlib.sha256(text.encode()).hexdigest() == _DRAW_COLUMN_DIGESTS[experiment]


@pytest.mark.parametrize("experiment", ["fusion", "bsm", "trace-distance"])
def test_cell_rows_match_one_trial_cells(experiment):
    """A cell computed in one pass equals its trials computed one at a time."""
    etas = sample_reflectivity(np.random.default_rng(3), 0.4, (5, 2, 3))
    cell = run_cell(experiment, 0.4, etas)
    for s in range(5):
        single = run_cell(experiment, 0.4, etas[s : s + 1])
        for key, values in cell.metrics.items():
            assert values[s] == single.metrics[key][0], key


@pytest.mark.parametrize(
    "experiment, runner",
    [("fusion", "run_fusion_trial"), ("bsm", "run_bsm_trial"), ("trace-distance", "run_trace_trial")],
)
def test_single_trial_runner_equals_run_cell_on_the_same_draw(experiment, runner):
    """The warm-up trial of perfbench/setup_probe.py, called as the probe does,
    gives the bits of run_cell on the same draw."""
    seed = 1001
    got = getattr(sweep, runner)(1, 0.1, 0, trial_rng(seed, experiment, 1, 0, 0))
    want = run_cell(experiment, 0.1, sample_reflectivity(trial_rng(seed, experiment, 1, 0, 0), 0.1, (1, 2, 1)))
    assert (got.n_copies, got.m) == (want.n_copies, want.m)
    assert _same_bits(got.etas, want.etas)
    assert got.metrics.keys() == want.metrics.keys() == set(METRIC_COLUMNS[experiment])
    for col in want.metrics:
        assert _same_bits(got.metrics[col], want.metrics[col]), col
        assert _same_bits(got.mean[col], want.mean[col]) and _same_bits(got.std[col], want.std[col]), col


_VALID_ETAS = np.full((2, 2, 3), 0.4)


def _one_bad_eta(value):
    etas = _VALID_ETAS.copy()
    etas[1, 0, 2] = value
    return etas


@pytest.mark.parametrize(
    "etas, message",
    [
        pytest.param(np.full((2, 3), 0.4), "shape", id="2-D"),
        pytest.param(np.full((2, 3, 2), 0.4), "shape", id="3 layers"),
        pytest.param(np.full((0, 2, 2), 0.4), "shape", id="S=0"),
        pytest.param(np.full((2, 2, 0), 0.4), "shape", id="N=0"),
        pytest.param(_one_bad_eta(np.nan), "got nan", id="NaN"),
        pytest.param(_one_bad_eta(1.2), "got 1.2", id="1.2"),
        pytest.param(_one_bad_eta(-0.01), "got -0.01", id="-0.01"),
        pytest.param(np.full((1, 2, 1), 0.5 + 0.3j), "etas must be real", id="complex"),
    ],
)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_cell_rejects_bad_etas(experiment, etas, message):
    with pytest.raises(ValueError, match=message):
        run_cell(experiment, 0.1, etas)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_cell_reads_copy_count_from_etas(experiment):
    cell = run_cell(experiment, 0.1, _VALID_ETAS)
    assert cell.n_copies == _VALID_ETAS.shape[2]
    assert all(values.shape == (2,) for values in cell.metrics.values())


@pytest.mark.parametrize("m, message", [(0.7, "got 0.7"), (-0.1, "got -0.1"), (math.nan, "got nan")])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_cell_rejects_bad_m(experiment, m, message):
    with pytest.raises(ValueError, match=message):
        run_cell(experiment, m, _VALID_ETAS)


def test_run_cell_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment 'nope'"):
        run_cell("nope", 0.1, _VALID_ETAS)


@pytest.mark.parametrize("change", [lambda v: v[:-1], lambda v: (*v, v[0])], ids=["one-too-few", "one-too-many"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_cell_rejects_a_metric_function_of_the_wrong_width(monkeypatch, experiment, change):
    """The engine pairs the metric stage's values with METRIC_COLUMNS; a
    column too few or too many is an error, not a silently short CSV."""
    metrics = sweep._METRICS[experiment]
    monkeypatch.setitem(sweep._METRICS, experiment, lambda block: change(tuple(metrics(block))))
    with pytest.raises(ValueError):
        run_cell(experiment, 0.1, _VALID_ETAS)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: trial_rng(0, "nope", 1, 0, 0), "unknown experiment 'nope'"),
        (lambda: trial_rng(0, "fusion", 1, 0, -1), "trial must be >= 0, got -1"),
        (lambda: trial_rng(-1, "fusion", 1, 0, 0), r"must be non-negative, got \(-1, 1, 0\)"),
        (lambda: trial_rng(0, "fusion", 1, -1, 0), r"must be non-negative, got \(0, 1, -1\)"),
    ],
    ids=["experiment-trial-rng", "trial-1", "seed-1", "m-index-1"],
)
def test_stream_draws_reject_bad_input(draw, message):
    with pytest.raises(ValueError, match=message):
        draw()


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_bsm_closed_columns_are_the_public_closed_forms(n):
    """The engine and bsm_closed_forms share one formula on the feature copy
    sums, so a cell's *_closed columns equal the public function bit for bit.
    At N <= 7, where a strided and a contiguous copy sum add in the same
    order, they also equal the root sums taken layer by layer."""
    cell = run_cell("bsm", 0.4, sample_reflectivity(np.random.default_rng(900 + n), 0.4, (50, 2, n)))
    eta_h, eta_v = cell.etas[:, 0], cell.etas[:, 1]
    public = bsm_closed_forms(eta_h, eta_v)
    sh, shc, sv, svc = (np.sqrt(x).sum(axis=-1) for x in (eta_h, 1.0 - eta_h, eta_v, 1.0 - eta_v))
    num = (sh * svc + shc * sv) ** 2
    den = (sh**2 + shc**2) * (sv**2 + svc**2)
    root_sums = (num / n**4, den / n**4, num / den)
    for col, want, literal in zip(("F_closed", "P_success_closed", "F_norm_closed"), public, root_sums, strict=True):
        assert _same_bits(cell.metrics[col], want), col
        if n <= 7:
            assert _same_bits(cell.metrics[col], literal), col


def _assert_cells_identical(got, want):
    assert (got.n_copies, got.m) == (want.n_copies, want.m)
    assert got.etas.shape == want.etas.shape and _same_bits(got.etas, want.etas)
    assert got.metrics.keys() == want.metrics.keys()
    for col in want.metrics:
        assert got.metrics[col].shape == want.metrics[col].shape, col
        assert _same_bits(got.metrics[col], want.metrics[col]), col
        assert _same_bits(got.mean[col], want.mean[col]), col
        assert _same_bits(got.std[col], want.std[col]), col


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    n_copies=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3, unique=True),
    m_grid=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=0.5)),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    samples=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_sweep_cells_equal_one_cell_runs(experiment, n_copies, m_grid, samples, seed):
    """The cells of one copy count run in one engine call; each must equal
    run_cell on its own etas, bit for bit (m = 0 cells, S = 1, N up to 8)."""
    result = run_sweep(SweepConfig(experiment, tuple(n_copies), tuple(m_grid), samples, seed))
    assert [(c.n_copies, c.m) for c in result.cells] == [(n, m) for n in n_copies for m in m_grid]
    for cell in result.cells:
        _assert_cells_identical(cell, run_cell(experiment, cell.m, cell.etas.copy()))


# The engine as of commit 1f787fe, copied literally as the reference for the
# two-stage engine: one metric call per copy count on the (C * S, 2, N)
# reflectivities of its cells, then each cell's statistics from its own
# (columns, S) table.


def _ref_features(eta_1, eta_2):
    eta_1, eta_2 = np.broadcast_arrays(eta_1, eta_2)
    return np.sqrt(np.stack([eta_1, 1.0 - eta_1, eta_2, 1.0 - eta_2], axis=-1))


def _ref_fusion_products(eta_x, eta_y):
    f = _ref_features(eta_x, eta_y)
    products = np.swapaxes(f, -1, -2) @ f / f.shape[-2]  # copy mean of f_a f_b
    return products.reshape(products.shape[:-2] + (16,))


def _ref_bsm_closed(sums, n):
    sh, shc, sv, svc = np.moveaxis(sums, -1, 0)
    num = (sh * svc + shc * sv) ** 2
    den = (sh**2 + shc**2) * (sv**2 + svc**2)
    return num / n**4, den / n**4, num / den


# The reference forms every one of the ten two-photon patterns, from its own
# mode and bunching table, where the engine's fusion forms only its four.
_REF_PATTERNS = tuple(BSM_PATTERNS.values())
_REF_PATTERN_MODES = np.array([[k for k, c in enumerate(p) for _ in range(c)] for p in _REF_PATTERNS]).T
_REF_BUNCHING = np.where(_REF_PATTERN_MODES[0] == _REF_PATTERN_MODES[1], _SQRT_HALF, 1.0)


def _ref_pair_amplitudes(mean, i, j):
    shape = (-1,) + (1,) * np.broadcast(i, j).ndim
    k, l = _REF_PATTERN_MODES.reshape(2, *shape)
    m = mean.transpose(1, 2, 0).copy()  # trials last: each product runs along contiguous trials
    amp = (m[k, i] * m[l, j] + m[l, i] * m[k, j]) * _REF_BUNCHING.reshape(*shape, 1)
    return np.moveaxis(amp, -1, 0).copy()  # C order: the metrics sum along contiguous axes


def _ref_fusion_metrics(etas):
    products = _ref_fusion_products(etas[:, 0], etas[:, 1])
    mean = _linear(products, _FUSION)
    kraus = _SQRT_HALF * _SQRT_HALF * _ref_pair_amplitudes(mean, [[1], [0]], [[3, 2]])
    prob = np.sum(np.abs(kraus) ** 2, axis=(-2, -1))
    hh = _REF_PATTERNS.index(FUSION_PATTERNS["HH"])
    f_hh = fidelity(np.diagonal(kraus[:, hh], axis1=-2, axis2=-1), np.array([_SQRT_HALF, _SQRT_HALF]))  # phi+ on (VV, HH)
    p_hh = prob[:, hh]
    heralded = p_hh > 0
    f_hh_norm = np.full(len(p_hh), math.nan)
    f_hh_norm[heralded] = normalized_fidelity(f_hh[heralded], p_hh[heralded])
    p_single = sum(prob[:, _REF_PATTERNS.index(p)] for p in FUSION_PATTERNS.values())
    return f_hh, p_hh, f_hh_norm, p_single, sweep.trace_distance(products)


def _ref_bsm_metrics(etas):
    sums = _ref_features(etas[:, 0], etas[:, 1]).sum(axis=-2)
    amp = _SQRT_HALF * _ref_pair_amplitudes(_linear(sums / etas.shape[-1], _ANALYZER), [0, 1], [3, 2])
    out = amp[..., 0] + amp[..., 1]
    f = fidelity(out, sweep._BSM_TARGET)
    p_success = np.sum(np.abs(out) ** 2, axis=-1)
    return f, p_success, normalized_fidelity(f, p_success), *_ref_bsm_closed(sums, etas.shape[-1])


def _ref_trace_metrics(etas):
    return (sweep.trace_distance(_ref_fusion_products(etas[:, 0], etas[:, 1])),)


_REF_METRICS = {"fusion": _ref_fusion_metrics, "bsm": _ref_bsm_metrics, "trace-distance": _ref_trace_metrics}


def _ref_stats(metrics):
    table = np.stack(list(metrics.values()))
    if table.shape[1] < 2 or np.isnan(table).any():
        means, stds = zip(*map(sweep._mean_std, metrics.values()))
    else:
        means, stds = table.mean(axis=1).tolist(), table.std(axis=1, ddof=1).tolist()
    return dict(zip(metrics, means)), dict(zip(metrics, stds))


def _ref_run_cells(experiment, ms, etas):
    """(metrics, mean, std) of each cell of the (C, S, 2, N) stack of one copy count."""
    c, s, _, n = etas.shape
    values = dict(zip(METRIC_COLUMNS[experiment], _REF_METRICS[experiment](etas.reshape(c * s, 2, n)), strict=True))
    metrics = {col: v.reshape(c, s) for col, v in values.items()}
    cells = [{col: v[i] for col, v in metrics.items()} for i in range(len(ms))]
    return [(cell, *_ref_stats(cell)) for cell in cells]


def _assert_equals_reference(result: SweepResult):
    """Every cell of ``result`` against the reference engine run per copy count on the same draws."""
    cfg = result.config
    for k, n in enumerate(cfg.n_copies_list):
        cells = result.cells[k * len(cfg.m_grid) : (k + 1) * len(cfg.m_grid)]
        assert [(c.n_copies, c.m) for c in cells] == [(n, m) for m in cfg.m_grid]
        ref = _ref_run_cells(cfg.experiment, cfg.m_grid, np.stack([c.etas for c in cells]))
        for cell, (metrics, mean, std) in zip(cells, ref, strict=True):
            assert cell.metrics.keys() == metrics.keys() == mean.keys() == std.keys()
            for col in metrics:
                assert cell.metrics[col].shape == metrics[col].shape, col
                assert _same_bits(cell.metrics[col], metrics[col]), col
                assert _same_bits(cell.mean[col], mean[col]) and type(cell.mean[col]) is float, col
                assert _same_bits(cell.std[col], std[col]) and type(cell.std[col]) is float, col


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    n_copies=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3, unique=True),
    m_grid=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=0.5)),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    samples=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    block=st.one_of(st.integers(min_value=1, max_value=9), st.just(sweep._BLOCK)),
)
def test_run_sweep_equals_the_reference_engine_bit_for_bit(experiment, n_copies, m_grid, samples, seed, block):
    """Every metric array, mean and std of every cell equals the one-call-per-N
    engine of 1f787fe bit for bit, at the real block size and at blocks of a
    few trials that cut cells and copy counts apart (m = 0 and 0.5, S = 1)."""
    cfg = SweepConfig(experiment, tuple(n_copies), tuple(m_grid), samples, seed)
    with mock.patch.object(sweep, "_BLOCK", block):
        result = run_sweep(cfg)
    _assert_equals_reference(result)


def test_pair_amplitudes_weigh_each_rail_pair():
    """``weights`` multiply each rail pair's amplitudes, in the index shapes of
    the fusion's 2x2 rail block and of the analyzer's two psi pairs."""
    rng = np.random.default_rng(5)
    mean = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    for rails, weights in (
        (([[0], [1]], [[0, 1]]), np.array([[0.5, -2.0], [3.0, 0.25]])),
        (([0, 1], [1, 0]), np.array([0.5, -0.75])),
    ):
        plain = sweep._pair_amplitudes(mean, slice(None), rails)
        weighed = sweep._pair_amplitudes(mean, slice(None), rails, weights)
        np.testing.assert_allclose(weighed, plain * weights, rtol=1e-15, atol=0)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_sweep_of_several_blocks_equals_the_reference_engine(experiment):
    """36 000 trials at the real block size: at least three blocks, and the
    cells that hold the first two block boundaries straddle them."""
    cfg = SweepConfig(experiment, (1, 2, 3), (0.0, 0.2, 0.5), samples=4000, master_seed=2**64 - 1)
    starts = [k * cfg.samples for k in range(9)]
    assert -(-9 * cfg.samples // sweep._BLOCK) >= 3
    assert all(any(lo < b < lo + cfg.samples for lo in starts) for b in (sweep._BLOCK, 2 * sweep._BLOCK))
    _assert_equals_reference(run_sweep(cfg))


def test_stacked_cells_with_an_undefined_trial_equal_one_cell_runs():
    """A stack holding a fusion trial with P_HH = 0 (N = 1, etas (0, 1)) keeps
    its NaN F_HH_norm in its own cell and leaves the other cell's bits alone."""
    etas = np.array([[[[0.4], [0.55]], [[0.0], [1.0]]], [[[0.6], [0.3]], [[0.45], [0.5]]]])
    cells = sweep._run_cells("fusion", (0.5, 0.2), etas)
    assert np.isnan(cells[0].metrics["F_HH_norm"][1]) and not np.isnan(cells[1].metrics["F_HH_norm"]).any()
    for cell, m, cell_etas in zip(cells, (0.5, 0.2), etas, strict=True):
        _assert_cells_identical(cell, run_cell("fusion", m, cell_etas.copy()))
    _assert_equals_reference(SweepResult(SweepConfig("fusion", (1,), (0.5, 0.2), 2, 0), tuple(cells)))


def _count_stage_calls(monkeypatch, experiment):
    """Record the input shape of every stage-1 (copy means) and stage-2 (metrics) call."""
    stage1, stage2 = [], []
    for table, calls in ((sweep._COPY_MEANS, stage1), (sweep._METRICS, stage2)):
        def counted(*args, stage=table[experiment], calls=calls):
            calls.append(tuple(x.shape for x in args))
            return stage(*args)

        monkeypatch.setitem(table, experiment, counted)
    return stage1, stage2


@pytest.mark.parametrize("block", [None, 7, 20, 61], ids=["default-block", "block-7", "block-20", "block-61"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_sweep_takes_copy_means_once_per_copy_count_in_a_block_and_metrics_once_per_block(
    monkeypatch, experiment, block
):
    """Each block of trials runs stage 1 once per copy count it holds, on that
    copy count's trials in the block, then stage 2 once; blocks cut across cells
    and copy counts, and they do not change a bit."""
    cfg = SweepConfig(experiment, (1, 3, 2), (0.0, 0.1, 0.2, 0.4), samples=5, master_seed=7)
    want = run_sweep(cfg)
    if block is not None:
        monkeypatch.setattr(sweep, "_BLOCK", block)
    stage1, stage2 = _count_stage_calls(monkeypatch, experiment)
    result = run_sweep(cfg)
    size = sweep._BLOCK
    copy_count = [n for n in cfg.n_copies_list for _ in range(len(cfg.m_grid) * cfg.samples)]
    total = len(copy_count)
    runs = [
        (len(list(trials)), n)
        for lo in range(0, total, size)
        for n, trials in itertools.groupby(copy_count[lo : lo + size])
    ]
    assert stage1 == [(run, run) for run in runs]
    assert [shape[0] for (shape,) in stage2] == [min(size, total - lo) for lo in range(0, total, size)]
    assert len(result.cells) == len(cfg.n_copies_list) * len(cfg.m_grid)
    for got, ref in zip(result.cells, want.cells, strict=True):
        _assert_cells_identical(got, ref)


@pytest.mark.parametrize("block", [7, 11])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_stage_1_of_a_block_starts_after_the_last_block_is_let_go(monkeypatch, experiment, block):
    """The engine holds one block's stage-1 rows at a time, its stage-2 input
    included, with blocks that cross copy counts."""
    held, let_go = [], []
    stage1, stage2 = sweep._COPY_MEANS[experiment], sweep._METRICS[experiment]

    def owner(rows):
        return weakref.ref(rows if rows.base is None else rows.base)  # views keep their owner alive

    def copy_means(eta_1, eta_2):
        assert all(ref() is None for ref in let_go)
        rows = stage1(eta_1, eta_2)
        held.append(owner(rows))
        return rows

    def metrics(rows):
        let_go.extend([*held, owner(rows)])
        held.clear()
        return stage2(rows)

    cfg = SweepConfig(experiment, (1, 3, 2), (0.0, 0.2), samples=5, master_seed=3)
    want = run_sweep(cfg)
    monkeypatch.setattr(sweep, "_BLOCK", block)
    monkeypatch.setitem(sweep._COPY_MEANS, experiment, copy_means)
    monkeypatch.setitem(sweep._METRICS, experiment, metrics)
    result = run_sweep(cfg)
    assert len(let_go) > 2 * -(-30 // block)  # some block runs stage 1 on two copy counts
    for got, ref in zip(result.cells, want.cells, strict=True):
        _assert_cells_identical(got, ref)


@pytest.mark.parametrize("command", ["fusion-sweep", "bsm-sweep", "trace-distance"])
def test_every_default_cli_grid_is_one_metric_block(monkeypatch, tmp_path, command):
    experiment = cli._SWEEPS[command][0]
    stage1, stage2 = _count_stage_calls(monkeypatch, experiment)
    assert cli.main([command, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(stage2) == 1 and stage2[0][0][0] == sum(eta_1[0] for eta_1, _ in stage1)


@pytest.mark.parametrize(
    "name, command",
    [
        ("fidelity", "fusion-sweep"),
        ("fidelity", "bsm-sweep"),
        ("trace_distance", "fusion-sweep"),
        ("trace_distance", "trace-distance"),
        *((name, command) for name in ("run_sweep", "trial_rng", "sample_reflectivity")
          for command in ("fusion-sweep", "bsm-sweep", "trace-distance")),
    ],
)
def test_sweeps_call_the_names_perfbench_patches_as_sweep_globals(monkeypatch, tmp_path, name, command):
    """perfbench's layer tracer and its perturbation tests replace these
    ``sweep`` module globals (and every package binding of the same function),
    so a sweep must look them up there on every call it makes. A sweep draws
    its cells through the unchecked ``_stream`` and ``_reflectivities``, so it
    calls ``trial_rng`` and ``sample_reflectivity`` not at all, and their
    traced time is ``run_sweep``'s own."""
    original, calls = getattr(sweep, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (sweep, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    assert cli.main([command, "--samples", "2", "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == {"trial_rng": 0, "sample_reflectivity": 0}.get(name, 1)


@pytest.mark.parametrize("undefined", [False, True], ids=["defined", "one-nan"])
@pytest.mark.parametrize("samples", [1, 2, 7, 8, 9, 127, 128, 129, 200])
def test_cell_stats_equal_per_column_mean_std(samples, undefined):
    """A cell from run_cell holds _mean_std's bits for every metric column,
    also when one trial's F_HH_norm is undefined (NaN) and the others are not."""
    etas = sample_reflectivity(np.random.default_rng(samples), 0.3, (samples, 2, 1))
    if undefined:
        etas[samples // 2] = [[0.0], [1.0]]  # N = 1: the HH pattern never fires
    cell = run_cell("fusion", 0.3, etas)
    assert np.isnan(cell.metrics["F_HH_norm"]).sum() == undefined
    for col, values in cell.metrics.items():
        mean, std = sweep._mean_std(values)
        assert _same_bits(cell.mean[col], mean) and _same_bits(cell.std[col], std), col
    assert math.isnan(cell.mean["F_HH_norm"]) == (undefined and samples == 1)


@pytest.mark.parametrize("samples", [1, 2, 7, 8, 9, 127, 128, 129, 200, 20_000])
def test_stacked_stats_equal_per_column_mean_std(samples, monkeypatch):
    """One pass over a (columns, cells, S) table gives each row the bits of
    _mean_std on that row alone, rows with a NaN and S = 1 included. Only a
    row holding a NaN at S >= 2 is passed to _mean_std."""
    rng = np.random.default_rng(samples)
    table = rng.uniform(0.0, 1.0, (3, 4, samples)) * np.array([1e-3, 1.0, 1e3])[:, None, None]
    table[1, 2, samples // 2] = math.nan
    table[2, 0, :] = math.nan
    table[0, 3, 0] = -0.0  # at S = 1 the row holds -0.0 alone, and its mean is 0.0
    passed, mean_std = [], sweep._mean_std
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_mean_std", lambda values: passed.append(values) or mean_std(values))
        means, stds = sweep._stats(table)
    assert [row.tobytes() for row in passed] == ([] if samples == 1 else [table[1, 2].tobytes(), table[2, 0].tobytes()])
    for col in range(3):
        for cell in range(4):
            mean, std = sweep._mean_std(table[col, cell])
            assert _same_bits(means[cell][col], mean) and _same_bits(stds[cell][col], std), (col, cell)
            assert type(means[cell][col]) is float and type(stds[cell][col]) is float


def test_cell_stats_are_fixed_when_the_cell_is_made():
    """mean and std are computed by the stats pass that makes the cell, not on
    first read, so a later in-place write to a metric column does not reach them."""
    etas = sample_reflectivity(np.random.default_rng(5), 0.3, (9, 2, 1))
    cell = run_cell("trace-distance", 0.3, etas)
    values = cell.metrics["trace_distance"]
    mean, std = sweep._mean_std(values)
    values[0] = 7.0
    assert cell.metrics["trace_distance"][0] == 7.0
    assert _same_bits(cell.mean["trace_distance"], mean) and _same_bits(cell.std["trace_distance"], std)


def test_undefined_conditional_fidelity_is_nan_and_left_out_of_the_stats():
    """At N = 1 with etas (0, 1) the HH pattern never fires: P_HH = 0 and
    F_HH_norm is undefined. It must be NaN and not bias the cell's stats."""
    normal = [[[0.4], [0.55]], [[0.6], [0.3]], [[0.45], [0.5]]]
    etas = np.array([normal[0], [[0.0], [1.0]], *normal[1:]])
    cell = run_cell("fusion", 0.5, etas)
    p_hh, f_norm = cell.metrics["P_HH"], cell.metrics["F_HH_norm"]
    assert p_hh[1] == 0.0
    assert np.isnan(f_norm[1])
    assert np.isnan(cell.metrics["F_HH_norm"]).sum() == 1  # the undefined-trial count
    defined = f_norm[[0, 2, 3]]
    assert cell.mean["F_HH_norm"] == pytest.approx(defined.mean(), abs=1e-15)
    assert cell.std["F_HH_norm"] == pytest.approx(defined.std(ddof=1), abs=1e-15)
    assert cell.mean["P_HH"] == pytest.approx(p_hh.mean(), abs=1e-15)  # other columns keep every trial
    assert not any(np.isnan(v) for v in (*cell.mean.values(), *cell.std.values()))

    one_defined = run_cell("fusion", 0.5, etas[:2])
    assert one_defined.std["F_HH_norm"] == 0.0

    none_defined = run_cell("fusion", 0.5, np.array([[[0.0], [1.0]], [[1.0], [0.0]]]))
    assert np.isnan(none_defined.metrics["F_HH_norm"]).all()
    assert np.isnan(none_defined.mean["F_HH_norm"]) and np.isnan(none_defined.std["F_HH_norm"])
    assert none_defined.mean["P_HH"] == 0.0

    # the plot leaves out the cell with no defined trial instead of drawing at NaN
    cfg = SweepConfig("fusion", (1,), (0.5,), samples=2, master_seed=0)
    svg = render_sweep_svg(SweepResult(cfg, (cell, none_defined)))
    assert "nan" not in svg and svg.count("<circle") == 1


def _undefined_fusion_result() -> SweepResult:
    """A fusion sweep whose only cell has F_HH_norm undefined in every trial."""
    cfg = SweepConfig("fusion", (1,), (0.5,), samples=1, master_seed=0)
    return SweepResult(cfg, (run_cell("fusion", 0.5, np.array([[[0.0], [1.0]]])),))


def test_svg_without_a_defined_mean_names_the_metric():
    with pytest.raises(ValueError, match="F_HH_norm"):
        render_sweep_svg(_undefined_fusion_result())


def test_failed_svg_render_keeps_previous_file(tmp_path):
    path = tmp_path / "plot.svg"
    path.write_text("previous", encoding="utf-8")
    with pytest.raises(ValueError):
        write_svg(_undefined_fusion_result(), path)
    assert path.read_text(encoding="utf-8") == "previous"


#: Scripted plot metric per copy count N, one list of trial values per m.
#: The values are dyadic, so each cell's mean and std do not depend on the
#: order numpy sums in; each experiment has a NaN-mean cell, a zero-std
#: point and a one-point series; trace-distance has one m, as the CLI runs it.
_SVG_SERIES = {
    "fusion": {
        1: [[1.0, 1.0], [0.875, 0.75], [0.5, 0.625]],
        2: [[1.0, math.nan], [math.nan, math.nan], [0.75, 0.6875]],
        4: [[math.nan, math.nan], [0.9375, 0.8125], [math.nan, math.nan]],
    },
    "bsm": {
        1: [[1.0, 1.0], [0.96875, 0.90625], [0.8125, 0.875]],
        3: [[math.nan, math.nan], [0.984375, 0.953125], [0.9375, 0.9375]],
        6: [[1.0, 1.0], [math.nan, math.nan], [math.nan, math.nan]],
    },
    "trace-distance": {
        1: [[0.25, 0.125]],
        2: [[math.nan, math.nan]],
        3: [[0.0625, 0.0625]],
        6: [[0.03125, math.nan]],
    },
}

_SVG_DIGESTS = {
    "fusion": "25e6edf853d783b9df43da656b7104b264a79365c1f22ac3cf16891b8069bb8c",
    "bsm": "8b24fa96c6ee6e9d7d7cf965ff6096ead59f5265962d91623f6b9e871df40e3f",
    "trace-distance": "a8917eb372cf3e5be6ef71947bc820d4d20a2e76f57155b93acf651f7caee92c",
}


def _scripted_result(experiment: str) -> SweepResult:
    series = _SVG_SERIES[experiment]
    m_grid = (0.2,) if experiment == "trace-distance" else (0.0, 0.25, 0.5)
    cfg = SweepConfig(experiment, tuple(series), m_grid, samples=2, master_seed=0)
    metric = sweep.DEFAULT_PLOT_METRIC[experiment]
    cells = []
    for n, rows in series.items():
        for m, values in zip(m_grid, rows, strict=True):
            mean, std = sweep._mean_std(np.array(values))
            cells.append(sweep.Cell(n, m, np.full((2, 2, n), 0.5), {metric: np.array(values)}, {metric: mean}, {metric: std}))
    return SweepResult(cfg, tuple(cells))


@pytest.mark.parametrize("experiment", ["fusion", "bsm", "trace-distance"])
def test_svg_bytes_are_pinned(tmp_path, experiment):
    path = tmp_path / "plot.svg"
    write_svg(_scripted_result(experiment), path)
    raw = path.read_bytes()
    assert raw.decode("utf-8") == render_sweep_svg(_scripted_result(experiment))
    assert hashlib.sha256(raw).hexdigest() == _SVG_DIGESTS[experiment]


def test_failed_svg_write_keeps_previous_file(tmp_path, monkeypatch):
    """A write that fails part-way through the document leaves the old plot and no temporary file."""
    path = tmp_path / "plot.svg"
    path.write_text("previous", encoding="utf-8")
    written = []
    real_open = open

    class FailingFile:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def writelines(self, chunks):
            for chunk in chunks:
                self.f.write(chunk[: len(chunk) // 2])
                written.append(chunk)
                raise OSError("disk full")

    monkeypatch.setattr(sweep, "open", lambda *a, **k: FailingFile(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_svg(_scripted_result("fusion"), path)
    assert written and written[0].startswith(b"<?xml")  # the document reached the temporary file
    assert path.read_text(encoding="utf-8") == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["plot.svg"]


def test_run_sweep_single_sample_std_is_zero():
    cfg = SweepConfig("trace-distance", (2,), (0.2,), samples=1, master_seed=1)
    result = run_sweep(cfg)
    assert result.cells[0].std["trace_distance"] == 0.0


def test_run_sweep_is_deterministic():
    a = run_sweep(_tiny_config())
    b = run_sweep(_tiny_config())
    for ca, cb in zip(a.cells, b.cells, strict=True):
        np.testing.assert_array_equal(ca.etas, cb.etas)
        assert ca.metrics.keys() == cb.metrics.keys()
        for key in ca.metrics:
            np.testing.assert_array_equal(ca.metrics[key], cb.metrics[key])


def test_a_cell_equals_only_itself():
    a, b = run_sweep(_tiny_config()).cells[:2]
    twin = run_sweep(_tiny_config()).cells[0]
    assert a == a
    assert a != b and a != twin


def test_a_cell_is_found_in_its_sweep_by_identity():
    cells = run_sweep(_tiny_config()).cells
    assert cells[1] in cells
    assert run_sweep(_tiny_config()).cells[1] not in cells


def test_a_cell_hashes():
    cells = run_sweep(_tiny_config()).cells
    assert hash(cells[0]) == hash(cells[0])
    assert len(set(cells)) == len(cells)


def test_a_sweep_result_equals_only_itself_and_hashes():
    a, b = run_sweep(_tiny_config()), run_sweep(_tiny_config())
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_csv_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config())
    write_csv(result, path)
    raw = path.read_bytes()
    assert b"\r" not in raw

    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    columns = METRIC_COLUMNS["bsm"]
    assert rows[0] == ["experiment", "N", "m", "trial", "eta", *columns, "row_kind"]
    # one header + per cell: samples trial rows, one mean row, one std row
    assert len(rows) == 1 + 4 * (3 + 2)

    kinds = [r[-1] for r in rows[1:]]
    assert kinds == (["trial"] * 3 + ["mean", "std"]) * 4

    first = rows[1]
    assert first[0] == "bsm" and first[1] == "1" and first[3] == "0"
    assert first[2] == "0"  # m = 0 printed by round-trip format
    assert first[4].count(";") == 1  # 2N reflectivities, semicolon-joined

    mean_row = rows[4]
    assert mean_row[-1] == "mean" and mean_row[3] == "" and mean_row[4] == ""
    # round-trip: parsing a serialized metric reproduces the float exactly
    assert float(rows[1][5]) == result.cells[0].metrics[columns[0]][0]
    noisy_eta = rows[1 + 3 * (3 + 2)][4].split(";")
    assert len(noisy_eta) == 4 and all(0.2 <= float(e) <= 0.8 for e in noisy_eta)


def test_csv_bytes_identical_for_same_config(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(run_sweep(_tiny_config()), first)
    write_csv(run_sweep(_tiny_config()), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("experiment", ["fusion", "bsm", "trace-distance"])
def test_csv_round_trip_reproduces_every_trial(tmp_path, experiment):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config(experiment=experiment))
    write_csv(result, path)
    with open(path, encoding="utf-8", newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["row_kind"] == "trial"]
    trials = [(cell, s) for cell in result.cells for s in range(len(cell.etas))]
    assert len(rows) == len(trials)
    for row, (cell, s) in zip(rows, trials):
        assert (int(row["N"]), float(row["m"]), int(row["trial"])) == (cell.n_copies, cell.m, s)
        assert [float(e) for e in row["eta"].split(";")] == cell.etas[s].ravel().tolist()
        assert {c: float(row[c]) for c in METRIC_COLUMNS[experiment]} == {
            c: values[s] for c, values in cell.metrics.items()
        }


def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config())
    write_csv(result, path)
    before = path.read_bytes()
    calls = []
    words = g17.words

    def failing_words(values):
        calls.append(len(values))
        if len(calls) > 2:
            raise OSError("disk full")
        return words(values)

    monkeypatch.setattr(g17, "_BLOCK", 16)  # a few trial rows per block
    monkeypatch.setattr(g17, "words", failing_words)
    with pytest.raises(OSError, match="disk full"):
        write_csv(result, path)
    assert len(calls) > 2  # the failure hit part-way through the rows
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_csv_chunks_are_bytes_that_join_to_the_written_file(tmp_path, monkeypatch):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config())
    monkeypatch.setattr(g17, "_BLOCK", 16)  # a few trial rows per block
    chunks = list(g17.chunks(result))
    assert len(chunks) > 3 and all(type(chunk) is bytes for chunk in chunks)
    write_csv(result, path)
    assert b"".join(chunks) == path.read_bytes()


@pytest.mark.parametrize("kind", [str, os.fsencode, pathlib.Path], ids=["str", "bytes", "Path"])
def test_writers_write_the_same_bytes_to_str_bytes_and_path_targets(tmp_path, kind):
    """write_atomic names its temporary file in the target's directory for
    every path type ``open`` accepts, and leaves no temporary file behind."""
    result = run_sweep(_tiny_config())
    (tmp_path / "want").mkdir()
    (tmp_path / "got").mkdir()
    for name, write in (("out.csv", write_csv), ("out.svg", write_svg)):
        write(result, str(tmp_path / "want" / name))
        write(result, kind(str(tmp_path / "got" / name)))
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == ["out.csv", "out.svg"]


def test_write_csv_rejects_unwritable_path(tmp_path):
    result = run_sweep(_tiny_config())
    with pytest.raises(OSError):
        write_csv(result, tmp_path / "missing" / "out.csv")
