"""Tests for the Monte-Carlo sweep harness and its CSV output."""

import csv
import io

import numpy as np
import pytest

from avgfusion import sweep
from avgfusion.averaging import build_averaged_network, postselect_vacuum_ancilla, run_averaged
from avgfusion.detection import fusion_outcomes
from avgfusion.fock import TransferMatrix, apply_transfer
from avgfusion.interferometers import direct_sum, effective_average, fusion_gate
from avgfusion.metrics import bell_state, fidelity
from avgfusion.sweep import (
    METRIC_COLUMNS,
    SweepConfig,
    _fusion_input,
    run_bsm_trial,
    run_fusion_trial,
    run_sweep,
    run_trace_trial,
    sample_reflectivity,
    trial_rng,
    write_csv,
)


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
    rec = run_fusion_trial(n, 0.0, 0, trial_rng(42, "fusion", n, 0, 0))
    assert rec.etas == (0.5,) * (2 * n)
    assert rec.metrics["F_HH"] == pytest.approx(0.125, abs=1e-10)
    assert rec.metrics["P_HH"] == pytest.approx(0.125, abs=1e-10)
    assert rec.metrics["F_HH_norm"] == pytest.approx(1.0, abs=1e-10)
    assert rec.metrics["P_single"] == pytest.approx(0.5, abs=1e-10)
    assert rec.metrics["trace_distance"] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_bsm_trial_balanced_point(n):
    rec = run_bsm_trial(n, 0.0, 0, trial_rng(42, "bsm", n, 0, 0))
    for key in ("F", "P_success", "F_norm", "F_closed", "P_success_closed", "F_norm_closed"):
        assert rec.metrics[key] == pytest.approx(1.0, abs=1e-10)


def test_trial_record_invariants_under_noise():
    for trial in range(20):
        rec = run_fusion_trial(2, 0.4, trial, trial_rng(9, "fusion", 2, 0, trial))
        m = rec.metrics
        assert 0.0 <= m["P_HH"] <= 1.0
        assert 0.0 <= m["P_single"] <= 1.0
        assert m["F_HH"] <= m["P_HH"] + 1e-12
        assert 0.0 <= m["F_HH_norm"] <= 1.0 + 1e-12
        assert all(0.0 <= e <= 1.0 for e in rec.etas) and len(rec.etas) == 4

        rec = run_bsm_trial(2, 0.4, trial, trial_rng(9, "bsm", 2, 0, trial))
        m = rec.metrics
        assert m["F"] <= m["P_success"] + 1e-12
        assert m["F"] == pytest.approx(m["F_closed"], abs=1e-9)
        assert m["P_success"] == pytest.approx(m["P_success_closed"], abs=1e-9)
        assert m["F_norm"] == pytest.approx(m["F_norm_closed"], abs=1e-9)


def test_fusion_trial_matches_average_operator_oracle():
    """Recompute a fusion record from its logged reflectivities via the
    mean-of-copies operator applied as a single (non-unitary) transfer."""
    for trial in range(5):
        rec = run_fusion_trial(2, 0.2, trial, trial_rng(11, "fusion", 2, 0, trial))
        eta_x, eta_y = rec.etas[:2], rec.etas[2:]
        copies = [fusion_gate(ex, ey) for ex, ey in zip(eta_x, eta_y)]
        averaged = direct_sum([effective_average(copies), TransferMatrix(np.eye(4))])
        state = apply_transfer(averaged, _fusion_input())
        outcomes = fusion_outcomes(state, (0, 1, 2, 3))
        assert outcomes["HH"].probability == pytest.approx(rec.metrics["P_HH"], abs=1e-10)
        f_hh = fidelity(outcomes["HH"].residual, bell_state("phi+"))
        assert f_hh == pytest.approx(rec.metrics["F_HH"], abs=1e-10)
        p_single = sum(o.probability for o in outcomes.values())
        assert p_single == pytest.approx(rec.metrics["P_single"], abs=1e-10)


def test_trace_trial_decreases_with_copies_on_average():
    means = []
    for n in (1, 3):
        values = [
            run_trace_trial(n, 0.2, t, trial_rng(5, "trace-distance", n, 0, t)).metrics[
                "trace_distance"
            ]
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
        {**good, "samples": 0},
        {**good, "master_seed": -1},
        {**good, "master_seed": 2**64},
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)


def _tiny_config(out_path=None, experiment="bsm"):
    return SweepConfig(
        experiment=experiment,
        n_copies_list=(1, 2),
        m_grid=(0.0, 0.3),
        samples=3,
        master_seed=42,
        out_path=str(out_path) if out_path is not None else None,
    )


def test_run_sweep_shape_and_aggregates():
    result = run_sweep(_tiny_config())
    assert len(result.trials) == 2 * 2 * 3
    assert len(result.summaries) == 4
    assert len(result.cell_trials(2, 0.3)) == 3

    perfect = next(s for s in result.summaries if s.n_copies == 1 and s.m == 0.0)
    assert perfect.mean["P_success"] == pytest.approx(1.0, abs=1e-10)
    assert perfect.std["P_success"] == pytest.approx(0.0, abs=1e-10)

    noisy = next(s for s in result.summaries if s.n_copies == 2 and s.m == 0.3)
    values = [t.metrics["F_norm"] for t in result.cell_trials(2, 0.3)]
    assert noisy.mean["F_norm"] == pytest.approx(np.mean(values))
    assert noisy.std["F_norm"] == pytest.approx(np.std(values, ddof=1))


def test_run_sweep_single_sample_std_is_zero():
    cfg = SweepConfig("trace-distance", (2,), (0.2,), samples=1, master_seed=1)
    result = run_sweep(cfg)
    assert result.summaries[0].std["trace_distance"] == 0.0


def test_run_sweep_is_deterministic():
    a = run_sweep(_tiny_config())
    b = run_sweep(_tiny_config())
    for ta, tb in zip(a.trials, b.trials):
        assert ta.etas == tb.etas
        assert ta.metrics == tb.metrics


def test_csv_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config(out_path=path))
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
    rec = result.trials[0]
    assert float(rows[1][5]) == rec.metrics[columns[0]]
    noisy_eta = rows[1 + 3 * (3 + 2)][4].split(";")
    assert all(float(e) in rec.etas or 0.0 <= float(e) <= 1.0 for e in noisy_eta)


def test_csv_bytes_identical_for_same_config(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    run_sweep(_tiny_config(out_path=first))
    run_sweep(_tiny_config(out_path=second))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("experiment", ["fusion", "bsm", "trace-distance"])
def test_csv_round_trip_reproduces_every_trial(tmp_path, experiment):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config(out_path=path, experiment=experiment))
    with open(path, encoding="utf-8", newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["row_kind"] == "trial"]
    assert len(rows) == len(result.trials)
    for row, rec in zip(rows, result.trials):
        assert (int(row["N"]), float(row["m"]), int(row["trial"])) == (rec.n_copies, rec.m, rec.trial)
        assert tuple(float(e) for e in row["eta"].split(";")) == rec.etas
        assert {c: float(row[c]) for c in METRIC_COLUMNS[experiment]} == rec.metrics


def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config(out_path=path))
    before = path.read_bytes()
    calls = []

    def failing_fmt(x):
        calls.append(x)
        if len(calls) > 20:
            raise OSError("disk full")
        return "%.17g" % x

    monkeypatch.setattr(sweep, "_fmt", failing_fmt)
    with pytest.raises(OSError, match="disk full"):
        write_csv(result, path)
    assert len(calls) > 20  # the failure hit part-way through the rows
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_write_csv_rejects_unwritable_path(tmp_path):
    result = run_sweep(_tiny_config())
    with pytest.raises(OSError):
        write_csv(result, tmp_path / "missing" / "out.csv")
