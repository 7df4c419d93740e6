"""Tests for the CSV float kernel and the bytes write_csv writes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgfusion import g17
from avgfusion.sweep import METRIC_COLUMNS, SweepConfig, SweepResult, run_cell, run_sweep, write_csv


def _spelled(values) -> list[str]:
    """The kernel's bytes for each value, NULs deleted."""
    words = g17.words(np.array(values, dtype=float))
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in np.ascontiguousarray(words.T)]


def _percent(values) -> list[str]:
    return ["%.17g" % v for v in np.array(values, dtype=float).tolist()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_spells_any_float_like_percent(values):
    # st.floats() draws nan, both infinities, subnormals and -0.0 too
    assert _spelled(values) == _percent(values)


def test_kernel_spells_a_seeded_draw_over_every_decimal_exponent_like_percent():
    rng = np.random.default_rng(20260)
    values = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-6, 18, 100_000)
    assert {math.floor(math.log10(abs(v))) for v in values.tolist()} == set(range(-6, 18))
    assert _spelled(values) == _percent(values)


def test_kernel_spells_the_edges_like_percent():
    powers = 10.0 ** np.arange(-5, 18)
    bounds = np.array([1e-4, 1e16])
    edges = np.concatenate([
        np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf),
        np.nextafter(bounds, 0), np.nextafter(bounds, np.inf),
        [0.0, 1.0, 0.5, 1200.0, 1e15 + 0.5, 9007199254740993.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        [math.nan, math.inf],
    ])
    values = np.concatenate([edges, -edges])
    assert _spelled(values) == _percent(values)
    assert _spelled([-0.0, 0.0]) == ["-0", "0"]


@pytest.mark.parametrize("value, text", [
    (1e15 + 0.25, "1000000000000000.2"),  # 17 digits end on a tie: half-even keeps the 2
    (1e15 + 0.75, "1000000000000000.8"),  # and rounds the 7 up
])
def test_kernel_rounds_ties_half_even(value, text):
    assert "%.17g" % value == text
    assert _spelled([value, -value]) == [text, "-" + text]


@pytest.mark.parametrize("k", range(-3, 17))
def test_no_double_in_the_kernel_range_rounds_up_to_a_new_decade(k):
    """The kernel has no carry for 17 digits that round up to 10**17: the
    largest double below 10**k scales to 10**17 minus more than one half."""
    x = float(Fraction(10) ** k)
    if Fraction(x) >= Fraction(10) ** k:
        x = math.nextafter(x, 0)
    scaled = Fraction(x) * Fraction(10) ** (17 - k)
    assert scaled < 10**17 - Fraction(1, 2)
    assert _spelled([x]) == _percent([x])


def _reference_csv(result: SweepResult) -> str:
    """The CSV text of ``result`` as the per-row ``%`` writer spelled it."""
    cfg = result.config
    columns = METRIC_COLUMNS[cfg.experiment]
    out = [",".join(["experiment", "N", "m", "trial", "eta", *columns, "row_kind"]) + "\n"]
    for cell in result.cells:
        key = f"{cfg.experiment},{cell.n_copies},{'%.17g' % cell.m}"
        eta_fmt = ";".join(["%.17g"] * cell.etas[0].size)
        row_fmt = f"{key},%d,{eta_fmt}," + ",".join(["%.17g"] * len(columns)) + ",trial\n"
        draws = cell.etas.reshape(len(cell.etas), -1).tolist()
        values = zip(*(cell.metrics[c].tolist() for c in columns))
        out.append("".join(row_fmt % (t, *d, *v) for t, (d, v) in enumerate(zip(draws, values))))
        for kind, stats in (("mean", cell.mean), ("std", cell.std)):
            out.append(f"{key},,," + ",".join("%.17g" % stats[c] for c in columns) + f",{kind}\n")
    return "".join(out)


def _assert_reference_bytes(result, path):
    write_csv(result, path)
    text = path.read_bytes().decode("ascii")
    assert text == _reference_csv(result)
    return text


def test_csv_writes_an_undefined_metric_as_nan(tmp_path):
    # N = 1 with reflectivities 0 and 1 heralds HH with probability 0; the
    # second cell has no defined F_HH_norm, so its mean and std are nan too
    cells = (run_cell("fusion", 0.5, np.array([[[0.0], [1.0]], [[0.4], [0.6]]])),
             run_cell("fusion", 0.0, np.array([[[1.0], [0.0]], [[0.0], [1.0]]])))
    assert math.isnan(cells[0].metrics["F_HH_norm"][0]) and math.isnan(cells[1].mean["F_HH_norm"])
    result = SweepResult(SweepConfig("fusion", (1,), (0.5, 0.0), 2, 0), cells)
    text = _assert_reference_bytes(result, tmp_path / "nan.csv")
    assert text.count(",nan,") == 5  # three trial rows, one mean and one std row


@pytest.mark.parametrize("experiment", ["fusion", "bsm", "trace-distance"])
def test_csv_of_a_result_without_cells_is_the_header_alone(tmp_path, experiment):
    result = SweepResult(SweepConfig(experiment, (1,), (0.0,), 1, 0), ())
    text = _assert_reference_bytes(result, tmp_path / "empty.csv")
    assert text.count("\n") == 1


@pytest.mark.parametrize("experiment", ["fusion", "bsm", "trace-distance"])
def test_csv_matches_the_per_row_writer_with_zeros_and_values_below_1e_4(tmp_path, experiment):
    # m = 0 cells hold exact zeros (and std rows of 0); m = 0.5 draws spell
    # values below 1e-4 in exponent form, which the kernel leaves to "%"
    result = run_sweep(SweepConfig(experiment, (1, 8), (0.0, 0.5), 400, 3))
    text = _assert_reference_bytes(result, tmp_path / "sweep.csv")
    assert ",0," in text and "e-" in text


def test_csv_matches_the_per_row_writer_across_kernel_blocks(tmp_path):
    result = run_sweep(SweepConfig("trace-distance", (1, 2, 3), (0.1, 0.3), 1001, 5))
    blocks = list(g17._blocks(result.cells, 1))
    assert len(blocks) > 2 and any(len({i for i, _, _ in block}) > 1 for block in blocks)
    _assert_reference_bytes(result, tmp_path / "sweep.csv")


@pytest.mark.parametrize("n_copies, samples", [((1, 3), 7), ((2,), 1), ((2048,), 3)])
def test_csv_blocks_cover_every_trial_row_once_in_order(n_copies, samples):
    cells = run_sweep(SweepConfig("bsm", n_copies, (0.1, 0.2), samples, 1)).cells
    columns = len(METRIC_COLUMNS["bsm"])
    parts = [part for block in g17._blocks(cells, columns) for part in block]
    rows = [(i, t) for i, a, b in parts for t in range(a, b)]
    assert rows == [(i, t) for i, cell in enumerate(cells) for t in range(len(cell.etas))]
    for block in g17._blocks(cells, columns):
        # a block's kernel call also spells the mean and std of each cell it ends
        stats = sum(2 * columns for i, _, b in block if b == len(cells[i].etas))
        values = sum((b - a) * (1 + cells[i].etas[0].size + columns) for i, a, b in block) + stats
        assert values <= g17._BLOCK + 2 * columns or sum(b - a for _, a, b in block) == 1


def test_csv_of_a_one_trial_sweep_spells_the_stats_of_each_block_in_its_kernel_call(tmp_path, monkeypatch):
    """At S = 1 a cell's mean and std values outnumber its trial values; each
    block's kernel call spells those of the cells it ends, so no call holds
    more than a block and one cell's stats."""
    result = run_sweep(SweepConfig("bsm", (1, 2), tuple(np.linspace(0.0, 0.5, 400).tolist()), 1, 7))
    sizes, words = [], g17.words

    def counted(values):
        sizes.append(values.size)
        return words(values)

    monkeypatch.setattr(g17, "words", counted)
    _assert_reference_bytes(result, tmp_path / "sweep.csv")
    assert len(sizes) > 1 and max(sizes) <= g17._BLOCK + 2 * len(METRIC_COLUMNS["bsm"])
