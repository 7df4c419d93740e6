"""The self-check suites: each can fail, a NaN fails them, the engine suites
reach the sweep engine once per experiment, and the Fock suites evolve each
input once per stack of matrices."""

import dataclasses
import math

import numpy as np
import pytest

from avgfusion import cli, detection, sweep, verify
from avgfusion.fock import TransferMatrix
from avgfusion.interferometers import effective_average, fusion_gate
from avgfusion.sweep import METRIC_COLUMNS, run_cell, sample_reflectivity


def _patch_column(monkeypatch, experiment, column, change):
    """Pass the engine's ``column`` of ``experiment`` through ``change``."""
    metrics, index = sweep._METRICS[experiment], METRIC_COLUMNS[experiment].index(column)

    def patched(block):
        values = list(metrics(block))
        values[index] = change(values[index])
        return tuple(values)

    monkeypatch.setitem(sweep._METRICS, experiment, patched)


def _scaled_stack(build):
    """``build`` of a matrix stack with every entry 1e-6 too large."""
    return lambda *args: build(*args) * (1 + 1e-6)


def _with_rng(check):
    """``check`` as a suite of five draws from a fixed stream."""
    return lambda: check(5, np.random.default_rng(1))


def _assert_fails(result, name):
    assert result.passed is False
    assert result.report_line().startswith(f"{name}: FAIL (max dev ")


@pytest.mark.parametrize(
    "experiment, columns, name, suite",
    [
        ("bsm", ("F_closed",), "closed-form-vs-simulator", _with_rng(verify.check_closed_form)),
        ("fusion", ("P_HH", "P_single"), "perfect-point-values", verify.check_perfect_sweep),
    ],
    ids=["closed-form", "perfect-point"],
)
def test_a_nan_engine_column_fails_its_suite_and_verify_exits_1(monkeypatch, capsys, experiment, columns, name, suite):
    """A NaN is no deviation below any threshold: the suite that reads the
    column fails, and so does the ``verify`` command."""
    for column in columns:
        _patch_column(monkeypatch, experiment, column, lambda v: np.full_like(v, math.nan))
    result = suite()
    _assert_fails(result, name)
    assert math.isnan(result.max_deviation)
    assert cli.main(["verify", "--samples", "40", "--seed", "1"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if ": PASS" not in line]
    assert failed == [f"{name}: FAIL (max dev nan >= 1e-10)"]


def test_row_deviations_propagates_a_nan_reference():
    amplitudes = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    for reference in ([math.nan, 0.0], [0.0, math.nan]):
        assert all(map(math.isnan, verify._row_deviations(amplitudes, np.array(reference))))


def _scaled_kept_blocks(monkeypatch):
    """Every network the suite builds with its kept block 1e-6 too large."""
    build = verify.build_averaged_network

    def scaled(stack):
        return [
            dataclasses.replace(net, kept_block=TransferMatrix(net.kept_block.entries * (1 + 1e-6))) for net in build(stack)
        ]

    monkeypatch.setattr(verify, "build_averaged_network", scaled)


def _raised_probabilities(monkeypatch):
    probabilities = verify._stack_probabilities

    def raised(*args):
        return probabilities(*args) + 1e-6

    monkeypatch.setattr(verify, "_stack_probabilities", raised)


def _scaled_rows(rows):
    """``_bsm_matrices`` with every entry of the stack's ``rows`` 1e-6 too large."""
    build = verify._bsm_matrices

    def scaled(features):
        stack = build(features).copy()
        stack[rows] *= 1 + 1e-6
        return stack

    return lambda monkeypatch: monkeypatch.setattr(verify, "_bsm_matrices", scaled)


@pytest.mark.parametrize(
    "name, inject, suite",
    [
        ("M_N-equivalence", _scaled_kept_blocks, _with_rng(verify.check_averaging_equivalence)),
        (
            "closed-form-vs-simulator",
            lambda mp: _patch_column(mp, "bsm", "F", lambda v: v + 1e-6),
            _with_rng(verify.check_closed_form),
        ),
        (
            "fusion-pattern-table",
            lambda mp: mp.setattr(verify, "_fusion_gates", _scaled_stack(verify._fusion_gates)),
            verify.check_fusion_table,
        ),
        ("bsm-state-maps", _scaled_rows(slice(None, 1)), _with_rng(verify.check_bsm_maps)),
        ("bsm-state-maps", _scaled_rows(slice(1, None)), _with_rng(verify.check_bsm_maps)),
        ("table2-support", _raised_probabilities, verify.check_table2),
        (
            "perfect-point-values",
            lambda mp: _patch_column(mp, "fusion", "P_HH", lambda v: v + 1e-6),
            verify.check_perfect_sweep,
        ),
    ],
    ids=["M_N-equivalence", "closed-form", "fusion-table", "bsm-maps", "bsm-maps-off-balance", "table2", "perfect-point"],
)
def test_every_suite_fails_on_a_finite_error(monkeypatch, name, inject, suite):
    """An error of about 1e-6 in what a suite checks makes it fail."""
    assert suite().passed
    inject(monkeypatch)
    _assert_fails(suite(), name)


def test_a_target_ket_the_analyzer_never_produces_fails_the_maps(monkeypatch):
    """phi+ never reaches |1100> through the balanced analyzer; a target that
    asks for it there is missed by its full modulus."""
    phi_plus = verify.BSM_MAP_TARGETS["phi+"]
    monkeypatch.setitem(verify.BSM_MAP_TARGETS, "phi+", {**phi_plus, (1, 1, 0, 0): 0.1})
    result = verify.check_bsm_maps(5, np.random.default_rng(1))
    _assert_fails(result, "bsm-state-maps")
    assert result.max_deviation >= 0.1


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["--samples", "40", "--seed", "1001"],
            [
                "M_N-equivalence: PASS (max dev 5.551e-16 < 1e-10)",
                "closed-form-vs-simulator: PASS (max dev 9.992e-16 < 1e-10)",
                "fusion-pattern-table: PASS (max dev 5.551e-16 < 1e-12)",
                "bsm-state-maps: PASS (max dev 1.110e-16 < 1e-12)",
                "table2-support: PASS (max dev 0.000e+00 < 1e-12)",
                "perfect-point-values: PASS (max dev 2.220e-16 < 1e-10)",
            ],
        ),
        (
            ["--samples", "200", "--seed", "1"],
            [
                "M_N-equivalence: PASS (max dev 6.661e-16 < 1e-10)",
                "closed-form-vs-simulator: PASS (max dev 8.882e-16 < 1e-10)",
                "fusion-pattern-table: PASS (max dev 5.551e-16 < 1e-12)",
                "bsm-state-maps: PASS (max dev 1.110e-16 < 1e-12)",
                "table2-support: PASS (max dev 0.000e+00 < 1e-12)",
                "perfect-point-values: PASS (max dev 2.220e-16 < 1e-10)",
            ],
        ),
    ],
    ids=["samples-40-seed-1001", "samples-200-seed-1"],
)
def test_verify_prints_its_six_report_lines(capsys, argv, lines):
    """The report lines of two runs, byte for byte."""
    assert cli.main(["verify", *argv]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


def test_engine_suites_make_one_engine_call_per_experiment_on_the_same_draws(monkeypatch):
    """``check_closed_form`` runs the analyzer engine once over N = 1, 2, 3
    and ``check_perfect_sweep`` each experiment once; every cell they read
    equals ``run_cell`` on its draws, and the draws are the suite's own."""
    calls, runs = [], []
    for experiment in ("fusion", "bsm"):

        def counted(block, experiment=experiment, metrics=sweep._METRICS[experiment]):
            calls.append(experiment)
            return metrics(block)

        monkeypatch.setitem(sweep._METRICS, experiment, counted)

    def recorded(experiment, ms, *stacks, run_cells=verify._run_cells):
        cells = run_cells(experiment, ms, *stacks)
        runs.append((experiment, cells))
        return cells

    monkeypatch.setattr(verify, "_run_cells", recorded)
    assert verify.check_closed_form(40, np.random.default_rng(1)).passed
    assert calls == ["bsm"]
    assert verify.check_perfect_sweep().passed
    assert calls == ["bsm", "fusion", "bsm"]
    monkeypatch.undo()

    rng = np.random.default_rng(1)
    closed = [sample_reflectivity(rng, 0.3, (40, 2, n)) for n in (1, 2, 3)]
    perfect = [np.full((1, 2, n), 0.5) for n in (1, 2, 3)]
    assert [experiment for experiment, _ in runs] == ["bsm", "fusion", "bsm"]
    for (experiment, cells), want in zip(runs, (closed, perfect, perfect), strict=True):
        assert [cell.n_copies for cell in cells] == [1, 2, 3]
        for cell, etas in zip(cells, want, strict=True):
            assert cell.etas.tobytes() == etas.tobytes() and cell.etas.shape == etas.shape
            ref = run_cell(experiment, cell.m, etas)
            assert cell.metrics.keys() == ref.metrics.keys()
            for column, values in ref.metrics.items():
                assert cell.metrics[column].tobytes() == values.tobytes(), (experiment, column)


def test_oracle_suites_evolve_each_input_once_per_stack(monkeypatch):
    """``verify --samples 40`` makes 12 Fock evolutions: 3 for the M_N
    suite (one stack of 16 kept blocks and 16 copy averages per input),
    1 for the fusion table, 4 for the analyzer maps (psi+, phi+ and phi-
    through a stack of the balanced analyzer, psi- through it and the 40
    drawn ones) and 4 for Table 2 (each Bell state through the analyzers at eta = 1/2
    and 0.3). Only the fusion table's perfect gate is read by ``fusion_outcomes``."""
    calls, outcomes = [], []
    fusion = verify.fusion_outcomes
    monkeypatch.setattr(verify, "fusion_outcomes", lambda *a: outcomes.append(a) or fusion(*a))
    for module in (verify, detection):
        apply = module.apply_transfer

        def counted(t, s, apply=apply, where=module.__name__):
            calls.append((where, len(t) if isinstance(t, np.ndarray) else None))
            return apply(t, s)

        monkeypatch.setattr(module, "apply_transfer", counted)
    assert all(result.passed for result in verify.run_all(40, 1001))
    assert len(calls) == 12
    assert [k for _, k in calls] == [32] * 3 + [26] + [1, 41, 1, 1] + [2] * 4
    assert {where for where, _ in calls} == {"avgfusion.verify"}
    assert len(outcomes) == 1


def _ref_haar_unitary(rng, dim):
    """One Haar-random unitary from its own two draws and its own QR."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return TransferMatrix(q * (d / np.abs(d)))


def test_averaging_equivalence_builds_every_network_from_the_same_draws(monkeypatch):
    """The copy sets go through ``build_averaged_network`` as one stack per
    copy count, each set in the order the draws come, Haar and fusion sets
    alternating, and the suite compares 2 x sets x 3 (network, input) pairs.
    The reference draws and builds one matrix at a time, so the batched QR
    and fusion gates are pinned bit for bit by a construction they do not share."""
    built, compared = [], []
    build, deviations = verify.build_averaged_network, verify._row_deviations
    monkeypatch.setattr(verify, "build_averaged_network", lambda stack: built.append(stack) or build(stack))
    monkeypatch.setattr(verify, "_row_deviations", lambda a, b: compared.extend(d := deviations(a, b)) or d)
    samples, sets = 23, 4
    assert verify.check_averaging_equivalence(samples, np.random.default_rng(5)).passed
    assert len(compared) == 2 * sets * 3
    assert [stack.shape for stack in built] == [(sets, 2, 4, 4), (sets, 3, 4, 4)]

    rng = np.random.default_rng(5)
    want = []
    for n_copies in (2, 3):
        for k in range(sets):
            if k % 2 == 0:
                want.append([_ref_haar_unitary(rng, 4) for _ in range(n_copies)])
            else:
                want.append([fusion_gate(ex, ey) for ex, ey in rng.uniform(0.2, 0.8, size=(n_copies, 2))])
    assert [[c.tobytes() for c in copies] for stack in built for copies in stack] == [
        [c.entries.tobytes() for c in copies] for copies in want
    ]


@pytest.mark.parametrize("samples, sets", [(15, 3), (40, 8)])
def test_averaging_equivalence_evolves_the_kept_blocks_then_each_sets_effective_average(monkeypatch, samples, sets):
    """Each input goes through one stack: the kept blocks of the networks the
    stacked builds return, in draw order, then each set's copy average, the
    stack's mean over its copy axis, equal to `effective_average` of the set.
    With an odd set count, each copy count has one more Haar set than fusion sets."""
    built, evolved = [], []
    build, apply = verify.build_averaged_network, verify.apply_transfer
    monkeypatch.setattr(verify, "build_averaged_network", lambda stack: built.append(stack) or build(stack))
    monkeypatch.setattr(verify, "apply_transfer", lambda t, s: evolved.append(t) or apply(t, s))
    assert verify.check_averaging_equivalence(samples, np.random.default_rng(1001)).passed
    copy_sets = [copies for stack in built for copies in stack]
    kept_blocks = [net.kept_block.entries for stack in built for net in build(stack)]
    assert len(copy_sets) == len(kept_blocks) == 2 * sets
    assert len(evolved) == 3
    for matrices in evolved:
        assert matrices.shape == (4 * sets, 4, 4)
        assert np.array_equal(matrices[: 2 * sets], kept_blocks)
        for copies, mean in zip(copy_sets, matrices[2 * sets :], strict=True):
            assert np.array_equal(mean, effective_average([TransferMatrix(c) for c in copies]).entries)


def test_averaging_equivalence_fails_on_one_bad_kept_block_of_the_stack(monkeypatch):
    """Only the last set's kept block, a fusion set at N = 3 and the 16th of
    the stack's 16 kept blocks, is 1e-6 too large: the suite still fails, so
    every (kept block, copy average) pair of the one stack is compared. The
    16 networks come from two stacked builds, one per copy count."""
    built = []
    build = verify.build_averaged_network

    def last_scaled(stack):
        nets = build(stack)
        built.append(stack.shape[:2])
        if len(built) == 2:
            nets[-1] = dataclasses.replace(nets[-1], kept_block=TransferMatrix(nets[-1].kept_block.entries * (1 + 1e-6)))
        return nets

    monkeypatch.setattr(verify, "build_averaged_network", last_scaled)
    rng = np.random.default_rng(1001)
    _assert_fails(verify.check_averaging_equivalence(40, rng), "M_N-equivalence")
    assert built == [(8, 2), (8, 3)]
