"""End-to-end tests of the command-line interface."""

import argparse
import csv
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from avgfusion import __version__, detection, fock, verify
from avgfusion.cli import MAX_M_GRID_POINTS, build_parser, m_grid, main, parse_args
from avgfusion.metrics import BELL_LABELS, BSM_PATTERNS
from avgfusion.sweep import METRIC_COLUMNS


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.reader(f))


def test_version(capsys):
    code, out, _ = run_cli(["version"], capsys)
    assert code == 0
    assert out == f"avgfusion {__version__}\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["fusion-sweep", "--bogus"],
        ["fusion-sweep", "--samples", "0"],
        ["fusion-sweep", "--samples", "abc"],
        ["fusion-sweep", "--m-grid", "0:0.4:-0.1"],
        ["fusion-sweep", "--m-grid", "0.8"],
        ["fusion-sweep", "--n-copies", ","],
        ["fusion-sweep", "--n-copies", "1,,2"],
        ["fusion-sweep", "--n-copies", "1,2,"],
        ["table2", "--eta-h", "1.5"],
        ["verify", "--samples", "0"],
        ["fusion-sweep", "--n-copies", "1,1"],
        ["bsm-sweep", "--m-grid", "0.1", "--config", "no-such-file.cfg"],
        ["verify", "--seed", "-1"],
        ["fusion-sweep", "--seed", "18446744073709551616"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [",", "1,,2", "1,2,", " ,3"])
def test_n_copies_with_an_empty_entry_is_quoted(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--n-copies", text])
    assert exc.value.code == 2
    assert f"expected a comma-separated integer list, got {text!r}" in capsys.readouterr().err


def test_n_copies_entries_may_carry_spaces():
    assert parse_args(build_parser(), ["fusion-sweep", "--n-copies", "1, 2"]).n_copies == (1, 2)


@pytest.mark.parametrize(
    "argv, value",
    [
        (["verify", "--seed", "-1"], "-1"),
        (["fusion-sweep", "--seed", "18446744073709551616"], "18446744073709551616"),
        (["trace-distance", "--seed", "-5"], "-5"),
    ],
)
def test_seed_out_of_range_names_the_flag(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --seed: must lie in [0, 2**64), got {value}" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(
        ["bsm-sweep", "--n-copies", "1", "--m-grid", "0", "--samples", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert "error" in err
    assert "x.csv" in err and ".tmp" not in err


def test_fusion_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = [
        "fusion-sweep",
        "--n-copies", "1,2",
        "--m-grid", "0:0.1:0.1",
        "--samples", "2",
        "--seed", "5",
        "--out", str(out),
    ]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert f"wrote {out} (8 trials, 4 cells)" in stdout
    rows = read_rows(out)
    assert rows[0][:5] == ["experiment", "N", "m", "trial", "eta"]
    assert len(rows) == 1 + 4 * (2 + 2)
    assert {r[0] for r in rows[1:]} == {"fusion"}


def test_m_grid_points_are_exact_decimals():
    assert m_grid("0:0.4:0.1") == (0.0, 0.1, 0.2, 0.3, 0.4)
    assert m_grid("0.05:0.25:0.05") == (0.05, 0.1, 0.15, 0.2, 0.25)
    assert m_grid("1e-1:3e-1:1e-1") == (0.1, 0.2, 0.3)


@pytest.mark.parametrize(
    "grid, reason",
    [
        ("0:0.4:0.15", "step must divide stop - start"),
        ("0:0.5:0.3", "step must divide stop - start"),
        ("0.4:0:0.1", "stop must not be below start"),
        ("0:x:0.1", "expected start:stop:step or a single number"),
        ("0:nan:0.1", "expected start:stop:step or a single number"),
        ("nan", "expected start:stop:step or a single number"),
    ],
    ids=["step-overshoots-stop", "step-overshoots-range", "stop-below-start", "non-numeric", "nan-part", "nan"],
)
def test_m_grid_that_names_no_exact_grid_is_a_usage_error(grid, reason, capsys):
    """A step that does not divide the range is rejected, not rounded onto a grid the flag does not name."""
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--m-grid", grid])
    assert exc.value.code == 2
    assert f"argument --m-grid: {reason}, got {grid!r}" in capsys.readouterr().err


def test_m_grid_with_too_many_points_is_a_usage_error(capsys):
    """The point count is checked before any point is built: ``0:0.5:1e-40`` would ask for 5e39."""
    with pytest.raises(argparse.ArgumentTypeError, match=f"more than {MAX_M_GRID_POINTS} points"):
        m_grid("0:0.5:1e-40")
    with pytest.raises(argparse.ArgumentTypeError, match=r"about 1\.00e\+4"):
        m_grid("0:0.5:0.00005")
    assert len(m_grid("0:0.49995:0.00005")) == MAX_M_GRID_POINTS
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--m-grid", "0:0.5:1e-40"])
    assert exc.value.code == 2
    assert f"argument --m-grid: grid has more than {MAX_M_GRID_POINTS} points" in capsys.readouterr().err


def test_m_grid_csv_column_holds_the_grid_decimals(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = ["fusion-sweep", "--n-copies", "1", "--m-grid", "0:0.4:0.1", "--samples", "1", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == 0
    written = [float(row[2]) for row in read_rows(out)[1:] if row[-1] == "trial"]
    assert written == [0.0, 0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("command, zero, negative_zero", [
    ("trace-distance", ["--m", "0"], ["--m", "-0"]),
    ("bsm-sweep", ["--m-grid", "0"], ["--m-grid=-0"]),
])
def test_negative_zero_m_writes_the_csv_of_zero(tmp_path, capsys, command, zero, negative_zero):
    """``-0`` used to be written as ``-0`` in the m column: a second key for the noise-free cell."""
    written = []
    for i, grid in enumerate((zero, negative_zero)):
        out = tmp_path / f"{i}.csv"
        assert run_cli([command, *grid, "--n-copies", "1,2", "--samples", "2", "--out", str(out)], capsys)[0] == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_single_value_m_grid(tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["fusion-sweep", "--n-copies", "1", "--m-grid", "0.2", "--samples", "2", "--out", str(out)]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0 and "(2 trials, 1 cells)" in stdout


def test_bsm_sweep_single_copy_success_is_certain(tmp_path, capsys):
    out = tmp_path / "b.csv"
    argv = ["bsm-sweep", "--n-copies", "1", "--m-grid", "0:0.4:0.2", "--samples", "5", "--out", str(out)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    rows = read_rows(out)
    col = rows[0].index("P_success")
    trial_rows = [r for r in rows[1:] if r[-1] == "trial"]
    assert len(trial_rows) == 15
    assert all(abs(float(r[col]) - 1.0) < 1e-9 for r in trial_rows)


def test_trace_distance_mean_decreases_with_copies(tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["trace-distance", "--n-copies", "1,2,4", "--m", "0.2", "--samples", "40", "--out", str(out)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    rows = read_rows(out)
    col = rows[0].index("trace_distance")
    means = [float(r[col]) for r in rows[1:] if r[-1] == "mean"]
    assert len(means) == 3
    assert means[0] > means[1] > means[2]


def test_svg_output_is_well_formed(tmp_path, capsys):
    out, svg = tmp_path / "b.csv", tmp_path / "b.svg"
    argv = [
        "bsm-sweep",
        "--n-copies", "1,2",
        "--m-grid", "0:0.2:0.1",
        "--samples", "3",
        "--out", str(out),
        "--svg", str(svg),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    root = ET.fromstring(svg.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    text = svg.read_text(encoding="utf-8")
    assert "polyline" in text and "N=2" in text


@pytest.mark.parametrize("svg", ["x.out", "./x.out"])
def test_out_and_svg_on_one_file_is_a_usage_error(svg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--samples", "2", "--out", "x.out", "--svg", svg])
    assert exc.value.code == 2
    assert "--out and --svg name the same file" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def _usage_error(argv, capsys):
    """The exit code and stderr of a command line that ``main`` rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m-grid", "0.6"], "noise half-width m must lie in [0, 0.5], got 0.6"),
        (["--out", "x.out", "--svg", "x.out"], "--out and --svg name the same file: 'x.out' and 'x.out'"),
        (["--config", "bad.cfg"], "bad.cfg:1: unknown config key 'wibble'"),
    ],
    ids=["sweep-config", "out-is-svg", "config-key"],
)
def test_sweep_errors_after_parsing_print_the_subcommand_usage(flags, message, tmp_path, monkeypatch, capsys):
    """A sweep's config, file and config-key errors print the usage line and
    prefix that argparse prints for a bad flag of the same subcommand."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("wibble=1\n", encoding="utf-8")
    code, flag_err = _usage_error(["fusion-sweep", "--samples", "0"], capsys)
    assert code == 2
    usage = flag_err[: flag_err.index("avgfusion fusion-sweep: error: ")]
    assert usage.startswith("usage: avgfusion fusion-sweep ")
    assert _usage_error(["fusion-sweep", "--samples", "1", *flags], capsys) == (
        2, f"{usage}avgfusion fusion-sweep: error: {message}\n"
    )


def test_table2_balanced_output(capsys):
    code, out, _ = run_cli(["table2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["pattern", "psi+", "psi-", "phi+", "phi-"]
    assert len(lines) == 11
    assert "✓" in out and "×" not in out
    by_name = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert by_name["ab"] == ["✓", ".", ".", "."]
    assert by_name["ad"] == [".", "✓", ".", "."]
    assert by_name["a2"] == [".", ".", "✓", "✓"]
    assert by_name["ac"] == [".", ".", ".", "."]

    code2, out2, _ = run_cli(["table2"], capsys)
    assert (code2, out2) == (code, out)


def test_table2_unbalanced_adds_crosses(capsys):
    code, out, _ = run_cli(["table2", "--eta-h", "0.3", "--eta-v", "0.3"], capsys)
    assert code == 0
    by_name = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert by_name["ad"] == ["×", "✓", ".", "."]
    assert by_name["ac"] == [".", ".", "×", "×"]
    assert by_name["ab"] == ["✓", ".", ".", "."]


def _table2_reference(eta_h, eta_v):
    """Table 2 with its ✓ cells read from a Fock evolution at the balanced point."""
    support = {label: detection.pattern_support(label, eta_h, eta_v) for label in BELL_LABELS}
    balanced = {label: detection.pattern_support(label, 0.5, 0.5) for label in BELL_LABELS}
    lines = [f"{'pattern':<9}" + "".join(f"{label:>7}" for label in BELL_LABELS)]
    for pat in BSM_PATTERNS:
        cells = ["." if pat not in support[label] else "✓" if pat in balanced[label] else "×" for label in BELL_LABELS]
        lines.append(f"{pat:<9}" + "".join(f"{c:>7}" for c in cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("eta_h, eta_v", [(0.5, 0.5), (0.3, 0.3), (0.3, 0.7), (0, 1), (1, 0), (0.49, 0.5)])
def test_table2_equals_a_table_classified_by_the_balanced_evolution(eta_h, eta_v, capsys):
    code, out, _ = run_cli(["table2", "--eta-h", str(eta_h), "--eta-v", str(eta_v)], capsys)
    assert code == 0
    assert out == _table2_reference(eta_h, eta_v)


def test_table2_evolves_each_bell_state_once(monkeypatch, capsys):
    """One Fock evolution per Bell state, at the flags' reflectivities; the
    balanced support is read from the exact images, not evolved."""
    calls = []
    for module in (fock, detection):
        apply = module.apply_transfer

        def counted(t, s, apply=apply):
            calls.append(t)
            return apply(t, s)

        monkeypatch.setattr(module, "apply_transfer", counted)
    code, _, _ = run_cli(["table2", "--eta-h", "0.3", "--eta-v", "0.7"], capsys)
    assert code == 0
    assert len(calls) == 4


def test_verify_passes_and_is_reproducible(capsys):
    code, out, _ = run_cli(["verify", "--samples", "2", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(": PASS" in line for line in lines)
    assert any(line.startswith("M_N-equivalence: PASS") for line in lines)

    code2, out2, _ = run_cli(["verify", "--samples", "2", "--seed", "3"], capsys)
    assert (code2, out2) == (code, out)


@pytest.mark.parametrize("samples", [1, 2, 9])
def test_averaging_equivalence_checks_fusion_gates_at_any_sample_count(monkeypatch, samples):
    """The M_N-equivalence suite alternates Haar-random and fusion-gate copy
    sets; even a small sample count reaches a fusion-gate set at N = 2 and 3.
    Every fusion copy comes from one batched ``_fusion_gates`` call."""
    copies = []
    fusion_gates = verify._fusion_gates

    def counted(eta_x, eta_y):
        gates = fusion_gates(eta_x, eta_y)
        copies.extend(gates)
        return gates

    monkeypatch.setattr(verify, "_fusion_gates", counted)
    result = verify.check_averaging_equivalence(samples, np.random.default_rng(3))
    assert result.passed
    assert len(copies) >= 2 + 3


def test_verify_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        verify.run_all(samples=0)


def test_value_error_while_writing_exits_2_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    """An output path the OS cannot take (a NUL byte) is a ValueError, not an OSError."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["fusion-sweep", "--samples", "1", "--out", "x\0.csv"], capsys)
    assert code == 2
    assert err == "error: embedded null byte\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_supplies_defaults_and_cli_wins(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# comment line\nsamples = 2\nn-copies = 1\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    base = ["fusion-sweep", "--m-grid", "0", "--out", str(out), "--config", str(cfg)]

    code, stdout, _ = run_cli(base, capsys)
    assert code == 0 and "(2 trials, 1 cells)" in stdout

    code, stdout, _ = run_cli(base + ["--samples", "3"], capsys)
    assert code == 0 and "(3 trials, 1 cells)" in stdout


def test_abbreviated_flag_is_rejected_and_full_flag_beats_config(tmp_path, capsys):
    """An abbreviation is not matched against the config keys, so it must not parse;
    every full spelling of a flag wins over the config file."""
    cfg = tmp_path / "t.cfg"
    cfg.write_text("samples=3\n", encoding="utf-8")
    base = ["trace-distance", "--n-copies", "1", "--out", str(tmp_path / "t.csv"), "--config", str(cfg)]
    for argv in (base + ["--sam", "5"], ["fusion-sweep", "--m-gr", "0"], ["verify", "--samp", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    for flag in (["--samples", "5"], ["--samples=5"]):
        code, stdout, _ = run_cli(base + flag, capsys)
        assert code == 0 and "(5 trials, 1 cells)" in stdout
    # a key spelled with underscores names the same flag
    cfg.write_text("samples=3\nn_copies=3\n", encoding="utf-8")
    code, stdout, _ = run_cli(base[:1] + ["--n-copies", "1,2"] + base[3:], capsys)
    assert code == 0 and "(6 trials, 2 cells)" in stdout


def test_config_file_unknown_key_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_line_without_equals_sign_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples=2\nsamples 3\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:2: expected key=value, got 'samples 3'" in capsys.readouterr().err


def test_config_file_byte_order_mark_is_ignored(tmp_path, capsys):
    """Many Windows editors start a UTF-8 file with a byte-order mark."""
    written = []
    for name, text in (("plain", b"samples=3\nn-copies=1,2\n"), ("bom", b"\xef\xbb\xbfsamples=3\r\nn-copies=1,2\r\n")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_bytes(text)
        code, _, err = run_cli(["bsm-sweep", "--m-grid", "0.1", "--config", str(cfg), "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b",trial\n") == 6


@pytest.mark.parametrize("key", ["wibble", "config", "help", "m-gr", "m"])
def test_config_key_that_is_no_flag_of_the_command_errors(tmp_path, key, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# header\nsamples=2\n{key}=1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["fusion-sweep", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:3: unknown config key {key!r}" in capsys.readouterr().err


#: A value, not the default, for every value flag of every subcommand.
FLAG_VALUES = {
    "fusion-sweep": {"m-grid": "0:0.2:0.1", "n-copies": "1,4", "samples": "3", "seed": "7", "out": "x.csv", "svg": "x.svg"},
    "bsm-sweep": {"m-grid": "0.1", "n-copies": "2", "samples": "3", "seed": "7", "out": "x.csv", "svg": "x.svg"},
    "trace-distance": {"m": "0.3", "n-copies": "2,3", "samples": "3", "seed": "7", "out": "x.csv", "svg": "x.svg"},
    "verify": {"samples": "3", "seed": "7"},
    "table2": {"eta-h": "0.3", "eta-v": "0.7"},
}


def test_flag_values_cover_every_value_flag():
    parser = build_parser()
    for command, flags in FLAG_VALUES.items():
        default = vars(parse_args(parser, [command]))
        changed = set()
        for flag, value in flags.items():
            parsed = vars(parse_args(parser, [command, f"--{flag}", value]))
            changed |= {dest for dest in parsed if parsed[dest] != default[dest]}
        assert changed == set(default) - {"command", "func", "experiment", "config"}, command


@pytest.mark.parametrize("spell", [str, lambda flag: flag.replace("-", "_")], ids=["dashes", "underscores"])
@pytest.mark.parametrize(
    "command, flag, value", [(c, f, v) for c, flags in FLAG_VALUES.items() for f, v in flags.items()]
)
def test_config_key_parses_like_its_flag(tmp_path, spell, command, flag, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{spell(flag)} = {value}\n", encoding="utf-8")
    parser = build_parser()
    from_flag = vars(parse_args(parser, [command, f"--{flag}", value]))
    from_config = vars(parse_args(parser, [command, "--config", str(cfg)]))
    assert from_config == {**from_flag, "config": str(cfg)}


def test_module_entry_point_runs_a_configured_sweep(tmp_path, capsys):
    """``python -m avgfusion.cli`` reads sys.argv and writes the bytes an in-process run writes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_copies = 1,2\nm-grid = 0:0.2:0.1\nsamples = 3\nseed = 11\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "avgfusion.cli", "fusion-sweep", "--config", str(cfg), "--out", "sub.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "wrote sub.csv (18 trials, 6 cells)\n"
    code, _, _ = run_cli(["fusion-sweep", "--config", str(cfg), "--out", str(tmp_path / "in.csv")], capsys)
    assert code == 0
    assert (tmp_path / "sub.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()


def test_metric_columns_cover_every_experiment():
    assert set(METRIC_COLUMNS) == {"fusion", "bsm", "trace-distance"}
