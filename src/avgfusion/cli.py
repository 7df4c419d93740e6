"""Command-line interface: sweeps, self-checks, and table regeneration.

Every flag can also be supplied through ``--config <path>``, a flat
``key=value`` file whose keys are the flag names without leading dashes;
explicit command-line flags take precedence. Flags must be spelled in full:
an abbreviation is a usage error, so a config value can never shadow it.
Exit codes: 0 success, 1 for I/O or verification failures, 2 for flag/usage
errors.
"""

from __future__ import annotations

import argparse
import decimal
import sys

from .detection import BSM_PATTERNS, pattern_support
from .metrics import BELL_LABELS
from .svgplot import write_svg
from .sweep import SweepConfig, run_sweep
from .verify import run_all


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    mapping = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            parser.error(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _given_on_cli(key: str, argv: list[str]) -> bool:
    flag = f"--{key}"
    return any(tok == flag or tok.startswith(flag + "=") for tok in argv)


def _apply_config(args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    for key, value in _read_config_file(args.config, parser).items():
        dest = key.replace("-", "_")
        if dest in ("config", "func", "command") or not hasattr(args, dest):
            parser.error(f"unknown config key {key!r}")
        if not _given_on_cli(dest.replace("_", "-"), argv):
            setattr(args, dest, value)


def _to_int(value, what: str, parser: argparse.ArgumentParser) -> int:
    try:
        return int(str(value))
    except ValueError:
        parser.error(f"{what} must be an integer, got {value!r}")


def _to_float(value, what: str, parser: argparse.ArgumentParser) -> float:
    try:
        return float(str(value))
    except ValueError:
        parser.error(f"{what} must be a number, got {value!r}")


def _parse_n_copies(value, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    parts = [p for p in str(value).split(",") if p.strip()]
    if not parts:
        parser.error(f"--n-copies must be a comma-separated integer list, got {value!r}")
    return tuple(_to_int(p.strip(), "--n-copies entry", parser) for p in parts)


def _decimals(text: str) -> int:
    """Digits after the decimal point in a number as written (0 for inf/nan)."""
    exponent = decimal.Decimal(text.strip()).as_tuple().exponent
    return max(0, -exponent) if isinstance(exponent, int) else 0


def _parse_m_grid(value, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive of both ends) or a single value.

    Grid points ``start + k*step`` are rounded to the most decimals written
    in the flag, so ``0:0.4:0.1`` gives 0.3 rather than 0.30000000000000004.
    """
    text = str(value)
    if ":" not in text:
        return (_to_float(text, "--m-grid", parser),)
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"--m-grid must be start:stop:step or a single value, got {value!r}")
    start = _to_float(parts[0], "--m-grid start", parser)
    stop = _to_float(parts[1], "--m-grid stop", parser)
    step = _to_float(parts[2], "--m-grid step", parser)
    if step <= 0:
        if stop == start:
            return (start,)
        parser.error(f"--m-grid step must be positive, got {step}")
    count = int(round((stop - start) / step))
    digits = max(_decimals(p) for p in parts)
    return tuple(round(start + k * step, digits) for k in range(count + 1))


def _run_sweep_command(experiment: str, args, parser, m_grid: tuple[float, ...]) -> int:
    try:
        cfg = SweepConfig(
            experiment=experiment,
            n_copies_list=_parse_n_copies(args.n_copies, parser),
            m_grid=m_grid,
            samples=_to_int(args.samples, "--samples", parser),
            master_seed=_to_int(args.seed, "--seed", parser),
            out_path=args.out,
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = run_sweep(cfg)
    if args.svg:
        write_svg(result, args.svg)
    print(f"wrote {cfg.out_path} ({len(result.cells) * cfg.samples} trials, {len(result.cells)} cells)")
    return 0


def cmd_fusion_sweep(args, parser, argv) -> int:
    return _run_sweep_command("fusion", args, parser, _parse_m_grid(args.m_grid, parser))


def cmd_bsm_sweep(args, parser, argv) -> int:
    return _run_sweep_command("bsm", args, parser, _parse_m_grid(args.m_grid, parser))


def cmd_trace_distance(args, parser, argv) -> int:
    m = _to_float(args.m, "--m", parser)
    return _run_sweep_command("trace-distance", args, parser, (m,))


def cmd_verify(args, parser, argv) -> int:
    samples = _to_int(args.samples, "--samples", parser)
    seed = _to_int(args.seed, "--seed", parser)
    if samples < 1:
        parser.error(f"--samples must be >= 1, got {samples}")
    results = run_all(samples=samples, seed=seed)
    for res in results:
        print(res.report_line())
    return 0 if all(r.passed for r in results) else 1


def cmd_table2(args, parser, argv) -> int:
    eta_h = _to_float(args.eta_h, "--eta-h", parser)
    eta_v = _to_float(args.eta_v, "--eta-v", parser)
    if not (0.0 <= eta_h <= 1.0 and 0.0 <= eta_v <= 1.0):
        parser.error(f"reflectivities must lie in [0, 1], got {eta_h}, {eta_v}")
    support = {label: pattern_support(label, eta_h, eta_v) for label in BELL_LABELS}
    balanced = {label: pattern_support(label, 0.5, 0.5) for label in BELL_LABELS}
    print(f"{'pattern':<9}" + "".join(f"{label:>7}" for label in BELL_LABELS))
    for pat in BSM_PATTERNS:
        cells = []
        for label in BELL_LABELS:
            if pat in support[label]:
                cells.append("✓" if pat in balanced[label] else "×")
            else:
                cells.append(".")
        print(f"{pat:<9}" + "".join(f"{c:>7}" for c in cells))
    return 0


def cmd_version(args, parser, argv) -> int:
    from . import __version__

    print(f"avgfusion {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgfusion",
        description="Monte-Carlo sweeps and self-checks for averaged photonic fusion/Bell-analyzer networks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, samples_default: str):
        p.add_argument("--n-copies", default=p.get_default("n_copies"), help="comma-separated copy counts (default %(default)s)")
        p.add_argument("--samples", default=samples_default, help="trials per (N, m) cell (default %(default)s)")
        p.add_argument("--seed", default="42", help="master seed for the per-trial RNG streams (default %(default)s)")
        p.add_argument("--out", default=p.get_default("out"), help="CSV output path (default %(default)s)")
        p.add_argument("--svg", default=None, help="optional SVG line-plot output path")
        p.add_argument("--config", default=None, help="key=value file supplying defaults for any flag")

    p_fusion = sub.add_parser("fusion-sweep", help="averaged fusion gate on two Bell pairs", allow_abbrev=False)
    p_fusion.set_defaults(func=cmd_fusion_sweep, n_copies="1,2,3", out="fusion_sweep.csv")
    p_fusion.add_argument("--m-grid", default="0:0.4:0.1", help="noise half-widths, start:stop:step inclusive (default %(default)s)")
    add_common(p_fusion, "200")

    p_bsm = sub.add_parser("bsm-sweep", help="averaged Bell-state analyzer on a psi+ input", allow_abbrev=False)
    p_bsm.set_defaults(func=cmd_bsm_sweep, n_copies="1,2,3", out="bsm_sweep.csv")
    p_bsm.add_argument("--m-grid", default="0:0.4:0.1", help="noise half-widths, start:stop:step inclusive (default %(default)s)")
    add_common(p_bsm, "200")

    p_trace = sub.add_parser("trace-distance", help="matrix-level distance of the copy average to the balanced gate", allow_abbrev=False)
    p_trace.set_defaults(func=cmd_trace_distance, n_copies="1,2,3,4,5,6", out="trace_distance.csv")
    p_trace.add_argument("--m", default="0.2", help="noise half-width (default %(default)s)")
    add_common(p_trace, "50")

    p_verify = sub.add_parser("verify", help="run the self-check suites", allow_abbrev=False)
    p_verify.set_defaults(func=cmd_verify)
    p_verify.add_argument("--samples", default="20", help="draws per randomized suite (default %(default)s)")
    p_verify.add_argument("--seed", default="12345", help="RNG seed for the randomized suites (default %(default)s)")
    p_verify.add_argument("--config", default=None, help="key=value file supplying defaults for any flag")

    p_table = sub.add_parser("table2", help="print the Bell-state / click-pattern support table", allow_abbrev=False)
    p_table.set_defaults(func=cmd_table2)
    p_table.add_argument("--eta-h", default="0.5", help="horizontal-analyzer reflectivity (default %(default)s)")
    p_table.add_argument("--eta-v", default="0.5", help="vertical-analyzer reflectivity (default %(default)s)")
    p_table.add_argument("--config", default=None, help="key=value file supplying defaults for any flag")

    p_version = sub.add_parser("version", help="print the package version", allow_abbrev=False)
    p_version.set_defaults(func=cmd_version)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, argv, parser)
    try:
        return args.func(args, parser, argv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
