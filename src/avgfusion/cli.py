"""Command-line interface: sweeps, self-checks, and table regeneration.

Every flag can also be supplied through ``--config <path>``, a flat
``key=value`` file whose keys are the flag names without leading dashes
(``n-copies`` or ``n_copies``). Each line is read as the flag
``--key=value``, and config flags are read before the command line, so a
flag given on the command line wins. Flags must be spelled in full: an
abbreviation is a usage error. ``--m-grid start:stop:step`` needs a step
that divides ``stop - start`` into at most ``MAX_M_GRID_POINTS`` points, and
``--seed`` an integer in [0, 2**64).
Exit codes: 0 success, 1 for I/O or verification failures, 2 for flag/usage
errors.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import os
import sys

from .metrics import _BALANCED_SUPPORT, BELL_LABELS, BSM_PATTERNS
from .svgplot import write_svg
from .sweep import SweepConfig, run_sweep, write_csv

# The Fock oracle (``verify``, ``detection``) is imported by the commands
# that use it, so a sweep loads only the engine. ``verify.run_all`` takes
# its defaults from here, the one place both read them.
DEFAULT_SAMPLES = 20
DEFAULT_SEED = 12345


# Flag converters. argparse names the converter in its error message
# ("invalid positive_int value: 'x'"), hence names without an underscore.


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def reflectivity(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"reflectivity must lie in [0, 1], got {value}")
    return value


def int_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    return tuple(int(p) for p in parts)


def half_width(text: str) -> tuple[float, ...]:
    """The one noise half-width of ``--m``, as a one-point grid."""
    return (float(text),)


# Every point of an ``--m-grid`` is built before any check of the sweep, so a
# tiny step (``0:0.5:1e-40``) would exhaust memory; no sweep a plot or a CSV
# can show needs more points than this.
MAX_M_GRID_POINTS = 10_000


def m_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive of both ends) or a single value.

    The points ``start + k*step`` are computed in decimal arithmetic, so
    ``0:0.4:0.1`` gives 0.3 rather than 0.30000000000000004. The step must
    divide ``stop - start`` exactly; anything else is rejected rather than
    rounded to a grid the flag does not name, and so is a grid of more than
    ``MAX_M_GRID_POINTS`` points.
    """
    try:
        parts = [decimal.Decimal(p) for p in text.split(":")]
        if len(parts) not in (1, 3) or not all(p.is_finite() for p in parts):
            raise argparse.ArgumentTypeError(f"expected start:stop:step or a single number, got {text!r}")
        start, stop, step = parts * 3 if len(parts) == 1 else parts
        if stop < start:
            raise argparse.ArgumentTypeError(f"stop must not be below start, got {text!r}")
        if stop > start and step <= 0:
            raise argparse.ArgumentTypeError(f"step must be positive, got {text!r}")
        intervals = (stop - start) / step if stop > start else 0
        if intervals >= MAX_M_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"grid has more than {MAX_M_GRID_POINTS} points (about {intervals + 1:.2e}), got {text!r}"
            )
        count = int(intervals)
        if start + count * step != stop:
            raise argparse.ArgumentTypeError(f"step must divide stop - start, got {text!r}")
        return tuple(float(start + k * step) for k in range(count + 1))
    except decimal.DecimalException:
        raise argparse.ArgumentTypeError(f"expected start:stop:step or a single number, got {text!r}") from None


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The ``key=value`` lines of the config file at ``path`` as ``--key=value`` flags of the command ``parser`` parses."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    entries = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in text.partition("="))
        if not sep:
            parser.error(f"{path}:{lineno}: expected key=value, got {text!r}")
        flag = "--" + key.replace("_", "-")
        if flag in ("--config", "--help"):
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        entries.append((lineno, key, f"{flag}={value}"))
    unknown = parser.parse_known_args([token for _, _, token in entries])[1]
    for lineno, key, token in entries:
        if token in unknown:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
    return [token for _, _, token in entries]


def cmd_sweep(args, parser) -> int:
    try:
        cfg = SweepConfig(args.experiment, args.n_copies, args.m_grid, args.samples, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.svg and os.path.realpath(args.svg) == os.path.realpath(args.out):
        parser.error(f"--out and --svg name the same file: {args.out!r} and {args.svg!r}")
    result = run_sweep(cfg)
    write_csv(result, args.out)
    if args.svg:
        write_svg(result, args.svg)
    print(f"wrote {args.out} ({len(result.cells) * cfg.samples} trials, {len(result.cells)} cells)")
    return 0


def cmd_verify(args, parser) -> int:
    from .verify import run_all

    results = run_all(samples=args.samples, seed=args.seed)
    for res in results:
        print(res.report_line())
    return 0 if all(r.passed for r in results) else 1


def cmd_table2(args, parser) -> int:
    from .detection import pattern_support

    support = {label: pattern_support(label, args.eta_h, args.eta_v) for label in BELL_LABELS}
    print(f"{'pattern':<9}" + "".join(f"{label:>7}" for label in BELL_LABELS))
    for pat in BSM_PATTERNS:
        cells = []
        for label in BELL_LABELS:
            if pat in support[label]:
                cells.append("✓" if pat in _BALANCED_SUPPORT[label] else "×")
            else:
                cells.append(".")
        print(f"{pat:<9}" + "".join(f"{c:>7}" for c in cells))
    return 0


def cmd_version(args, parser) -> int:
    from . import __version__

    print(f"avgfusion {__version__}")
    return 0


_M_GRID = ("--m-grid", dict(type=m_grid, default="0:0.4:0.1", help="noise half-widths, start:stop:step inclusive (default %(default)s)"))
_M = ("--m", dict(type=half_width, dest="m_grid", metavar="M", default="0.2", help="noise half-width (default %(default)s)"))

#: Sweep subcommands: experiment, help, grid flag, default copy counts, CSV path, trials per cell.
_SWEEPS = {
    "fusion-sweep": ("fusion", "averaged fusion gate on two Bell pairs", _M_GRID, "1,2,3", "fusion_sweep.csv", "200"),
    "bsm-sweep": ("bsm", "averaged Bell-state analyzer on a psi+ input", _M_GRID, "1,2,3", "bsm_sweep.csv", "200"),
    "trace-distance": (
        "trace-distance", "matrix-level distance of the copy average to the balanced gate", _M, "1,2,3,4,5,6", "trace_distance.csv", "50"
    ),
}

_CONFIG_HELP = "key=value file supplying defaults for any flag"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgfusion",
        description="Monte-Carlo sweeps and self-checks for averaged photonic fusion/Bell-analyzer networks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (experiment, help_, (grid_flag, grid), n_copies, out, samples) in _SWEEPS.items():
        p = sub.add_parser(command, help=help_, allow_abbrev=False)
        p.set_defaults(func=functools.partial(cmd_sweep, parser=p), experiment=experiment)
        p.add_argument(grid_flag, **grid)
        p.add_argument("--n-copies", type=int_list, default=n_copies, help="comma-separated copy counts (default %(default)s)")
        p.add_argument("--samples", type=positive_int, default=samples, help="trials per (N, m) cell (default %(default)s)")
        p.add_argument("--seed", type=seed, default="42", help="master seed for the per-cell RNG streams (default %(default)s)")
        p.add_argument("--out", default=out, help="CSV output path (default %(default)s)")
        p.add_argument("--svg", help="optional SVG line-plot output path")
        p.add_argument("--config", help=_CONFIG_HELP)

    p = sub.add_parser("verify", help="run the self-check suites", allow_abbrev=False)
    p.set_defaults(func=functools.partial(cmd_verify, parser=p))
    p.add_argument("--samples", type=positive_int, default=DEFAULT_SAMPLES, help="draws per randomized suite (default %(default)s)")
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED, help="RNG seed for the randomized suites (default %(default)s)")
    p.add_argument("--config", help=_CONFIG_HELP)

    p = sub.add_parser("table2", help="print the Bell-state / click-pattern support table", allow_abbrev=False)
    p.set_defaults(func=functools.partial(cmd_table2, parser=p))
    p.add_argument("--eta-h", type=reflectivity, default="0.5", help="horizontal-analyzer reflectivity (default %(default)s)")
    p.add_argument("--eta-v", type=reflectivity, default="0.5", help="vertical-analyzer reflectivity (default %(default)s)")
    p.add_argument("--config", help=_CONFIG_HELP)

    p = sub.add_parser("version", help="print the package version", allow_abbrev=False)
    p.set_defaults(func=functools.partial(cmd_version, parser=p))
    return parser


def parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; the flags of a ``--config`` file are read before the command line.

    Each command's ``func`` is bound to the command's own parser, so a usage
    error found after parsing prints that command's usage line, as argparse
    does for its flag errors.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        head = argv.index(args.command) + 1
        flags = _config_flags(args.config, args.func.keywords["parser"])
        args = parser.parse_args([*argv[:head], *flags, *argv[head:]])
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
