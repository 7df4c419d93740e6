"""Benchmark of the avgfusion command-line program, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. Each run:

1. times set-up (import, cached inputs, one warm-up trial; ``setup_probe.py``)
   in a few fresh interpreters and reports the median as ``setup_s``;
2. calls ``avgfusion.cli.main`` with the workload's arguments serially, in
   this process, until ``--seconds`` have passed (at least ``MIN_INVOCATIONS``
   times), writing CSV and SVG into a temporary directory, and reports the
   median invocation as ``wall_s`` and the work per second as
   ``trials_per_s``;
3. with ``--trace 1``, alternates untraced and traced invocations and reports
   per-layer numbers from the traced ones (see ``layers.py``), plus the
   tracing overhead; spans go to ``.perfbench/spans-<workload>-<seed>.jsonl.gz``;
4. checks outside the timed region that every invocation wrote the same CSV
   bytes and that the outputs agree with an independent oracle
   (``oracle.py``).

Times in the result are given at nominal machine speed: each is rescaled by
a reference kernel timed next to it (``speed.py``), which cancels the swings
in CPU speed of a shared host. The raw medians are printed alongside.

Every invocation uses ``--seed`` as the CLI seed, so the same seed gives the
same inputs and the same output bytes. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed / attempted`` is the
failure share: a trial (or, for ``verify-oracle``, a self-check suite) fails
when the oracle rejects it, or when it raised the clamp warning of
``normalized_fidelity``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

import layers
import oracle
import setup_probe
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
THREADS_ENV_VAR = "AVGFUSION_THREADS"

MIN_INVOCATIONS = 3
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

E2E_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    ``trials`` is the work one invocation does: sweep trials, or for
    ``verify`` the draws per randomized suite (its ``--samples``).
    """

    name: str
    argv: tuple[str, ...]
    experiment: str | None  # sweep experiment; None for ``verify``
    trials: int
    warmup: str  # experiment of the set-up's warm-up trial
    why: str

    def cli_argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = [*self.argv, "--seed", str(seed)]
        if self.experiment is not None:
            argv += ["--out", str(out_dir / "out.csv"), "--svg", str(out_dir / "out.svg")]
        return argv


def _sweep(name, experiment, grid, cells, samples, why) -> Workload:
    """A sweep workload; ``name`` is also the CLI subcommand."""
    argv = (name, *grid, "--samples", str(samples))
    return Workload(name, argv, experiment, cells * samples, experiment, why)


WORKLOADS = {
    w.name: w
    for w in (
        _sweep(
            "fusion-sweep", "fusion", ("--n-copies", "1,2,3", "--m-grid", "0:0.4:0.1"), 15, 6,
            "default fusion grid; about 85% of its time is Fock evolution, post-selection and detection",
        ),
        _sweep(
            "bsm-sweep", "bsm", ("--n-copies", "1,2,3", "--m-grid", "0:0.4:0.1"), 15, 20,
            "default analyzer grid; small states, so network construction and closed forms weigh next to evolution",
        ),
        _sweep(
            "trace-distance", "trace-distance", ("--n-copies", "1,2,3,4,5,6", "--m", "0.2"), 6, 200,
            "matrix-level only: gate construction, RNG streams and CSV writing; bypasses the Fock layer",
        ),
        Workload(
            "verify-oracle", ("verify", "--samples", "40"), None, 40, "fusion",
            "self-check suites: apply_transfer on dense Haar unitaries and bunched inputs, the oracle layer",
        ),
    )
}


# -- package and manifest -----------------------------------------------------

def import_package():
    """Import avgfusion from this checkout's src/, refusing any other copy."""
    os.environ.pop(THREADS_ENV_VAR, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import avgfusion
        import avgfusion.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import avgfusion from {SRC}: {exc}")
    if Path(avgfusion.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported avgfusion from {avgfusion.__file__}, not {SRC}")
    return avgfusion


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(workload: Workload, seed: int, threads_was: str | None, avgfusion) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "cli_argv": list(workload.argv),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "avgfusion": avgfusion.__version__,
        "git_commit": git_commit(),
        THREADS_ENV_VAR: "unset" if threads_was is None else f"unset (was {threads_was!r})",
    }


# -- timed work ---------------------------------------------------------------

def measure_setup(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) from fresh interpreters, see ``setup_probe``."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload.warmup, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(probe, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(report["file"]).resolve().parent.parent != SRC:
            raise SystemExit(f"perfbench: set-up imported avgfusion from {report['file']}")
        samples.append((report["setup_s"], report["reference_s"]))
    return samples


@dataclass
class Invocation:
    wall_s: float
    returncode: int
    stdout: str
    runtime_warnings: list[str]
    csv_sha256: str | None
    tracer: layers.Tracer | None
    reference_s: float = math.nan  # reference kernel time around this invocation

    @property
    def nominal_s(self) -> float:
        return speed.to_nominal(self.wall_s, self.reference_s)

    @property
    def clamps(self) -> int:
        return sum("clamping" in msg for msg in self.runtime_warnings)


def invoke(avgfusion, argv: list[str], csv_path: Path | None, tracer=None) -> Invocation:
    """One ``cli.main`` call, timed from call to return; output digested afterwards."""
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            rc = avgfusion.cli.main(argv)
            wall = time.perf_counter() - t0
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    digest = None
    if csv_path is not None and csv_path.exists():
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return Invocation(wall, rc, buf.getvalue(), runtime, digest, tracer)


def run_invocations(avgfusion, workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Invoke until ``seconds`` have passed, timing the reference kernel between invocations.

    With tracing, untraced and traced invocations alternate.
    """
    argv = workload.cli_argv(seed, out_dir)
    csv_path = out_dir / "out.csv" if workload.experiment is not None else None
    invocations = []
    minimum = 2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS
    start = time.perf_counter()
    before = speed.reference_seconds()
    while len(invocations) < minimum or time.perf_counter() - start < seconds:
        tracer = layers.Tracer(trace_id=len(invocations)) if trace and len(invocations) % 2 else None
        inv = invoke(avgfusion, argv, csv_path, tracer)
        after = speed.reference_seconds()
        inv.reference_s = (before + after) / 2
        before = after
        invocations.append(inv)
    return invocations


# -- checks -------------------------------------------------------------------

def check_outputs(avgfusion, workload: Workload, invocations: list[Invocation], out_dir: Path):
    """Attempted and failed work over all invocations, the CSV digest, and notes.

    Every invocation must return 0 and write the same CSV bytes as the
    others, so the oracle verdict on the last CSV holds for each; otherwise
    all of that invocation's work counts as failed. Each RuntimeWarning (the
    clamp of ``normalized_fidelity`` among them) counts as one failed trial,
    so a clamped trial that the oracle also rejects may count twice, capped
    at the work attempted.
    """
    if workload.experiment is None:
        verdict = oracle.check_verify(invocations[-1].stdout)
    else:
        check = oracle.SWEEP_CHECKS[workload.experiment]
        verdict = check(out_dir / "out.csv", workload.trials, avgfusion)
        try:
            ElementTree.parse(out_dir / "out.svg")
        except (OSError, ElementTree.ParseError) as exc:
            verdict.fail("svg", f"SVG unreadable: {exc}")
    notes = list(verdict.notes)
    digests = {inv.csv_sha256 for inv in invocations}
    if len(digests) != 1:
        notes.append(f"CSV bytes differ between same-seed invocations: {sorted(map(str, digests))}")
    failed = 0
    for i, inv in enumerate(invocations):
        if inv.returncode != 0:
            notes.append(f"invocation {i} exited with {inv.returncode}")
        notes.extend(f"invocation {i}: RuntimeWarning: {msg}" for msg in inv.runtime_warnings[:5])
        if inv.returncode != 0 or len(digests) != 1:
            failed += verdict.attempted
        else:
            failed += min(verdict.attempted, len(verdict.failed) + len(inv.runtime_warnings))
    digest = next(iter(digests)) if len(digests) == 1 else None
    return verdict.attempted * len(invocations), failed, digest, notes


# -- report -------------------------------------------------------------------

def _spread(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"median {statistics.median(values):.6f}, quartiles {q1:.6f} {q3:.6f}, n={len(values)}"


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    threads_was = os.environ.get(THREADS_ENV_VAR)
    avgfusion = import_package()
    lines = [f"manifest {json.dumps(manifest(workload, seed, threads_was, avgfusion))}"]
    setup = measure_setup(workload, seed)
    setup_probe.set_up(workload.warmup, seed)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        out_dir = Path(tmp)
        invocations = run_invocations(avgfusion, workload, seed, seconds, trace, out_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, digest, notes = check_outputs(avgfusion, workload, invocations, out_dir)

    untraced = [inv for inv in invocations if inv.tracer is None]
    wall = statistics.median(inv.nominal_s for inv in untraced)
    setup_s = statistics.median(speed.to_nominal(s, ref) for s, ref in setup)
    base = "suites" if workload.experiment is None else "trials"
    if workload.experiment is None:
        lines.append(f"check verify suites PASS in all {len(invocations)} invocations: {failed == 0}")
    else:
        lines.append(f"check csv_sha256 {digest} (identical in all {len(invocations)} invocations: {digest is not None})")
    lines += [
        f"reference_kernel_s {_spread([inv.reference_s for inv in invocations])} (nominal {speed.NOMINAL_REFERENCE_S})",
        f"raw wall_s {_spread([inv.wall_s for inv in untraced])}",
        f"wall_s {wall:.6f} s at nominal speed ({_spread([inv.nominal_s for inv in untraced])})",
        f"trials_per_s {workload.trials / wall:.3f} 1/s at nominal speed ({workload.trials} {'draws' if workload.experiment is None else 'trials'} per invocation)",
        f"raw setup_s {_spread([s for s, _ in setup])} (fresh interpreters)",
        f"setup_s {setup_s:.6f} s at nominal speed",
        f"peak_rss_mb {peak_rss_mb:.3f} MB",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} {base} failed)",
    ]
    lines += [f"note {n}" for n in notes]

    if trace:
        traced = [inv for inv in invocations if inv.tracer is not None]
        units = layers.metric_units()
        per_trace = []
        for inv in traced:
            totals = inv.tracer.totals(inv.clamps)
            for key in totals:
                if units[key] == "s":
                    totals[key] = speed.to_nominal(totals[key], inv.reference_s)
            per_trace.append(totals)
        metrics, trace_notes = layers.summarize(
            per_trace, [inv.nominal_s for inv in traced], [inv.nominal_s for inv in untraced]
        )
        spans_path = WORK_DIR / f"spans-{workload.name}-{seed}.jsonl.gz"
        layers.write_spans(spans_path, [inv.tracer for inv in traced])
        lines.append(f"spans {sum(len(inv.tracer.spans) for inv in traced)} (raw seconds) written to {spans_path.relative_to(ROOT)}")
        lines += [f"note {n}" for n in trace_notes]
    else:
        metrics = {
            "wall_s": wall,
            "trials_per_s": workload.trials / wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    if args.trace:
        for name, metric in result["metrics"].items():
            print(f"{name} {metric['value']:.9g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
