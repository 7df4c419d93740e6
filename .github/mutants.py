"""Show that tier-1 fails on each mutant of a fixed set.

Run from anywhere, with the test dependencies installed:

    python .github/mutants.py

Each mutant replaces one line of ``src/avgfusion`` with a wrong one. For each,
the script copies what tier-1 reads (``src/``, ``tests/``, ``demos/``,
``README.md``, ``pyproject.toml``) to a temporary directory, applies the
replacement there, and runs tier-1 (``python -m pytest -q``) on the copy. The
run must exit 1: failures found and reported. Exit 0 means no test catches the
mutant; 3 means pytest stopped with an internal error before it reported them
all. The unmutated copy must exit 0. The script exits 1 if any run does not
exit as it must, or if a mutant's line is no longer in its file exactly once.
A full tier-1 run takes about 30 s, so the set runs outside tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")

#: (name, module file, the line as it is, the line as the mutant has it)
MUTANTS = (
    (
        "the sweep's click table without the 1/sqrt(2) bunching factor of a double click",
        "sweep.py",
        "_BUNCHING = np.where(_CLICK_MODES[0] == _CLICK_MODES[1], _SQRT_HALF, 1.0)",
        "_BUNCHING = np.where(_CLICK_MODES[0] == _CLICK_MODES[1], 1.0, 1.0)",
    ),
    (
        "sweep.trace_distance taking one Newton step fewer",
        "sweep.py",
        "for _ in range(6):",
        "for _ in range(5):",
    ),
    (
        "trial_rng advancing one draw too many",
        "sweep.py",
        "rng.bit_generator.advance(trial * 2 * operator.index(n_copies))",
        "rng.bit_generator.advance(trial * 2 * operator.index(n_copies) + 1)",
    ),
    (
        "sweep._stream keying a cell's stream with N and the m index swapped",
        "sweep.py",
        "for value in (master_seed, experiment_id, n_copies, m_index):",
        "for value in (master_seed, experiment_id, m_index, n_copies):",
    ),
    (
        "_bsm_closed dividing by n**3",
        "closed_form.py",
        "n4 = (n * n) ** 2",
        "n4 = n * n * n",
    ),
    (
        "the two layers swapped in _fusion_products",
        "interferometers.py",
        "f = _features(eta_x, eta_y)",
        "f = _features(eta_y, eta_x)",
    ),
    (
        "the mean and std rows swapped in g17.chunks",
        "g17.py",
        "mean, std = next(stat_rows), next(stat_rows)",
        "std, mean = next(stat_rows), next(stat_rows)",
    ),
    (
        "g17._blocks leaving the mean and std values of the cells a block ends out of its budget",
        "g17.py",
        "free -= (stop - start) * width + 2 * columns * (stop == len(cell.etas))",
        "free -= (stop - start) * width",
    ),
    (
        "sweep._stats giving a one-trial NaN row a std of 0.0",
        "sweep.py",
        "std = np.where(undefined, math.nan, 0.0)",
        "std = np.zeros_like(mean)",
    ),
    (
        "the kept modes on replica 1 instead of replica 0",
        "averaging.py",
        "kept = [*range(0, enc, n), *range(enc, enc + k)]",
        "kept = [*range(1, enc, n), *range(enc, enc + k)]",
    ),
    (
        "one passthrough mode dropped from the kept modes",
        "averaging.py",
        "kept = [*range(0, enc, n), *range(enc, enc + k)]",
        "kept = [*range(0, enc, n), *range(enc, enc + k - 1)]",
    ),
    (
        "build_averaged_network checking the unitarity of the first copy set of a stack only",
        "averaging.py",
        "if not (_unitarity_defects(stack) <= UNITARY_TOL).all():",
        "if not (_unitarity_defects(stack[:1]) <= UNITARY_TOL).all():",
    ),
    (
        "a block's stage-1 slice of a copy count starting one trial late",
        "sweep.py",
        "part = etas[max(lo - start, 0) : hi - start]",
        "part = etas[max(lo - start, 0) + 1 : hi - start]",
    ),
    (
        "a stacked evolution walking only the first matrix's nonzero entries",
        "fock.py",
        "support = (stack != 0).any(axis=0)",
        "support = stack[0] != 0",
    ),
    (
        "a stacked evolution walking rows instead of columns",
        "fock.py",
        "by_column = np.ascontiguousarray(stack.transpose(2, 1, 0))",
        "by_column = np.ascontiguousarray(stack.transpose(1, 2, 0))",
    ),
    (
        "StateStack pruning with numpy's complex modulus instead of the oracle's hypot",
        "fock.py",
        "amps[np.hypot(amps.real, amps.imag) <= PRUNE_TOL] = 0",
        "amps[np.abs(amps) <= PRUNE_TOL] = 0",
    ),
    (
        "verify.check_bsm_maps ignoring a target ket the analyzer never produces",
        "verify.py",
        "devs += [abs(a) for ket, a in target.items() if ket not in out.kets]",
        "devs += []",
    ),
    (
        "verify.check_closed_form comparing each simulated column with itself",
        "verify.py",
        'np.max(np.abs(cell.metrics[sim] - cell.metrics[f"{sim}_closed"]))',
        "np.max(np.abs(cell.metrics[sim] - cell.metrics[sim]))",
    ),
    (
        "verify.check_averaging_equivalence comparing the kept half of each stacked evolution with itself",
        "verify.py",
        "devs += _row_deviations(amps[:k], amps[k:])",
        "devs += _row_deviations(amps[:k], amps[:k])",
    ),
    (
        "verify._haar_unitaries fixing the QR phases on rows instead of columns (still unitary)",
        "verify.py",
        "return q * (d / np.abs(d))[..., None, :]",
        "return q * (d / np.abs(d))[..., :, None]",
    ),
    (
        "metrics.trace_distance as half the spectral norm instead of half the nuclear norm",
        "metrics.py",
        "d = 0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False), axis=-1)",
        "d = 0.5 * np.max(np.linalg.svd(a - b, compute_uv=False), axis=-1)",
    ),
    (
        "the psi+ entry of metrics.BSM_MAP_TARGETS with its sign flipped (a global phase)",
        "metrics.py",
        '"psi+": {(1, 1, 0, 0): _SQRT_HALF, (0, 0, 1, 1): -_SQRT_HALF},',
        '"psi+": {(1, 1, 0, 0): -_SQRT_HALF, (0, 0, 1, 1): _SQRT_HALF},',
    ),
    (
        "the one rail convention, metrics._RAILS, with the two rails of photon 1 swapped",
        "metrics.py",
        "_RAILS = np.array([[1, 0], [3, 2]])",
        "_RAILS = np.array([[0, 1], [3, 2]])",
    ),
    (
        "the psi- entry of metrics._BELL_RAILS with its sign flipped (a global phase)",
        "metrics.py",
        '"psi-": np.array([[0.0, -_SQRT_HALF], [_SQRT_HALF, 0.0]]),',
        '"psi-": np.array([[0.0, _SQRT_HALF], [-_SQRT_HALF, 0.0]]),',
    ),
    (
        "metrics._BALANCED_SUPPORT reading the psi+ image for every Bell state",
        "metrics.py",
        "label: frozenset(pat for pat, ket in BSM_PATTERNS.items() if ket in BSM_MAP_TARGETS[label])",
        'label: frozenset(pat for pat, ket in BSM_PATTERNS.items() if ket in BSM_MAP_TARGETS["psi+"])',
    ),
)


def _copy(to: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, to / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy(source, to / name)


def _mutate(copy: Path, file: str, line: str, mutant: str) -> str | None:
    """Apply one mutant to ``copy``; the reason it cannot be applied, or None."""
    path = copy / "src" / "avgfusion" / file
    text = path.read_text(encoding="utf-8")
    if text.count(line) != 1:
        return f"{line!r} occurs {text.count(line)} times in {file}, not once"
    path.write_text(text.replace(line, mutant), encoding="utf-8")
    return None


def _tier1(copy: Path) -> tuple[int, str]:
    """Tier-1's exit code on ``copy`` and its last lines of output."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    where = subprocess.run(
        [sys.executable, "-c", "import avgfusion; print(avgfusion.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(copy):
        raise RuntimeError(f"the copy imports avgfusion from {where}, not from its own src/")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return run.returncode, "\n".join((run.stdout + run.stderr).strip().splitlines()[-3:])


def _run(change) -> tuple[int | None, str]:
    """Tier-1 on a fresh copy, with the (file, line, mutant) ``change`` if any."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp).resolve()
        _copy(copy)
        problem = change and _mutate(copy, *change)
        return (None, problem) if problem else _tier1(copy)


def main() -> int:
    runs = [("unmutated", None, 0), *((name, change, 1) for name, *change in MUTANTS)]
    wrong = 0
    for name, change, expected in runs:
        code, tail = _run(change)
        wrong += code != expected
        print(f"{'ok ' if code == expected else 'BAD'} exit {code} (want {expected}): {name}")
        print("    " + tail.replace("\n", "\n    "), flush=True)
    print(f"{wrong} of {len(runs)} runs did not exit as they must")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
