"""Every demo script runs to completion and prints its headline result, and
every Python example of README.md runs.

Each demo is copied into a temporary directory and run there, so demo 05
writes its CSV and SVG files next to the copy, not into the source tree.
Those CSVs must match the committed ``demos/demo_*.csv``: key and eta
columns exactly, metric columns to 1e-12 (their last digits depend on the
BLAS and LAPACK numpy links).
"""

import csv
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

HEADLINES = {
    "01_hong_ou_mandel.py": "        0.50     0.0000     0.5000     0.5000",
    "02_fusion_parity.py": "  heralded success probability: 0.5000",
    "03_averaging_filter.py": "  8               0.0866              0.9530",
    "04_bsm_discrimination.py": "  2     0.964743     0.964743     0.999919       0.999919",
    "05_sweep_figures.py": "  N=6 m=0.2: 0.0964 +/- 0.0404",
}


def test_every_demo_has_a_headline():
    assert sorted(HEADLINES) == sorted(p.name for p in (REPO / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs_and_prints_its_headline(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(REPO / "demos" / demo, script)
    proc = _run_python([str(script)], tmp_path)
    assert HEADLINES[demo] in proc.stdout.splitlines()
    if demo == "05_sweep_figures.py":
        committed = sorted((REPO / "demos").glob("demo_*.csv"))
        assert [p.name for p in committed] == sorted(p.name for p in tmp_path.glob("demo_*.csv"))
        assert committed
        for path in committed:
            _assert_same_table(path, tmp_path / path.name)


def test_readme_python_examples_run(tmp_path):
    """The quick start and the sweep example, each in a fresh interpreter."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for code in blocks:
        _run_python(["-c", code], tmp_path)


def _run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python -W error *args`` in ``cwd`` on this checkout's ``src``; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _assert_same_table(committed, written):
    want, got = (list(csv.reader(p.read_text().splitlines())) for p in (committed, written))
    assert got[0] == want[0] and len(got) == len(want), committed.name
    metrics = slice(want[0].index("eta") + 1, want[0].index("row_kind"))
    for w, g in zip(want[1:], got[1:]):
        assert g[: metrics.start] + g[metrics.stop :] == w[: metrics.start] + w[metrics.stop :], (committed.name, w)
        for a, b in zip(w[metrics], g[metrics]):
            a, b = float(a), float(b)
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12, (committed.name, w[:5])
