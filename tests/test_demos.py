"""Every demo script runs to completion and prints its headline result.

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
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[demo] in proc.stdout.splitlines()
    if demo == "05_sweep_figures.py":
        committed = sorted((REPO / "demos").glob("demo_*.csv"))
        assert [p.name for p in committed] == sorted(p.name for p in tmp_path.glob("demo_*.csv"))
        assert committed
        for path in committed:
            _assert_same_table(path, tmp_path / path.name)


def _assert_same_table(committed, written):
    want, got = (list(csv.reader(p.read_text().splitlines())) for p in (committed, written))
    assert got[0] == want[0] and len(got) == len(want), committed.name
    metrics = slice(want[0].index("eta") + 1, want[0].index("row_kind"))
    for w, g in zip(want[1:], got[1:]):
        assert g[: metrics.start] + g[metrics.stop :] == w[: metrics.start] + w[metrics.stop :], (committed.name, w)
        for a, b in zip(w[metrics], g[metrics]):
            a, b = float(a), float(b)
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12, (committed.name, w[:5])
