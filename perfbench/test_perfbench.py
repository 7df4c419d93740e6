"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import layers
import oracle
import run

TINY = {
    "fusion-sweep": run._sweep("fusion-sweep", "fusion", ("--n-copies", "1,2", "--m-grid", "0:0.4:0.2"), 6, 2, "tiny"),
    "bsm-sweep": run._sweep("bsm-sweep", "bsm", ("--n-copies", "1,2", "--m-grid", "0:0.4:0.2"), 6, 2, "tiny"),
    "trace-distance": run._sweep("trace-distance", "trace-distance", ("--n-copies", "1,2,3", "--m", "0.2"), 3, 4, "tiny"),
    "verify-oracle": replace(run.WORKLOADS["verify-oracle"], argv=("verify", "--samples", "2"), trials=2),
}


@pytest.fixture(autouse=True)
def _one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.delenv(run.THREADS_ENV_VAR, raising=False)


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_emits():
    doc = _benchmark_json()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_metric_emitted_with_its_unit(name):
    doc = _benchmark_json()
    for trace, listed in ((False, doc["end_to_end"]), (True, doc["per_layer"])):
        result, lines = run.run(TINY[name], seed=3, seconds=0, trace=trace)
        assert result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
        report = "\n".join(lines)
        for metric in ("wall_s", "trials_per_s", "setup_s", "peak_rss_mb", "failed_frac"):
            assert f"\n{metric} " in report
        assert '"AVGFUSION_THREADS": "unset"' in lines[0]
    apply_calls = result["metrics"]["fock.apply_transfer.calls"]["value"]
    assert (apply_calls == 0) == (name == "trace-distance")


def test_same_seed_same_csv_other_seed_other_csv():
    digests = []
    for seed in (5, 5, 6):
        _, lines = run.run(TINY["trace-distance"], seed=seed, seconds=0, trace=False)
        (line,) = [ln for ln in lines if ln.startswith("check csv_sha256")]
        digests.append(line.split()[2])
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize(
    "name, target",
    [("fusion-sweep", "fidelity"), ("bsm-sweep", "fidelity"), ("trace-distance", "trace_distance")],
)
def test_perturbed_trial_metric_raises_failed_frac(monkeypatch, name, target):
    import avgfusion.sweep

    original = getattr(avgfusion.sweep, target)
    monkeypatch.setattr(avgfusion.sweep, target, lambda *args: original(*args) + 1e-6)
    result, lines = run.run(TINY[name], seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(ln.startswith("failed_frac") and not ln.startswith("failed_frac 0 ") for ln in lines)


def test_oracle_rejects_one_edited_csv_value(tmp_path):
    import avgfusion.cli

    path = tmp_path / "f.csv"
    argv = [*TINY["fusion-sweep"].argv, "--seed", "9", "--out", str(path)]
    assert avgfusion.cli.main(argv) == 0
    assert oracle.check_fusion(path, 12, avgfusion).failed == set()
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[6] = repr(float(cells[6]) + 2e-10)  # P_HH of the first trial
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    verdict = oracle.check_fusion(path, 12, avgfusion)
    assert (1, 0.0, 0) in verdict.failed
    assert verdict.notes[0].startswith("trial (1, 0.0, 0): P_HH=")


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fusion-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
