"""What each entry point loads: a sweep loads the engine, never the Fock oracle.

Every check of the import graph runs in a fresh interpreter, since this test
process has long since imported every module.
"""

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import avgfusion
from avgfusion import cli
from avgfusion.verify import run_all

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ORACLE = ("avgfusion.averaging", "avgfusion.detection", "avgfusion.verify")


def fresh(code: str, cwd) -> dict:
    """Run ``code`` in a fresh interpreter; it must end by printing one JSON value."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('avgfusion'))))"


def test_a_bare_import_loads_no_submodule(tmp_path):
    assert fresh(f"import avgfusion\n{LOADED}", tmp_path) == ["avgfusion"]


def test_the_engine_loads_no_oracle_output_or_cli(tmp_path):
    code = f"""
import numpy as np
from avgfusion import sweep
for experiment in sweep.EXPERIMENTS:
    sweep.run_cell(experiment, 0.1, np.full((3, 2, 2), 0.4))
{LOADED}
"""
    loaded = fresh(code, tmp_path)
    assert "avgfusion.sweep" in loaded
    assert not set(loaded) & {*ORACLE, "avgfusion.svgplot", "avgfusion.cli"}


@pytest.mark.parametrize("command", ["fusion-sweep", "bsm-sweep", "trace-distance"])
def test_a_cli_sweep_loads_no_oracle(tmp_path, command):
    code = f"""
from avgfusion import cli
assert cli.main([{command!r}, "--samples", "2", "--out", "out.csv", "--svg", "out.svg"]) == 0
{LOADED}
"""
    loaded = fresh(code, tmp_path)
    assert "avgfusion.svgplot" in loaded
    assert not set(loaded) & set(ORACLE)


def test_cli_verify_loads_the_oracle_and_passes(tmp_path):
    code = f"""
from avgfusion import cli
assert cli.main(["verify", "--samples", "2"]) == 0
{LOADED}
"""
    assert set(ORACLE) <= set(fresh(code, tmp_path))


def test_cli_table2_loads_detection_but_not_verify(tmp_path):
    code = f"""
from avgfusion import cli
assert cli.main(["table2"]) == 0
{LOADED}
"""
    loaded = fresh(code, tmp_path)
    assert "avgfusion.detection" in loaded
    assert "avgfusion.verify" not in loaded


def test_every_import_form_works_from_a_fresh_interpreter(tmp_path):
    code = """
import json
import avgfusion
sweep_module = avgfusion.sweep
from avgfusion import verify
from avgfusion import *
names = dict(globals())
print(json.dumps([avgfusion.__version__, sweep_module.__name__, verify.__name__, sorted(set(avgfusion.__all__) - set(names))]))
"""
    assert fresh(code, tmp_path) == ["0.1.0", "avgfusion.sweep", "avgfusion.verify", []]


@pytest.mark.parametrize("name", avgfusion.__all__)
def test_every_export_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"avgfusion.{avgfusion._HOMES[name]}")
    value = getattr(avgfusion, name)
    assert value is getattr(home, name)
    if getattr(value, "__module__", "").startswith("avgfusion."):  # FockKet is the builtin tuple
        assert value.__module__ == home.__name__


def test_dir_lists_every_export_and_submodule():
    assert set(avgfusion.__all__) | {"cli", "sweep", "verify", "__version__"} <= set(dir(avgfusion))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'avgfusion' has no attribute 'no_such_name'"):
        avgfusion.no_such_name
    assert not hasattr(avgfusion, "no_such_name")


def test_the_pattern_tables_are_one_object_in_metrics_and_detection():
    from avgfusion import detection, metrics

    for name in ("BSM_PATTERNS", "FUSION_PATTERNS", "BSM_MAP_TARGETS"):
        assert getattr(detection, name) is getattr(metrics, name)


def test_verify_defaults_are_the_cli_defaults(capsys):
    params = inspect.signature(run_all).parameters
    assert (params["samples"].default, params["seed"].default) == (cli.DEFAULT_SAMPLES, cli.DEFAULT_SEED)
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = capsys.readouterr().out
    assert f"(default {cli.DEFAULT_SAMPLES})" in text
    assert f"(default {cli.DEFAULT_SEED})" in text
