"""``scripts/bench.py``, on which every speed claim rests: the one-row timing that its
subprocesses print, and the arguments that a record needs; and ``scripts/same_outputs.py``'s
report on two output trees."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, cwd=None, path=()):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, path), str(ROOT / "src")])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_row_prints_one_positive_time():
    proc = _bench("--row", "4s/stft")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert float(line) > 0


def test_cold_import_synth_row_prints_one_positive_time():
    proc = _bench("--row", "cold_import_synth")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert float(line) > 0


def test_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: a scipy that cannot be imported stops no row."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("raise ImportError('scipy is not installed')\n")
    proc = _bench("--row", "cold_import_cli", path=[tmp_path])
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert float(line) > 0


@pytest.mark.parametrize("args", [[], ["--out", "x.json", "--label", "a"]], ids=["no_args", "no_baseline"])
def test_baseline_required(tmp_path, args):
    proc = _bench(*args, cwd=tmp_path)
    assert proc.returncode == 2
    assert "--baseline" in proc.stderr.splitlines()[-1]  # the error, not the usage line above it
    assert not (tmp_path / "x.json").exists()


def _same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_says_how_far_files_differ(tmp_path):
    compare = _same_outputs().compare
    base, change = tmp_path / "base", tmp_path / "change"
    for side in base, change:
        (side / "t").mkdir(parents=True)
        np.save(side / "t" / "x.npy", np.array([1.0, -4.0, 2.0]))
        (side / "test.csv").write_text("algorithm,sigma,sdr_db,wall_ms\nmisi,0,1.5,3.0\nam,0,2.0,4.0\n")
        (side / "trace.csv").write_text("iteration,h,i\n0,2.0,8.0\n1,1.0,4.0\n")
        (side / "selections.json").write_text("{}\n")
    assert compare(base, change) == {"files": 4, "identical": 4, "differ": {}, "baseline_only": [], "change_only": []}

    np.save(change / "t" / "x.npy", np.array([1.0, -4.0, 3.0]))
    (change / "test.csv").write_text("algorithm,sigma,sdr_db,wall_ms\nmisi,0,1.25,9.0\nam,0,2.0,4.0\n")
    (change / "trace.csv").write_text("iteration,h,i\n0,2.0,8.0\n1,1.5,4.0\n")
    (change / "selections.json").write_text("{ }\n")
    report = compare(base, change)
    assert report["identical"] == 0
    assert report["differ"] == {
        "selections.json": None,
        "t/x.npy": {"entries": 1, "max_rel": 0.25},
        "test.csv": {"matched_rows": 2, "max_abs_sdr_db": 0.25},
        "trace.csv": {"h": {"max_rel_entry": 0.5, "max_rel_column": 0.25}, "i": {"max_rel_entry": 0.0,
                                                                                "max_rel_column": 0.0}},
    }
