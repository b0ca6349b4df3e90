"""``scripts/bench.py``, on which every speed claim rests: the one-row timing that its
subprocesses print, and the arguments that a record needs."""

import os
import subprocess
import sys
from pathlib import Path

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
