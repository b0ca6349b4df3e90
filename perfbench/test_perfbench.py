"""Tests of the benchmark itself, on a tiny STFT config so they stay fast.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from specinv import algorithms, experiment, projectors, spectral  # noqa: E402

TINY = {
    "separate_4s": workloads.Separate(duration=0.25, pool=6, window=64, hop=16, iterations=3),
    "separate_20s": workloads.Separate(duration=0.5, pool=6, window=64, hop=16, iterations=3),
    "protocol": workloads.Protocol(duration=0.25, window=64, hop=16, iterations=3),
}
COUNTS = (".calls", "algorithms.steps", "algorithms.noop_steps", "probe_calls", "bytes_computed")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_ROUNDS", 2)

    def go(workload, trace, seed=3):
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                "--trace", str(trace)]
        assert run.main(argv) == 0

    return go


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("report: ")
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_exactly(bench, capsys, workload):
    results = []
    for _ in range(2):
        bench(workload, trace=1)
        results.append(last_json(capsys))
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNTS)} for r in results
    ]
    assert len(counts[0]) == len(tracer.FUNCTIONS) + 4
    assert counts[0] == counts[1]
    assert all(r["correct"] and r["failed"] == 0 for r in results)


@pytest.mark.parametrize("trace,names", [(0, set(run.END_TO_END_UNITS)), (1, None)])
def test_every_metric_printed_with_unit(bench, capsys, trace, names):
    bench("separate_4s", trace=trace)
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if names is not None:
        assert set(wanted) == names
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layers_reached_per_workload(bench, capsys):
    bench("protocol", trace=1)
    protocol = {k: v["value"] for k, v in last_json(capsys)["metrics"].items()}
    bench("separate_4s", trace=1)
    separate = {k: v["value"] for k, v in last_json(capsys)["metrics"].items()}
    losses = [f"losses.{f}.calls" for f in ("mixing_error", "inconsistency", "magnitude_mismatch")]
    assert all(protocol[k] == 0 for k in losses)
    assert all(separate[k] > 0 for k in losses)
    assert protocol["spectral.istft.probe_calls"] > 0
    assert separate["spectral.istft.probe_calls"] == 0
    # In the sweep, mix_incons at sigma 0 and inf and mag_incons_hardmix at
    # inf repeat themselves after their first step.
    assert protocol["algorithms.noop_steps"] >= 3 * (3 - 1)


def test_tracer_restores_every_binding():
    before = (spectral.stft, projectors.g_operator, algorithms.p_cons, experiment.istft,
              experiment.ResultTable.write_csv)
    with tracer.Tracer():
        assert projectors.g_operator is not before[1]
        assert experiment.istft is not spectral.istft
    after = (spectral.stft, projectors.g_operator, algorithms.p_cons, experiment.istft,
             experiment.ResultTable.write_csv)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [(1, "b", 1.0, 3.0, 0, 0), (2, "c", 4.0, 5.0, 0, 0), (0, "a", 0.0, 10.0, -1, 0)]
    assert t.self_times() == {0: 7.0, 1: 2.0, 2: 1.0}


def test_check_rejects_broken_outputs(tmp_path):
    w = TINY["separate_4s"]
    clips = w.generate(tmp_path / "in", seed=1)
    out = tmp_path / "op"
    assert w.call(clips, 0, out) == 0
    assert w.check(clips, 0, out, seed=1).ok
    trace_csv = out / "trace.csv"
    lines = trace_csv.read_text().splitlines()
    k, h, i, m = lines[-1].split(",")
    trace_csv.write_text("\n".join(lines[:-1] + [f"{k},1e-3,{i},{m}"]) + "\n")
    assert not w.check(clips, 0, out, seed=1).ok
    (out / "est_2.wav").unlink()
    assert not w.check(clips, 0, out, seed=1).ok


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
