import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from specinv import algorithms, experiment, spectral
from specinv.algorithms import SIGMA_INF, Family
from specinv.experiment import (
    CSV_HEADER,
    ItemRecord,
    ResultTable,
    SweepConfig,
    evaluate_test,
    format_sigma,
    load_sweep_config,
    parse_sigma,
    run_benchmark,
    run_sweep,
    select_best,
    usable_cpus,
)
from specinv.synth import generate_dataset


def _report_g_threads(task):
    """A sweep task's stand-in that reports G's thread budget and the threads alive after a G."""
    spectral.g_operator(np.ones((33, 40), complex), spectral.StftConfig(64, 16, 8000))
    label = f"budget {spectral._threads}, threads {threading.active_count()}"
    return [ItemRecord("am", 0.0, 0, 0.0, 0.0, "validation", label, 0.0, 0.0)]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    return generate_dataset(out, n_validation=2, n_test=2, seed=7, duration=0.5, noise_duration=0.8)


@pytest.fixture
def tiny_config(tiny_dataset, tmp_path):
    return SweepConfig(
        manifest=str(tiny_dataset),
        output_dir=str(tmp_path / "out"),
        sigma_grid=[0.0, 1.0, SIGMA_INF],
        max_iterations=3,
        degradation_levels=[0.0, 0.5],
        record_timing=False,
    )


def _without_split(cfg, tmp_path, split):
    """``cfg`` over a copy of its manifest without the ``split`` items (item paths made absolute)."""
    root = os.path.dirname(cfg.manifest)
    with open(cfg.manifest) as fh:
        doc = json.load(fh)
    doc["items"] = [{**it, "clean_path": os.path.join(root, it["clean_path"]),
                     "noise_path": os.path.join(root, it["noise_path"])}
                    for it in doc["items"] if it["split"] != split]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return dataclasses.replace(cfg, manifest=str(path))


def _rec(algorithm="misi", sigma=0.0, iterations=1, sdr_db=10.0, item_id="a", split="validation"):
    return ItemRecord(algorithm, sigma, iterations, 0.0, 0.0, split, item_id, sdr_db, 0.0)


class TestSigmaFormat:
    def test_round_trip(self):
        for s in (0.0, 0.01, 0.3, 100.0, SIGMA_INF):
            assert parse_sigma(format_sigma(s)) == s

    def test_inf_literal(self):
        assert format_sigma(SIGMA_INF) == "inf"
        assert parse_sigma("inf") == SIGMA_INF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_sigma("-1")


class TestSelectBest:
    def test_single_row(self):
        table = ResultTable([_rec(sigma=0.3, iterations=5)])
        assert select_best(table, "misi") == (0.3, 5)

    def test_tie_prefers_fewer_iterations(self):
        table = ResultTable([
            _rec(sigma=1.0, iterations=20, sdr_db=8.0),
            _rec(sigma=1.0, iterations=5, sdr_db=8.0),
        ])
        assert select_best(table, "misi") == (1.0, 5)

    def test_tie_then_prefers_smaller_sigma(self):
        table = ResultTable([
            _rec(sigma=3.0, iterations=5, sdr_db=8.0),
            _rec(sigma=1.0, iterations=5, sdr_db=8.0),
        ])
        assert select_best(table, "misi") == (1.0, 5)

    def test_unimodal_peak(self):
        rows = [_rec(sigma=s, iterations=2, sdr_db=10 - (np.log10(s) - 1.0) ** 2)
                for s in (0.01, 0.1, 1.0, 10.0, 100.0)]
        table = ResultTable(rows)
        sigma, _ = select_best(table, "misi")
        assert sigma == 10.0

    def test_missing_algorithm(self):
        with pytest.raises(ValueError):
            select_best(ResultTable([]), "misi")


class TestSweep:
    def test_sweep_covers_all_families(self, tiny_config):
        table = run_sweep(tiny_config)
        algorithms = {r.algorithm for r in table.records}
        assert algorithms == {
            "am", "misi", "mix_incons", "mix_incons_hardmag",
            "incons_hardmix", "mag_incons_hardmix",
        }

    def test_am_is_sigma_independent_baseline(self, tiny_config):
        table = run_sweep(tiny_config)
        am = [r for r in table.records if r.algorithm == "am"]
        assert {r.sigma for r in am} == {0.0}
        assert {r.iterations for r in am} == {0}

    def test_mix_incons_sigma_zero_rows_exist(self, tiny_config):
        table = run_sweep(tiny_config)
        rows = [r for r in table.records if r.algorithm == "mix_incons" and r.sigma == 0.0]
        assert rows

    def test_sweep_deterministic(self, tiny_config):
        t1 = run_sweep(tiny_config)
        t2 = run_sweep(tiny_config)
        assert [r.csv_line() for r in t1.records] == [r.csv_line() for r in t2.records]

    def test_parallel_matches_serial(self, tiny_config):
        tiny_config.jobs = 1
        serial = run_sweep(tiny_config)
        tiny_config.jobs = 2
        parallel = run_sweep(tiny_config)
        assert [r.csv_line() for r in serial.records] == [r.csv_line() for r in parallel.records]


def test_default_sweep_jobs():
    # The job list of the default configuration, as it was before the
    # families' iteration counts and sigma use were read from one table.
    grid = [0.0, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, SIGMA_INF]
    every = tuple(range(1, 21))
    want = [
        ("am", Family.AM, 0.0, 0, (0,)),
        ("misi", Family.MISI, 0.0, 20, every),
        *[("mix_incons", Family.MIX_INCONS, s, 20, every) for s in grid],
        *[("mix_incons_hardmag", Family.MIX_INCONS_HARDMAG, s, 20, every) for s in grid],
        ("incons_hardmix", Family.INCONS_HARDMIX, 0.0, 1, (1,)),
        *[("mag_incons_hardmix", Family.MAG_INCONS_HARDMIX, s, 20, every) for s in grid],
    ]
    jobs = experiment._sweep_jobs(SweepConfig(manifest="m.json", output_dir="out"))
    got = [(spec.family.value, spec.family, spec.sigma, spec.iterations, record) for spec, record in jobs]
    assert got == want
    assert {spec.weight_scheme for spec, _ in jobs} == {"magratio"}


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -1, "2"])
    def test_invalid_jobs_rejected(self, tiny_dataset, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs"):
            SweepConfig(manifest=str(tiny_dataset), output_dir=str(tmp_path), jobs=jobs)

    def test_usable_cpus_within_cpu_count(self):
        assert 1 <= usable_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.skipif(usable_cpus() < 2, reason="one CPU: no worker process")
    def test_each_worker_process_gets_its_share_of_the_cpus(self, monkeypatch):
        # One worker per CPU: each worker's G runs in its calling thread alone.
        monkeypatch.setattr(experiment, "_process_item", _report_g_threads)
        table = experiment._run_tasks(list(range(usable_cpus())), jobs=usable_cpus())
        assert [r.item_id for r in table.records] == ["budget 1, threads 1"] * usable_cpus()

    def test_processes_forked_after_g_ran_in_the_parent(self, tmp_path):
        # G's pool threads exist in the parent only; a forked process whose G
        # sent a range to the parent's pool would never return, hence the timeout.
        script = textwrap.dedent(f"""
            import os
            import numpy as np
            from specinv import experiment, spectral
            from specinv.algorithms import SIGMA_INF
            from specinv.experiment import SweepConfig, run_benchmark
            from specinv.synth import generate_dataset

            spectral._set_threads(2)
            spectral.g_operator(np.ones((33, 8), complex), spectral.StftConfig(64, 16, 8000))
            pid = os.fork()  # a bare fork, without the sweep's initializer
            if pid == 0:
                spectral.g_operator(np.ones((33, 8), complex), spectral.StftConfig(64, 16, 8000))
                os._exit(0)
            assert os.waitpid(pid, 0)[1] == 0
            experiment.usable_cpus = lambda: 4  # so each of 2 workers splits G in 2
            manifest = generate_dataset({str(tmp_path)!r} + "/data", n_validation=2, n_test=1,
                                        seed=3, duration=0.5, noise_duration=0.8)
            for jobs in (1, 2):
                run_benchmark(SweepConfig(manifest=str(manifest), output_dir={str(tmp_path)!r} + f"/out{{jobs}}",
                                          sigma_grid=[0.0, 1.0, SIGMA_INF], max_iterations=3,
                                          degradation_levels=[0.0, 0.5], jobs=jobs, record_timing=False))
        """)
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True) as proc:
            try:
                returncode = proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the hung processes too, not the script alone
                raise
        assert returncode == 0
        for name in ("validation.csv", "test.csv"):
            serial = (tmp_path / "out1" / name).read_bytes()
            assert serial.count(b"\n") > 1 and (tmp_path / "out2" / name).read_bytes() == serial

    def test_default_jobs_matches_serial(self, tiny_config, tmp_path):
        outputs = []
        for jobs in (None, 1):
            cfg = dataclasses.replace(tiny_config, jobs=jobs, output_dir=str(tmp_path / str(jobs)))
            paths = run_benchmark(cfg)
            outputs.append({name: path.read_bytes() for name, path in paths.items()})
        assert outputs[0] == outputs[1]


class TestBenchmark:
    def test_full_protocol(self, tiny_config, tmp_path):
        paths = run_benchmark(tiny_config)
        assert paths["validation"].exists()
        assert paths["test"].exists()
        header = paths["validation"].read_text().splitlines()[0]
        assert header == CSV_HEADER
        selections = json.loads(paths["selections"].read_text())
        assert set(selections) == set(tiny_config.families)
        # One test row per (algorithm, isnr, degradation, item).
        test_lines = paths["test"].read_text().splitlines()[1:]
        n_items = 2
        expected = len(tiny_config.families) * len(tiny_config.degradation_levels) * n_items
        assert len(test_lines) == expected

    def test_repeat_runs_byte_identical(self, tiny_config):
        p1 = run_benchmark(tiny_config)
        v1 = p1["validation"].read_bytes()
        t1 = p1["test"].read_bytes()
        p2 = run_benchmark(tiny_config)
        assert p2["validation"].read_bytes() == v1
        assert p2["test"].read_bytes() == t1

    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_empty_split_rejected_by_its_phase(self, tiny_config, tmp_path, split):
        cfg = _without_split(tiny_config, tmp_path, split)
        with pytest.raises(ValueError, match=f"manifest has no {split} items"):
            if split == "validation":
                run_sweep(cfg)
            else:
                evaluate_test({name: (0.0, 1) for name in cfg.families}, cfg)

    def test_empty_test_split_fails_before_the_sweep(self, tiny_config, tmp_path, monkeypatch):
        cfg = dataclasses.replace(_without_split(tiny_config, tmp_path, "test"), jobs=1)
        def no_run(*args, **kwargs):
            raise AssertionError("algorithms.run was called")

        monkeypatch.setattr(algorithms, "run", no_run)
        with pytest.raises(ValueError, match="manifest has no test items"):
            run_benchmark(cfg)

    def test_evaluate_test_requires_all_selections(self, tiny_config):
        with pytest.raises(ValueError, match="selection"):
            evaluate_test({"am": (0.0, 0)}, tiny_config)


class TestConfigFile:
    def test_load_with_inf_sigma(self, tiny_dataset, tmp_path):
        doc = {
            "manifest": str(tiny_dataset),
            "output_dir": str(tmp_path / "out"),
            "sigma_grid": ["0", "1", "inf"],
            "max_iterations": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_sweep_config(path)
        assert cfg.sigma_grid == [0.0, 1.0, SIGMA_INF]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(manifest="m", output_dir="o", families=["nonsense"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(manifest="m", output_dir="o", sigma_grid=[])


class TestConfigValidation:
    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"manifest": "m", "output_dir": "o", "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            load_sweep_config(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"manifest": "m"}))
        with pytest.raises(ValueError, match="output_dir"):
            load_sweep_config(path)

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", "x"),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("degradation_levels", ["0.2"]),
        ("degradation_levels", [float("inf")]),
        ("sigma_grid", [-1.0]),
        ("weight_scheme", "even"),
        ("record_timing", "no"),
        ("families", "misi"),
        ("manifest", 5),
        ("manifest", [1]),
        ("output_dir", None),
        ("families", ["misi", Family.MISI]),
        ("sigma_grid", [1, 1.0]),
        ("degradation_levels", [0.2, 0.2]),
    ])
    def test_bad_value_named(self, key, value):
        with pytest.raises(ValueError, match=key):
            SweepConfig(**{"manifest": "m", "output_dir": "o", key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("families", [["misi"], ["misi"]], "not a valid Family"),
        ("sigma_grid", [[1], [1]], "sigma_grid must hold numbers"),
        ("degradation_levels", [{}, {}], "degradation_levels must hold finite numbers"),
    ])
    def test_unhashable_entry_gets_its_type_message(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(manifest="m", output_dir="o", **{key: value})

    def test_empty_paths_allowed(self):
        assert SweepConfig(manifest="", output_dir="").manifest == ""


def _one_task(cfg, family, sigma, iterations):
    cfg = dataclasses.replace(cfg, families=[family], sigma_grid=[sigma],
                              max_iterations=iterations, degradation_levels=[0.2], jobs=1)
    return cfg, experiment._build_tasks(cfg, "validation", experiment._sweep_jobs(cfg))[0]


class TestItemFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_estimate_is_the_items_failure(self, tiny_config, monkeypatch):
        def huge(mags, level, seed):
            out = np.zeros_like(mags)
            out[:, 0, 1] = 1e308  # in-phase bins: the sigma=0 source sum overflows
            return out

        monkeypatch.setattr(experiment, "degrade_magnitudes", huge)
        cfg, task = _one_task(tiny_config, "mix_incons", 0.0, 2)
        with pytest.raises(FloatingPointError) as raised:
            experiment._process_item(task)
        assert str(raised.value) == f"{task.item_id}: non-finite estimate produced"
        with pytest.raises(FloatingPointError, match="non-finite"):
            run_sweep(cfg)


class TestWallTime:
    @staticmethod
    def _wall_ms(tiny_config, monkeypatch, g_cost):
        # A fake clock: the initialization and each pass of steps take 1 s,
        # each G g_cost s, each SDR probe 1000 s.  misi, 4 iterations, no losses.
        clock = [0.0]

        def costing(seconds, fn):
            def slow(*args, **kwargs):
                clock[0] += seconds
                return fn(*args, **kwargs)
            return slow

        monkeypatch.setattr(algorithms, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(algorithms, "init_amplitude_mask", costing(1.0, algorithms.init_amplitude_mask))
        monkeypatch.setattr(algorithms, "_block_pass", costing(1.0, algorithms._block_pass))
        monkeypatch.setattr(algorithms, "g_operator", costing(g_cost, algorithms.g_operator))
        monkeypatch.setattr(experiment, "sdr", costing(1000.0, experiment.sdr))
        cfg, task = _one_task(dataclasses.replace(tiny_config, record_timing=True), "misi", 0.0, 4)
        return [(r.iterations, r.wall_ms) for r in experiment._process_item(task)]

    def test_probe_time_excluded(self, tiny_config, monkeypatch):
        assert self._wall_ms(tiny_config, monkeypatch, 0.0) == [(k, 1e3 * (k + 1)) for k in range(1, 5)]

    def test_g_of_the_observed_iterate_excluded(self, tiny_config, monkeypatch):
        # run computes G(S_0) ... G(S_3), each before observing its iterate,
        # and no G at the last iterate: iterate k counts the k Gs that
        # produced S_k on every iterate, the last one included.
        assert self._wall_ms(tiny_config, monkeypatch, 10.0) == [(k, 1e3 * (k + 1 + 10 * k)) for k in range(1, 5)]
