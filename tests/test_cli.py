import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specinv import StftConfig, experiment, istft, stft
from specinv.algorithms import SIGMA_INF, AlgorithmSpec, Family, run
from specinv.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _resolve_algo, main
from specinv.signal_io import (
    TimeSignal,
    oracle_magnitudes,
    read_wav,
    write_spectrogram,
    write_wav,
)
from specinv.synth import generate_dataset, noise_like, speech_like
from test_signal_io import _fmt, _wav


def _die(*args, **kwargs):
    """A stand-in for ``algorithms.run``, which only the sweep's workers call, whose process dies."""
    os._exit(1)


@pytest.fixture
def audio_pair(tmp_path, rng):
    clean = speech_like(0.5, 16000, seed=1)
    noise = noise_like(0.8, 16000, seed=2)
    clean_path = tmp_path / "clean.wav"
    noise_path = tmp_path / "noise.wav"
    write_wav(clean_path, clean)
    write_wav(noise_path, noise)
    return clean_path, noise_path


class TestMix:
    def test_writes_outputs_and_sidecar(self, audio_pair, tmp_path):
        clean, noise = audio_pair
        out = tmp_path / "mix"
        code = main(["mix", "--clean", str(clean), "--noise", str(noise),
                     "--isnr", "0", "--seed", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "mixture.wav").exists()
        assert (out / "scaled_noise.wav").exists()
        sidecar = json.loads((out / "mix.json").read_text())
        assert sidecar["isnr_achieved_db"] == pytest.approx(0.0, abs=1e-9)

    def test_equal_power_zero_isnr_gain(self, tmp_path):
        x = np.sin(np.linspace(0, 100, 4000))
        write_wav(tmp_path / "c.wav", TimeSignal(x, 16000))
        write_wav(tmp_path / "n.wav", TimeSignal(x[::-1].copy(), 16000))
        out = tmp_path / "mix"
        code = main(["mix", "--clean", str(tmp_path / "c.wav"), "--noise", str(tmp_path / "n.wav"),
                     "--isnr", "0", "--out", str(out)])
        assert code == EXIT_OK
        sidecar = json.loads((out / "mix.json").read_text())
        assert sidecar["gain"] == pytest.approx(1.0, rel=1e-6)

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["mix", "--clean", str(tmp_path / "nope.wav"), "--noise", str(tmp_path / "nope2.wav"),
                     "--isnr", "0", "--out", str(tmp_path / "out")])
        assert code == EXIT_IO

    @pytest.mark.parametrize("value", ["1e308", "-1e308", "inf", "-inf", "nan"])
    def test_isnr_without_finite_gain_exit_3(self, audio_pair, tmp_path, capsys, value):
        # 10^(isnr/10) overflows, underflows or is not a number: no noise gain.
        clean, noise = audio_pair
        code = main(["mix", "--clean", str(clean), "--noise", str(noise),
                     f"--isnr={value}", "--out", str(tmp_path / "mix")])
        assert code == EXIT_USAGE
        assert f"isnr_db {float(value)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["400", "-400"])
    def test_extreme_finite_isnr_mixes(self, audio_pair, tmp_path, value):
        clean, noise = audio_pair
        code = main(["mix", "--clean", str(clean), "--noise", str(noise),
                     f"--isnr={value}", "--out", str(tmp_path / "mix")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("value", ["-1e1", "-1E+1", "-.1e2", "-10"])
    def test_negative_isnr_after_a_space(self, audio_pair, tmp_path, value):
        # The value after a space parses as with "=", exponent form included.
        clean, noise = audio_pair
        outs = []
        for name, isnr in (("space", ["--isnr", value]), ("equals", [f"--isnr={value}"])):
            code = main(["mix", "--clean", str(clean), "--noise", str(noise), *isnr, "--out", str(tmp_path / name)])
            assert code == EXIT_OK
            outs.append([(tmp_path / name / f).read_bytes() for f in ("mixture.wav", "mix.json")])
        assert outs[0] == outs[1]
        assert json.loads(outs[0][1])["isnr_target_db"] == -10.0

    @pytest.mark.parametrize("rate", [2**30 + 1, 2**32 - 1])
    def test_rate_too_high_to_write_exit_3(self, tmp_path, capsys, rate):
        # read_wav takes any u32 rate, but a float32 WAV's byte rate, 4 x rate, must fit a u32 too.
        wav = tmp_path / "x.wav"
        wav.write_bytes(_wav(_fmt(3, 32, rate), np.arange(1, 9, dtype="<f4").tobytes()))
        code = main(["mix", "--clean", str(wav), "--noise", str(wav), "--isnr", "0", "--out", str(tmp_path / "mix")])
        assert code == EXIT_USAGE
        assert f"sample rate {rate} Hz" in capsys.readouterr().err
        assert not list((tmp_path / "mix").glob("*.wav"))

    def test_same_seed_identical_outputs(self, audio_pair, tmp_path):
        clean, noise = audio_pair
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["mix", "--clean", str(clean), "--noise", str(noise),
                  "--isnr", "5", "--seed", "9", "--out", str(out)])
            outs.append((out / "mixture.wav").read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture
def separation_setup(tmp_path):
    """Mixture WAV plus oracle SPGM magnitude files for two sources."""
    cfg = StftConfig()
    clean = speech_like(0.5, 16000, seed=11)
    noise = noise_like(0.5, 16000, seed=12)
    mixture = TimeSignal(clean.samples + noise.samples, 16000)
    mix_path = tmp_path / "mixture.wav"
    write_wav(mix_path, mixture)
    mixture = read_wav(mix_path)  # float32 round trip, as the CLI will see it
    mags = oracle_magnitudes(
        [TimeSignal(clean.samples.astype(np.float32).astype(np.float64), 16000),
         TimeSignal(noise.samples.astype(np.float32).astype(np.float64), 16000)],
        cfg,
    )
    mag_paths = []
    for j in range(2):
        p = tmp_path / f"v{j}.spgm"
        write_spectrogram(p, mags[j])
        mag_paths.append(str(p))
    return cfg, mix_path, mag_paths, mixture, mags


@pytest.mark.parametrize(("name", "want"), [
    # am took --iters through, but run never steps AM; its row fixes 0.
    ("am", (Family.AM, 0.5, 0)),
    ("misi", (Family.MISI, 0.5, 7)),
    ("mix_incons", (Family.MIX_INCONS, 0.5, 7)),
    ("mixture_proj", (Family.MIX_INCONS, 0.0, 1)),
    ("stft_proj", (Family.MIX_INCONS, SIGMA_INF, 1)),
    ("mix_incons_hardmag", (Family.MIX_INCONS_HARDMAG, 0.5, 7)),
    ("pu_iter", (Family.MIX_INCONS_HARDMAG, 0.0, 7)),
    ("griffin_lim", (Family.MIX_INCONS_HARDMAG, SIGMA_INF, 7)),
    ("incons_hardmix", (Family.INCONS_HARDMIX, 0.5, 1)),
    ("mag_incons_hardmix", (Family.MAG_INCONS_HARDMIX, 0.5, 7)),
])
def test_algo_name_resolves(name, want):
    assert _resolve_algo(name, "0.5", 7) == want


class TestSeparate:
    def test_am_matches_library(self, separation_setup, tmp_path):
        cfg, mix_path, mag_paths, mixture, mags = separation_setup
        out = tmp_path / "sep"
        code = main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
                     "--algo", "am", "--iters", "0", "--out", str(out)])
        assert code == EXIT_OK
        trace = run(AlgorithmSpec(family=Family.AM), stft(mixture.samples, cfg), mags, cfg)
        expected = istft(trace.estimates[0], cfg, len(mixture)).astype(np.float32)
        got = read_wav(out / "est_1.wav").samples.astype(np.float32)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", ["am", "misi", "mix_incons", "mixture_proj", "griffin_lim", "incons_hardmix"])
    def test_wavs_are_the_istft_of_the_estimates(self, separation_setup, tmp_path, name):
        # The WAVs come from run's last G, which must round as istft does.
        cfg, mix_path, mag_paths, mixture, mags = separation_setup
        out = tmp_path / "sep"
        code = main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
                     "--algo", name, "--sigma", "0.5", "--iters", "3", "--out", str(out)])
        assert code == EXIT_OK
        family, sigma, iterations = _resolve_algo(name, "0.5", 3)
        spec = AlgorithmSpec(family, sigma, iterations=iterations)
        trace = run(spec, stft(mixture.samples, cfg), mags, cfg)
        for j, est in enumerate(trace.estimates, start=1):
            expected = istft(est, cfg, len(mixture)).astype(np.float32)
            got = read_wav(out / f"est_{j}.wav").samples.astype(np.float32)
            assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))

    def test_trace_csv_written(self, separation_setup, tmp_path):
        _, mix_path, mag_paths, _, _ = separation_setup
        out = tmp_path / "sep"
        main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
              "--algo", "misi", "--iters", "3", "--out", str(out)])
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,h,i,m"
        assert len(lines) == 5  # header + init + 3 iterations

    def test_default_flags_write_no_warning(self, separation_setup, tmp_path, capsys):
        _, mix_path, mag_paths, _, _ = separation_setup
        code = main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
                     "--algo", "misi", "--out", str(tmp_path / "sep")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_alias_equivalence_mixture_proj(self, separation_setup, tmp_path):
        _, mix_path, mag_paths, _, _ = separation_setup
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
              "--algo", "mix_incons", "--sigma", "0", "--iters", "1", "--out", str(out_a)])
        main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
              "--algo", "mixture_proj", "--out", str(out_b)])
        assert (out_a / "est_1.wav").read_bytes() == (out_b / "est_1.wav").read_bytes()

    def test_misi_improves_over_am(self, separation_setup, tmp_path):
        _, mix_path, mag_paths, _, _ = separation_setup
        clean = speech_like(0.5, 16000, seed=11)
        ref = tmp_path / "ref.wav"
        write_wav(ref, clean)
        scores = {}
        for algo in ("am", "misi"):
            out = tmp_path / f"sep_{algo}"
            main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
                  "--algo", algo, "--iters", "20", "--out", str(out)])
            from specinv import sdr
            scores[algo] = sdr(read_wav(ref).samples, read_wav(out / "est_1.wav").samples)
        assert scores["misi"] > scores["am"]

    def test_unknown_algorithm_exit_3(self, separation_setup, tmp_path, capsys):
        _, mix_path, mag_paths, _, _ = separation_setup
        code = main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
                     "--algo", "nonsense", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "misi" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["mix_incons", "mag_incons_hardmix"])
    def test_non_finite_estimate_exit_4(self, separation_setup, tmp_path, capsys, algo):
        # Two in-phase 1e308 bins overflow the sigma=0 step's source sum.
        _, mix_path, _, _, mags = separation_setup
        huge_bin = np.zeros(mags.shape[1:])
        huge_bin[0, 5] = 1e308
        huge = []
        for j in range(2):
            p = tmp_path / f"huge{j}.spgm"
            write_spectrogram(p, huge_bin)
            huge.append(str(p))
        code = main(["separate", "--mixture", str(mix_path), "--mags", *huge,
                     "--algo", algo, "--sigma", "0", "--iters", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ["every bin", "one bin"])
    def test_overflowing_loss_exit_4(self, separation_setup, tmp_path, capsys, where):
        # The initialization is finite; its losses (and its G) overflow.
        _, mix_path, _, _, mags = separation_setup
        if where == "every bin":
            huge_mag = np.full(mags.shape[1:], 1e308)
        else:
            huge_mag = np.zeros(mags.shape[1:])
            huge_mag[7, 5] = 1e308
        huge = []
        for j in range(2):
            p = tmp_path / f"huge{j}.spgm"
            write_spectrogram(p, huge_mag)
            huge.append(str(p))
        out = tmp_path / "x"
        code = main(["separate", "--mixture", str(mix_path), "--mags", *huge,
                     "--algo", "mix_incons", "--sigma", "0", "--iters", "2", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "non-finite loss" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_truncated_mixture_exit_3(self, separation_setup, tmp_path, capsys):
        # Cut by one sample: scipy's reader returned the rest with a warning, and separate went on.
        _, mix_path, mag_paths, _, _ = separation_setup
        mix_path.write_bytes(mix_path.read_bytes()[:-4])
        out = tmp_path / "sep"
        code = main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths,
                     "--algo", "misi", "--iters", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "truncated" in capsys.readouterr().err
        assert not out.exists()

    def test_shape_mismatch_exit_3(self, separation_setup, tmp_path):
        _, mix_path, _, _, _ = separation_setup
        bad = tmp_path / "bad.spgm"
        write_spectrogram(bad, np.ones((10, 10)))
        code = main(["separate", "--mixture", str(mix_path), "--mags", str(bad), str(bad),
                     "--algo", "misi", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_window_too_large_to_allocate_exit_2(self, separation_setup, tmp_path, capsys):
        # numpy refuses the 8 TiB window at once, without touching memory.
        _, mix_path, mag_paths, _, _ = separation_setup
        code = main(["separate", "--mixture", str(mix_path), "--mags", *mag_paths, "--algo", "misi",
                     "--window", "1099511627776", "--hop", "274877906944", "--out", str(tmp_path / "x")])
        assert code == EXIT_IO
        assert "allocate" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_files(self, tmp_path, rng, capsys):
        x = TimeSignal(rng.standard_normal(1000), 16000)
        write_wav(tmp_path / "x.wav", x)
        code = main(["evaluate", "--ref", str(tmp_path / "x.wav"), "--est", str(tmp_path / "x.wav")])
        assert code == EXIT_OK
        assert float(capsys.readouterr().out) == 300.0

    def test_double_gain(self, tmp_path, rng, capsys):
        x = rng.standard_normal(1000)
        write_wav(tmp_path / "r.wav", TimeSignal(x, 16000))
        write_wav(tmp_path / "e.wav", TimeSignal(2 * x.astype(np.float32).astype(np.float64), 16000))
        code = main(["evaluate", "--ref", str(tmp_path / "r.wav"), "--est", str(tmp_path / "e.wav")])
        assert code == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-4)

    def test_length_mismatch_exit_3(self, tmp_path, rng):
        write_wav(tmp_path / "r.wav", TimeSignal(rng.standard_normal(100), 16000))
        write_wav(tmp_path / "e.wav", TimeSignal(rng.standard_normal(200), 16000))
        code = main(["evaluate", "--ref", str(tmp_path / "r.wav"), "--est", str(tmp_path / "e.wav")])
        assert code == EXIT_USAGE

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["evaluate", "--ref", str(tmp_path), "--est", str(tmp_path)]) == EXIT_IO
        assert str(tmp_path) in capsys.readouterr().err

    def test_rate_mismatch_exit_3(self, tmp_path, rng, capsys):
        x = rng.standard_normal(1000)
        write_wav(tmp_path / "r.wav", TimeSignal(x, 16000))
        write_wav(tmp_path / "e.wav", TimeSignal(x, 8000))
        code = main(["evaluate", "--ref", str(tmp_path / "r.wav"), "--est", str(tmp_path / "e.wav")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "16000" in err and "8000" in err


class TestBenchmark:
    def test_runs_and_is_repeatable(self, tmp_path):
        manifest = generate_dataset(tmp_path / "data", n_validation=1, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        doc = {
            "manifest": str(manifest),
            "output_dir": str(tmp_path / "out"),
            "sigma_grid": ["0", "1"],
            "max_iterations": 2,
            "degradation_levels": [0.0],
            "record_timing": False,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_OK
        first = (tmp_path / "out" / "test.csv").read_bytes()
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_OK
        assert (tmp_path / "out" / "test.csv").read_bytes() == first

    def test_unknown_algorithm_in_config_exit_3(self, tmp_path):
        manifest = generate_dataset(tmp_path / "data", n_validation=1, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        doc = {
            "manifest": str(manifest),
            "output_dir": str(tmp_path / "out"),
            "families": ["nonsense"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("extra, key", [({"bogus": 1}, "bogus"),
                                            ({"max_iterations": "x"}, "max_iterations"),
                                            ({"manifest": 5}, "manifest"),
                                            ({"output_dir": None}, "output_dir"),
                                            ({"manifest": [1]}, "manifest"),
                                            ({"families": ["misi", "misi"]}, "families"),
                                            ({"sigma_grid": ["1", "1.0"]}, "sigma_grid"),
                                            ({"degradation_levels": [0.2, 0.2]}, "degradation_levels")])
    def test_bad_config_key_exit_3(self, tmp_path, capsys, extra, key):
        doc = {"manifest": "m.json", "output_dir": str(tmp_path / "out"), **extra}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    ITEM = {"clean_path": "c.wav", "noise_path": "n.wav", "isnr_db": 0.0, "seed": 1,
            "split": "validation"}

    @pytest.mark.parametrize("manifest, named", [
        ({"sample_rate": 16000}, "items"),
        ([ITEM], "items"),
        ({"items": ["c.wav"]}, "item 0"),
        ({"items": [ITEM, {**ITEM, "gain": 2.0}]}, "gain"),
        ({"items": [{k: v for k, v in ITEM.items() if k != "seed"}]}, "seed"),
        ({"items": [ITEM], "hop": "256"}, "hop"),
        ({"items": [ITEM], "hop": 256.0}, "hop"),
        ({"items": [ITEM], "window_length": True}, "window_length"),
        ({"items": [ITEM], "sample_rate": 16000.0}, "sample_rate"),
        ({"items": [{**ITEM, "isnr_db": "0"}]}, "isnr_db"),
        ({"items": [{**ITEM, "isnr_db": float("nan")}]}, "isnr_db"),
        ({"items": [{**ITEM, "seed": "x"}]}, "seed"),
        ({"items": [{**ITEM, "seed": 1.0}]}, "seed"),
        ({"items": [{**ITEM, "clean_path": 3}]}, "clean_path"),
        ({"items": [{**ITEM, "noise_path": ""}]}, "noise_path"),
        ({"items": [{**ITEM, "isnr_db": 1e308}]}, "isnr_db"),
        ({"items": [{**ITEM, "seed": -1}]}, "'seed' must be an integer >= 0"),
        ({"items": [ITEM, {**ITEM, "seed": -1}]}, "item 1: 'seed'"),
        ({"items": [ITEM], "window": 512}, "window"),
    ])
    def test_bad_manifest_exit_3(self, tmp_path, capsys, manifest, named):
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        doc = {"manifest": "m.json", "output_dir": "out", "sigma_grid": ["0"], "max_iterations": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: manifest") and named in err

    @pytest.mark.parametrize("grid", [5, [None], "inf", [True], ["x"]])
    def test_bad_sigma_grid_exit_3(self, tmp_path, capsys, grid):
        doc = {"manifest": "m.json", "output_dir": str(tmp_path / "out"), "sigma_grid": grid}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_USAGE
        assert "sigma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_rate_unlike_its_wavs_exit_3(self, tmp_path, capsys):
        manifest = generate_dataset(tmp_path / "data", n_validation=1, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "sample_rate": 8000}))  # the WAVs are 16 kHz
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"manifest": str(manifest), "output_dir": str(tmp_path / "out"),
                                        "sigma_grid": ["0"], "max_iterations": 1, "jobs": 1}))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "16000" in err and "8000" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fault, code", [("corrupt", EXIT_USAGE), ("missing", EXIT_IO),
                                             ("non-finite", EXIT_NUMERIC)])
    def test_bad_item_stops_the_run_with_its_code(self, tmp_path, capsys, monkeypatch, fault, code):
        # The middle one of three validation items fails; the others are good.
        manifest = generate_dataset(tmp_path / "data", n_validation=3, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        bad = json.loads(manifest.read_text())["items"][1]
        if fault == "corrupt":
            (tmp_path / "data" / bad["clean_path"]).write_bytes(b"RIFF\x00\x01garbage")
        elif fault == "missing":
            (tmp_path / "data" / bad["clean_path"]).unlink()
        else:
            degrade = experiment.degrade_magnitudes

            def huge(mags, level, seed):  # the forked workers inherit the patch
                if seed[0] != bad["seed"]:
                    return degrade(mags, level, seed)
                out = np.zeros_like(mags)
                out[:, 0, 1] = 1e308  # in-phase bins: the sigma=0 source sum overflows
                return out

            monkeypatch.setattr(experiment, "degrade_magnitudes", huge)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"manifest": str(manifest), "output_dir": str(tmp_path / "out"),
                                        "families": ["mix_incons"], "sigma_grid": ["0"],
                                        "max_iterations": 2, "degradation_levels": [0.0]}))
        errors = []
        for jobs in ("1", "2"):
            assert main(["benchmark", "--config", str(cfg_path), "--jobs", jobs]) == code
            errors.append(capsys.readouterr().err)
            assert not list((tmp_path / "out").glob("*.*"))  # no CSV, no selections
        assert errors[0] == errors[1]
        assert errors[0].count("\n") == 1 and "validation/clean_01" in errors[0]

    def test_dead_worker_exit_2(self, tmp_path, capsys, monkeypatch):
        manifest = generate_dataset(tmp_path / "data", n_validation=2, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        monkeypatch.setattr(experiment.algorithms, "run", _die)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"manifest": str(manifest), "output_dir": str(tmp_path / "out"),
                                        "degradation_levels": [0.0], "jobs": 2}))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_IO
        assert "terminated abruptly" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.*"))

    @pytest.mark.parametrize("fault, code", [("missing", EXIT_IO), ("corrupt", EXIT_USAGE),
                                             ("short_noise", EXIT_USAGE)])
    def test_bad_test_item_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, fault, code):
        manifest = generate_dataset(tmp_path / "data", n_validation=2, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        (bad,) = [item for item in json.loads(manifest.read_text())["items"] if item["split"] == "test"]
        if fault == "missing":
            (tmp_path / "data" / bad["clean_path"]).unlink()
        elif fault == "corrupt":
            (tmp_path / "data" / bad["clean_path"]).write_bytes(b"RIFF\x00\x01garbage")
        else:
            write_wav(tmp_path / "data" / bad["noise_path"], noise_like(0.2, 16000, seed=2))
        calls = []
        monkeypatch.setattr(experiment.algorithms, "run", lambda *args, **kwargs: calls.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"manifest": str(manifest), "output_dir": str(tmp_path / "out")}))
        assert main(["benchmark", "--config", str(cfg_path), "--jobs", "1"]) == code
        assert calls == []  # no validation item was run
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "test/clean_00" in err  # the item, or its missing file
        assert not (tmp_path / "out").exists()

    def test_make_dataset_then_benchmark(self, tmp_path):
        # The README's recipe: the script writes config.json next to manifest.json.
        root = Path(__file__).resolve().parents[1]
        data = tmp_path / "data"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, str(root / "scripts" / "make_dataset.py"), str(data), "--validation", "1",
                        "--test", "1", "--duration", "0.4", "--noise-duration", "0.6"], env=env, check=True,
                       capture_output=True)
        assert json.loads((data / "config.json").read_text()) == {"manifest": "manifest.json",
                                                                  "output_dir": "results"}
        assert main(["benchmark", "--config", str(data / "config.json"), "--jobs", "1"]) == EXIT_OK
        for name in ("validation.csv", "test.csv", "selections.json"):
            assert (data / "results" / name).stat().st_size > 0

    def test_window_too_large_to_allocate_exit_2(self, tmp_path, capsys):
        # numpy refuses the 8 TiB window at once, without touching memory.
        manifest = {"items": [self.ITEM], "window_length": 1099511627776, "hop": 274877906944}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        (tmp_path / "cfg.json").write_text(json.dumps({"manifest": "m.json", "output_dir": "out"}))
        assert main(["benchmark", "--config", str(tmp_path / "cfg.json")]) == EXIT_IO
        assert "allocate" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["benchmark", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_zero_jobs_exit_3(self, tmp_path):
        manifest = generate_dataset(tmp_path / "data", n_validation=1, n_test=1,
                                    seed=3, duration=0.4, noise_duration=0.6)
        doc = {"manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path), "--jobs", "0"]) == EXIT_USAGE
        assert not (tmp_path / "out").exists()


def test_cold_import_loads_no_scipy_or_multiprocessing():
    # scipy.io took about 90 ms of a fresh `specinv separate`; the process pool loads on first use.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", "import specinv.cli, sys; print(sorted(sys.modules))"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = ast.literal_eval(proc.stdout)
    assert "specinv.cli" in modules
    assert [m for m in modules if m.split(".")[0] in ("scipy", "multiprocessing")] == []


class TestUsage:
    def test_missing_required_flag(self):
        assert main(["mix", "--clean", "x"]) == EXIT_USAGE
