import json
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from specinv.signal_io import (
    DatasetManifest,
    ManifestItem,
    TimeSignal,
    degrade_magnitudes,
    load_manifest,
    make_mixture,
    oracle_magnitudes,
    read_spectrogram,
    read_wav,
    save_manifest,
    write_spectrogram,
    write_wav,
)
from specinv import StftConfig, istft, sdr, stft
from specinv.algorithms import AlgorithmSpec, Family, run


class TestWav:
    def test_float32_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        write_wav(tmp_path / "a.wav", TimeSignal(x, 16000))
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 16000
        assert np.array_equal(back.samples, x)

    def test_pcm16_scaling(self, tmp_path):
        wavfile.write(tmp_path / "p.wav", 8000, np.array([-32768, 0, 16384], dtype=np.int16))
        back = read_wav(tmp_path / "p.wav")
        assert back.samples[0] == -1.0
        assert back.samples[1] == 0.0
        assert back.samples[2] == 0.5

    def test_stereo_rejected(self, tmp_path):
        wavfile.write(tmp_path / "s.wav", 8000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError, match="mono required"):
            read_wav(tmp_path / "s.wav")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, TimeSignal(np.zeros(100), 8000))
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_garbage_file_rejected(self, tmp_path):
        (tmp_path / "g.wav").write_bytes(b"RIFF\x00\x01garbage")
        with pytest.raises(ValueError, match="unreadable WAV"):
            read_wav(tmp_path / "g.wav")

    def test_unreadable_path_is_an_os_error(self, tmp_path):
        # A directory: a file without read permission would still be read by the superuser.
        with pytest.raises(IsADirectoryError):
            read_wav(tmp_path)


class TestSpgm:
    def test_real_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((513, 100))
        write_spectrogram(tmp_path / "m.spgm", m)
        assert np.array_equal(read_spectrogram(tmp_path / "m.spgm"), m)

    def test_complex_input_rejected(self, tmp_path, rng):
        m = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
        with pytest.raises(ValueError, match="real"):
            write_spectrogram(tmp_path / "c.spgm", m)
        assert not (tmp_path / "c.spgm").exists()

    def test_complex_payload_kind_rejected(self, tmp_path):
        # Kind 1 (complex float64) is not a payload kind of the format.
        path = tmp_path / "c.spgm"
        path.write_bytes(struct.pack("<4sBBII", b"SPGM", 1, 1, 2, 3) + bytes(2 * 3 * 16))
        with pytest.raises(ValueError, match="unknown payload kind 1"):
            read_spectrogram(path)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.spgm").write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="not a spectrogram file"):
            read_spectrogram(tmp_path / "bad.spgm")

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "trunc.spgm"
        write_spectrogram(path, rng.standard_normal((8, 8)))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_spectrogram(path)

    def test_identical_bytes_for_identical_inputs(self, tmp_path, rng):
        m = rng.standard_normal((16, 16))
        write_spectrogram(tmp_path / "a.spgm", m)
        write_spectrogram(tmp_path / "b.spgm", m)
        assert (tmp_path / "a.spgm").read_bytes() == (tmp_path / "b.spgm").read_bytes()


class TestMixture:
    def _signals(self, rng, n=4000, extra=500):
        clean = TimeSignal(rng.standard_normal(n), 16000)
        noise = TimeSignal(rng.standard_normal(n + extra), 16000)
        return clean, noise

    def test_equal_power_zero_isnr_gain(self, rng):
        clean = TimeSignal(np.ones(1000), 16000)
        noise = TimeSignal(np.concatenate([np.ones(1000), -np.ones(200)]), 16000)
        result = make_mixture(clean, noise, 0.0, seed=3)
        assert result.gain == pytest.approx(1.0)

    def test_equal_power_ten_db(self):
        clean = TimeSignal(np.ones(1000), 16000)
        noise = TimeSignal(np.ones(1000), 16000)
        result = make_mixture(clean, noise, 10.0, seed=0)
        assert result.gain == pytest.approx(10 ** -0.5)

    def test_achieved_isnr_matches_target(self, rng):
        clean, noise = self._signals(rng)
        for isnr in (-10.0, 0.0, 10.0):
            result = make_mixture(clean, noise, isnr, seed=7)
            assert result.achieved_isnr_db == pytest.approx(isnr, abs=1e-9)

    def test_mixture_is_clean_plus_noise(self, rng):
        clean, noise = self._signals(rng)
        result = make_mixture(clean, noise, 0.0, seed=5)
        assert np.array_equal(
            result.mixture.samples, clean.samples + result.scaled_noise.samples
        )

    def test_seed_determines_offset(self, rng):
        clean, noise = self._signals(rng)
        a = make_mixture(clean, noise, 0.0, seed=11)
        b = make_mixture(clean, noise, 0.0, seed=11)
        assert a.offset == b.offset
        assert np.array_equal(a.mixture.samples, b.mixture.samples)

    def test_short_noise_rejected(self, rng):
        clean = TimeSignal(rng.standard_normal(1000), 16000)
        noise = TimeSignal(rng.standard_normal(500), 16000)
        with pytest.raises(ValueError):
            make_mixture(clean, noise, 0.0, seed=0)

    def test_zero_power_crop_rejected(self):
        clean = TimeSignal(np.ones(100), 16000)
        noise = TimeSignal(np.zeros(100), 16000)
        with pytest.raises(ValueError, match="zero-power"):
            make_mixture(clean, noise, 0.0, seed=0)


class TestMagnitudes:
    def test_oracle_zero_source(self, small_cfg):
        sig = TimeSignal(np.zeros(400), 8000)
        mags = oracle_magnitudes([sig], small_cfg)
        assert np.all(mags == 0)

    def test_oracle_nonnegative(self, small_cfg, rng):
        sigs = [TimeSignal(rng.standard_normal(400), 8000) for _ in range(2)]
        assert np.all(oracle_magnitudes(sigs, small_cfg) >= 0)

    def test_single_source_am_reconstruction(self, small_cfg, rng):
        # With X = S1, the mixture phase is the true phase; AM is near-exact.
        x = rng.standard_normal(800)
        sig = TimeSignal(x, 8000)
        mags = oracle_magnitudes([sig], small_cfg)
        mixture = stft(x, small_cfg)
        trace = run(AlgorithmSpec(family=Family.AM), mixture, mags, small_cfg)
        est = istft(trace.estimates[0], small_cfg, len(x))
        assert sdr(x, est) > 100

    def test_degrade_level_zero_identity(self, rng):
        mags = rng.uniform(0, 1, (2, 8, 10))
        assert np.array_equal(degrade_magnitudes(mags, 0.0, seed=4), mags)

    def test_degrade_deterministic(self, rng):
        mags = rng.uniform(0, 1, (2, 8, 10))
        a = degrade_magnitudes(mags, 0.5, seed=9)
        b = degrade_magnitudes(mags, 0.5, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, mags)
        assert np.all(a >= 0)

    def test_degrade_negative_level_rejected(self, rng):
        with pytest.raises(ValueError):
            degrade_magnitudes(np.ones((1, 2, 2)), -0.1, seed=0)

    def test_degrade_log_ratio_mean(self):
        mags = np.ones((1, 1000, 1000))
        out = degrade_magnitudes(mags, 0.5, seed=123)
        log_ratio = np.log(out / mags)
        assert abs(log_ratio.mean()) < 3 * 0.5 / 1000


class TestManifest:
    def test_round_trip(self, tmp_path):
        items = [
            ManifestItem("validation/c0.wav", "validation/n0.wav", 0.0, 5, "validation"),
            ManifestItem("test/c0.wav", "test/n0.wav", 10.0, 6, "test"),
        ]
        manifest = DatasetManifest(items=items, root=tmp_path)
        save_manifest(manifest, tmp_path / "manifest.json")
        back = load_manifest(tmp_path / "manifest.json")
        assert len(back.items) == 2
        assert back.items[0].split == "validation"
        assert back.items[1].isnr_db == 10.0
        assert back.stft_config().window_length == 1024
        assert back.resolve("test/c0.wav") == tmp_path / "test" / "c0.wav"

    def test_old_manifest_with_n_sources_loads(self, tmp_path):
        # Manifests used to carry "n_sources": 2, which nothing read.
        doc = {
            "sample_rate": 8000, "window_length": 256, "hop": 64, "n_sources": 2,
            "items": [{"clean_path": "validation/c0.wav", "noise_path": "validation/n0.wav",
                       "isnr_db": 5.0, "seed": 3, "split": "validation"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        back = load_manifest(tmp_path / "manifest.json")
        assert back.stft_config() == StftConfig(window_length=256, hop=64, sample_rate=8000)
        assert back.items == [ManifestItem("validation/c0.wav", "validation/n0.wav", 5.0, 3, "validation")]
        save_manifest(back, tmp_path / "resaved.json")
        assert "n_sources" not in json.loads((tmp_path / "resaved.json").read_text())

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            ManifestItem("a.wav", "b.wav", 0.0, 0, "train")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            ManifestItem("", "b.wav", 0.0, 0, "test")
