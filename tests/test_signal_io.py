import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    def test_nan_sample_rejected(self, tmp_path):
        path = tmp_path / "nan.wav"
        path.write_bytes(_wav(_fmt(3, 32), np.array([0.0, np.nan, 1.0], "<f4").tobytes()))
        with pytest.raises(ValueError, match="non-finite samples"):
            read_wav(path)


def _fmt(tag, bits, rate=8000, channels=1, *, subformat=None, order="<", block_align=None, byte_rate=None):
    """A ``fmt `` chunk body; ``subformat`` makes it WAVE_FORMAT_EXTENSIBLE with that tag in its GUID."""
    block_align = channels * -(-bits // 8) if block_align is None else block_align
    byte_rate = rate * block_align % 2**32 if byte_rate is None else byte_rate
    body = struct.pack(order + "HHIIHH", tag if subformat is None else 0xFFFE, channels, rate, byte_rate,
                       block_align, bits)
    if subformat is not None:
        guid = struct.pack(order + "IHH", subformat, 0, 16) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack(order + "HHI", 22, bits, 4) + guid
    return body


def _chunk(name, body, order="<"):
    return name + struct.pack(order + "I", len(body)) + body + b"\0" * (len(body) % 2)


def _wav(fmt, data, *, before=b"", after=b"", order="<"):
    """A WAVE file: chunks ``before``, then ``fmt `` and ``data``, then chunks ``after``."""
    chunks = before + _chunk(b"fmt ", fmt, order) + _chunk(b"data", data, order) + after
    magic = b"RIFF" if order == "<" else b"RIFX"
    return magic + struct.pack(order + "I", 4 + len(chunks)) + b"WAVE" + chunks


LIST = _chunk(b"LIST", b"INFOx")  # odd-sized, so a pad byte follows it
FORMATS = {"<i2": (1, 16), "<f4": (3, 32), "<f8": (3, 64)}  # sample dtype -> format tag, bits


def _scipy_decode(path):
    """The samples and rate that scipy's reader gives, scaled as ``read_wav`` scales them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    return (data / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)), rate


class TestWavAgainstScipy:
    """scipy.io.wavfile as the oracle: the bytes it writes, the samples it decodes."""

    @pytest.mark.parametrize("n", [1, 101, 64000])
    def test_write_is_byte_identical(self, tmp_path, rng, n):
        x = rng.standard_normal(n)
        write_wav(tmp_path / "ours.wav", TimeSignal(x, 16000))
        wavfile.write(tmp_path / "scipy.wav", 16000, x.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("dtype", FORMATS)
    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("chunks", [(b"", b""), (LIST, b""), (LIST, LIST), (_chunk(b"fact", bytes(4)), LIST)])
    def test_read_equals_scipy_decode(self, tmp_path, rng, dtype, extensible, chunks):
        tag, bits = FORMATS[dtype]
        data = (rng.integers(-32768, 32768, 101) if tag == 1 else rng.standard_normal(101)).astype(dtype)
        fmt = _fmt(tag, bits, 22050, subformat=tag if extensible else None)
        path = tmp_path / "x.wav"
        path.write_bytes(_wav(fmt, data.tobytes(), before=chunks[0], after=chunks[1]))
        expected, rate = _scipy_decode(path)
        got = read_wav(path)
        assert got.sample_rate == rate == 22050
        assert np.array_equal(got.samples.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
    def test_read_equals_scipy_decode_of_scipy_files(self, tmp_path, rng, dtype):
        x = rng.standard_normal(333) * (1000 if dtype == "int16" else 1)
        wavfile.write(tmp_path / "x.wav", 16000, x.astype(dtype))
        expected, rate = _scipy_decode(tmp_path / "x.wav")
        got = read_wav(tmp_path / "x.wav")
        assert got.sample_rate == rate
        assert np.array_equal(got.samples.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(("bits", "extensible", "name"), [
        (8, False, "uint8"), (24, False, "int32"), (32, False, "int32"), (24, True, "int32"),
    ])
    def test_other_pcm_depths_keep_their_errors(self, tmp_path, bits, extensible, name):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav(_fmt(1, bits, subformat=1 if extensible else None), bytes(48)))
        assert str(wavfile.read(path)[1].dtype) == name  # the dtype that named the error before
        with pytest.raises(ValueError) as err:
            read_wav(path)
        assert str(err.value) == f"unsupported WAV sample format: {name}"

    @pytest.mark.parametrize(("tag", "bits", "name"), [(1, 16, ">i2"), (3, 32, ">f4"), (3, 64, ">f8")])
    def test_rifx_keeps_its_error(self, tmp_path, tag, bits, name):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav(_fmt(tag, bits, order=">"), bytes(48), order=">"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            assert str(wavfile.read(path)[1].dtype) == name
        with pytest.raises(ValueError) as err:
            read_wav(path)
        assert str(err.value) == f"unsupported WAV sample format: {name}"

    def test_stereo_float_keeps_its_error(self, tmp_path):
        wavfile.write(tmp_path / "s.wav", 8000, np.zeros((10, 2), dtype=np.float32))
        with pytest.raises(ValueError) as err:
            read_wav(tmp_path / "s.wav")
        assert str(err.value) == "mono required"

    def test_rf64_rejected(self, tmp_path):
        # The header scipy writes when the data passes 4 GiB; here with 3 samples.
        data = np.zeros(3, "<f4").tobytes()
        ds64 = _chunk(b"ds64", struct.pack("<QQQI", 0, len(data), 3, 0))
        body = b"WAVE" + ds64 + _chunk(b"fmt ", _fmt(3, 32)) + b"data\xff\xff\xff\xff" + data
        path = tmp_path / "x.wav"
        path.write_bytes(b"RF64\xff\xff\xff\xff" + body)
        with pytest.raises(ValueError, match="unreadable WAV file .*RIFF or RIFX"):
            read_wav(path)


class TestWavDamage:
    """A damaged WAV is reported, never read short."""

    def test_cut_file_rejected(self, tmp_path, rng):
        # scipy's reader returned 98 of these 101 samples, with only a warning.
        path = tmp_path / "t.wav"
        write_wav(path, TimeSignal(rng.standard_normal(101), 8000))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match=r"unreadable WAV file .*truncated: b'data' chunk needs 404 bytes"):
            read_wav(path)

    @pytest.mark.parametrize("riff_size", [0, 4, 30, 100, 449])
    def test_riff_size_too_small_rejected(self, tmp_path, rng, riff_size):
        # 4 made scipy's reader fail with "cannot access local variable 'fs'"; 100 made it read on past it.
        path = tmp_path / "r.wav"
        write_wav(path, TimeSignal(rng.standard_normal(101), 8000))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", riff_size)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unreadable WAV file .*RIFF size"):
            read_wav(path)

    def test_riff_size_past_the_end_with_whole_data_is_read(self, tmp_path, rng):
        # A file whose data chunk is whole reads as before, even if its RIFF size overstates it.
        x = rng.standard_normal(101).astype(np.float32).astype(np.float64)
        path = tmp_path / "r.wav"
        write_wav(path, TimeSignal(x, 8000))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", len(raw) + 100)
        path.write_bytes(bytes(raw))
        assert np.array_equal(read_wav(path).samples, x)

    @pytest.mark.parametrize(("dtype", "n_bytes"), [("<f4", 402), ("<i2", 201), ("<f8", 804)])
    def test_part_sample_rejected(self, tmp_path, dtype, n_bytes):
        # scipy's reader dropped the last part sample without a word.
        path = tmp_path / "p.wav"
        path.write_bytes(_wav(_fmt(*FORMATS[dtype]), bytes(n_bytes)))
        with pytest.raises(ValueError, match=f"data chunk of {n_bytes} bytes is not whole samples"):
            read_wav(path)

    def test_fmt_after_data_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        chunks = _chunk(b"data", bytes(8)) + _chunk(b"fmt ", _fmt(3, 32))
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(ValueError, match="no fmt chunk followed by a data chunk"):
            read_wav(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "x.wav"


def _read_or_value_error(path, raw):
    """``read_wav`` of ``raw``: a ``TimeSignal``, or None after a ``ValueError``; anything else fails."""
    path.write_bytes(raw)
    try:
        signal = read_wav(path)
    except ValueError:
        return None
    assert isinstance(signal, TimeSignal)
    return signal


FMT_MUTATIONS = {  # fmt field -> values other than the valid one
    "tag": [0, 1, 2, 3], "bits": [0, 8, 12, 24, 32, 64, 65], "rate": [0, 2**32 - 1], "channels": [0, 2, 3],
    "subformat": [1, 2, 3], "block_align": [0, 1, 3, 8, 9], "byte_rate": [0, 7],
}


@st.composite
def mutated_wavs(draw):
    """A valid header, plain or extensible, with up to two fmt fields and sizes mutated, maybe cut short."""
    dtype = draw(st.sampled_from(list(FORMATS)))
    tag, bits = FORMATS[dtype]
    fields = draw(st.sets(st.sampled_from(sorted(FMT_MUTATIONS)), max_size=2))
    fmt_args = {"tag": tag, "bits": bits, "subformat": draw(st.sampled_from([None, tag]))}
    fmt_args |= {name: draw(st.sampled_from(FMT_MUTATIONS[name])) for name in fields}
    data = np.arange(draw(st.integers(0, 9)), dtype=dtype).tobytes() + draw(st.sampled_from([b"", b"\x01"]))
    before, after = draw(st.sampled_from([b"", LIST])), draw(st.sampled_from([b"", LIST]))
    raw = bytearray(_wav(_fmt(**fmt_args), data, before=before, after=after))
    data_size_at = raw.index(b"data" + struct.pack("<I", len(data))) + 4
    for offset in draw(st.lists(st.sampled_from([4, 16, data_size_at]), max_size=2)):  # RIFF, fmt, data sizes
        raw[offset:offset + 4] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    return bytes(raw[:draw(st.sampled_from([len(raw), len(raw) - 1, len(raw) - 10]) | st.integers(0, len(raw)))])


class TestWavFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(raw=st.binary(max_size=120))
    def test_arbitrary_bytes(self, fuzz_path, raw):
        _read_or_value_error(fuzz_path, raw)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(raw=mutated_wavs() | st.binary(max_size=12).map(lambda tail: b"RIFF\x40\x00\x00\x00WAVE" + tail))
    def test_mutated_headers(self, fuzz_path, raw):
        signal = _read_or_value_error(fuzz_path, raw)
        if signal is None:
            return
        try:  # read_wav stops at the data chunk; scipy's reader also walks, and may fail on, what follows it
            expected, rate = _scipy_decode(fuzz_path)
        except (ValueError, struct.error):
            return
        assert signal.sample_rate == rate
        assert np.array_equal(signal.samples.view(np.uint64), expected.view(np.uint64))


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

    @pytest.mark.parametrize(("shape", "match"), [((3,), "2-D"), ((0, 2**32), "overflow")])
    def test_bad_shape_rejected(self, tmp_path, shape, match):
        # (0, 2**32) is 0 bytes, but its column count does not fit the header's u32.
        with pytest.raises(ValueError, match=match):
            write_spectrogram(tmp_path / "m.spgm", np.empty(shape))
        assert not (tmp_path / "m.spgm").exists()

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


SPGM_HEADER = "<4sBBII"  # magic, version, payload kind, rows, columns


@st.composite
def mutated_spgms(draw):
    """A valid SPGM file of up to 4 x 4, its magic, version, kind or dimensions maybe mutated, maybe cut short."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    header = {"magic": b"SPGM", "version": 1, "kind": 0, "rows": rows, "cols": cols}
    mutations = {"magic": st.sampled_from([b"SPGm", b"MGPS", b"RIFF", bytes(4)]), "version": st.integers(0, 255),
                 "kind": st.integers(0, 255), "rows": st.integers(0, 2**32 - 1), "cols": st.integers(0, 2**32 - 1)}
    for name in draw(st.sets(st.sampled_from(sorted(mutations)), max_size=2)):
        header[name] = draw(mutations[name])
    raw = struct.pack(SPGM_HEADER, *header.values()) + np.arange(rows * cols, dtype="<f8").tobytes()
    return raw[:draw(st.sampled_from([len(raw), len(raw) - 1, len(raw) - 8]) | st.integers(0, len(raw)))]


class TestSpgmFuzz:
    @staticmethod
    def _read_or_value_error(path, raw):
        """``read_spectrogram`` of ``raw``: a float64 matrix of the payload's bytes, or a ``ValueError``."""
        path.write_bytes(raw)
        try:
            matrix = read_spectrogram(path)
        except ValueError:
            return
        assert matrix.dtype == np.float64 and matrix.ndim == 2
        assert matrix.shape == struct.unpack_from(SPGM_HEADER, raw)[3:]
        assert matrix.astype("<f8").tobytes() == raw[struct.calcsize(SPGM_HEADER):]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(raw=st.binary(max_size=60))
    def test_arbitrary_bytes(self, fuzz_path, raw):
        self._read_or_value_error(fuzz_path, raw)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(raw=mutated_spgms())
    def test_mutated_headers(self, fuzz_path, raw):
        self._read_or_value_error(fuzz_path, raw)


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

    def test_rate_mismatch_rejected(self, rng):
        clean = TimeSignal(rng.standard_normal(100), 16000)
        noise = TimeSignal(rng.standard_normal(200), 8000)
        with pytest.raises(ValueError, match="sample rate mismatch"):
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

    def test_oracle_unequal_lengths_rejected(self, small_cfg):
        with pytest.raises(ValueError, match="equal lengths"):
            oracle_magnitudes([TimeSignal(np.zeros(400), 8000), TimeSignal(np.zeros(401), 8000)], small_cfg)

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
        assert back.stft.window_length == 1024
        assert back.root == tmp_path  # the items' paths are relative to the manifest's directory

    def test_old_manifest_with_n_sources_loads(self, tmp_path):
        # Manifests used to carry "n_sources": 2, which nothing read.
        doc = {
            "sample_rate": 8000, "window_length": 256, "hop": 64, "n_sources": 2,
            "items": [{"clean_path": "validation/c0.wav", "noise_path": "validation/n0.wav",
                       "isnr_db": 5.0, "seed": 3, "split": "validation"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        back = load_manifest(tmp_path / "manifest.json")
        assert back.stft == StftConfig(window_length=256, hop=64, sample_rate=8000)
        assert back.items == [ManifestItem("validation/c0.wav", "validation/n0.wav", 5.0, 3, "validation")]
        save_manifest(back, tmp_path / "resaved.json")
        assert "n_sources" not in json.loads((tmp_path / "resaved.json").read_text())

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            ManifestItem("a.wav", "b.wav", 0.0, 0, "train")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            ManifestItem("", "b.wav", 0.0, 0, "test")
