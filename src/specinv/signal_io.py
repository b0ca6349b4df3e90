"""WAV and spectrogram file I/O, mixture synthesis, magnitude models.

WAVs are read as mono PCM16, float32 or float64, plain or extensible (RIFX,
RF64, other formats and truncated data are a ``ValueError``, exit 3; an
``OSError`` is exit 2), and written as float32 with scipy's header.  The
spectrogram container is a small little-endian binary format ("SPGM") for
real matrices only: magic, version byte, payload-kind byte (0 = float64,
the one kind), two u32 dimensions, then the row-major float64 payload.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import _is_int, _is_real
from .spectral import StftConfig, TimeSignal, stft

SPGM_MAGIC = b"SPGM"
SPGM_VERSION = 1
_KIND_REAL = 0
_SPGM_HEADER = struct.Struct("<4sBBII")  # magic, version, payload kind, rows, columns


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(path) -> TimeSignal:
    """Read a mono PCM16 (scaled by 1/32768), float32 or float64 WAV file, plain or extensible.

    Chunks may come in any order; unknown ones are skipped.  Stereo, other
    formats, RIFX, RF64 and truncated or part-sample data are a
    ``ValueError`` (exit 3); an ``OSError`` propagates (exit 2).
    """
    raw = memoryview(Path(path).read_bytes())
    try:
        order = {b"RIFF": "<", b"RIFX": ">"}.get(bytes(raw[:4]))
        if order is None or raw[8:12] != b"WAVE":
            raise ValueError(f"not a RIFF or RIFX WAVE file (starts {bytes(raw[:12])!r})")
        end = min(8 + struct.unpack_from(order + "I", raw, 4)[0], len(raw))  # the RIFF size, or the file's if less
        chunks, pos = {}, 12
        while b"data" not in chunks and pos + 8 <= end:  # each chunk is padded to an even size
            chunk, size = struct.unpack_from(order + "4sI", raw, pos)
            if pos + 8 + size > end:
                raise ValueError(f"truncated: {chunk!r} chunk needs {size} bytes; the file or RIFF size ends at {end}")
            chunks[chunk], pos = raw[pos + 8 : pos + 8 + size], pos + 8 + size + size % 2
        if b"fmt " not in chunks or b"data" not in chunks:
            raise ValueError(f"no fmt chunk followed by a data chunk within the RIFF size or the file ({end} bytes)")
        fmt, data = chunks[b"fmt "], chunks[b"data"]
        tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(order + "HHIIHH", fmt)
        if tag == 0xFFFE and len(fmt) >= 40:  # WAVE_FORMAT_EXTENSIBLE: the tag heads the subformat GUID
            cb_size, subformat, guid = struct.unpack_from(order + "H6xI12s", fmt, 16)
            if cb_size >= 22 and guid == struct.pack(order + "HH", 0, 16) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71":
                tag = subformat
        if tag not in (1, 3) or bits > 64 or (tag == 3 and bits not in (32, 64)):
            raise ValueError(f"format tag {tag:#06x}, {bits} bits: PCM (tag 1) or 32/64-bit IEEE float (tag 3) only")
        if tag == 1 and byte_rate != rate * block_align:
            raise ValueError(f"byte rate {byte_rate} is not sample rate {rate} x block align {block_align}")
        kind, width = ("f", block_align) if tag == 3 else ("u", 1) if bits <= 8 else ("i", block_align)
        # a rejected 3- or 5- to 7-byte integer is named by its int32 or int64 container, as numpy reads it
        dtype = np.dtype(f"{order}{kind}{ {3: 4, 5: 8, 6: 8, 7: 8}.get(width, width) if kind == 'i' else width}")
    except (ValueError, TypeError, struct.error) as exc:
        raise ValueError(f"unreadable WAV file {path}: {exc}") from exc
    if channels != 1:
        raise ValueError("mono required")
    if dtype not in (np.int16, np.float32, np.float64):
        raise ValueError(f"unsupported WAV sample format: {dtype}")
    if len(data) % width:
        raise ValueError(f"unreadable WAV file {path}: a data chunk of {len(data)} bytes is not whole samples")
    samples = np.frombuffer(data, dtype).astype(np.float64)
    return TimeSignal(samples / 32768.0 if tag == 1 else samples, rate)


def write_wav(path, signal: TimeSignal) -> None:
    """Write a mono IEEE float32 WAV file: an 18-byte ``fmt `` chunk, a ``fact`` chunk, then ``data``."""
    data, rate = signal.samples.astype("<f4"), signal.sample_rate
    if not 0 <= 4 * rate < 2**32:  # the header's byte rate is a u32
        raise ValueError(f"sample rate {rate} Hz cannot be written: a WAV's byte rate 4 x rate must be < 2^32")
    with open(path, "wb") as fid:
        fid.write(struct.pack("<4sI4s4sIHHIIHHH4sII4sI", b"RIFF", 50 + data.nbytes, b"WAVE", b"fmt ", 18, 3, 1,
                              rate, 4 * rate, 4, 32, 0, b"fact", 4, data.size, b"data", data.nbytes))
        fid.write(data)


# ---------------------------------------------------------------------------
# SPGM spectrogram files
# ---------------------------------------------------------------------------

def write_spectrogram(path, matrix: np.ndarray) -> None:
    """Write a real F x T matrix as an SPGM file; complex input is rejected."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("spectrogram must be a 2-D matrix")
    if max(matrix.shape) >= 2**32:
        raise ValueError("dimension overflow")
    # The float64 cast would drop the imaginary part with only a warning.
    if np.iscomplexobj(matrix):
        raise ValueError("SPGM holds real matrices only; got complex input")
    payload = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    header = _SPGM_HEADER.pack(SPGM_MAGIC, SPGM_VERSION, _KIND_REAL, *matrix.shape)
    Path(path).write_bytes(header + payload)


def read_spectrogram(path) -> np.ndarray:
    """Read an SPGM file back into a float64 matrix."""
    raw = Path(path).read_bytes()
    if len(raw) < _SPGM_HEADER.size:
        raise ValueError("not a spectrogram file (truncated header)")
    magic, version, kind, n_rows, n_cols = _SPGM_HEADER.unpack_from(raw)
    if magic != SPGM_MAGIC:
        raise ValueError("not a spectrogram file")
    if version != SPGM_VERSION:
        raise ValueError(f"unsupported spectrogram version {version}")
    if kind != _KIND_REAL:
        raise ValueError(f"unknown payload kind {kind}")
    if len(raw) != _SPGM_HEADER.size + n_rows * n_cols * 8:
        raise ValueError("truncated spectrogram payload")
    data = np.frombuffer(raw, dtype="<f8", offset=_SPGM_HEADER.size)
    return data.reshape(n_rows, n_cols).astype(np.float64)


# ---------------------------------------------------------------------------
# Mixture synthesis and magnitude models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureResult:
    mixture: TimeSignal
    scaled_noise: TimeSignal
    offset: int
    gain: float
    achieved_isnr_db: float


def _noise_gain(p_clean: float, p_noise: float, isnr_db: float) -> float | None:
    """Gain putting noise of power ``p_noise`` ``isnr_db`` below ``p_clean``; None unless finite and > 0."""
    try:
        gain = float(np.sqrt(p_clean / (p_noise * 10.0 ** (isnr_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        return None
    return gain if 0 < gain < math.inf else None


def make_mixture(clean: TimeSignal, noise: TimeSignal, isnr_db: float, seed: int) -> MixtureResult:
    """Mix clean speech with a randomly cropped, rescaled noise excerpt.

    The noise gain sets the achieved input SNR (clean to scaled noise power)
    to the target exactly; it must come out finite and > 0 (``ValueError``).
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("sample rate mismatch between clean and noise")
    if len(noise) < len(clean):
        raise ValueError("noise must be at least as long as the clean signal")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, len(noise) - len(clean) + 1))
    crop = noise.samples[offset : offset + len(clean)]
    p_clean = float(np.mean(clean.samples**2))
    p_noise = float(np.mean(crop**2))
    if p_noise == 0:
        raise ValueError("zero-power noise crop")
    gain = _noise_gain(p_clean, p_noise, isnr_db)
    if gain is None:
        raise ValueError(f"isnr_db {isnr_db!r} gives no finite noise gain > 0 at clean power {p_clean:g}")
    scaled = gain * crop
    achieved = 10.0 * np.log10(p_clean / float(np.mean(scaled**2)))
    return MixtureResult(
        mixture=TimeSignal(clean.samples + scaled, clean.sample_rate),
        scaled_noise=TimeSignal(scaled, clean.sample_rate),
        offset=offset,
        gain=gain,
        achieved_isnr_db=float(achieved),
    )


def oracle_magnitudes(sources: list[TimeSignal], cfg: StftConfig) -> np.ndarray:
    """Ground-truth magnitude spectrograms |STFT(s_j)| as a J x F x T array.

    In (J, T, F) memory, the layout of ``stft``.
    """
    lengths = {len(s) for s in sources}
    if len(lengths) != 1:
        raise ValueError("sources must have equal lengths")
    return np.stack([np.abs(stft(s.samples, cfg)).T for s in sources]).transpose(0, 2, 1)


def degrade_magnitudes(mags: np.ndarray, level: float, seed: int) -> np.ndarray:
    """Multiplicative log-Gaussian degradation, a stand-in for DNN estimation error.

    Each bin is multiplied by exp(e) with e ~ N(0, level^2).  Level 0 returns
    the input unchanged; the output is nonnegative by construction and keeps
    the input's memory layout.
    """
    if level < 0:
        raise ValueError("degradation level must be nonnegative")
    mags = np.asarray(mags, dtype=np.float64)
    if level == 0:
        return mags.copy(order="K")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, level, size=mags.shape)  # C order, whatever the layout of mags
    np.exp(noise, out=noise)
    out = np.empty_like(mags)
    np.copyto(out, noise)  # one reordering copy; the product then runs in one layout
    out *= mags
    return out


# ---------------------------------------------------------------------------
# Dataset manifest
# ---------------------------------------------------------------------------

_STFT_KEYS = ("sample_rate", "window_length", "hop")  # a manifest's optional StftConfig fields

# What each key of a manifest, and of a manifest item, must hold; _check_object applies the rules.
_MANIFEST_VALUES = {
    **dict.fromkeys(_STFT_KEYS, (_is_int, "an integer")),
    "items": (lambda v: isinstance(v, list), "a list"),
    "n_sources": (lambda v: True, "anything"),  # old manifests carry it; nothing reads it
}
_ITEM_VALUES = {
    **dict.fromkeys(("clean_path", "noise_path"),
                    (lambda v: isinstance(v, str) and v != "", "a non-empty string")),
    "isnr_db": (lambda v: _is_real(v) and _noise_gain(1.0, 1.0, v) is not None,  # as make_mixture, at unit powers
                "a number whose noise gain 10^(-isnr_db/20) is finite and > 0"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "split": (lambda v: v in ("validation", "test"), "'validation' or 'test'"),
}


def _check_object(where: str, doc, rules: dict, required=()) -> None:
    """Raise ``ValueError`` unless ``doc`` is a dict of keys from ``rules``, ``required`` among them, all valid."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object with keys from {', '.join(rules)}; got {type(doc).__name__}")
    for what, keys in ("unknown", sorted(set(doc) - set(rules))), ("missing", sorted(set(required) - set(doc))):
        if keys:
            raise ValueError(f"{where}: {what} key(s) {', '.join(keys)}; the keys are {', '.join(rules)}")
    for key, value in doc.items():
        valid, what = rules[key]
        if not valid(value):
            raise ValueError(f"{where}: {key!r} must be {what}, got {value!r}")


@dataclass
class ManifestItem:
    clean_path: str
    noise_path: str
    isnr_db: float
    seed: int
    split: str  # "validation" | "test"

    def __post_init__(self):
        _check_object("manifest item", vars(self), _ITEM_VALUES)


@dataclass
class DatasetManifest:
    items: list[ManifestItem]
    stft: StftConfig = StftConfig()
    root: Path = field(default_factory=Path)

    def split_items(self, split: str) -> list[ManifestItem]:
        return [it for it in self.items if it.split == split]


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = json.loads(path.read_text())
    _check_object(f"manifest {path}", doc, _MANIFEST_VALUES, required=("items",))
    for n, item in enumerate(doc["items"]):
        _check_object(f"manifest item {n}", item, _ITEM_VALUES, required=tuple(_ITEM_VALUES))
    stft_cfg = StftConfig(**{key: doc[key] for key in _STFT_KEYS if key in doc})
    return DatasetManifest([ManifestItem(**it) for it in doc["items"]], stft_cfg, path.parent)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {**{key: getattr(manifest.stft, key) for key in _STFT_KEYS}, "items": [asdict(it) for it in manifest.items]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
