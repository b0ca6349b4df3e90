"""WAV and spectrogram file I/O, mixture synthesis, magnitude models.

WAVs are read as mono PCM16 or float32 and written as float32.  The
spectrogram container is a small little-endian binary format ("SPGM") for
real matrices only: magic, version byte, payload-kind byte (0 = float64,
the one kind), two u32 dimensions, then the row-major float64 payload.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.io import wavfile

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
    """Read a mono PCM16 or float32 WAV file.

    16-bit samples are scaled to [-1, 1) by 1/32768; float32 samples are
    returned as-is (promoted to float64).
    """
    try:
        rate, data = wavfile.read(path)
    except OSError:  # a missing file, a directory, a read error: I/O, not a bad WAV
        raise
    except Exception as exc:
        raise ValueError(f"unreadable WAV file {path}: {exc}") from exc
    if data.ndim != 1:
        raise ValueError("mono required")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format: {data.dtype}")
    return TimeSignal(samples, int(rate))


def write_wav(path, signal: TimeSignal) -> None:
    """Write a mono IEEE float32 WAV file."""
    wavfile.write(path, signal.sample_rate, signal.samples.astype(np.float32))


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

@dataclass
class ManifestItem:
    clean_path: str
    noise_path: str
    isnr_db: float
    seed: int
    split: str  # "validation" | "test"

    def __post_init__(self):
        if not self.clean_path or not self.noise_path:
            raise ValueError("manifest paths must be non-empty")
        if self.split not in ("validation", "test"):
            raise ValueError(f"unknown split: {self.split}")


@dataclass
class DatasetManifest:
    items: list[ManifestItem]
    sample_rate: int = StftConfig.sample_rate
    window_length: int = StftConfig.window_length
    hop: int = StftConfig.hop
    root: Path = field(default_factory=Path)

    def stft_config(self) -> StftConfig:
        return StftConfig(window_length=self.window_length, hop=self.hop, sample_rate=self.sample_rate)

    def split_items(self, split: str) -> list[ManifestItem]:
        return [it for it in self.items if it.split == split]


# What each typed manifest value must be, checked where the manifest is read.
_MANIFEST_VALUES = {
    **dict.fromkeys(("sample_rate", "window_length", "hop"), (_is_int, "an integer")),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "isnr_db": (lambda v: _is_real(v) and _noise_gain(1.0, 1.0, v) is not None,  # as make_mixture, at unit powers
                "a number whose noise gain 10^(-isnr_db/20) is finite and > 0"),
    **dict.fromkeys(("clean_path", "noise_path"),
                    (lambda v: isinstance(v, str) and v != "", "a non-empty string")),
}


def _check_values(where: str, doc: dict) -> None:
    for key, value in doc.items():
        valid, what = _MANIFEST_VALUES.get(key, (lambda v: True, ""))
        if not valid(value):
            raise ValueError(f"{where}: {key!r} must be {what}, got {value!r}")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("items"), list):
        raise ValueError(f"manifest {path} must be a JSON object with an 'items' list")
    _check_values(f"manifest {path}", doc)
    keys = {f.name for f in fields(ManifestItem)}
    for n, item in enumerate(doc["items"]):
        if not isinstance(item, dict) or set(item) != keys:
            raise ValueError(f"manifest item {n} must have exactly the keys {sorted(keys)}: {item!r}")
        _check_values(f"manifest item {n}", item)
    stft_keys = {key: doc[key] for key in ("sample_rate", "window_length", "hop") if key in doc}
    return DatasetManifest([ManifestItem(**it) for it in doc["items"]], root=path.parent, **stft_keys)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "sample_rate": manifest.sample_rate,
        "window_length": manifest.window_length,
        "hop": manifest.hop,
        "items": [asdict(it) for it in manifest.items],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
