"""Dense reference oracle for the STFT pair and the consistency operator G.

On tiny configs (window/hop 16/4, 24/4 and 25/5; the odd window has no
Nyquist bin) the STFT is built as an explicit matrix from a loop-and-sum
DFT, the iSTFT is the weighted least-squares inverse of that matrix (bin
weight 1 at DC and Nyquist, 2 elsewhere: the two-sided norm seen from the
one-sided spectrum), and G is their product.  The fast
``stft``, ``istft``, ``g_operator`` and ``p_cons`` must agree with these to
1e-12 relative, and G over a source set must equal G per source bit for bit.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from specinv.projectors import p_cons
from specinv.spectral import StftConfig, g_operator, istft, stft

WINDOWS = (16, 24, 25)  # hop 4, 4 and 5; the FFT length is the window
# 40 lies on the hop grid, 37 and 41 do not; 1 to 6 give the fewest frames (window/hop), where the
# head and tail padding meet, and one or two more.
LENGTHS = (37, 40, 41, 1, 4, 5, 6)
RTOL = 1e-12


def _cfg(window):
    return StftConfig(window_length=window, hop=5 if window % 5 == 0 else 4, sample_rate=8000)


def _loop_stft(x, cfg):
    """The STFT by its definition: pad, window each frame, sum the DFT."""
    w, hop = cfg.window_length, cfg.hop
    pad = w - hop
    n_frames = -(-(x.size + 2 * pad - w) // hop) + 1
    buf = np.concatenate([np.zeros(pad), x, np.zeros((n_frames - 1) * hop + w - pad - x.size)])
    window = [0.5 - 0.5 * np.cos(2 * np.pi * n / w) for n in range(w)]
    out = np.zeros((w // 2 + 1, n_frames), complex)
    for t in range(n_frames):
        for k in range(w // 2 + 1):
            out[k, t] = sum(
                buf[t * hop + n] * window[n] * np.exp(-2j * np.pi * k * n / w) for n in range(w)
            )
    return out


@lru_cache(maxsize=None)
def _stft_matrix(cfg, n_samples):
    """(F*T) x N complex matrix of the STFT, one column per unit impulse."""
    cols = [_loop_stft(e, cfg).ravel() for e in np.eye(n_samples)]
    return np.stack(cols, axis=1)


def _bin_weights(cfg, n_frames):
    c = np.full(cfg.n_bins, 2.0)
    c[0] = 1.0
    if cfg.window_length % 2 == 0:
        c[-1] = 1.0
    return np.repeat(c, n_frames)


@lru_cache(maxsize=None)
def _lsq_inverse(cfg, n_samples):
    """N x (F*T) complex-to-real map: the weighted least-squares signal."""
    a = _stft_matrix(cfg, n_samples)
    sw = np.sqrt(_bin_weights(cfg, a.shape[0] // cfg.n_bins))[:, None]
    real = np.vstack([sw * a.real, sw * a.imag])  # real (2FT) x N system
    pinv = np.linalg.pinv(real)
    # x = pinv @ [sw*Re S; sw*Im S]  ==  Re(L @ S) with L below.
    return pinv[:, : a.shape[0]] * sw.T - 1j * pinv[:, a.shape[0] :] * sw.T


def _dense_g(cfg, n_frames):
    n_samples = cfg.max_samples(n_frames)
    return _stft_matrix(cfg, n_samples), _lsq_inverse(cfg, n_samples)


def _apply_g(dense, spec):
    a, inv = dense
    return (a @ (inv @ spec.ravel()).real).reshape(spec.shape)


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _spectra(cfg, n_frames, n_sources, seed):
    """Random, generically inconsistent spectra with whole frames and bins zeroed."""
    rng = np.random.default_rng(seed)
    shape = (n_sources, cfg.n_bins, n_frames)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s[:, :, 1] = 0.0  # a zero frame
    s[:, 0, :] = 0.0  # a zero DC row
    s[0, 3, 2] = 0.0
    return s


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n_samples", LENGTHS)
def test_stft_matches_dense_matrix(window, n_samples):
    cfg = _cfg(window)
    rng = np.random.default_rng(n_samples)
    x = rng.standard_normal(n_samples)
    x[5:9] = 0.0
    want = (_stft_matrix(cfg, n_samples) @ x).reshape(cfg.n_bins, -1)
    _assert_close(stft(x, cfg), want)
    _assert_close(stft(x, cfg), _loop_stft(x, cfg))


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n_samples", LENGTHS)
def test_istft_is_weighted_least_squares(window, n_samples):
    cfg = _cfg(window)
    n_frames = cfg.num_frames(n_samples)
    spec = _spectra(cfg, n_frames, 1, n_samples)[0]
    want = (_lsq_inverse(cfg, n_samples) @ spec.ravel()).real
    _assert_close(istft(spec, cfg, n_samples), want)
    # On a consistent spectrogram the least-squares inverse is exact.
    x = np.random.default_rng(0).standard_normal(n_samples)
    _assert_close(istft(stft(x, cfg), cfg, n_samples), x)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n_frames", (6, 9, "window/hop"))  # window/hop: the fewest frames that span a sample
def test_g_matches_dense_operator(window, n_frames):
    cfg = _cfg(window)
    if n_frames == "window/hop":
        n_frames = window // cfg.hop
    dense = _dense_g(cfg, n_frames)
    for s in _spectra(cfg, n_frames, 3, n_frames + window):
        _assert_close(g_operator(s, cfg), _apply_g(dense, s))
    # The dense G is a projection: G(G(S)) = G(S).
    s = _spectra(cfg, n_frames, 1, 1)[0]
    _assert_close(_apply_g(dense, _apply_g(dense, s)), _apply_g(dense, s))


@pytest.mark.parametrize(("window", "n_sources"), list(itertools.product(WINDOWS, (1, 2, 3))))
def test_p_cons_over_source_set_matches_dense_and_per_source(window, n_sources):
    cfg = _cfg(window)
    n_frames = 7
    dense = _dense_g(cfg, n_frames)
    sources = _spectra(cfg, n_frames, n_sources, window * n_sources)
    joint = p_cons(sources, cfg)
    assert joint.shape == sources.shape
    for j, s in enumerate(sources):
        _assert_close(joint[j], _apply_g(dense, s))
        assert np.array_equal(_bits(joint[j]), _bits(g_operator(s, cfg)))


def _real_matrix(cfg, n_frames):
    """The dense G as a real 2FT x 2FT matrix acting on [Re S; Im S]."""
    a, inv = _dense_g(cfg, n_frames)
    c = a @ np.hstack([inv.real, -inv.imag])  # G of each real and each imaginary unit bin
    return np.vstack([c.real, c.imag])


@pytest.mark.parametrize("window", WINDOWS)
def test_g_is_orthogonal_in_the_bin_weighted_norm_oblique_in_the_plain_one(window):
    # Self-adjoint in <A, B> = Re sum_k c_k conj(A_k) B_k, with the two-sided
    # bin weights c_k, and idempotent: the orthogonal projection in that norm.
    # Not self-adjoint in the plain one-sided Frobenius norm of losses.py.
    cfg = _cfg(window)
    n_frames = 6
    g = _real_matrix(cfg, n_frames)
    weighted = np.tile(_bin_weights(cfg, n_frames), 2)[:, None] * g
    assert np.linalg.norm(g @ g - g) <= RTOL * np.linalg.norm(g)
    assert np.linalg.norm(weighted - weighted.T) <= RTOL * np.linalg.norm(weighted)
    assert np.linalg.norm(g - g.T) >= 0.05 * np.linalg.norm(g)
