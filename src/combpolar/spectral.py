"""Spectral analysis: the repetition window function, Welch PSD estimation,
the predicted null grid of a comb-shaped signal, and notch-depth reports.

Two verification tiers are supported.  The exact tier uses a rectangular
pulse and a frame length that puts every predicted null exactly on an FFT
bin, where the transform magnitude is zero to machine precision.  The
estimation tier uses the real pulse plus Welch averaging, where nulls have
finite measured depth set by the analysis resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal


def g_window(M: int, T: float, f) -> np.ndarray | complex:
    """Sum of M unit phasors spaced T seconds: the repetition window.

    Closed form sin(pi*M*T*f)/sin(pi*T*f) * exp(-1j*(M-1)*pi*T*f), with the
    removable singularity g = M at multiples of 1/T.
    """
    if M < 2:
        raise ValueError(f"repetition count must be >= 2, got {M}")
    if T <= 0:
        raise ValueError(f"repetition interval must be positive, got {T}")
    f_arr = np.asarray(f, dtype=np.float64)
    x = T * f_arr
    on_grid = np.isclose(x, np.round(x), atol=1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.sin(np.pi * M * x) / np.sin(np.pi * x)
    out = mag * np.exp(-1j * (M - 1) * np.pi * x)
    # at f = k/T every phasor equals 1, so the sum is exactly M
    out = np.where(on_grid, complex(M), out)
    return out if f_arr.ndim else complex(out)


def null_set(N: int, r: int, symbol_rate: float, f_max: float) -> np.ndarray:
    """Predicted spectral nulls (1 + 2a) * 2^r * symbol_rate/N within [-f_max, f_max]."""
    f_w = symbol_rate / N
    semiperiod = (1 << r) * f_w
    a_lo = int(np.ceil((-f_max / semiperiod - 1) / 2))
    a_hi = int(np.floor((f_max / semiperiod - 1) / 2))
    return semiperiod * (1 + 2 * np.arange(a_lo, a_hi + 1))


@dataclass
class PsdEstimate:
    """Two-sided PSD on an ascending frequency grid spanning [-fs/2, fs/2)."""

    freqs: np.ndarray
    psd: np.ndarray

    def interp(self, f) -> np.ndarray:
        return np.interp(np.asarray(f, dtype=np.float64), self.freqs, self.psd)


def welch_psd(
    samples: np.ndarray,
    sample_rate: float,
    segment: int = 4096,
    overlap: float = 0.5,
    window: str = "hann",
) -> PsdEstimate:
    """Windowed averaged periodogram, two-sided, density-normalized.

    Density normalization means sum(psd) * df recovers the mean per-sample
    power (Parseval within estimator bias).
    """
    samples = np.asarray(samples)
    if segment > len(samples):
        raise ValueError(
            f"segment {segment} longer than signal ({len(samples)} samples)"
        )
    if not (0.0 <= overlap < 1.0):
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    freqs, psd = sp_signal.welch(
        samples,
        fs=sample_rate,
        window=window,
        nperseg=segment,
        noverlap=int(segment * overlap),
        detrend=False,
        return_onesided=False,
        scaling="density",
    )
    order = np.argsort(freqs)
    return PsdEstimate(freqs[order], psd[order])


def null_depth(psd: PsdEstimate, freqs, ref_band) -> np.ndarray:
    """Notch depth in dB at each frequency: mean reference-band PSD over
    the PSD linearly interpolated at the frequency.  Larger is deeper."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=np.float64))
    if np.any(freqs < psd.freqs[0]) or np.any(freqs > psd.freqs[-1]):
        raise ValueError("requested frequency outside the PSD grid")
    lo, hi = ref_band
    in_ref = (psd.freqs >= lo) & (psd.freqs <= hi)
    if not np.any(in_ref):
        raise ValueError(f"reference band ({lo}, {hi}) contains no PSD bins")
    ref = float(np.mean(psd.psd[in_ref]))
    at = psd.interp(freqs)
    tiny = np.finfo(np.float64).tiny
    return 10.0 * np.log10(ref / np.maximum(at, tiny))


def exact_spectrum_magnitude(bits, sps: int) -> np.ndarray:
    """|FFT| of the rectangular-pulse BPSK signal of a codeword.

    The frame length N*sps makes every on-grid null land exactly on a bin:
    bin k sits at frequency k * symbol_rate / N.
    """
    symbols = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    samples = np.repeat(symbols, sps)
    return np.abs(np.fft.fft(samples))


def exact_null_bins(N: int, r: int, sps: int) -> np.ndarray:
    """FFT bin indices of the predicted nulls for exact_spectrum_magnitude."""
    L = N * sps
    step = 1 << (r + 1)
    k = np.arange(1 << r, L // 2, step)
    return np.concatenate([k, L - k])
