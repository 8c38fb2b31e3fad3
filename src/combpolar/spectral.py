"""Spectral analysis: Welch PSD estimation, the interference tone grid,
the predicted null grid of a comb-shaped signal and the shaping order
whose nulls cover the tones, notch-depth reports, and exact-FFT nulls.

`psd` measures the configured link: the real pulse plus Welch averaging,
where nulls have finite measured depth set by the analysis resolution.
The shaping theorem itself is checked apart from any pulse: with a
rectangular pulse and a frame length that puts every predicted null
exactly on an FFT bin (`exact_spectrum_magnitude`, `exact_null_bins`),
the transform magnitude there is zero to machine precision, which the
self test's exact-null check asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def tone_centers(fundamental_hz: float, offset_hz: float, f_max: float) -> np.ndarray:
    """All tone centers offset + k*fundamental inside [-f_max, f_max]."""
    k_lo = int(np.ceil((-f_max - offset_hz) / fundamental_hz))
    k_hi = int(np.floor((f_max - offset_hz) / fundamental_hz))
    return offset_hz + fundamental_hz * np.arange(k_lo, k_hi + 1)


def null_set(N: int, r: int, symbol_rate: float, f_max: float) -> np.ndarray:
    """Predicted spectral nulls (1 + 2a) * 2^r * symbol_rate/N within [-f_max, f_max]."""
    semiperiod = (1 << r) * (symbol_rate / N)
    return tone_centers(2 * semiperiod, semiperiod, f_max)


def _near_int(x: float) -> int | None:
    """x as an integer if it lies within 1e-9 of one, else None."""
    return round(x) if math.isfinite(x) and abs(x - round(x)) < 1e-9 else None


def covering_order(N: int, symbol_rate: float, fundamental_hz: float,
                   offset_hz: float) -> int | None:
    """The shaping order whose nulls hold every tone offset + k*fundamental,
    or None if no order in [0, log2 N) does.

    Order r puts nulls at the odd multiples of semi = 2^r * symbol_rate/N,
    so it covers the grid iff offset/semi is an odd integer and
    fundamental/semi an even one.  At most one order can: halving semi
    makes the offset ratio even, and doubling it makes it fractional.
    """
    for r in range(N.bit_length() - 1):
        semiperiod = (1 << r) * (symbol_rate / N)
        off = _near_int(offset_hz / semiperiod)
        fun = _near_int(fundamental_hz / semiperiod)
        if off is not None and fun is not None and off % 2 == 1 and fun % 2 == 0:
            return r
    return None


@dataclass
class PsdEstimate:
    """Two-sided PSD on an ascending frequency grid spanning [-fs/2, fs/2)."""

    freqs: np.ndarray
    psd: np.ndarray


def welch_psd(samples: np.ndarray, sample_rate: float, *, segment: int) -> PsdEstimate:
    """Windowed averaged periodogram, two-sided, density-normalized: a
    periodic Hann window on segments that start every segment - segment // 2
    samples (half overlap, rounded down for an odd segment).

    Density normalization means sum(psd) * df recovers the mean per-sample
    power (Parseval within estimator bias).
    """
    samples = np.asarray(samples)
    if not 2 <= segment <= len(samples):  # a 1-point periodic Hann window is 0
        raise ValueError(f"segment {segment} must lie in [2, {len(samples)}], "
                         "the signal's length")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(segment) / segment)
    segments = np.lib.stride_tricks.sliding_window_view(samples, segment)[::segment - segment // 2]
    # complex before the transform, which would otherwise hold a complex copy of its input
    spectra = np.fft.fft(np.multiply(segments, window, dtype=np.complex128))
    power = np.mean(spectra.real**2 + spectra.imag**2, axis=0)
    psd = power / (sample_rate * np.sum(window**2))
    return PsdEstimate(np.fft.fftshift(np.fft.fftfreq(segment, 1 / sample_rate)),
                       np.fft.fftshift(psd))


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
    at = np.interp(freqs, psd.freqs, psd.psd)
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
