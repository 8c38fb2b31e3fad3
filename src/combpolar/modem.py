"""BPSK with square-root raised-cosine pulse shaping.

Transmit: map bits to +/-1, upsample by the per-symbol sample count and
convolve (full) with unit-energy SRRC taps (`modulate_symbols`, which
`psd` uses a chunk of frames at a time).  A frame of n symbols is then
L = (n + span) * sps samples.

The FER link never forms that waveform.  Pulse shaping, the channel and
the matched filter are all linear, and sampling the matched filter's
output every sps samples folds the frame's L-point spectrum onto
m = n + span bins.  `pulse_spectrum` gives the L-point spectrum of the
taps laid out as (sps, m), the form in which `channel.calibrate_channel`
folds pulse, comb and matched filter into one m-point response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PulseSpec:
    """SRRC pulse: roll-off in [0, 1], total span in symbols, samples/symbol."""

    rolloff: float
    span_symbols: int
    sps: int

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
    """Pulse-shape real symbol sequences along the last axis.

    (..., n) symbols give (..., n*sps + span*sps) samples: each sequence
    upsampled by sps and convolved (full) with the SRRC taps.  The sum
    runs in polyphase form (Crochiere and Rabiner, Multirate Digital
    Signal Processing, 1983): output sample n*sps + q is the direct sum
    of s[n - i] * taps[i*sps + q] over i = 0, ..., span, in that order.
    So a sequence extended by the span symbols before it gives, past
    those, the very samples of the whole stream, which lets `psd` shape
    its frames a chunk at a time.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    n, sps, span = symbols.shape[-1], spec.sps, spec.span_symbols
    # phase q of row i is tap i*sps + q; the last row holds the last tap and zeros
    poly = np.zeros((span + 1) * sps)
    poly[: span * sps + 1] = srrc_taps(spec)
    poly = poly.reshape(span + 1, sps)
    out = np.zeros(symbols.shape[:-1] + (n + span, sps))
    term = np.empty(symbols.shape + (sps,))
    for i in range(span + 1):
        out[..., i : i + n, :] += np.multiply(symbols[..., None], poly[i], out=term)
    return out.reshape(symbols.shape[:-1] + ((n + span) * sps,))


def pulse_spectrum(spec: PulseSpec, n_symbols: int) -> np.ndarray:
    """L-point FFT of the SRRC taps, L = (n_symbols + span) * sps, as an
    (sps, n_symbols + span) array: row q holds bins q*m .. (q+1)*m - 1.

    The taps are real and symmetric, so this is also the spectrum of the
    matched filter conj(taps[::-1]).  A frame's transmit spectrum is its
    m-point symbol spectrum times each row, and sampling the matched
    filter sums the rows.
    """
    m = n_symbols + spec.span_symbols
    return np.fft.fft(srrc_taps(spec), m * spec.sps).reshape(spec.sps, m)
