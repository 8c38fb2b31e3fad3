"""The link's channel: band-limited periodic interference, in-band-calibrated
AWGN and the receiver comb filter, applied to a batch of frames.

`calibrate_channel` turns a configuration and an SNR into a `LinkChannel`.
Interference and comb are built in the frequency domain of the whole
frame, so they are linear, zero-phase and deterministic given the
generators.  `draw_frames` makes each frame's draws from that frame's own
generator, in one order, for both ways of applying the channel:

- `received_spectrum` acts on the frames' L-point spectra; the FER link
  uses it between `modem.frame_spectrum` and `modem.sample_spectrum`.
- `impair` acts on a (B, L) block of transmitted waveforms.  It is the
  reference that `received_spectrum` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.fft

from .spectral import tone_centers

if TYPE_CHECKING:
    from .config import ExperimentConfig


def _band_mask(n: int, sample_rate: float, band) -> np.ndarray:
    lo, hi = band
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    return (freqs >= lo) & (freqs <= hi)


def _tone_mask(n: int, sample_rate: float, centers, halfwidth: float) -> np.ndarray:
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    mask = np.zeros(n, dtype=bool)
    for c in np.atleast_1d(centers):
        mask |= np.abs(freqs - c) <= halfwidth
    return mask


def frame_samples(cfg: ExperimentConfig) -> int:
    """Samples in one transmitted frame: N symbols plus the pulse tail."""
    return (cfg.N + cfg.pulse.span_symbols) * cfg.pulse.sps


def noise_tone_mask(cfg: ExperimentConfig) -> tuple:
    """The noise tone model's FFT bins of a frame (tone bandwidth around each
    grid center), and how many of them lie inside cfg.band."""
    L, fs = frame_samples(cfg), cfg.sample_rate
    centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
    mask = _tone_mask(L, fs, centers, cfg.tone_bandwidth_hz / 2)
    return mask, int(np.count_nonzero(mask & _band_mask(L, fs, cfg.band)))


@dataclass
class LinkChannel:
    """Calibrated impairments for frames of one link at one SNR."""

    noise_sigma2: float              # complex per-sample noise variance, 0 disables
    intf_scale: float                # 0 disables interference
    tone_mask: np.ndarray | None     # noise tone model: kept FFT bins
    tone_basis: np.ndarray | None    # sinusoid tone model: per-tone phasors
    comb_keep: np.ndarray | None     # FFT bins the comb passes; None without comb


def calibrate_channel(cfg: ExperimentConfig, snr_db: float) -> LinkChannel:
    """Noise and interference levels for cfg's frames at snr_db.

    Both ratios are set against the expected per-sample power N/L of a
    frame of N unit-energy pulses in L samples, and counted inside
    cfg.band: the SNR against the noise there, the SIR against the
    interference there.  snr_db = inf disables noise; sir_db None or inf
    disables interference.
    """
    L = frame_samples(cfg)
    fs = cfg.sample_rate
    band_bins = int(np.count_nonzero(_band_mask(L, fs, cfg.band)))
    p_sig = cfg.N / L
    if np.isinf(snr_db):
        sigma2 = 0.0
    else:
        sigma2 = p_sig / (10 ** (snr_db / 10) * band_bins / L)
    tone_mask = None
    tone_basis = None
    intf_scale = 0.0
    if cfg.sir_db is not None and not np.isinf(cfg.sir_db):
        sir_lin = 10 ** (cfg.sir_db / 10)
        if cfg.tone_model == "sinusoid":
            centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
            t = np.arange(L) / fs
            tone_basis = np.exp(2j * np.pi * np.outer(centers, t))
            n_in = int(np.count_nonzero((centers >= cfg.band[0]) & (centers <= cfg.band[1])))
            intf_scale = float(np.sqrt(p_sig / (sir_lin * n_in)))
        else:
            tone_mask, in_band = noise_tone_mask(cfg)
            # unit draw has per-sample variance 2 before masking
            intf_scale = float(np.sqrt(p_sig * L / (sir_lin * 2.0 * in_band)))
    comb_keep = None
    if cfg.comb_enabled:
        centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
        comb_keep = ~_tone_mask(L, fs, centers, cfg.notch_bandwidth_hz / 2)
    return LinkChannel(sigma2, intf_scale, tone_mask, tone_basis, comb_keep)


def draw_frames(ch: LinkChannel, n_samples: int, gens, keep_interference: bool = True):
    """Each frame's channel randomness, in the one stream order of the link.

    Frame k draws from gens[k]: first its interference (random tone phases,
    or white noise to be masked to the tone bands), when interference is
    on, then its noise.  Returns (interference, noise): (B, tones) phasors
    or (B, n_samples) complex normals, or None when interference is off or
    not kept (its draws are still made), and (B, n_samples) complex normals.
    """
    noise = np.empty((len(gens), n_samples), dtype=np.complex128)
    sinusoid = ch.tone_basis is not None
    width = len(ch.tone_basis) if sinusoid else n_samples
    intf = None
    if ch.intf_scale > 0:
        # interference that is not kept is drawn into one scratch row
        intf = np.empty((len(gens) if keep_interference else 1, width), dtype=np.complex128)
    for k, g in enumerate(gens):
        if intf is not None:
            row = intf[k if keep_interference else 0]
            if sinusoid:
                row[:] = np.exp(1j * g.uniform(0.0, 2 * np.pi, width))
            else:
                row.real = g.standard_normal(width)
                row.imag = g.standard_normal(width)
        noise[k].real = g.standard_normal(n_samples)
        noise[k].imag = g.standard_normal(n_samples)
    return (intf if keep_interference else None), noise


def impair(ch: LinkChannel, s: np.ndarray, gens) -> np.ndarray:
    """Add interference and noise to the (B, L) transmitted frames s, then
    apply the comb; returns the complex received samples.

    The waveform form of `received_spectrum`, kept as its reference; the
    draws come from `draw_frames`.
    """
    b, L = s.shape
    if len(gens) != b:
        raise ValueError(f"{len(gens)} generators for {b} frames")
    intf, noise = draw_frames(ch, L, gens)

    rx = s.astype(np.complex128)
    if intf is not None:
        if ch.tone_basis is not None:
            shaped = intf @ ch.tone_basis
        else:
            shaped = np.fft.ifft(np.fft.fft(intf, axis=1) * ch.tone_mask[None, :], axis=1)
        rx = rx + ch.intf_scale * shaped
    if ch.noise_sigma2 > 0:
        rx = rx + np.sqrt(ch.noise_sigma2 / 2.0) * noise
    if ch.comb_keep is not None:
        rx = np.fft.ifft(np.fft.fft(rx, axis=1) * ch.comb_keep[None, :], axis=1)
    return rx


def received_spectrum(ch: LinkChannel, spectrum: np.ndarray, gens) -> np.ndarray:
    """`impair` on the frames' L-point spectra: the (B, L) FFT of the
    transmitted frames in, the FFT of impair's output out, from the same
    draws.

    Interference and noise enter as their spectra, and the comb is a mask.
    When no tone-mask bin passes the comb (tone band inside the notch), the
    interference is zero after the comb and is not transformed, though its
    draws are still made.
    """
    b, L = spectrum.shape
    if len(gens) != b:
        raise ValueError(f"{len(gens)} generators for {b} frames")
    notched = (ch.tone_mask is not None and ch.comb_keep is not None
               and not np.any(ch.tone_mask & ch.comb_keep))
    intf, noise = draw_frames(ch, L, gens, keep_interference=not notched)

    if ch.noise_sigma2 > 0:
        # the noise is not read again, so its buffer may hold its spectrum
        rx = scipy.fft.fft(noise, axis=1, overwrite_x=True)
        rx *= np.sqrt(ch.noise_sigma2 / 2.0)
        rx += spectrum
    else:
        rx = np.array(spectrum, dtype=np.complex128)
    if intf is not None:
        if ch.tone_basis is not None:
            shaped = intf @ np.fft.fft(ch.tone_basis, axis=1)
        else:
            shaped = np.fft.fft(intf, axis=1) * ch.tone_mask[None, :]
        rx += ch.intf_scale * shaped
    if ch.comb_keep is not None:
        rx *= ch.comb_keep[None, :]
    return rx
