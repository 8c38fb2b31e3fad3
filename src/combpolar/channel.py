"""The link's channel: band-limited periodic interference, in-band-calibrated
AWGN and the receiver comb filter, applied to a batch of frames.

`calibrate_channel` turns a configuration and an SNR into a `LinkChannel`;
`impair` applies it to a (B, samples) block of transmitted frames, drawing
each frame's randomness from that frame's own generator.  Interference and
comb are built in the frequency domain of the whole frame, so they are
linear, zero-phase and deterministic given the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig


def tone_centers(fundamental_hz: float, offset_hz: float, f_max: float) -> np.ndarray:
    """All tone centers offset + k*fundamental inside [-f_max, f_max]."""
    k_lo = int(np.ceil((-f_max - offset_hz) / fundamental_hz))
    k_hi = int(np.floor((f_max - offset_hz) / fundamental_hz))
    return offset_hz + fundamental_hz * np.arange(k_lo, k_hi + 1)


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


def impair(ch: LinkChannel, s: np.ndarray, gens) -> np.ndarray:
    """Add interference and noise to the (B, L) transmitted frames s, then
    apply the comb; returns the complex received samples.

    Frame k draws from gens[k]: first its interference (random tone phases,
    or white noise to be masked to the tone bands), when interference is
    on, then its noise.
    """
    b, L = s.shape
    if len(gens) != b:
        raise ValueError(f"{len(gens)} generators for {b} frames")
    noise = np.empty((b, L), dtype=np.complex128)
    sinusoid = ch.tone_basis is not None
    if ch.intf_scale > 0:
        intf = np.empty((b, len(ch.tone_basis) if sinusoid else L), dtype=np.complex128)
    else:
        intf = None
    for k, g in enumerate(gens):
        if intf is not None:
            if sinusoid:
                intf[k] = np.exp(1j * g.uniform(0.0, 2 * np.pi, intf.shape[1]))
            else:
                intf[k] = g.standard_normal(L) + 1j * g.standard_normal(L)
        noise[k] = g.standard_normal(L) + 1j * g.standard_normal(L)

    rx = s.astype(np.complex128)
    if intf is not None:
        if sinusoid:
            shaped = intf @ ch.tone_basis
        else:
            shaped = np.fft.ifft(np.fft.fft(intf, axis=1) * ch.tone_mask[None, :], axis=1)
        rx = rx + ch.intf_scale * shaped
    if ch.noise_sigma2 > 0:
        rx = rx + np.sqrt(ch.noise_sigma2 / 2.0) * noise
    if ch.comb_keep is not None:
        rx = np.fft.ifft(np.fft.fft(rx, axis=1) * ch.comb_keep[None, :], axis=1)
    return rx
