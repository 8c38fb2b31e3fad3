"""The link's channel, folded onto the bins that the matched filter reads.

A frame of N symbols is L = (N + span) * sps samples.  Its channel is
band-limited periodic interference, AWGN calibrated to the in-band SNR and
SIR, and the receiver comb filter, all defined on the frame's L-point FFT
grid, so they are linear and zero-phase.  Sampling the matched filter
every sps samples folds that grid onto M = N + span bins, and
`calibrate_channel` folds the whole link once per (config, SNR):

- signal: the symbols' M-point spectrum times `gain`, the pulse, comb and
  matched filter summed over the sps L-bins that fold onto each M-bin;
- noise and noise-model interference: both are white before their masks,
  so their L-point spectra are independent circular Gaussians, and each
  M-bin sums a disjoint set of L-bins.  One complex normal per M-bin,
  scaled by `noise_sd`, has exactly their folded distribution.  A bin the
  comb removes has zero deviation;
- sinusoid interference: one random phase per tone, times that tone's
  folded response, a row of `tone_response`.

`draw_channel` makes each frame's draws from that frame's generator in one
order, the same for every arm, SIR and comb setting: the tone phases
(sinusoid model only), then 2M standard normals.  `receive` turns a batch
of symbol frames and their draws into matched-filter samples with one
M-point FFT pair per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .modem import pulse_spectrum
from .spectral import tone_centers

if TYPE_CHECKING:
    from .config import ExperimentConfig


def _band_mask(n: int, sample_rate: float, band) -> np.ndarray:
    lo, hi = band
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    return (freqs >= lo) & (freqs <= hi)


def _tone_mask(n: int, sample_rate: float, centers, halfwidth: float) -> np.ndarray:
    """FFT bins with |f - c| <= halfwidth for some center c.

    Only the nearest center below and above each bin can pass: rounding is
    monotone, so a farther center never gives a smaller |f - c|.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    centers = np.sort(np.atleast_1d(centers))
    if len(centers) == 0:
        return np.zeros(n, dtype=bool)
    i = np.searchsorted(centers, freqs)
    below = centers[np.maximum(i - 1, 0)]
    above = centers[np.minimum(i, len(centers) - 1)]
    return (np.abs(freqs - below) <= halfwidth) | (np.abs(freqs - above) <= halfwidth)


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


def comb_mask(cfg: ExperimentConfig) -> np.ndarray:
    """The FFT bins of a frame that the comb passes; all of them without it."""
    L, fs = frame_samples(cfg), cfg.sample_rate
    if not cfg.comb_enabled:
        return np.ones(L, dtype=bool)
    centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
    return ~_tone_mask(L, fs, centers, cfg.notch_bandwidth_hz / 2)


@dataclass
class LinkChannel:
    """One link's channel at one SNR on the M = N + span folded bins, with
    the 1/sps of symbol sampling included."""

    noise_sigma2: float              # complex per-sample noise variance, 0 disables
    intf_scale: float                # 0 disables interference
    gain: np.ndarray                 # (M,) symbol spectrum to matched-filter spectrum
    noise_sd: np.ndarray             # (M,) per-dimension deviation: noise + noise-model intf.
    tones: int                       # tone phases drawn per frame: sinusoid model only
    tone_response: np.ndarray | None  # (tones, M) per unit phasor; None without sinusoid intf.


def calibrate_channel(cfg: ExperimentConfig, snr_db: float) -> LinkChannel:
    """Noise and interference levels for cfg's frames at snr_db, folded.

    Both ratios are set against the expected per-sample power N/L of a
    frame of N unit-energy pulses in L samples, and counted inside
    cfg.band: the SNR against the noise there, the SIR against the
    interference there.  snr_db = inf disables noise; sir_db None or inf
    disables interference.
    """
    L, fs, sps = frame_samples(cfg), cfg.sample_rate, cfg.pulse.sps
    band_bins = int(np.count_nonzero(_band_mask(L, fs, cfg.band)))
    p_sig = cfg.N / L
    if np.isinf(snr_db):
        sigma2 = 0.0
    else:
        sigma2 = p_sig / (10 ** (snr_db / 10) * band_bins / L)
    centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
    sinusoid = cfg.tone_model == "sinusoid"
    pulse = pulse_spectrum(cfg.pulse, cfg.N)
    # comb, matched filter (the pulse itself) and sampling, per L-bin as (sps, M)
    through = pulse * comb_mask(cfg).reshape(pulse.shape) / sps
    # E|bin|^2 of an L-point FFT of white noise with per-sample variance v is L*v
    power = np.full(L, L * sigma2)
    intf_scale = 0.0
    tone_response = None
    if cfg.sir_db is not None and not np.isinf(cfg.sir_db):
        sir_lin = 10 ** (cfg.sir_db / 10)
        if sinusoid:
            n_in = int(np.count_nonzero((centers >= cfg.band[0]) & (centers <= cfg.band[1])))
            intf_scale = float(np.sqrt(p_sig / (sir_lin * n_in)))
            t = np.arange(L) / fs
            spectra = np.fft.fft(np.exp(2j * np.pi * np.outer(centers, t)), axis=1)
            tone_response = intf_scale * np.einsum(
                "jqm,qm->jm", spectra.reshape(len(centers), *pulse.shape), through)
        else:
            tone_mask, in_band = noise_tone_mask(cfg)
            # unit draw has per-sample variance 2 before masking
            intf_scale = float(np.sqrt(p_sig * L / (sir_lin * 2.0 * in_band)))
            power += (2.0 * L * intf_scale**2) * tone_mask
    var = np.sum(power.reshape(pulse.shape) * np.abs(through) ** 2, axis=0)
    return LinkChannel(sigma2, intf_scale, np.sum(pulse * through, axis=0),
                       np.sqrt(var / 2.0), len(centers) if sinusoid else 0, tone_response)


def draw_channel(ch: LinkChannel, gens) -> tuple:
    """Each frame's channel draws, frame k from gens[k]: its tone phases
    (ch.tones of them), then 2M standard normals.

    Whether interference or noise is on changes only the scales the draws
    meet in `receive`, never the draws, so what a generator yields next
    does not depend on the SIR or the comb.  Returns ((B, tones) unit
    phasors, (B, 2, M) normals: real parts in row 0, imaginary in row 1).
    """
    angles = np.empty((len(gens), ch.tones))
    z = np.empty((len(gens), 2, len(ch.gain)))
    for k, g in enumerate(gens):
        if ch.tones:
            angles[k] = g.uniform(0.0, 2 * np.pi, ch.tones)
        g.standard_normal(out=z[k])
    return np.exp(1j * angles), z


def receive(ch: LinkChannel, symbols: np.ndarray, phasors: np.ndarray,
            z: np.ndarray) -> np.ndarray:
    """Matched-filter samples of the (B, N) symbol frames through the channel
    with the draws of `draw_channel`:
    IFFT_M(FFT_M(symbols) * gain + noise_sd * (z1 + i z2) + phasors @ tone_response)
    from bin span on, span = M - N being the two filters' delay in symbols.
    """
    m = len(ch.gain)
    spectrum = np.fft.fft(symbols, m, axis=-1)
    spectrum *= ch.gain
    spectrum.real += ch.noise_sd * z[:, 0]
    spectrum.imag += ch.noise_sd * z[:, 1]
    if ch.tone_response is not None:
        spectrum += phasors @ ch.tone_response
    return np.fft.ifft(spectrum, axis=-1)[:, m - symbols.shape[-1]:]
