"""The link's channel, folded onto the bins that the matched filter reads.

A frame of N symbols is L = (N + span) * sps samples.  Its channel is
band-limited periodic interference, AWGN calibrated to the in-band SNR and
SIR, and the receiver comb filter, all defined on the frame's L-point FFT
grid, so they are linear and zero-phase.  Sampling the matched filter
every sps samples folds that grid onto M = N + span bins, and
`calibrate_channel` folds the whole link once per (config, SNR):

- signal: the symbols' M-point spectrum times the pulse, comb and matched
  filter summed over the sps L-bins that fold onto each M-bin;
- noise and noise-model interference: both are white before their masks,
  so their L-point spectra are independent circular Gaussians, and each
  M-bin sums a disjoint set of L-bins: one circular normal per M-bin.  A
  bin the comb removes has zero deviation;
- sinusoid interference: one random phase per tone, times that tone's
  folded response.

The BPSK decoder reads only the real part of the matched-filter samples
(the sufficient statistic in circular noise), and the real part of an
inverse FFT is the inverse FFT of the spectrum's Hermitian part,
(X[m] + conj(X[-m])) / 2.  So the link is kept on the M // 2 + 1 `rfft`
bins of that Hermitian part: a half `gain`; a noise whose real and
imaginary parts are M independent real normals in all (DC and, for even M,
Nyquist are real), scaled by `noise_sd`; and a (2 * tones, M // 2 + 1)
`tone_response` against each tone's [cos, sin] of its phase.

`draw_channel` makes a block of frames' draws from one generator in one
order, the same for every arm, SIR and comb setting: the tone phases
(sinusoid model only), then M standard normals per frame.  `receive`
turns a batch of symbol frames and their draws into the real
matched-filter samples with one `rfft`/`irfft` pair per frame.
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


def _hermitian_half(x: np.ndarray) -> np.ndarray:
    """(X[m] + conj(X[-m])) / 2 of M-bin spectra, on their M // 2 + 1 rfft bins."""
    m = x.shape[-1]
    k = np.arange(m // 2 + 1)
    return (x[..., k] + np.conj(x[..., -k % m])) / 2.0


@dataclass
class LinkChannel:
    """One link's channel at one SNR, on the rfft bins of the M = N + span
    folded bins, with the 1/sps of symbol sampling included."""

    noise_sigma2: float              # complex per-sample noise variance, 0 disables
    intf_scale: float                # 0 disables interference
    gain: np.ndarray                 # (M//2+1,) symbol rfft to matched-filter rfft
    # (M,) deviations of the M real normals: noise + noise-model intf.  The
    # first M//2+1 scale the bins' real parts, the rest the imaginary parts
    # of bins 1 .. M - M//2 - 1 (DC and, for even M, Nyquist have none)
    noise_sd: np.ndarray
    tones: int                       # tone phases drawn per frame: sinusoid model only
    # (2*tones, M//2+1) per [cos, sin] of each tone's phase; None without sinusoid intf.
    tone_response: np.ndarray | None


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
    # E|bin|^2 per M-bin, and that of its Hermitian part, split evenly over
    # the real and imaginary part except at DC and Nyquist, which are real
    var = np.sum(power.reshape(pulse.shape) * np.abs(through) ** 2, axis=0)
    herm = _hermitian_half(var).real / 2.0
    n_imag = len(var) - len(herm)  # bins 1 .. n_imag have an imaginary part
    interior = herm[1:n_imag + 1] / 2.0
    real_var = np.concatenate([herm[:1], interior, herm[n_imag + 1:]])
    if tone_response is not None:
        tone_response = np.concatenate([_hermitian_half(tone_response),
                                        _hermitian_half(1j * tone_response)])
    return LinkChannel(sigma2, intf_scale, _hermitian_half(np.sum(pulse * through, axis=0)),
                       np.sqrt(np.concatenate([real_var, interior])),
                       len(centers) if sinusoid else 0, tone_response)


def draw_channel(ch: LinkChannel, gen, frames: int) -> tuple:
    """`frames` frames' channel draws from one generator: a (frames, tones)
    block of tone phases (none without the sinusoid model), then a
    (frames, M) block of standard normals.

    Whether interference or noise is on changes only the scales the draws
    meet in `receive`, never the draws, so what the generator yields next
    does not depend on the SIR or the comb.  Returns ((frames, 2 * tones)
    [cos, sin] of the phases, (frames, M) normals).
    """
    angles = gen.uniform(0.0, 2 * np.pi, (frames, ch.tones))
    z = gen.standard_normal((frames, len(ch.noise_sd)))
    return np.concatenate([np.cos(angles), np.sin(angles)], axis=1), z


def receive(ch: LinkChannel, symbols: np.ndarray, phases: np.ndarray,
            z: np.ndarray) -> np.ndarray:
    """Real matched-filter samples of the (B, N) symbol frames through the
    channel with the draws of `draw_channel`:
    IRFFT_M(RFFT_M(symbols) * gain + noise + phases @ tone_response)
    from sample span on, span = M - N being the two filters' delay in
    symbols; noise is noise_sd * z laid out as `LinkChannel.noise_sd` says.
    """
    m, h = len(ch.noise_sd), len(ch.gain)
    spectrum = np.fft.rfft(symbols, m, axis=-1)
    spectrum *= ch.gain
    spectrum.real += ch.noise_sd[:h] * z[:, :h]
    spectrum.imag[:, 1:m - h + 1] += ch.noise_sd[h:] * z[:, h:]
    if ch.tone_response is not None:
        spectrum += phases @ ch.tone_response
    return np.fft.irfft(spectrum, m, axis=-1)[:, m - symbols.shape[-1]:]
