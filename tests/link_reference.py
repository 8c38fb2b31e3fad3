"""The waveform link, kept as the test reference of the folded FER link.

The package's link (`channel.calibrate_channel`, `draw_channel`,
`receive`) never forms a frame's L samples.  This module does: it pulse
shapes with `modem.modulate_symbols`, adds interference and noise to the
samples and applies the comb on the frame's L-point FFT grid (`impair`),
then matched-filters and samples (`matched_filter`).  Its masks come from
the per-center loop `tone_mask_loop`, its tone phasors from the sinusoid
model's definition, and only its levels (noise variance and interference
scale) from `calibrate_channel`.

The link's output is real; the reference keeps the complex samples, whose
real part is the link's.  Its draws follow the link's block rule
(`block_draws`): block k of 64 frames draws from the generator of index k
the tone phases (sinusoid model, always), so the reference and the link
see the same phases; the link's M real normals per frame, which the
reference skips; and the information bits, the same as the link's.  Then,
unlike the link, the block's generator goes on to the L-point
interference normals (noise model, when interference is on) and the
L-point noise normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from combpolar import channel, modem, polar, simulate
from combpolar.spectral import tone_centers


def tone_mask_loop(n: int, sample_rate: float, centers, halfwidth: float) -> np.ndarray:
    """FFT bins within halfwidth of some center, one center at a time."""
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    mask = np.zeros(n, dtype=bool)
    for c in np.atleast_1d(centers):
        mask |= np.abs(freqs - c) <= halfwidth
    return mask


def matched_filter(samples, spec: modem.PulseSpec, n_symbols: int) -> np.ndarray:
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
    taps = modem.srrc_taps(spec)
    mf = fftconvolve(x, np.conj(taps[::-1]).reshape((1,) * (x.ndim - 1) + (-1,)),
                     mode="full", axes=-1)
    # one filter delay from the transmit pulse, one from the matched filter
    delay = len(taps) - 1
    return mf[..., delay + spec.sps * np.arange(n_symbols)]


@dataclass
class WaveformChannel:
    """The channel of one link at one SNR on the frame's L samples."""

    noise_sigma2: float              # complex per-sample noise variance
    intf_scale: float                # 0 disables interference
    tone_mask: np.ndarray | None     # noise tone model with interference on: kept FFT bins
    tone_basis: np.ndarray | None    # sinusoid tone model: (tones, L) phasors
    comb_keep: np.ndarray | None     # FFT bins the comb passes; None without comb


def waveform_channel(cfg, snr_db: float) -> WaveformChannel:
    folded = channel.calibrate_channel(cfg, snr_db)
    L, fs = channel.frame_samples(cfg), cfg.sample_rate
    centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
    tone_mask = tone_basis = comb_keep = None
    if cfg.tone_model == "sinusoid":
        tone_basis = np.exp(2j * np.pi * np.outer(centers, np.arange(L) / fs))
    elif folded.intf_scale > 0:
        tone_mask = tone_mask_loop(L, fs, centers, cfg.tone_bandwidth_hz / 2)
    if cfg.comb_enabled:
        comb_keep = ~tone_mask_loop(L, fs, centers, cfg.notch_bandwidth_hz / 2)
    return WaveformChannel(folded.noise_sigma2, folded.intf_scale, tone_mask, tone_basis,
                           comb_keep)


def draw_waveform(wch: WaveformChannel, gens, n_samples: int) -> tuple:
    """Each frame's draws: (B, tones) phasors, (B, L) complex interference
    normals or None, and (B, L) complex noise normals."""
    tones = 0 if wch.tone_basis is None else len(wch.tone_basis)
    phasors = np.empty((len(gens), tones), dtype=np.complex128)
    intf = None if wch.tone_mask is None else np.empty((len(gens), n_samples), np.complex128)
    noise = np.empty((len(gens), n_samples), dtype=np.complex128)
    for k, g in enumerate(gens):
        phasors[k] = np.exp(1j * g.uniform(0.0, 2 * np.pi, tones))
        if intf is not None:
            intf[k].real = g.standard_normal(n_samples)
            intf[k].imag = g.standard_normal(n_samples)
        noise[k].real = g.standard_normal(n_samples)
        noise[k].imag = g.standard_normal(n_samples)
    return phasors, intf, noise


def apply_waveform(wch: WaveformChannel, s: np.ndarray, phasors, intf=None,
                   noise=None) -> np.ndarray:
    """Add interference and noise to the (B, L) transmitted frames s, then
    apply the comb; returns the complex received samples.  Noise-model
    interference and noise are left out when their draws are None."""
    rx = s.astype(np.complex128)
    if wch.intf_scale > 0 and wch.tone_basis is not None:
        rx = rx + wch.intf_scale * (phasors @ wch.tone_basis)
    if wch.intf_scale > 0 and intf is not None:
        rx = rx + wch.intf_scale * np.fft.ifft(np.fft.fft(intf, axis=1) * wch.tone_mask, axis=1)
    if wch.noise_sigma2 > 0 and noise is not None:
        rx = rx + np.sqrt(wch.noise_sigma2 / 2.0) * noise
    if wch.comb_keep is not None:
        rx = np.fft.ifft(np.fft.fft(rx, axis=1) * wch.comb_keep, axis=1)
    return rx


def impair(wch: WaveformChannel, s: np.ndarray, gens) -> np.ndarray:
    """`apply_waveform` on each frame's draws from gens."""
    if len(gens) != len(s):
        raise ValueError(f"{len(gens)} generators for {len(s)} frames")
    return apply_waveform(wch, s, *draw_waveform(wch, gens, s.shape[1]))


def _waveform_block(cfg, wch: WaveformChannel, master_seed: int, k: int) -> tuple:
    """Block k's draws for its 64 frames, in the order of `block_draws`."""
    gen = simulate._rng(master_seed, simulate._FRAME_STREAM, k)
    tones = 0 if wch.tone_basis is None else len(wch.tone_basis)
    L, m = channel.frame_samples(cfg), cfg.N + cfg.pulse.span_symbols
    phasors = np.exp(1j * gen.uniform(0.0, 2 * np.pi, (64, tones)))
    gen.standard_normal((64, m))
    info = gen.integers(0, 2, (64, cfg.K), dtype=np.uint8)
    intf = None
    if wch.tone_mask is not None:
        intf = gen.standard_normal((64, L)) + 1j * gen.standard_normal((64, L))
    noise = gen.standard_normal((64, L)) + 1j * gen.standard_normal((64, L))
    return phasors, intf, noise, info


def block_draws(cfg, wch: WaveformChannel, master_seed: int, frame_indices) -> tuple:
    """Each frame's draws by the block rule of `simulate.synthesize_frames`:
    frame f takes row f mod 64 of block f // 64.  Returns (B, tones)
    phasors, (B, L) complex interference normals or None, (B, L) complex
    noise normals and (B, K) information bits."""
    blocks, rows = {}, []
    for fi in frame_indices:
        k, row = divmod(int(fi), 64)
        if k not in blocks:
            blocks[k] = _waveform_block(cfg, wch, master_seed, k)
        rows.append([None if d is None else d[row] for d in blocks[k]])
    return tuple(None if col[0] is None else np.stack(col) for col in zip(*rows))


def waveform_frames(cfg, link, snr_db: float, frame_indices) -> tuple:
    """`simulate.synthesize_frames` through the waveform chain, on the
    link's information bits and tone phases (`block_draws`).  Returns
    (info bits, complex received symbols)."""
    wch = waveform_channel(cfg, snr_db)
    phasors, intf, noise, info = block_draws(cfg, wch, link.master_seed, frame_indices)
    x = polar.encode(polar.assemble_source(info, link.code.A, link.code.N))
    s = modem.modulate_symbols(modem.bpsk_map(x), cfg.pulse)
    return info, matched_filter(apply_waveform(wch, s, phasors, intf, noise), cfg.pulse, cfg.N)


def waveform_covariance(cfg, wch: WaveformChannel) -> np.ndarray:
    """E[y y^H] of the matched-filter samples' noise plus noise-model
    interference, from unit impulses pushed through the chain."""
    L = channel.frame_samples(cfg)
    impulses = np.eye(L, dtype=np.complex128)
    # comb and matched filter: the (N, L) map from white per-sample noise
    bare = WaveformChannel(0.0, 0.0, None, None, wch.comb_keep)
    a = matched_filter(apply_waveform(bare, impulses, None), cfg.pulse, cfg.N).T
    cov = wch.noise_sigma2 * a @ a.conj().T
    if wch.tone_mask is not None:
        # tone mask first: the map from a unit interference draw, whose
        # per-sample variance is 2
        unit = WaveformChannel(0.0, 1.0, wch.tone_mask, None, wch.comb_keep)
        a = matched_filter(apply_waveform(unit, np.zeros((L, L)), None, impulses),
                           cfg.pulse, cfg.N).T
        cov = cov + 2.0 * wch.intf_scale**2 * a @ a.conj().T
    return cov
