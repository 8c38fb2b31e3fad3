"""Experiment orchestration: code construction reports, frame-error-rate
sweeps, PSD/null-depth runs and capacity tables.

Reproducibility contract: every random draw comes from a generator seeded
by (master_seed, stream, frame index), so a (config, master_seed) pair
determines every output byte, independent of batch size or worker count.
The channel stream does not depend on which arm (code/decoder flavor) is
being simulated, so FER comparisons between arms are paired.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .channel import LinkChannel, calibrate_channel, received_spectrum
from .config import ConfigError, ExperimentConfig
from .construction import (
    CRITERIA,
    estimate_symmetric_reliability,
    mcsc,
    monte_carlo_symmetric_capacity,
    select_code,
    snr_db_to_noise_var,
)
# sc_decode_batch and scl_decode_batch are not called here; perfbench/tracing.py
# wraps them under these names
from .decoder import ccd_decode_batch, sc_decode_batch, scl_decode_batch
from .modem import PulseSpec, bpsk_map, frame_spectrum, sample_spectrum
from .polar import assemble_source, encode
from .shaping import CodeConfig, index_set_text
from .spectral import (
    exact_null_bins,
    exact_spectrum_magnitude,
    null_depth,
    tone_centers,
    welch_psd,
)

_INFO_STREAM, _CHANNEL_STREAM, _CONSTRUCTION_STREAM, _PSD_STREAM = 0, 1, 2, 3
_SUPER_BATCH = 512
NOTCH_DEPTH_THRESHOLD_DB = 25.0  # Welch notch depth that nulldepth.csv counts as a pass


def _rng(master_seed: int, stream: int, index: int = 0):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
    )


# --------------------------------------------------------------------------
# code construction
# --------------------------------------------------------------------------

def build_profile(cfg: ExperimentConfig) -> np.ndarray:
    """The configured per-index symmetric capacity, an (N,) array."""
    return estimate_symmetric_reliability(
        cfg.N,
        cfg.design_snr_db,
        method=cfg.construction_method,
        trials=cfg.construction_trials,
        rng=_rng(cfg.master_seed, _CONSTRUCTION_STREAM),
        rolloff=cfg.pulse.rolloff,
    )


def build_code(cfg: ExperimentConfig, capacity: np.ndarray | None = None) -> CodeConfig:
    if capacity is None:
        capacity = build_profile(cfg)
    return select_code(capacity, cfg.K, cfg.r, cfg.criterion)


def construct_report(cfg: ExperimentConfig, out_path: str) -> dict:
    """Build the code and write a construction report; returns a summary."""
    capacity = build_profile(cfg)
    code = build_code(cfg, capacity)
    m = mcsc(code, capacity)
    selected = np.zeros(cfg.N, dtype=bool)
    selected[code.A] = True
    with open(out_path, "w") as fh:
        fh.write("# combpolar construct v1\n")
        fh.write(f"# N={cfg.N} K={cfg.K} r={cfg.r} criterion={cfg.criterion} "
                 f"method={cfg.construction_method} design_snr_db={cfg.design_snr_db}\n")
        fh.write(f"# A={index_set_text(code.A)}\n")
        fh.write(f"# A_dec={index_set_text(code.A_dec)}\n")
        fh.write(f"# mcsc={m:.6f}\n")
        fh.write("index,capacity,selected\n")
        for i in range(cfg.N):
            fh.write(f"{i},{capacity[i]:.8f},{int(selected[i])}\n")
    return {"A": code.A, "A_dec": code.A_dec, "mcsc": m}


# --------------------------------------------------------------------------
# the simulated link
# --------------------------------------------------------------------------

@dataclass
class LinkContext:
    """Everything one worker needs to run frames of one arm at one SNR."""

    code: CodeConfig             # decoder-side code: r=None for plain decoding
    list_size: int
    pulse: PulseSpec
    channel: LinkChannel
    symbol_noise_var: float      # per-dimension symbol noise after matched filter
    master_seed: int


def make_link(cfg: ExperimentConfig, code: CodeConfig, snr_db: float) -> LinkContext:
    channel = calibrate_channel(cfg, snr_db)
    sigma2 = channel.noise_sigma2
    if cfg.decoder_mode == "plain":
        # plain decoding is permuted decoding of the same A with no permutation
        code = CodeConfig(code.N, code.K, None, code.A)
    return LinkContext(
        code=code,
        list_size=cfg.list_size,
        pulse=cfg.pulse,
        channel=channel,
        symbol_noise_var=sigma2 / 2.0 if sigma2 > 0 else 1e-12,
        master_seed=cfg.master_seed,
    )


def synthesize_frames(link: LinkContext, frame_indices):
    """Transmit + channel for the given frame indices.

    Returns (info bits (B, K), received symbols (B, N)).  All randomness
    comes from per-frame generators, so frame index fi always sees the
    same information word and the same channel realization, whichever arm
    or batch it lands in.  The link runs on each frame's L-point spectrum
    (`frame_spectrum`, `received_spectrum`, `sample_spectrum`) and matches
    the waveform chain `modulate_symbols`, `impair`, `matched_filter` on
    the same draws to rounding.
    """
    idx = [int(fi) for fi in frame_indices]
    code = link.code
    info = np.empty((len(idx), code.K), dtype=np.uint8)
    for k, fi in enumerate(idx):
        info[k] = _rng(link.master_seed, _INFO_STREAM, fi).integers(0, 2, code.K, dtype=np.uint8)
    x = encode(assemble_source(info, code.A, code.N))
    tx = frame_spectrum(bpsk_map(x), link.pulse)
    rx = received_spectrum(link.channel, tx,
                           [_rng(link.master_seed, _CHANNEL_STREAM, fi) for fi in idx])
    return info, sample_spectrum(rx, link.pulse, code.N)


def run_link_frames(link: LinkContext, frame_indices) -> np.ndarray:
    """Simulate the given frame indices; returns a boolean error flag per frame."""
    info, y = synthesize_frames(link, frame_indices)
    info_hat, _, _ = ccd_decode_batch(y, link.code, link.symbol_noise_var, link.list_size)
    return np.any(info_hat != info, axis=1)


def _worker(args):
    link, lo, hi = args
    return int(np.count_nonzero(run_link_frames(link, range(lo, hi))))


# --------------------------------------------------------------------------
# FER sweep
# --------------------------------------------------------------------------

@dataclass
class FERRecord:
    snr_db: float
    frames: int
    frame_errors: int
    fer: float
    wilson_lo: float
    wilson_hi: float
    seed_lo: int
    seed_hi: int


def wilson_interval(k: int, n: int, z: float = 1.959964) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_fer(cfg: ExperimentConfig, out_path: str | None = None, log=None) -> list:
    """Run the configured arm over the SNR sweep; appends one CSV row per
    point as it completes, so partial runs are usable.  With threads > 1,
    one worker pool serves the whole sweep."""
    code = build_code(cfg)
    records = []
    with ExitStack() as stack:
        pool = None
        if cfg.threads > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.threads))
        fh = None
        if out_path is not None:
            fh = stack.enter_context(open(out_path, "w"))
            fh.write("# combpolar fer v1\n")
            fh.write(f"# N={cfg.N} K={cfg.K} r={cfg.r} criterion={cfg.criterion} "
                     f"decoder={cfg.decoder_mode} L={cfg.list_size} sir_db={cfg.sir_db} "
                     f"comb={int(cfg.comb_enabled)} master_seed={cfg.master_seed}\n")
            fh.write("snr_db,frames,frame_errors,fer,wilson_lo,wilson_hi,seed_lo,seed_hi\n")
            fh.flush()
        for snr in cfg.snr_sweep_db:
            link = make_link(cfg, code, snr)
            errors = frames = 0
            while errors < cfg.min_frame_errors and frames < cfg.max_frames:
                b = min(_SUPER_BATCH, cfg.max_frames - frames)
                lo, hi = frames, frames + b
                if pool is not None:
                    bounds = np.linspace(lo, hi, cfg.threads + 1).astype(int)
                    tasks = [(link, int(a), int(c)) for a, c in zip(bounds[:-1], bounds[1:]) if c > a]
                    errors += sum(pool.map(_worker, tasks))
                else:
                    errors += int(np.count_nonzero(run_link_frames(link, range(lo, hi))))
                frames += b
            fer = errors / frames
            w_lo, w_hi = wilson_interval(errors, frames)
            rec = FERRecord(snr, frames, errors, fer, w_lo, w_hi, 0, frames - 1)
            records.append(rec)
            if fh is not None:
                fh.write(f"{snr},{frames},{errors},{fer:.8g},{w_lo:.8g},{w_hi:.8g},"
                         f"{rec.seed_lo},{rec.seed_hi}\n")
                fh.flush()
            if log:
                log(f"snr {snr:+.1f} dB: {errors}/{frames} errors, fer {fer:.3e}")
    return records


def run_fer_arms(cfg: ExperimentConfig, arms=("cp", "csp-nonc", "csp-c"),
                 out_dir: str | None = None, log=None) -> dict:
    """Run several arms under identical per-frame channel realizations."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    results = {}
    for arm in arms:
        out = None if out_dir is None else os.path.join(out_dir, f"fer_{arm}.csv")
        if log:
            log(f"--- arm {arm}")
        results[arm] = run_fer(cfg.for_arm(arm), out, log=log)
    return results


# --------------------------------------------------------------------------
# PSD runs
# --------------------------------------------------------------------------

def run_psd(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Average the PSD of random frames and report notch depths at the
    interference target frequencies.  Writes psd.csv and nulldepth.csv."""
    if cfg.psd_tier == "exact" and cfg.r is None:
        raise ConfigError("the exact psd tier needs a shaped code (set code.r)")
    os.makedirs(out_dir, exist_ok=True)
    rng = _rng(cfg.master_seed, _PSD_STREAM)
    code = build_code(cfg)
    flat_edge = (1.0 - cfg.pulse.rolloff) * cfg.symbol_rate / 2.0
    band_edge = (1.0 + cfg.pulse.rolloff) * cfg.symbol_rate / 2.0
    targets = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, band_edge)

    if cfg.psd_tier == "exact":
        worst = 0.0
        bins = exact_null_bins(cfg.N, cfg.r, cfg.pulse.sps)
        for _ in range(cfg.psd_frames):
            info = rng.integers(0, 2, cfg.K, dtype=np.uint8)
            x = encode(assemble_source(info, code.A, cfg.N))
            mag = exact_spectrum_magnitude(x, cfg.pulse.sps)
            worst = max(worst, float(mag[bins].max() / mag.max()))
        path = os.path.join(out_dir, "nulldepth.csv")
        with open(path, "w") as fh:
            fh.write("# combpolar psd exact v1\n")
            fh.write("worst_relative_magnitude,pass\n")
            fh.write(f"{worst:.3e},{int(worst < 1e-9)}\n")
        return {"tier": "exact", "worst_relative_magnitude": worst}

    syms = []
    for _ in range(cfg.psd_frames):
        info = rng.integers(0, 2, cfg.K, dtype=np.uint8)
        syms.append(bpsk_map(encode(assemble_source(info, code.A, cfg.N))))
    # looked up when called, so a wrapper installed on the modem module sees it
    from .modem import modulate_symbols

    samples = modulate_symbols(np.concatenate(syms), cfg.pulse)
    est = welch_psd(samples, cfg.sample_rate, segment=cfg.welch_segment,
                    overlap=cfg.welch_overlap, window=cfg.welch_window)
    depths = null_depth(est, targets, (-flat_edge, flat_edge))
    with open(os.path.join(out_dir, "psd.csv"), "w") as fh:
        fh.write("# combpolar psd v1\n")
        fh.write("freq_hz,psd_db\n")
        tiny = np.finfo(float).tiny
        for f, p in zip(est.freqs, est.psd):
            fh.write(f"{f:.6f},{10*np.log10(max(p, tiny)):.4f}\n")
    with open(os.path.join(out_dir, "nulldepth.csv"), "w") as fh:
        fh.write("# combpolar nulldepth v1\n")
        fh.write(f"# threshold_db={NOTCH_DEPTH_THRESHOLD_DB}\n")
        fh.write("freq_hz,depth_db,pass\n")
        for f, d in zip(targets, depths):
            fh.write(f"{f:.2f},{d:.3f},{int(d >= NOTCH_DEPTH_THRESHOLD_DB)}\n")
    return {"tier": "welch", "targets": targets, "depths": depths}


# --------------------------------------------------------------------------
# capacity table
# --------------------------------------------------------------------------

def run_mcsc(cfg: ExperimentConfig, out_path: str | None = None,
             rates=(0.25, 0.3125, 0.375), snr_db: float = -2.0) -> list:
    """Minimum constrained capacity of both selection criteria at several
    rates; the reference scenario is N=256, r=3 at -2 dB."""
    if cfg.r is None:
        raise ConfigError("the capacity table needs a shaped code (set code.r)")
    Ks = [int(round(rate * cfg.N)) for rate in rates]
    if min(Ks) < 1:
        raise ConfigError(f"rate {min(rates)} leaves no information bit at N = {cfg.N}")
    noise_var = snr_db_to_noise_var(snr_db, cfg.pulse.rolloff)
    mean, _ = monte_carlo_symmetric_capacity(
        cfg.N, noise_var, cfg.construction_trials,
        _rng(cfg.master_seed, _CONSTRUCTION_STREAM), batch=4096,
    )
    capacity = np.clip(mean, 0.0, 1.0)
    rows = [(rate, crit, mcsc(select_code(capacity, K, cfg.r, crit), capacity))
            for rate, K in zip(rates, Ks) for crit in CRITERIA]
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write("# combpolar mcsc v1\n")
            fh.write(f"# N={cfg.N} r={cfg.r} snr_db={snr_db} trials={cfg.construction_trials}\n")
            fh.write("rate,criterion,mcsc\n")
            for rate, crit, v in rows:
                fh.write(f"{rate},{crit},{v:.6f}\n")
    return rows
