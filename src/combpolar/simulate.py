"""Experiment orchestration: code construction reports, frame-error-rate
sweeps, PSD/null-depth runs and capacity tables.

Reproducibility contract: every random draw comes from a generator seeded
by (master_seed, stream, index), so a (config, master_seed) pair
determines every output byte, independent of batch size or worker count.
FER frames draw in blocks of 64: block k covers frames [64k, 64k + 64)
and draws from the generator of index k, for all 64 frames at once, the
tone phases (sinusoid model only), then M = N + span real normals per
frame, then the information bits; frame f takes row f mod 64.  A block is
always drawn whole, so no frame's draws depend on `stop.max_frames`, the
batch split or `--threads`.  The channel draws do not depend on which arm
(code/decoder flavor) is being simulated, so FER comparisons between arms
are paired.  The link's output, the matched-filter samples, is real.

`run_fer` (one arm) and `run_fer_arms` (the arms of ARM_PRESETS, paired)
share one sweep loop, which runs in rounds over every (arm, SNR point)
still open (see `_sweep`); with threads > 1 each call starts one worker
pool and joins it before returning, so no worker outlives the call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from . import modem
from .channel import LinkChannel, calibrate_channel, draw_channel, receive
from .config import ARM_PRESETS, ConfigError, ExperimentConfig
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
from .polar import assemble_source, encode
from .shaping import CodeConfig, index_set_text
from .spectral import null_depth, tone_centers, welch_psd

# stream keys; key 0 is retired, so the construction and PSD streams keep theirs
_FRAME_STREAM, _CONSTRUCTION_STREAM, _PSD_STREAM = 1, 2, 3
_SUPER_BATCH = 512
_BLOCK = 64  # FER frames per generator
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
    # rolloff by keyword: perfbench/tracing.py reads a third positional argument
    # as the estimator's name and files the call under it
    return estimate_symmetric_reliability(cfg.N, cfg.design_snr_db, rolloff=cfg.pulse.rolloff)


def build_code(cfg: ExperimentConfig, capacity: np.ndarray | None = None) -> CodeConfig:
    if capacity is None:
        capacity = build_profile(cfg)
    return select_code(capacity, cfg.K, cfg.r, criterion=cfg.criterion)


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
                 f"method=gaussian-approximation design_snr_db={cfg.design_snr_db}\n")
        fh.write(f"# A={index_set_text(code.A)}\n")
        fh.write(f"# A_dec={index_set_text(code.A_dec)}\n")
        fh.write(f"# mcsc={m:.6f}\n")
        fh.write("index,capacity,selected\n")
        for i in range(cfg.N):
            fh.write(f"{i},{capacity[i]:.8f},{int(selected[i])}\n")
    return {"A": code.A, "mcsc": m}


# --------------------------------------------------------------------------
# the simulated link
# --------------------------------------------------------------------------

@dataclass
class LinkContext:
    """Everything one worker needs to run frames of one arm at one SNR."""

    code: CodeConfig             # decoder-side code: r=None for plain decoding
    list_size: int
    channel: LinkChannel
    # sigma^2 / 2, the white per-dimension noise level the LLRs assume; the
    # noise left after the comb is lower
    symbol_noise_var: float
    master_seed: int


def make_link(cfg: ExperimentConfig, code: CodeConfig, snr_db: float) -> LinkContext:
    channel = calibrate_channel(cfg, snr_db)
    sigma2 = channel.noise_sigma2
    if cfg.decoder_mode == "plain":
        # plain decoding is permuted decoding of the same A with no permutation
        code = CodeConfig(code.N, None, code.A)
    return LinkContext(
        code=code,
        list_size=cfg.list_size,
        channel=channel,
        symbol_noise_var=sigma2 / 2.0 if sigma2 > 0 else 1e-12,
        master_seed=cfg.master_seed,
    )


def _draw_block(link: LinkContext, k: int) -> tuple:
    """Block k's draws for its 64 frames: channel ((64, 2 * tones) phases,
    (64, M) normals), then (64, K) information bits."""
    gen = _rng(link.master_seed, _FRAME_STREAM, k)
    phases, z = draw_channel(link.channel, gen, _BLOCK)
    return phases, z, gen.integers(0, 2, (_BLOCK, link.code.K), dtype=np.uint8)


def synthesize_frames(link: LinkContext, frame_indices):
    """Transmit + channel for the given frame indices.

    Returns (info bits (B, K), real received symbols (B, N)).  Each block
    of 64 frames that holds an index is drawn whole (`_draw_block`: the
    channel, the same draws for every arm, then the information bits), and
    frame f takes row f mod 64, so it always sees the same information
    word and channel realization, whichever arm or batch it lands in.  The
    link runs on the rfft bins of the M = N + span bins the matched filter
    reads (`receive`): one rfft/irfft pair per frame.
    """
    code, ch = link.code, link.channel
    block, row = np.divmod(np.asarray(frame_indices, dtype=np.int64), _BLOCK)
    phases = np.empty((len(row), 2 * ch.tones))
    z = np.empty((len(row), len(ch.noise_sd)))
    info = np.empty((len(row), code.K), dtype=np.uint8)
    for k in np.unique(block):
        at = block == k
        phases[at], z[at], info[at] = (d[row[at]] for d in _draw_block(link, int(k)))
    x = encode(assemble_source(info, code.A, code.N))
    return info, receive(ch, modem.bpsk_map(x), phases, z)


def run_link_frames(link: LinkContext, frame_indices) -> np.ndarray:
    """Simulate the given frame indices; returns a boolean error flag per frame."""
    info, y = synthesize_frames(link, frame_indices)
    info_hat = ccd_decode_batch(y, link.code, link.symbol_noise_var, link.list_size)
    return np.any(info_hat != info, axis=1)


def _block_split(lo: int, hi: int, parts: int) -> list:
    """[lo, hi) as at most `parts` ranges of about as many draw blocks
    each, cut only on block boundaries, so no block is drawn twice."""
    first, last = lo // _BLOCK, -(-hi // _BLOCK)
    edges = np.unique(np.clip(np.arange(first, last + 1) * _BLOCK, lo, hi))
    cuts = edges[np.linspace(0, len(edges) - 1, parts + 1).astype(int)]
    return [(int(a), int(c)) for a, c in zip(cuts[:-1], cuts[1:]) if c > a]


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


def wilson_interval(k: int, n: int, z: float = 1.959964) -> tuple:
    """95% Wilson score interval for a binomial proportion, as floats; the
    bound at an end (k = 0 or k = n) is that end exactly."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    # center - half does not cancel exactly at k = 0, nor center + half at k = n
    return (0.0 if k == 0 else max(0.0, center - half),
            1.0 if k == n else min(1.0, center + half))


def run_fer(cfg: ExperimentConfig, out_path: str | None = None, log=None) -> list:
    """Run the configured arm over the SNR sweep: the one-arm case of
    `run_fer_arms`, through the same loop (`_sweep`): rounds over every
    open point, one worker pool per call at threads > 1.  Appends one CSV
    row per point, in sweep order, once it and every point before it are
    done, so partial runs are usable.  Returns the records in sweep order."""
    return _sweep(cfg, {None: (cfg, out_path)}, log)[None]


def run_fer_arms(cfg: ExperimentConfig, out_dir: str | None = None, log=None) -> dict:
    """Run the arms of ARM_PRESETS, in its order, under identical
    per-frame channel realizations in one sweep (`_sweep`): rounds over
    every open (arm, point), one worker pool per call at threads > 1.
    Returns {arm: records} and, with `out_dir`, writes each arm's
    `fer_<arm>.csv`, byte for byte the file `run_fer` writes for that arm
    alone.

    The arms differ only in the code's shaping order, criterion and
    decoder, not in N, the design SNR or the roll-off, so they share one
    capacity profile, built once.  Log lines name their arm."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    paths = {arm: None if out_dir is None else os.path.join(out_dir, f"fer_{arm}.csv")
             for arm in ARM_PRESETS}
    return _sweep(cfg, {arm: (cfg.for_arm(arm), path) for arm, path in paths.items()}, log)


def _sweep(cfg: ExperimentConfig, arms: dict, log) -> dict:
    """The FER sweep loop.  `arms` maps a name (None for a lone arm, whose
    log lines then carry no name) to its config and CSV path or None; the
    arms share cfg's capacity profile, SNR sweep, stop rule and threads.

    The sweep runs in rounds: each round holds the next super-batch of
    every (arm, point) whose stop rule is still open, cut into tasks by
    `_block_split`, in one call to the pool (or to `map` at threads = 1),
    so the workers wait once per round rather than once per point.  With
    threads > 1 one worker pool serves the whole call and is joined before
    it returns.  Each (arm, point) sees the same super-batches and stop
    checks as a point-by-point loop of that arm alone, so the records and
    bytes are the same; an arm's rows come in sweep order, each once it
    and every point of that arm before it are done."""
    capacity = build_profile(cfg)
    codes = {name: build_code(c, capacity) for name, (c, _) in arms.items()}
    records = {name: [] for name in arms}
    with ExitStack() as stack:
        run = map
        if cfg.threads > 1:
            run = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.threads)).map
        files = {}
        for name, (c, path) in arms.items():
            if path is not None:
                fh = files[name] = stack.enter_context(open(path, "w"))
                fh.write("# combpolar fer v1\n")
                fh.write(f"# N={c.N} K={c.K} r={c.r} criterion={c.criterion} "
                         f"decoder={c.decoder_mode} L={c.list_size} sir_db={c.sir_db} "
                         f"comb={int(c.comb_enabled)} master_seed={c.master_seed}\n")
                fh.write("snr_db,frames,frame_errors,fer,wilson_lo,wilson_hi,seed_lo,seed_hi\n")
                fh.flush()
        # one link per (arm, point); each arm's points wait in sweep order
        links = {(name, i): make_link(c, codes[name], snr)
                 for name, (c, _) in arms.items() for i, snr in enumerate(cfg.snr_sweep_db)}
        errors, frames = dict.fromkeys(links, 0), dict.fromkeys(links, 0)
        waiting = {name: [key for key in links if key[0] == name] for name in arms}

        def running(key):
            return errors[key] < cfg.min_frame_errors and frames[key] < cfg.max_frames

        while any(waiting.values()):
            tasks, owners = [], []
            for key in filter(running, links):
                b = min(_SUPER_BATCH, cfg.max_frames - frames[key])
                for lo, hi in _block_split(frames[key], frames[key] + b, cfg.threads):
                    tasks.append((links[key], lo, hi))
                    owners.append(key)
                frames[key] += b
            for key, n in zip(owners, run(_worker, tasks)):
                errors[key] += n
            # report the points now done, each arm's in sweep order
            for name, keys in waiting.items():
                while keys and not running(keys[0]):
                    key = keys.pop(0)
                    snr, n, k = cfg.snr_sweep_db[key[1]], frames[key], errors[key]
                    records[name].append(FERRecord(snr, n, k, k / n))
                    if name in files:
                        w_lo, w_hi = wilson_interval(k, n)
                        files[name].write(f"{snr},{n},{k},{k / n:.8g},{w_lo:.8g},{w_hi:.8g},"
                                          f"0,{n - 1}\n")
                        files[name].flush()
                    if log:
                        tag = "" if name is None else f"{name}: "
                        log(f"{tag}snr {snr:+.1f} dB: {k}/{n} errors, fer {k / n:.3e}")
    return records


# --------------------------------------------------------------------------
# PSD runs
# --------------------------------------------------------------------------

def run_psd(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Average the PSD of random frames and report notch depths at the
    interference target frequencies.  Writes psd.csv and nulldepth.csv."""
    os.makedirs(out_dir, exist_ok=True)
    rng = _rng(cfg.master_seed, _PSD_STREAM)
    code = build_code(cfg)
    flat_edge = (1.0 - cfg.pulse.rolloff) * cfg.symbol_rate / 2.0
    targets = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, cfg.band[1])
    # one draw per frame, in frame order, then one (frames, N) encode
    info = np.stack([rng.integers(0, 2, cfg.K, dtype=np.uint8)
                     for _ in range(cfg.psd_frames)])
    syms = modem.bpsk_map(encode(assemble_source(info, code.A, cfg.N)))
    samples = modem.modulate_symbols(syms.ravel(), cfg.pulse)
    est = welch_psd(samples, cfg.sample_rate, segment=cfg.welch_segment)
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
    # "tier" names the estimator the depths come from; the benchmark's design check reads it
    return {"tier": "welch", "targets": targets, "depths": depths}


# --------------------------------------------------------------------------
# capacity table
# --------------------------------------------------------------------------

# the rates and SNR of the capacity table; the reference scenario is N=256, r=3
MCSC_RATES = (0.25, 0.3125, 0.375)
MCSC_SNR_DB = -2.0


def run_mcsc(cfg: ExperimentConfig, out_path: str | None = None) -> list:
    """Minimum constrained capacity of both selection criteria at each of
    MCSC_RATES, at MCSC_SNR_DB."""
    if cfg.r is None:
        raise ConfigError("the capacity table needs a shaped code (set code.r)")
    Ks = [int(round(rate * cfg.N)) for rate in MCSC_RATES]
    if min(Ks) < 1:
        raise ConfigError(f"rate {min(MCSC_RATES)} leaves no information bit at N = {cfg.N}")
    noise_var = snr_db_to_noise_var(MCSC_SNR_DB, cfg.pulse.rolloff)
    mean, _ = monte_carlo_symmetric_capacity(
        cfg.N, noise_var, cfg.construction_trials, _rng(cfg.master_seed, _CONSTRUCTION_STREAM))
    capacity = np.clip(mean, 0.0, 1.0)
    rows = [(rate, crit, mcsc(select_code(capacity, K, cfg.r, criterion=crit), capacity))
            for rate, K in zip(MCSC_RATES, Ks) for crit in CRITERIA]
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write("# combpolar mcsc v1\n")
            fh.write(f"# N={cfg.N} r={cfg.r} snr_db={MCSC_SNR_DB} "
                     f"trials={cfg.construction_trials}\n")
            fh.write("rate,criterion,mcsc\n")
            for rate, crit, v in rows:
                fh.write(f"{rate},{crit},{v:.6f}\n")
    return rows
