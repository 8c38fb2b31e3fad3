"""Experiment orchestration: code construction reports, frame-error-rate
sweeps, PSD/null-depth runs, capacity tables, and the self-test suite.

Reproducibility contract: every random draw comes from a generator seeded
by (master_seed, stream, frame index), so a (config, master_seed) pair
determines every output byte, independent of batch size or worker count.
The channel stream does not depend on which arm (code/decoder flavor) is
being simulated, so FER comparisons between arms are paired.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import oracles
from .channel import LinkChannel, calibrate_channel, impair, tone_centers
from .config import ARM_PRESETS, ConfigError, ExperimentConfig
from .construction import (
    ReliabilityProfile,
    estimate_symmetric_reliability,
    mcsc,
    monte_carlo_symmetric_capacity,
    select_cis_constrained,
    select_conventional,
    select_symmetric_in_cis,
    snr_db_to_noise_var,
)
# sc_decode_batch is not called here; perfbench/tracing.py wraps it under this name
from .decoder import ccd_decode_batch, channel_llr, sc_decode_batch, scl_decode_batch
from .modem import PulseSpec, bpsk_map, matched_filter, modulate_symbols
from .polar import assemble_source, bit_reversal, encode, generator_matrix
from .shaping import (
    CisSpec,
    CodeConfig,
    cis,
    cis_to_half,
    half_to_cis,
    index_set_text,
    is_locally_periodic,
    permutation_matrix,
    receive_permutation,
)
from .spectral import exact_null_bins, exact_spectrum_magnitude, null_depth, welch_psd

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

def build_profile(cfg: ExperimentConfig) -> ReliabilityProfile:
    return estimate_symmetric_reliability(
        cfg.N,
        cfg.design_snr_db,
        method=cfg.construction_method,
        trials=cfg.construction_trials,
        rng=_rng(cfg.master_seed, _CONSTRUCTION_STREAM),
        rolloff=cfg.pulse.rolloff,
    )


def build_code(cfg: ExperimentConfig, profile: ReliabilityProfile | None = None) -> CodeConfig:
    if profile is None:
        profile = build_profile(cfg)
    if cfg.r is None:
        return select_conventional(profile, cfg.K)
    spec = CisSpec(cfg.N, cfg.r)
    if cfg.criterion == "cis-constrained":
        return select_cis_constrained(profile, cfg.K, spec)
    return select_symmetric_in_cis(profile, cfg.K, spec)


def construct_report(cfg: ExperimentConfig, out_path: str) -> dict:
    """Build the code and write a construction report; returns a summary."""
    profile = build_profile(cfg)
    code = build_code(cfg, profile)
    m = mcsc(code, profile)
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
            fh.write(f"{i},{profile.capacity[i]:.8f},{int(selected[i])}\n")
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
    or batch it lands in.
    """
    idx = [int(fi) for fi in frame_indices]
    code = link.code
    info = np.empty((len(idx), code.K), dtype=np.uint8)
    for k, fi in enumerate(idx):
        info[k] = _rng(link.master_seed, _INFO_STREAM, fi).integers(0, 2, code.K, dtype=np.uint8)
    x = encode(assemble_source(info, code.A, code.N))
    s = modulate_symbols(bpsk_map(x), link.pulse)
    rx = impair(link.channel, s, [_rng(link.master_seed, _CHANNEL_STREAM, fi) for fi in idx])
    return info, matched_filter(rx, link.pulse, code.N)


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
    point as it completes, so partial runs are usable."""
    code = build_code(cfg)
    records = []
    fh = None
    if out_path is not None:
        fh = open(out_path, "w")
        fh.write("# combpolar fer v1\n")
        fh.write(f"# N={cfg.N} K={cfg.K} r={cfg.r} criterion={cfg.criterion} "
                 f"decoder={cfg.decoder_mode} L={cfg.list_size} sir_db={cfg.sir_db} "
                 f"comb={int(cfg.comb_enabled)} master_seed={cfg.master_seed}\n")
        fh.write("snr_db,frames,frame_errors,fer,wilson_lo,wilson_hi,seed_lo,seed_hi\n")
        fh.flush()
    try:
        for snr in cfg.snr_sweep_db:
            link = make_link(cfg, code, snr)
            errors = frames = 0
            while errors < cfg.min_frame_errors and frames < cfg.max_frames:
                b = min(_SUPER_BATCH, cfg.max_frames - frames)
                lo, hi = frames, frames + b
                if cfg.threads > 1:
                    bounds = np.linspace(lo, hi, cfg.threads + 1).astype(int)
                    tasks = [(link, int(a), int(c)) for a, c in zip(bounds[:-1], bounds[1:]) if c > a]
                    with ProcessPoolExecutor(max_workers=cfg.threads) as ex:
                        errors += sum(ex.map(_worker, tasks))
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
    finally:
        if fh is not None:
            fh.close()
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
        for _ in range(max(cfg.psd_frames, 20)):
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
    profile = ReliabilityProfile(cfg.N, snr_db, "monte-carlo-genie", np.clip(mean, 0.0, 1.0))
    spec = CisSpec(cfg.N, cfg.r)
    rows = []
    for rate, K in zip(rates, Ks):
        rows.append((rate, "cis-constrained",
                     mcsc(select_cis_constrained(profile, K, spec), profile)))
        rows.append((rate, "symmetric",
                     mcsc(select_symmetric_in_cis(profile, K, spec), profile)))
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write("# combpolar mcsc v1\n")
            fh.write(f"# N={cfg.N} r={cfg.r} snr_db={snr_db} trials={cfg.construction_trials}\n")
            fh.write("rate,criterion,mcsc\n")
            for rate, crit, v in rows:
                fh.write(f"{rate},{crit},{v:.6f}\n")
    return rows


# --------------------------------------------------------------------------
# self test
# --------------------------------------------------------------------------

def check_conjugation(map_fn=half_to_cis, sizes=(4, 8, 16, 32)) -> tuple:
    """Exact GF(2) facts behind constrained decoding: the codeword-side
    image of the source relabeling is its bit-reversal conjugate, the mixed
    conjugation fixes the generator, and encoding commutes with the
    relabeling/receive-permutation pair."""
    rng = np.random.default_rng(0)
    for N in sizes:
        G = generator_matrix(N).astype(np.int64)
        rev = bit_reversal(N)
        B = permutation_matrix(rev).astype(np.int64)
        m = N.bit_length() - 1
        for r in range(m):
            spec = CisSpec(N, r)
            idx = np.arange(N)
            gt = np.asarray(map_fn(spec, idx))
            gi = np.empty(N, dtype=np.int64)
            gi[gt] = idx
            P = permutation_matrix(gi).astype(np.int64)
            if not np.array_equal((G @ P @ G) % 2, (B @ P @ B) % 2):
                return False, f"channel-side image mismatch at N={N} r={r}"
            t = rev[gt[rev]]
            if not np.array_equal((P @ G @ permutation_matrix(t).astype(np.int64)) % 2, G):
                return False, f"mixed conjugation broken at N={N} r={r}"
            lam = cis(spec)
            u = np.zeros((8, N), dtype=np.uint8)
            u[:, lam] = rng.integers(0, 2, (8, N // 2), dtype=np.uint8)
            if not np.array_equal(encode(u[:, gt]), encode(u)[:, t]):
                return False, f"encode does not commute at N={N} r={r}"
    return True, f"exact for N in {sizes}, all orders"


def check_row_periodicity(sizes=(8, 64, 256)) -> tuple:
    for N in sizes:
        m = N.bit_length() - 1
        G = generator_matrix(N)
        for r in range(m):
            for i in cis(CisSpec(N, r)):
                if not is_locally_periodic(G[i], 1 << (m - r - 1), 2):
                    return False, f"row {i} not periodic at N={N} r={r}"
    return True, f"all shaping rows periodic for N in {sizes}"


def check_map_bijection(sizes=(4, 16, 64, 256)) -> tuple:
    for N in sizes:
        m = N.bit_length() - 1
        for r in range(m):
            spec = CisSpec(N, r)
            img = half_to_cis(spec, np.arange(N // 2, N))
            if not (np.all(np.diff(img) > 0) and np.array_equal(np.sort(img), cis(spec))):
                return False, f"order/image broken at N={N} r={r}"
            rt = cis_to_half(spec, half_to_cis(spec, np.arange(N)))
            if not np.array_equal(rt, np.arange(N)):
                return False, f"round trip broken at N={N} r={r}"
    return True, f"order-preserving bijections for N in {sizes}"


def check_capacity_match(trials: int = 30_000, tol_se: float = 5.0) -> tuple:
    N, noise_var = 8, 0.8
    sym_mean, sym_se = monte_carlo_symmetric_capacity(
        N, noise_var, 4 * trials, np.random.default_rng(1)
    )
    worst = 0.0
    for r in range(3):
        spec = CisSpec(N, r)
        free, mean, se = oracles.constrained_capacity_curve(
            N, r, noise_var, trials, np.random.default_rng(2 + r)
        )
        dec = cis_to_half(spec, free)
        z = np.abs(mean - sym_mean[dec]) / np.sqrt(se**2 + sym_se[dec] ** 2)
        worst = max(worst, float(z.max()))
    return worst < tol_se, f"worst deviation {worst:.2f} combined std errors"


def check_transition_oracle(draws: int = 5) -> tuple:
    rng = np.random.default_rng(3)
    N, noise_var = 8, 0.8
    worst = 0.0
    for r in range(3):
        spec = CisSpec(N, r)
        free = cis(spec)
        t = receive_permutation(spec)
        for i in free:
            j = int(cis_to_half(spec, int(i)))
            pos = int(np.searchsorted(free, i))
            for _ in range(draws):
                y = rng.standard_normal(N) * 1.5
                prefix = rng.integers(0, 2, pos)
                u_i = int(rng.integers(0, 2))
                lhs = oracles.subchannel_probability(y, prefix, int(i), u_i, noise_var, free)
                rhs = oracles.subchannel_probability(
                    y[t], np.concatenate([np.zeros(N // 2, dtype=np.int64), prefix]),
                    j, u_i, noise_var,
                )
                worst = max(worst, abs(lhs - 2.0 ** (N // 2) * rhs) / max(abs(lhs), 1e-300))
    return worst < 1e-9, f"worst relative error {worst:.2e}"


def check_scl_vs_ml(frames: int = 2000) -> tuple:
    from .decoder import ml_decode_batch

    rng = np.random.default_rng(4)
    N, K = 8, 4
    A = np.sort(rng.choice(N, K, replace=False))
    code = CodeConfig(N=N, K=K, r=None, A=A)
    frozen = code.frozen_mask()
    info = rng.integers(0, 2, (frames, K), dtype=np.uint8)
    x = encode(assemble_source(info, code.A, N))
    y = (1.0 - 2.0 * x) + rng.standard_normal((frames, N))
    llr = channel_llr(y, 1.0)
    u_scl, _ = scl_decode_batch(llr, frozen, 16)
    u_ml, _ = ml_decode_batch(llr, frozen)
    same = int(np.sum(np.all(u_scl == u_ml, axis=1)))
    return same == frames, f"{same}/{frames} frames decision-identical"


def check_noiseless_roundtrip(frames: int = 50) -> tuple:
    cfg = ExperimentConfig()
    cfg.snr_sweep_db = (np.inf,)
    cfg.sir_db = None
    cfg.comb_enabled = False
    cfg.max_frames = frames
    cfg.min_frame_errors = 1
    cfg.construction_trials = 10_000
    total = 0
    for arm in ARM_PRESETS:
        acfg = cfg.for_arm(arm)
        code = build_code(acfg)
        link = make_link(acfg, code, np.inf)
        total += int(np.count_nonzero(run_link_frames(link, range(frames))))
    return total == 0, f"{total} errors over {3 * frames} noiseless frames"


SELFTEST_CHECKS = (
    ("generator-conjugation", check_conjugation),
    ("shaping-row-periodicity", check_row_periodicity),
    ("map-bijection-order", check_map_bijection),
    ("constrained-capacity-match", check_capacity_match),
    ("transition-probability-oracle", check_transition_oracle),
    ("scl-vs-ml", check_scl_vs_ml),
    ("noiseless-roundtrip", check_noiseless_roundtrip),
)


def run_selftest(log=print) -> bool:
    ok_all = True
    for name, fn in SELFTEST_CHECKS:
        ok, detail = fn()
        ok_all &= ok
        if log:
            log(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
