"""Small-instance oracle checks behind `combpolar selftest`.

Each check returns (ok, detail).  The self test runs them at fast default
settings; the acceptance suite calls the same functions with its own
pinned seeds, sizes and bounds.
"""

from __future__ import annotations

import numpy as np

from . import oracles
from .config import ARM_PRESETS, ExperimentConfig
from .construction import monte_carlo_symmetric_capacity
from .decoder import channel_llr, scl_decode_batch
from .polar import assemble_source, bit_reversal, encode, generator_matrix
from .shaping import (
    CisSpec,
    CodeConfig,
    cis,
    cis_to_half,
    half_to_cis,
    is_locally_periodic,
    permutation_matrix,
    receive_permutation,
)
from .simulate import build_code, make_link, run_link_frames
from .spectral import exact_null_bins, exact_spectrum_magnitude


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


def check_exact_nulls(sizes=(16, 64, 256, 1024), draws=10, sps=4, seed=2) -> tuple:
    """The spectral side of shaping: a codeword whose information bits lie
    in the order-r shaping set has a rectangular-pulse spectrum that is
    zero at every predicted null bin.  Draws `draws` source words per size
    and order, each with a random number of random information bits."""
    rng = np.random.default_rng(seed)
    worst, count = 0.0, 0
    for N in sizes:
        for r in range(N.bit_length() - 1):
            lam = cis(CisSpec(N, r))
            bins = exact_null_bins(N, r, sps)
            for _ in range(draws):
                K = int(rng.integers(1, N // 2 + 1))
                u = np.zeros(N, dtype=np.uint8)
                u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
                mag = exact_spectrum_magnitude(encode(u), sps)
                worst = max(worst, float(mag[bins].max() / mag.max()))
                count += 1
    return worst < 1e-9, (f"worst relative magnitude at predicted nulls {worst:.2e} "
                          f"over {count} draws")


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


def check_capacity_match(N: int = 8, noise_var: float = 0.8, trials: int = 30_000,
                         sym_trials: int = 120_000, seed: int = 1,
                         tol_se: float = 5.0) -> tuple:
    """Constrained capacity of every shaping-set index, by enumeration,
    against the Monte-Carlo symmetric capacity of its mapped top-half index,
    over every order.  The symmetric estimate draws from seed, order r from
    seed + 1 + r."""
    sym_mean, sym_se = monte_carlo_symmetric_capacity(
        N, noise_var, sym_trials, np.random.default_rng(seed)
    )
    worst = 0.0
    for r in range(N.bit_length() - 1):
        spec = CisSpec(N, r)
        free, mean, se = oracles.constrained_capacity_curve(
            N, r, noise_var, trials, np.random.default_rng(seed + 1 + r)
        )
        dec = cis_to_half(spec, free)
        z = np.abs(mean - sym_mean[dec]) / np.sqrt(se**2 + sym_se[dec] ** 2)
        worst = max(worst, float(z.max()))
    return worst < tol_se, f"worst deviation {worst:.2f} combined std errors"


def check_transition_oracle(draws: int = 5, seed: int = 3) -> tuple:
    """Constrained transition probability of every shaping-set index at
    N=8, orders 0-2, against 2^(N/2) times that of its mapped top-half
    index on the permuted output, at `draws` random outputs each."""
    rng = np.random.default_rng(seed)
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


def check_scl_vs_ml(frames: int = 2000, seed=4) -> tuple:
    """SCL at list size 16 against exhaustive ML on a random (8, 4) code.
    `seed` goes through np.random.default_rng, so a Generator is used as
    is and left advanced past the draws."""
    rng = np.random.default_rng(seed)
    N, K = 8, 4
    A = np.sort(rng.choice(N, K, replace=False))
    code = CodeConfig(N=N, r=None, A=A)
    frozen = code.frozen_mask()
    info = rng.integers(0, 2, (frames, K), dtype=np.uint8)
    x = encode(assemble_source(info, code.A, N))
    y = (1.0 - 2.0 * x) + rng.standard_normal((frames, N))
    llr = channel_llr(y, 1.0)
    u_scl, _ = scl_decode_batch(llr, frozen, 16)
    u_ml = oracles.ml_decode_batch(llr, frozen)
    same = int(np.sum(np.all(u_scl == u_ml, axis=1)))
    return same == frames, f"{same}/{frames} frames decision-identical"


def check_noiseless_roundtrip(frames: int = 50, design_snr_db: float = 0.0) -> tuple:
    """Every arm of the default link, without interference or comb and
    without noise, decodes `frames` frames with no error."""
    cfg = ExperimentConfig(sir_db=None, comb_enabled=False, design_snr_db=design_snr_db)
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
    ("exact-spectral-nulls", check_exact_nulls),
    ("map-bijection-order", check_map_bijection),
    ("constrained-capacity-match", check_capacity_match),
    ("transition-probability-oracle", check_transition_oracle),
    ("scl-vs-ml", check_scl_vs_ml),
    ("noiseless-roundtrip", check_noiseless_roundtrip),
)


def run_selftest() -> bool:
    """Run every check, printing one line each; True iff all pass."""
    ok_all = True
    for name, fn in SELFTEST_CHECKS:
        ok, detail = fn()
        ok_all &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
