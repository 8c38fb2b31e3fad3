"""Small-instance brute-force oracles.

Everything here recomputes quantities by exhaustive enumeration over
codebooks, with no successive-cancellation recursion, no fast transform on
the evaluation path, and no shared code with the decoders beyond the
generator matrix itself.  They exist to cross-check the fast
implementations and are only usable at tiny block lengths.
"""

from __future__ import annotations

import numpy as np

from .polar import generator_matrix
from .shaping import CisSpec, cis


def _codebook_symbols(N: int, free: np.ndarray) -> np.ndarray:
    """BPSK symbols of every source word with free bits at `free`, zeros
    elsewhere; word c sets free[k] to bit k of c, first index most
    significant."""
    G = generator_matrix(N).astype(np.int64)
    Kf = len(free)
    words = ((np.arange(1 << Kf)[:, None] >> np.arange(Kf - 1, -1, -1)) & 1).astype(np.int64)
    srcs = np.zeros((1 << Kf, N), dtype=np.int64)
    srcs[:, free] = words
    cw = (srcs @ G) % 2
    return 1.0 - 2.0 * cw.astype(np.float64)


def ml_decode_batch(llrs: np.ndarray, frozen_mask: np.ndarray):
    """Exhaustive maximum-likelihood decoding over all 2^K codewords.

    Ranks codewords by correlation with the LLR vector (equivalently by
    likelihood), ties to the smaller source word.  Returns the source
    bits, (B, N).
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    N = llrs.shape[1]
    A = np.flatnonzero(~np.asarray(frozen_mask, dtype=bool))
    K = len(A)
    if K > 20:
        raise ValueError(f"refusing exhaustive search over 2^{K} codewords")
    pick = np.argmax(llrs @ _codebook_symbols(N, A).T, axis=1)
    u = np.zeros((len(llrs), N), dtype=np.uint8)
    u[:, A] = (pick[:, None] >> np.arange(K - 1, -1, -1)) & 1
    return u


def _target_words(N: int, u_prefix, i: int, u_i: int, free_indices) -> tuple:
    """BPSK symbols of every source word that matches the prefix and has
    u_i at index i, with the free-index count Kf; see subchannel_probability
    for the meaning of the arguments."""
    if free_indices is None:
        free = np.arange(N, dtype=np.int64)
    else:
        free = np.asarray(free_indices, dtype=np.int64)
    if i not in free:
        raise ValueError(f"target index {i} is pinned to zero")
    pos = int(np.searchsorted(free, i))
    u_prefix = np.asarray(u_prefix, dtype=np.int64)
    if len(u_prefix) != pos:
        raise ValueError(f"prefix must cover the {pos} free indices below {i}")

    sym = _codebook_symbols(N, free)
    Kf = len(free)
    c = np.arange(1 << Kf)
    want_prefix = 0
    for b in u_prefix:
        want_prefix = (want_prefix << 1) | int(b)
    keep = (c >> (Kf - pos)) == want_prefix
    keep &= ((c >> (Kf - pos - 1)) & 1) == u_i
    return sym[keep], Kf


def subchannel_probability(
    y: np.ndarray,
    u_prefix: np.ndarray,
    i: int,
    u_i: int,
    noise_var: float,
    free_indices: np.ndarray | None = None,
) -> float:
    """W^(i)(y, prefix | u_i) by exhaustive marginalization.

    With free_indices = None this is the unconstrained sub-channel
    probability: all of u_0..u_{i-1} are conditioned on (u_prefix must
    have length i), and the future bits are marginalized uniformly.  With
    free_indices given, bits outside it are pinned to zero, u_prefix holds
    the values of the free indices below i (in ascending index order), and
    only free future bits are marginalized.  Gaussian real-output channel
    with per-dimension variance noise_var.
    """
    y = np.asarray(y, dtype=np.float64)
    N = len(y)
    s, Kf = _target_words(N, u_prefix, i, u_i, free_indices)
    loglik = -np.sum((y[None, :] - s) ** 2, axis=1) / (2 * noise_var)
    loglik -= 0.5 * N * np.log(2 * np.pi * noise_var)
    # joint density of (y, prefix) given u_i: every free bit except u_i
    # itself carries a uniform 1/2, whether conditioned on or marginalized.
    # The log-sum-exp is shifted by its largest term, so the sum is >= 1.
    peak = np.max(loglik)
    log_sum = peak + np.log(np.sum(np.exp(loglik - peak)))
    return float(np.exp(log_sum - (Kf - 1) * np.log(2.0)))


# trials per draw of constrained_capacity_curve
CURVE_BATCH = 20000


def constrained_capacity_curve(N: int, r: int, noise_var: float, trials: int, rng):
    """Monte-Carlo estimate of the constrained capacity of every
    shaping-set sub-channel, by exact enumeration of the constrained
    codebook (no SC recursion), CURVE_BATCH trials at a time.

    Returns (free index array, per-index capacity mean, standard error).
    """
    sp = CisSpec(N, r)
    free = cis(sp)
    Kf = len(free)
    sym = _codebook_symbols(N, free)
    sums = np.zeros(Kf)
    sqs = np.zeros(Kf)
    done = 0
    while done < trials:
        b = min(CURVE_BATCH, trials - done)
        c_true = rng.integers(0, 1 << Kf, size=b)
        y = sym[c_true] + rng.standard_normal((b, N)) * np.sqrt(noise_var)
        ll = y @ sym.T / noise_var  # word-independent terms cancel in ratios
        # marg[k] holds the log-likelihood of every prefix of k + 1 bits:
        # a pairwise logaddexp tree from the last bit up
        marg = [ll]
        for _ in range(Kf - 1):
            marg.append(np.logaddexp(marg[-1][:, 0::2], marg[-1][:, 1::2]))
        marg.reverse()
        for k in range(Kf):
            p_true = c_true >> (Kf - k)
            sel = marg[k].reshape(b, 1 << k, 2)[np.arange(b), p_true]
            llr = sel[:, 0] - sel[:, 1]
            u_k = (c_true >> (Kf - k - 1)) & 1
            t = 1.0 - np.logaddexp(0.0, -(1.0 - 2.0 * u_k) * llr) / np.log(2.0)
            sums[k] += t.sum()
            sqs[k] += (t**2).sum()
        done += b
    mean = sums / trials
    se = np.sqrt(np.maximum(sqs / trials - mean**2, 0.0) / trials)
    return free, mean, se
