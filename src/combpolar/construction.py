"""Sub-channel reliability estimation and information-index selection.

Two estimators are provided.  The Gaussian-approximation density evolution
is fast and used for code construction in the link simulator.  The
genie-aided Monte-Carlo estimator measures per-index symmetric capacity
directly from decision LLRs and serves as the reference for the capacity
tables and the constrained-capacity identities.

Design SNR here means in-band SNR with the signal band taken as the
symbol-rate width [-Rs/2, Rs/2]: a unit-energy square-root pulse of
roll-off beta keeps the fraction (1 - beta/4) of its power inside that
band, white noise contributes proportionally to bandwidth, and matched
filtering maps the ratio to a per-dimension symbol noise variance of
(1 - beta/4) / (2 * snr).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .shaping import CisSpec, CodeConfig, cis, half_to_cis
from .decoder import _softplus, genie_decision_llrs
from .polar import _check_power_of_two, encode


def snr_db_to_noise_var(snr_db: float, rolloff: float) -> float:
    """Per-dimension symbol noise variance for a given in-band SNR.

    The band is the symbol-rate width; an SRRC pulse keeps 1 - rolloff/4
    of its energy inside it.
    """
    return (1.0 - rolloff / 4.0) / (2.0 * 10 ** (snr_db / 10))


# --------------------------------------------------------------------------
# Gaussian-approximation density evolution
# --------------------------------------------------------------------------

def _phi(x):
    """E[tanh(L/2)]-style reliability functional of a consistent Gaussian.

    Piecewise curve fit; clipped to [0, 1] because the small-argument
    branch overshoots 1 slightly as x -> 0.  Each element takes the same
    operations whichever elements share its call: the masks are skipped
    when every element is in the small branch, and warnings are silenced
    only when an argument of the large branch is not positive.
    """
    x = np.asarray(x, dtype=np.float64)
    small = (x >= 0) & (x < 10)
    if small.all():
        out = np.exp(-0.4527 * x ** 0.859 + 0.0218)
    else:
        out = np.empty_like(x)
        out[small] = np.exp(-0.4527 * x[small] ** 0.859 + 0.0218)
        large = ~small
        xl = x[large]
        positive = (xl > 0).all()
        with nullcontext() if positive else np.errstate(divide="ignore", invalid="ignore"):
            out[large] = np.sqrt(np.pi / xl) * np.exp(-xl / 4) * (1 - 10.0 / (7 * xl))
    # np.clip(out, 0.0, 1.0), without its Python-level argument handling
    return np.minimum(np.maximum(out, 0.0), 1.0)


# bisection steps after which _phi_inverse looks for fixed points: until
# then the bracket is wider than the spacing of doubles near its upper end
_BISECT_UNCHECKED = 52


def _phi_inverse(y):
    """Invert the monotone-decreasing _phi elementwise by bisection.

    Each element follows the same rule: y >= 1 gives 0; otherwise the
    upper end starts at 1 and doubles while _phi stays above y (an end
    past 1e9 is returned as is), then at most 80 bisection steps on
    [0, end].  Only the elements whose result is used are bisected, and
    an element leaves the loop at a fixed point, a step that leaves
    (lo, hi) as they were: steps are deterministic, so the 80-step
    result is the same.
    """
    y = np.asarray(y, dtype=np.float64)
    shape, y = y.shape, y.ravel()
    hi = np.ones_like(y)
    grow = np.flatnonzero((y < 1.0) & (_phi(hi) > y))
    while grow.size:
        hi[grow] *= 2
        grow = grow[hi[grow] <= 1e9]
        grow = grow[_phi(hi[grow]) > y[grow]]
    x = np.where(y >= 1.0, 0.0, hi)
    at = np.flatnonzero(~(y >= 1.0) & (hi <= 1e9))
    lo, hi, y = np.zeros(at.size), hi[at], y[at]
    for step in range(80):
        if not at.size:
            break
        mid = 0.5 * (lo + hi)
        above = _phi(mid) > y
        if step >= _BISECT_UNCHECKED:
            moved = mid != np.where(above, lo, hi)
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if step >= _BISECT_UNCHECKED and not moved.all():
            fixed = ~moved
            x[at[fixed]] = 0.5 * (lo[fixed] + hi[fixed])
            at, lo, hi, y = at[moved], lo[moved], hi[moved], y[moved]
    x[at] = 0.5 * (lo + hi)
    return x.reshape(shape)


_HERM_X, _HERM_W = np.polynomial.hermite_e.hermegauss(96)


def _capacity_from_mean_llr(mu):
    """Binary-input capacity of a consistent-Gaussian LLR channel N(mu, 2mu)."""
    mu = np.asarray(mu, dtype=np.float64)
    l = mu[..., None] + np.sqrt(2 * mu)[..., None] * _HERM_X
    val = 1.0 - np.logaddexp(0.0, -l) / np.log(2.0)
    return np.clip(np.sum(val * _HERM_W, axis=-1) / np.sqrt(2 * np.pi), 0.0, 1.0)


def gaussian_approximation_means(N: int, noise_var: float) -> np.ndarray:
    """Mean decision LLR of each sub-channel under density evolution.

    One tree level at a time: every node's check-node child comes from
    one elementwise _phi_inverse call over the whole level, and its
    variable-node child doubles the mean.
    """
    _check_power_of_two(N)
    mu = np.array([2.0 / noise_var])
    while len(mu) < N:
        nxt = np.empty(2 * len(mu))
        nxt[0::2] = _phi_inverse(1.0 - (1.0 - _phi(mu)) ** 2)
        nxt[1::2] = 2.0 * mu
        mu = nxt
    return mu


# --------------------------------------------------------------------------
# genie-aided Monte-Carlo estimator
# --------------------------------------------------------------------------

# LLRs per slice of a Monte-Carlo batch: the genie's level buffers of a
# 2^16-LLR slice (512 KB each) stay within a 2 MB L2 cache, and 2^16
# measured faster than 2^15 and 2^17 at N = 256
MC_CHUNK_LLRS = 1 << 16
MC_BATCH = 4096  # frames whose source bits one Monte-Carlo draw makes


def _mc_capacity_terms(llr_true_bit):
    """Per-trial capacity contribution 1 - log2(1 + exp(-L)) of the true bit."""
    return 1.0 - _softplus(-llr_true_bit) / np.log(2.0)


def monte_carlo_symmetric_capacity(N: int, noise_var: float, trials: int, rng):
    """Genie-aided SC capacity estimate of every sub-channel.

    Draws i.i.d. uniform source words, transmits them over the
    antipodal-AWGN symbol channel, and averages 1 - log2(1 + exp(-L_i))
    of the true-bit decision LLRs.  Each batch of MC_BATCH frames (the
    last one partial) draws its (b, N) source bits; then, on slices of
    max(1, MC_CHUNK_LLRS // N) frames (the last one partial), each slice
    draws its own standard normals before encoding, the genie and the
    sums.  numpy's Generator keeps no normal in reserve between calls,
    so the slices' normals are one (b, N) draw's, value for value, and
    the draws do not depend on the slice size.
    Returns (mean (N,), standard error (N,)).
    """
    _check_power_of_two(N)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    chunk = max(1, MC_CHUNK_LLRS // N)
    sigma = np.sqrt(noise_var)
    sum1 = np.zeros(N)
    sum2 = np.zeros(N)
    done = 0
    while done < trials:
        b = min(MC_BATCH, trials - done)
        u_batch = rng.integers(0, 2, size=(b, N), dtype=np.uint8)
        for s in range(0, b, chunk):
            u = u_batch[s : s + chunk]
            y = (1.0 - 2.0 * encode(u)) + rng.standard_normal(u.shape) * sigma
            dec = genie_decision_llrs(2.0 * y / noise_var, u)
            terms = _mc_capacity_terms((1.0 - 2.0 * u) * dec)
            sum1 += terms.sum(axis=0)
            sum2 += (terms**2).sum(axis=0)
        done += b
    mean = sum1 / trials
    var = np.maximum(sum2 / trials - mean**2, 0.0)
    return mean, np.sqrt(var / trials)


def estimate_symmetric_reliability(N: int, snr_db: float, rolloff: float) -> np.ndarray:
    """Per-index symmetric capacity in [0, 1], an (N,) array, from the
    Gaussian approximation (deterministic)."""
    noise_var = snr_db_to_noise_var(snr_db, rolloff)
    return _capacity_from_mean_llr(gaussian_approximation_means(N, noise_var))


# --------------------------------------------------------------------------
# information index selection
# --------------------------------------------------------------------------

# the selection criteria of a shaped code, in the row order of mcsc.csv
CRITERIA = ("cis-constrained", "symmetric")


def select_code(capacity, K: int, r: int | None = None,
                criterion: str = "symmetric") -> CodeConfig:
    """The code of length len(capacity) whose K information indices are the
    most reliable candidates.

    Candidates are all indices for a conventional code (r None, either
    criterion), the shaping set cis(r) ranked by raw symmetric capacity for
    "symmetric", and the top half {N/2,...,N-1} for "cis-constrained",
    whose picks are then mapped into the shaping set: by the capacity
    identity the image carries the same constrained reliabilities.  Ties
    resolve to the smaller index, so selection is deterministic.
    """
    capacity = np.asarray(capacity, dtype=np.float64)
    N = len(capacity)
    if criterion not in CRITERIA:
        raise ValueError(f"unknown selection criterion {criterion!r}")
    spec = None if r is None else CisSpec(N, r)
    if spec is None:
        cand = np.arange(N, dtype=np.int64)
    elif criterion == "cis-constrained":
        cand = np.arange(N // 2, N, dtype=np.int64)
    else:
        cand = cis(spec)
    if K > len(cand):
        raise ValueError(f"K = {K} exceeds the {len(cand)} candidate indices"
                         + ("" if spec is None else
                            "; rate exceeds 1/2 under a shaping index set"))
    picks = cand[np.lexsort((cand, -capacity[cand]))[:K]]
    if spec is not None and criterion == "cis-constrained":
        picks = half_to_cis(spec, picks)
    return CodeConfig(N=N, r=r, A=picks)


def mcsc(code: CodeConfig, capacity) -> float:
    """Minimum constrained sub-channel capacity of the information set.

    The constrained capacity at a transmit index of a shaped code equals
    the symmetric capacity at its decoder-side index; for a conventional
    code A_dec is A, so it is the symmetric capacity itself.
    """
    return float(np.min(np.asarray(capacity)[code.A_dec]))
