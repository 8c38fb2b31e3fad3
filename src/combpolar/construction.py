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

    The piecewise curve fit of Chung, Richardson and Urbanke: the small
    branch exp(-0.4527 x^0.859 + 0.0218) for 0 <= x < 10, the large branch
    sqrt(pi / x) exp(-x / 4) (1 - 10 / (7 x)) elsewhere, one masked
    evaluation each, then clipped to [0, 1] because the small branch
    overshoots 1 slightly as x -> 0.  _phi falls on each branch and jumps
    up at x = 10.  The GA evaluates it on means mu >= 0.
    """
    x = np.asarray(x, dtype=np.float64)
    small = (x >= 0) & (x < 10)
    out = np.empty_like(x)
    out[small] = np.exp(-0.4527 * x[small] ** 0.859 + 0.0218)
    xl = x[~small]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~small] = np.sqrt(np.pi / xl) * np.exp(-xl / 4) * (1 - 10.0 / (7 * xl))
    return np.clip(out, 0.0, 1.0)


# _phi(10): y below it crosses _phi in the large branch (x >= 10).  _phi
# jumps up at x = 10, so a y in [_phi(10^-), _phi(10)) crosses it on both
# sides of 10; bisection of _phi from [0, 16] tests mid = 10 on its third
# step and keeps the crossing above, and so does _phi_root_estimate.
_PHI_AT_10 = float(_phi(10.0))
# _phi_inverse(0.0): bisection's result where _phi underflows to 0
_PHI_INVERSE_ZERO = float.fromhex("0x1.72d9806e49f26p+11")


def _phi_root_estimate(y):
    """The crossing x of _phi(x) = y, for an array of 0 < y < 1.

    From _PHI_AT_10 up the crossing is in the small branch (x < 10), whose
    curve inverts in closed form.  Below it the crossing is in the large
    branch: a fixed-point pass of x = 2 ln(pi / x) - 4 ln y from x = -4 ln y,
    then three Newton steps on ln _phi(x) - ln y, which reach float
    resolution from there.  Over the GA's inputs, y >= 2^-52, it agrees
    with bisection of _phi to about 1e-14 relative.
    """
    x = np.empty_like(y)
    small = y >= _PHI_AT_10
    x[small] = ((0.0218 - np.log(y[small])) / 0.4527) ** (1 / 0.859)
    ly = np.log(y[~small])
    xl = -4.0 * ly
    xl += 2.0 * np.log(np.pi / xl)
    c = 10.0 / 7.0
    for _ in range(3):
        g = 0.5 * np.log(np.pi / xl) - 0.25 * xl + np.log1p(-c / xl) - ly
        xl -= g / (-0.5 / xl - 0.25 + c / (xl * (xl - c)))
    x[~small] = xl
    return x


def _phi_inverse(y):
    """Invert _phi elementwise, with no search.

    y >= 1 gives 0, y == 0 gives _PHI_INVERSE_ZERO and 0 < y < 1 gives
    _phi_root_estimate(y); anything else (y < 0, NaN) gives NaN.  The GA
    passes y = 1 - (1 - p)^2 for p = _phi(mu) in [0, 1], which is 0 or at
    least 2^-52, so y in {0} and [2^-52, 1], where each result lies within
    about 1e-14 relative of the bisection of _phi that it replaces.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.where(y >= 1.0, 0.0, np.nan)
    x[y == 0.0] = _PHI_INVERSE_ZERO
    inside = (y > 0.0) & (y < 1.0)
    x[inside] = _phi_root_estimate(y[inside])
    return x


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


def select_code(capacity, K: int, r: int | None = None, *, criterion: str) -> CodeConfig:
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
