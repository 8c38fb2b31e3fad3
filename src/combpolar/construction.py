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

from dataclasses import dataclass

import numpy as np

from .shaping import CisSpec, CodeConfig, cis_to_half, half_to_cis
from .decoder import genie_decision_llrs
from .polar import _check_power_of_two, encode

DEFAULT_ROLLOFF = 0.25


def snr_db_to_noise_var(snr_db: float, rolloff: float = DEFAULT_ROLLOFF) -> float:
    """Per-dimension symbol noise variance for a given in-band SNR.

    The band is the symbol-rate width; an SRRC pulse keeps 1 - rolloff/4
    of its energy inside it.
    """
    return (1.0 - rolloff / 4.0) / (2.0 * 10 ** (snr_db / 10))


@dataclass
class ReliabilityProfile:
    """Per-index symmetric sub-channel capacity estimates in [0, 1]."""

    N: int
    snr_db: float
    method: str
    capacity: np.ndarray
    std_err: np.ndarray | None = None

    def __post_init__(self):
        self.capacity = np.asarray(self.capacity, dtype=np.float64)
        if len(self.capacity) != self.N:
            raise ValueError("capacity vector length must equal N")
        if np.any(self.capacity < 0) or np.any(self.capacity > 1):
            raise ValueError("capacities must lie in [0, 1]")


# --------------------------------------------------------------------------
# Gaussian-approximation density evolution
# --------------------------------------------------------------------------

def _phi(x):
    """E[tanh(L/2)]-style reliability functional of a consistent Gaussian.

    Piecewise curve fit; clipped to [0, 1] because the small-argument
    branch overshoots 1 slightly as x -> 0.
    """
    x = np.asarray(x, dtype=np.float64)
    small = (x >= 0) & (x < 10)
    out = np.empty_like(x)
    out[small] = np.exp(-0.4527 * x[small] ** 0.859 + 0.0218)
    xl = x[~small]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~small] = np.sqrt(np.pi / xl) * np.exp(-xl / 4) * (1 - 10.0 / (7 * xl))
    return np.clip(out, 0.0, 1.0)


def _phi_inverse(y):
    """Invert the monotone-decreasing _phi elementwise by bisection.

    Each element follows the same rule: y >= 1 gives 0; otherwise the
    upper end starts at 1 and doubles while _phi stays above y (an end
    past 1e9 is returned as is), then 80 bisection steps on [0, end]
    run for all elements at once.
    """
    y = np.asarray(y, dtype=np.float64)
    shape, y = y.shape, y.ravel()
    hi = np.ones_like(y)
    grow = np.flatnonzero((y < 1.0) & (_phi(hi) > y))
    while grow.size:
        hi[grow] *= 2
        grow = grow[hi[grow] <= 1e9]
        grow = grow[_phi(hi[grow]) > y[grow]]
    escaped = hi > 1e9
    lo = np.zeros_like(y)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = _phi(mid) > y
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    x = np.where(escaped, hi, 0.5 * (lo + hi))
    return np.where(y >= 1.0, 0.0, x).reshape(shape)


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

def _mc_capacity_terms(llr_true_bit):
    """Per-trial capacity contribution 1 - log2(1 + exp(-L)) of the true bit."""
    return 1.0 - np.logaddexp(0.0, -llr_true_bit) / np.log(2.0)


def monte_carlo_symmetric_capacity(
    N: int,
    noise_var: float,
    trials: int,
    rng,
    batch: int = 4096,
):
    """Genie-aided SC capacity estimate of every sub-channel.

    Draws i.i.d. uniform source words, transmits them over the
    antipodal-AWGN symbol channel, and averages 1 - log2(1 + exp(-L_i))
    of the true-bit decision LLRs.
    Returns (mean (N,), standard error (N,)).
    """
    _check_power_of_two(N)
    sum1 = np.zeros(N)
    sum2 = np.zeros(N)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        u = rng.integers(0, 2, size=(b, N), dtype=np.uint8)
        x = encode(u)
        y = (1.0 - 2.0 * x) + rng.standard_normal((b, N)) * np.sqrt(noise_var)
        llr = 2.0 * y / noise_var
        dec = genie_decision_llrs(llr, u)
        terms = _mc_capacity_terms((1.0 - 2.0 * u) * dec)
        sum1 += terms.sum(axis=0)
        sum2 += (terms**2).sum(axis=0)
        done += b
    mean = sum1 / trials
    var = np.maximum(sum2 / trials - mean**2, 0.0)
    return mean, np.sqrt(var / trials)


def estimate_symmetric_reliability(
    N: int,
    snr_db: float,
    method: str = "gaussian-approximation",
    trials: int = 200_000,
    rng=None,
    rolloff: float = DEFAULT_ROLLOFF,
) -> ReliabilityProfile:
    """Build a per-index symmetric-capacity profile.

    method is "gaussian-approximation" (deterministic) or
    "monte-carlo-genie" (genie-aided estimate from `trials` source words).
    """
    noise_var = snr_db_to_noise_var(snr_db, rolloff)
    if method == "gaussian-approximation":
        cap = _capacity_from_mean_llr(gaussian_approximation_means(N, noise_var))
        return ReliabilityProfile(N, snr_db, method, cap)
    if method == "monte-carlo-genie":
        if rng is None:
            rng = np.random.default_rng(0)
        mean, se = monte_carlo_symmetric_capacity(N, noise_var, trials, rng)
        return ReliabilityProfile(N, snr_db, method, np.clip(mean, 0.0, 1.0), std_err=se)
    raise ValueError(f"unknown reliability method {method!r}")


# --------------------------------------------------------------------------
# information index selection
# --------------------------------------------------------------------------

def select_symmetric(profile: ReliabilityProfile, K: int, restrict) -> np.ndarray:
    """The K indices of `restrict` with the largest capacity, ascending.

    Ties resolve to the smaller index, so selection is deterministic.
    """
    restrict = np.asarray(restrict, dtype=np.int64)
    if K > len(restrict):
        raise ValueError(f"K = {K} exceeds candidate set size {len(restrict)}")
    cap = profile.capacity[restrict]
    order = np.lexsort((restrict, -cap))
    return np.sort(restrict[order[:K]])


def select_cis_constrained(profile: ReliabilityProfile, K: int, spec: CisSpec) -> CodeConfig:
    """Construct a shaped code: best top-half indices mapped into the set.

    The decoder-side set is the K most reliable of {N/2,...,N-1}; the
    transmit-side information set is its forward-map image, which by the
    capacity identity carries the same constrained reliabilities.
    """
    N = profile.N
    if K > N // 2:
        raise ValueError("rate exceeds 1/2 under a shaping index set")
    upper = np.arange(N // 2, N, dtype=np.int64)
    a_dec = select_symmetric(profile, K, upper)
    A = np.sort(half_to_cis(spec, a_dec))
    return CodeConfig(N=N, K=K, r=spec.r, A=A)


def select_symmetric_in_cis(profile: ReliabilityProfile, K: int, spec: CisSpec) -> CodeConfig:
    """Baseline shaped code: K best indices inside the shaping set by raw
    symmetric capacity (ignores the constrained-capacity reindexing)."""
    from .shaping import cis as cis_set

    if K > profile.N // 2:
        raise ValueError("rate exceeds 1/2 under a shaping index set")
    A = select_symmetric(profile, K, cis_set(spec))
    return CodeConfig(N=profile.N, K=K, r=spec.r, A=A)


def select_conventional(profile: ReliabilityProfile, K: int) -> CodeConfig:
    """Unshaped code: K most reliable indices over all of {0,...,N-1}."""
    A = select_symmetric(profile, K, np.arange(profile.N, dtype=np.int64))
    return CodeConfig(N=profile.N, K=K, r=None, A=A)


def mcsc(config: CodeConfig, profile: ReliabilityProfile) -> float:
    """Minimum constrained sub-channel capacity of the information set.

    For a shaped code the constrained capacity at transmit index i equals
    the symmetric capacity at the inverse-mapped index; for a conventional
    code it is the symmetric capacity itself.
    """
    if profile.N != config.N:
        raise ValueError("profile and code lengths differ")
    if config.r is None:
        return float(np.min(profile.capacity[config.A]))
    dec = cis_to_half(config.spec, config.A)
    return float(np.min(profile.capacity[dec]))
