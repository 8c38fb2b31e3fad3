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


_BISECT_STEPS = 80  # the bisection's steps per element
# steps before which no fixed point can occur: until then the bracket's
# ends and midpoint are exact dyadics, so the midpoint lies strictly inside
_BISECT_UNCHECKED = 52
_REPLAY_STEPS = 50  # the most leading steps _replayed_bracket skips
# a step is replayed where its midpoint lies more than this times the root
# estimate r from r; _phi's rounding moves its crossing by about 1e-14 r
_REPLAY_MARGIN = 1e-12
# _phi(2^k) for k = 0..29, in ascending order: the grow phase's comparisons
_GROW_PHI = _phi(np.ldexp(1.0, np.arange(30)))[::-1].copy()
# _phi(10): the bisection's crossing lies in the large branch (x >= 10)
# exactly when y is below it.  _phi jumps up at x = 10, so a y just below
# it crosses once below 10 too, but every such y has the bracket [0, 16],
# whose third step tests mid = 10 and keeps the bracket above it.
_PHI_AT_10 = float(_phi(10.0))
# below this y, _phi's crossing nears where _phi underflows and its
# subnormal values lose bits, so the 1e-14 bound on its rounding fails
_REPLAY_MIN_Y = 1e-290
# _phi_inverse(0.0), the bisection's own result: _phi underflows to 0 there
_PHI_INVERSE_ZERO = float.fromhex("0x1.72d9806e49f26p+11")


def _phi_root_estimate(y):
    """The crossing x of _phi(x) = y that the bisection finds, to about
    1e-14 relative, for _REPLAY_MIN_Y <= y < 1.

    From _PHI_AT_10 up the crossing is in the small branch (x < 10), whose
    curve inverts in closed form.  Below it the crossing is in the large
    branch: a fixed-point pass of x = 2 ln(pi / x) - 4 ln y from x = -4 ln y,
    then three Newton steps on ln _phi(x) - ln y, which reach float
    resolution from there.
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


def _replayed_bracket(y, hi):
    """(lo, hi, t): the bracket after the bisection's first t steps on
    [0, hi], each step being one whose midpoint lies more than the margin
    from the root estimate, for y that _phi_root_estimate covers."""
    r = np.minimum(_phi_root_estimate(y), np.nextafter(hi, 0.0))
    margin = _REPLAY_MARGIN * r
    # the margin interval in units of the width after _REPLAY_STEPS steps:
    # its multiples of 2^j units, inside (0, hi), are the midpoints of step
    # _REPLAY_STEPS - 1 - j and earlier
    unit = np.ldexp(hi, -_REPLAY_STEPS)
    first = np.ceil((r - margin) / unit)
    last = np.minimum(np.floor((r + margin) / unit), 2.0 ** _REPLAY_STEPS - 1)
    # j: the largest with a multiple of 2^j in [first, last] (-1 when empty),
    # the highest bit in which first - 1 and last differ
    diff = (first - 1).astype(np.int64) ^ last.astype(np.int64)
    t = _REPLAY_STEPS - np.frexp(diff.astype(np.float64))[1]
    width = np.ldexp(hi, -t)
    lo = np.floor(r / width) * width
    return lo, lo + width, t


def _phi_inverse(y):
    """Invert the monotone-decreasing _phi elementwise by bisection.

    Each element follows the same rule: y >= 1 gives 0; otherwise the
    upper end starts at 1 and doubles while _phi stays above y (an end
    past 1e9 is returned as is), then at most 80 bisection steps on
    [0, end].  Every result keeps the bits of that rule; the work skips
    what is already decided:

    - The doubling is a lookup in _GROW_PHI, the same comparisons in the
      same order, and y == 0 gives _PHI_INVERSE_ZERO.
    - Replayed steps.  For _REPLAY_MIN_Y <= y < 1, each step s on the
      bisection's path has _phi(mid_s) > y exactly when mid_s lies below
      the crossing that _phi_root_estimate computes (see _PHI_AT_10 for
      the y that cross twice).  _phi's rounding moves that crossing by
      about 1e-14 relative (d ln _phi / d ln x >= 0.0187 wherever _phi <
      1), and the estimate r is as close, so a step whose midpoint lies
      more than _REPLAY_MARGIN * r from r goes the way mid_s < r says.
      Through step 50 the ends and midpoints are exact dyadics, so after t
      such steps on [0, 2^k] the bracket is lo = floor(r / w) * w,
      hi = lo + w with w = 2^k / 2^t (_replayed_bracket).  Bisection
      proper starts at the first step that is not so decided.
    - NaN and 0 < y < _REPLAY_MIN_Y start at step 0.
    - Each element runs its own remaining steps and leaves the loop at its
      last step or at a fixed point, a step that leaves (lo, hi) as they
      were: steps are deterministic, so a fixed point never moves again.
    """
    y = np.asarray(y, dtype=np.float64)
    shape, y = y.shape, y.ravel()
    # the grow phase: the count of _phi(2^k) above y, which is the first k
    # with _phi(2^k) <= y, or 30 (the end 2^30, past 1e9, is returned as
    # is).  NaN sorts above every entry, so its bracket stays [0, 1].
    k = _GROW_PHI.size - np.searchsorted(_GROW_PHI, y, side="right")
    hi = np.ldexp(1.0, k)
    x = np.where(y >= 1.0, 0.0, hi)
    x[y == 0.0] = _PHI_INVERSE_ZERO
    at = np.flatnonzero(~(y >= 1.0) & (y != 0.0) & (k < _GROW_PHI.size))
    y, hi = y[at], hi[at]
    lo = np.zeros_like(y)
    start = np.zeros(y.size, dtype=np.int64)
    replay = np.flatnonzero(y >= _REPLAY_MIN_Y)
    if replay.size:
        lo[replay], hi[replay], start[replay] = _replayed_bracket(y[replay], hi[replay])
    steps = _BISECT_STEPS - start
    # no element is at step _BISECT_UNCHECKED before this many steps, and
    # none runs out of steps before it, so until then no element leaves
    unchecked = _BISECT_UNCHECKED - start.max(initial=0)
    for i in range(steps.max(initial=0)):
        mid = 0.5 * (lo + hi)
        above = _phi(mid) > y
        if i >= unchecked:
            keep = mid != np.where(above, lo, hi)
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if i >= unchecked:
            keep &= steps > i + 1
            if not keep.all():
                done = ~keep
                x[at[done]] = 0.5 * (lo[done] + hi[done])
                at, lo, hi, y, steps = at[keep], lo[keep], hi[keep], y[keep], steps[keep]
                if not at.size:
                    break
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
