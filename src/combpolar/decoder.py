"""Successive-cancellation (list) decoding over LLRs, plus the frame
decoder that permutes the received vector of a shaped code and decodes
with the top-half information set.

One successive-cancellation tree walk serves three leaf rules: SC (hard
decision), the genie (record the decision LLR, feed back the true bit)
and SCL (fork, prune and gather the list).  All use the exact log-domain
check-node update (soft XOR) and the exact path metric
ln(1 + exp(-(1-2u)L)), so with a list covering the whole codebook the best
path is maximum-likelihood.  Every decoder works on a (B, N) batch of
frames.
"""

from __future__ import annotations

import numpy as np

from .shaping import CodeConfig, receive_permutation
from .polar import _check_power_of_two, bit_reversal

LLR_MAX = 40.0

_BIG = 1e300  # metric sentinel for not-yet-active list slots


def _softplus(z):
    return np.logaddexp(0.0, z)


def soft_xor(a, b):
    """Exact check-node LLR combine: 2 atanh(tanh(a/2) tanh(b/2)).

    Stable form: sign(a)sign(b)min(|a|,|b|) plus correction terms in
    ln((1+e^{a+b})/(e^a+e^b)); the exponents |a+b| and |a-b| are
    nonnegative, so nothing overflows.
    """
    s = np.sign(a) * np.sign(b)
    mn = np.minimum(np.abs(a), np.abs(b))
    return s * mn + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def channel_llr(y, noise_var: float) -> np.ndarray:
    """LLR ln P(y|bit 0)/P(y|bit 1) for antipodal signaling in AWGN.

    noise_var is the per-dimension (real) variance of the symbol noise.
    Values are clamped to +/-LLR_MAX.
    """
    if noise_var <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    llr = 2.0 * np.real(np.asarray(y)) / noise_var
    return np.clip(llr, -LLR_MAX, LLR_MAX)


# --------------------------------------------------------------------------
# the successive-cancellation walk; SC, the genie and SCL are its leaf rules
# --------------------------------------------------------------------------

class _Walk:
    """Depth-first successive-cancellation walk over compact per-level buffers.

    Each tree level keeps only the active node's LLRs and the left-child
    partial sums, shaped (B, paths, width).  A buffer keeps a path axis of
    size 1 (broadcasting) while it does not depend on the path, and the
    prune gather skips it.  Every leaf returns its codeword bits.  The leaf
    rule here is SC: hard decision, 0 at frozen leaves, exact path metric.
    """

    def __init__(self, lam0, frozen, list_size=1):
        self.B, self.N = lam0.shape
        self.n = self.N.bit_length() - 1
        self.L = list_size
        self.frozen = frozen
        self.llr = [None] * (self.n + 1)
        self.llr[0] = lam0[:, None, :]
        self.uleft = [None] * max(self.n, 1)
        self.hist = np.zeros((self.B, self.L, self.N), dtype=np.uint8)
        self.pm = np.full((self.B, self.L), _BIG)
        self.pm[:, 0] = 0.0
        self._zero = np.zeros((self.B, 1, 1), dtype=np.uint8)

    def run(self):
        self._node(0, 0)
        best = np.argmin(self.pm, axis=1)
        rows = np.arange(self.B)
        return self.hist[rows, best], self.pm[rows, best]

    def _node(self, d, offset):
        if d == self.n:
            return self._leaf(offset)
        lam = self.llr[d]
        h = (self.N >> d) // 2
        self.llr[d + 1] = soft_xor(lam[..., :h], lam[..., h:])
        self.uleft[d] = self._node(d + 1, offset)
        lam = self.llr[d]  # reread: pruned while the left subtree ran
        self.llr[d + 1] = lam[..., h:] + (1.0 - 2.0 * self.uleft[d]) * lam[..., :h]
        cw_r = self._node(d + 1, offset + h)
        return np.concatenate(np.broadcast_arrays(self.uleft[d] ^ cw_r, cw_r), axis=2)

    def _leaf(self, offset):
        dm = self.llr[self.n][:, :, 0]
        if self.frozen[offset]:
            self.pm = self.pm + _softplus(-dm)
            return self._zero
        bit = (dm < 0).astype(np.uint8)
        self.pm = self.pm + _softplus(-(1.0 - 2.0 * bit) * dm)
        self.hist[:, :, offset] = bit
        return bit[:, :, None]


def _decoder_inputs(llrs, frozen_mask=None):
    """Checked (B, N) float LLRs in the walk's leaf (bit-reversed) order, and
    the boolean frozen mask of length N when one is given."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    N = llrs.shape[1]
    _check_power_of_two(N)
    frozen = None if frozen_mask is None else np.asarray(frozen_mask, dtype=bool)
    if frozen is not None and len(frozen) != N:
        raise ValueError(f"frozen mask length {len(frozen)} != N = {N}")
    return llrs[:, bit_reversal(N)], frozen


def sc_decode_batch(llrs: np.ndarray, frozen_mask: np.ndarray):
    """SC-decode a (B, N) batch; returns (source bits (B, N), metrics (B,))."""
    return _Walk(*_decoder_inputs(llrs, frozen_mask)).run()


class _GenieWalk(_Walk):
    """Genie leaf rule: record the leaf LLR, feed back the true bit."""

    def __init__(self, lam0, u_true):
        super().__init__(lam0, None)
        self.u = u_true
        self.dec = np.empty((self.B, self.N))

    def run(self):
        self._node(0, 0)
        return self.dec

    def _leaf(self, offset):
        self.dec[:, offset] = self.llr[self.n][:, 0, 0]
        return self.u[:, offset, None, None]


def genie_decision_llrs(llrs: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Per-index SC decision LLRs given the true preceding source bits.

    llrs is (B, N) in codeword order; u_true is the (B, N) source batch.
    Output column i is the LLR the decoder would see for source bit i if
    all previous decisions were correct.
    """
    lam, _ = _decoder_inputs(llrs)
    return _GenieWalk(lam, np.atleast_2d(np.asarray(u_true, dtype=np.uint8))).run()


class _SclEngine(_Walk):
    """SCL leaf rule: every path forks at an information leaf and the L
    best of the 2L extensions survive; frozen leaves use the SC rule."""

    def _leaf(self, offset):
        if self.frozen[offset]:
            return super()._leaf(offset)
        dm = self.llr[self.n][:, :, 0]
        cand = np.concatenate([self.pm + _softplus(-dm), self.pm + _softplus(dm)], axis=1)
        order = np.argsort(cand, axis=1, kind="stable")[:, : self.L]
        src = order % self.L
        self.pm = np.take_along_axis(cand, order, axis=1)
        self._gather(src)
        self.hist[:, :, offset] = (order >= self.L).astype(np.uint8)
        return self.hist[:, :, offset : offset + 1]

    def _gather(self, src):
        rows = np.arange(self.B)[:, None]
        for buf in (self.llr, self.uleft):
            for d, arr in enumerate(buf):
                if arr is not None and arr.shape[1] == self.L:
                    buf[d] = arr[rows, src]
        self.hist = self.hist[rows, src]


def scl_decode_batch(llrs: np.ndarray, frozen_mask: np.ndarray, list_size: int):
    """SCL-decode a (B, N) batch with the exact path metric.

    Returns (source bits (B, N) of the best path, its metric (B,)).
    Candidate pruning uses a stable sort, so metric ties resolve to the
    bit-0 extension of the earlier-ranked path: deterministic output.
    """
    if list_size < 1:
        raise ValueError(f"list size must be >= 1, got {list_size}")
    return _SclEngine(*_decoder_inputs(llrs, frozen_mask), list_size).run()


# --------------------------------------------------------------------------
# frame decoding: permute, decode with the decoder-side set, map back
# --------------------------------------------------------------------------

def ccd_decode_batch(y: np.ndarray, config: CodeConfig, noise_var: float, list_size: int):
    """Decode received symbols (B, N) of any code: SC at list size 1, SCL above.

    For a shaped code (config.r set) the received vector is gathered
    through the receive permutation, which turns the shaped frame into an
    ordinary top-half-coded frame; that is decoded with the decoder-side
    information set, and the information bits come back in transmit order
    (the index map preserves order).  With r=None there is no permutation
    and the decoder-side set is A itself, which is plain decoding.
    Returns (info bits (B, K), TX-domain source bits (B, N), metrics (B,)).
    """
    y = np.atleast_2d(np.asarray(y))
    if y.shape[1] != config.N:
        raise ValueError(f"expected {config.N} symbols per frame, got {y.shape[1]}")
    if config.r is not None:
        y = y[:, receive_permutation(config.spec)]
    llrs = channel_llr(y, noise_var)
    frozen = config.frozen_mask(decoder_side=True)
    if list_size == 1:
        u_hat, pm = sc_decode_batch(llrs, frozen)
    else:
        u_hat, pm = scl_decode_batch(llrs, frozen, list_size)
    info = u_hat[:, config.A_dec]
    source = np.zeros((y.shape[0], config.N), dtype=np.uint8)
    source[:, config.A] = info
    return info, source, pm
