"""Successive-cancellation (list) decoding over LLRs, plus the frame
decoder that permutes the received vector of a shaped code and decodes
with the top-half information set.

One successive-cancellation tree walk serves three leaf rules: SC (hard
decision), the genie (record the decision LLR, feed back the true bit)
and SCL (fork and prune the list).  An SCL prune copies no buffer: it
composes per-level row maps, which the walk applies only to the buffers
it reads again (lazy gathers), and keeps one row of back-pointers per
information bit, through which the best path is traced once at the end.
All use the exact log-domain check-node update (soft XOR) and the exact
path metric ln(1 + exp(-(1-2u)L)), so with a list covering the whole
codebook the best path is maximum-likelihood.  Every decoder works on a
(B, N) batch of frames.
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
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    llr = 2.0 * np.real(np.asarray(y)) / noise_var
    return np.clip(llr, -LLR_MAX, LLR_MAX)


# --------------------------------------------------------------------------
# the successive-cancellation walk; SC, the genie and SCL are its leaf rules
# --------------------------------------------------------------------------

class _Walk:
    """Depth-first successive-cancellation walk over compact per-level buffers.

    Each tree level d keeps only the active node's LLRs llr[d] and the
    left-child partial sums uleft[d], shaped (B, paths, width).  A buffer
    keeps a path axis of size 1 (broadcasting) while it does not depend on
    the path, and is never gathered.  A list prune (`_prune`) moves no
    buffer: it composes each level's pending (B, L) row map, and a level
    buffer is gathered through that map only where the walk reads it again
    (`_take`): llr[d] before the right child, uleft[d] at the combine.
    llr[d+1] is computed afresh before each child, so the leaf level is
    always current.  SC and the genie never prune.  Every leaf returns its
    codeword bits.  The leaf rule here is SC: hard decision, 0 at frozen
    leaves, exact path metric.
    """

    def __init__(self, lam0, frozen, list_size=1):
        self.B, self.N = lam0.shape
        self.n = self.N.bit_length() - 1
        self.L = list_size
        self.frozen = frozen
        self.llr = [None] * (self.n + 1)
        self.llr[0] = lam0[:, None, :]
        self.uleft = [None] * max(self.n, 1)
        self.pend = [None] * self.n  # (B, L) rows into the (B*L, width) buffer, or None
        self.pm = np.full((self.B, self.L), _BIG)
        self.pm[:, 0] = 0.0
        self.u_hat = np.zeros((self.B, self.N), dtype=np.uint8)
        self._zero = np.zeros((self.B, 1, 1), dtype=np.uint8)

    def run(self):
        self._node(0, 0)
        return self.u_hat, self.pm[:, 0]

    def _node(self, d, offset):
        if d == self.n:
            return self._leaf(offset)
        lam = self.llr[d]
        h = (self.N >> d) // 2
        self.llr[d + 1] = soft_xor(lam[..., :h], lam[..., h:])
        self.uleft[d] = self._node(d + 1, offset)
        lam = self._take(self.llr, d)  # pruned while the left subtree ran
        self.llr[d + 1] = lam[..., h:] + (1.0 - 2.0 * self.uleft[d]) * lam[..., :h]
        cw_r = self._node(d + 1, offset + h)
        u_l = self._take(self.uleft, d)  # pruned while the right subtree ran
        return np.concatenate(np.broadcast_arrays(u_l ^ cw_r, cw_r), axis=2)

    def _take(self, bufs, d):
        """Take level d's buffer out of `bufs` for its last read, gathered
        through the level's pending row map, which is cleared.  A level has
        one live buffer at a time, and the stale copy is freed here."""
        buf, bufs[d] = bufs[d], None
        rows, self.pend[d] = self.pend[d], None
        if rows is None or buf.shape[1] == 1:
            return buf
        return np.take(buf.reshape(self.B * self.L, -1), rows, axis=0)

    def _prune(self, src):
        """Make path src[b, j] of frame b its path j, at B*L cost per level."""
        flat = np.arange(0, self.B * self.L, self.L)[:, None] + src
        for d, rows in enumerate(self.pend):
            self.pend[d] = flat if rows is None else np.take(rows, flat)

    def _leaf(self, offset):
        dm = self.llr[self.n][:, :, 0]
        if self.frozen[offset]:
            self.pm = self.pm + _softplus(-dm)
            return self._zero
        bit = (dm < 0).astype(np.uint8)
        self.pm = self.pm + _softplus(-(1.0 - 2.0 * bit) * dm)
        self.u_hat[:, offset] = bit[:, 0]
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
    best of the 2L extensions survive; frozen leaves use the SC rule.

    Each information leaf keeps the survivors' sort positions among the
    2L candidates, in the smallest unsigned dtype that holds 2L - 1:
    position >= L is the path's bit, position % L its parent path.  The
    best path's bits are traced back through them once, at the end.
    """

    def __init__(self, lam0, frozen, list_size):
        super().__init__(lam0, frozen, list_size)
        self.back = []  # (info index, (B, L) sort positions) per information leaf
        self.back_dtype = np.min_scalar_type(2 * list_size - 1)

    def run(self):
        self._node(0, 0)
        rows = np.arange(self.B)
        path = np.argmin(self.pm, axis=1)
        best_pm = self.pm[rows, path]
        for offset, order in reversed(self.back):
            pos = order[rows, path]
            self.u_hat[:, offset] = pos >= self.L
            path = pos % self.L
        return self.u_hat, best_pm

    def _leaf(self, offset):
        if self.frozen[offset]:
            return super()._leaf(offset)
        dm = self.llr[self.n][:, :, 0]
        cand = np.concatenate([self.pm + _softplus(-dm), self.pm + _softplus(dm)], axis=1)
        order = np.argsort(cand, axis=1, kind="stable")[:, : self.L]
        self.pm = np.take_along_axis(cand, order, axis=1)
        self._prune(order % self.L)
        self.back.append((offset, order.astype(self.back_dtype)))
        return (order >= self.L).astype(np.uint8)[:, :, None]


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
