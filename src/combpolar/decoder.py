"""Successive-cancellation (list) decoding over LLRs, plus the frame
decoder that permutes the received vector of a shaped code and decodes
with the top-half information set.

One successive-cancellation tree walk serves two leaf rules: SC (hard
decision) and SCL (fork and prune the list).  The genie (record the
decision LLR, feed back the true bit) runs on the all-zero word: on a
binary-input symmetric channel every source word's true-bit LLRs have
the same distribution.  It knows every decision up front (all 0), so
`genie_decision_llrs` sweeps the tree one level at a time instead, with
the walk's operations on the walk's operands.  An SCL prune copies no
buffer: it composes per-level row maps, which the walk applies only to
the buffers it reads again (lazy gathers), and keeps one row of
back-pointers per information bit, through which the best path is
traced once at the end.
All use the exact log-domain check-node update (soft XOR) and the exact
path metric ln(1 + exp(-(1-2u)L)), so with a list covering the whole
codebook the best path is maximum-likelihood.  Every decoder works on a
(B, N) batch of frames.  A fork keeps the first L of a stable sort of
its 2L candidates: a fast sort finds them, and only the rows with a
tie among their first L + 1 candidates are sorted again stably, so
every decision and metric is the stable sort's.  A soft XOR over more
than SOFT_XOR_SLICE elements runs in cache-sized slices of rows, bit
for bit the one-shot values.

`sc_decode_batch` and `scl_decode_batch` walk with a node plan, built
once per frozen mask: a subtree whose frozen pattern fixes the answer is
decoded whole from its input LLRs a, and its leaves are never visited.
By the bijection argument a subtree codeword x costs
sum ln(1 + exp(-(1-2x)a)), the sum of its leaf metrics.
- Rate-0 (all frozen): x = 0 (Alamdar-Yazdi and Kschischang, IEEE Commun.
  Lett. 2011).
- REP (all frozen but the last leaf): the one bit's LLR is the sum of a
  in the walk's own pairwise order, so it equals the leaf LLR bit for
  bit; under SCL the node is one fork with candidates x = 0 and x = 1
  (Sarkis et al., IEEE JSAC 2014).
- Rate-1 (no frozen leaf): x = hard decision of a, under SC and SCL(1).
SPC nodes and Rate-1 under a list stay off: Wagner's rule and the
min(L - 1, w) forks of a list Rate-1 node change decisions against the
leaf walk.  An engine built directly walks leaf by leaf, the reference
the node walk is checked against.
The two make the same decisions except on a tie, which the leaf walk
settles by bit 0 and a node by its own sums: a decision LLR of exactly
0, as when a long soft-XOR chain underflows, or list candidates equal
to rounding.

Inside the walk every buffer is laid out (width, B, paths): tree width
first, then the frames, then the list paths.  The LLRs enter once as the
bit-reversed transpose.  With frames on the contiguous axis, every ufunc
runs over at least B elements per call, also at the deep tree levels,
whose width is 1, 2 or 4 (the layout of software polar decoders that
put frames in the SIMD lanes: Le Gal, Leroux and Jego, IEEE TSP 2015).
The layout moves no bit: every ufunc sees the same operands in the same
order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .shaping import CodeConfig, receive_permutation
from .polar import _check_power_of_two, bit_reversal, transform

LLR_MAX = 40.0

_BIG = 1e300  # metric sentinel for not-yet-active list slots

RATE0, REP, RATE1 = 1, 2, 3  # node kinds of a plan; 0 walks on


def _softplus(z):
    """ln(1 + e^z) as max(z, 0) + ln(1 + e^-|z|), on numpy's vector exp and
    log1p; exact at +-inf, and e^-|z| only underflows to 0."""
    t = np.abs(z)
    np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
    t += np.maximum(z, 0.0)
    return t


def _softplus_pair(z):
    """(ln(1 + e^-z), ln(1 + e^z)), the two fork costs of a decision LLR z,
    sharing the term ln(1 + e^-|z|): bit for bit (_softplus(-z), _softplus(z))."""
    t = np.abs(z)
    np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
    m = np.negative(z)
    np.maximum(m, 0.0, out=m)
    m += t
    t += np.maximum(z, 0.0)
    return m, t


# elements per slice of a large soft_xor call: the slice's two operands,
# output and two scratch buffers (256 KB each) stay within a 2 MB L2
# cache.  On (h, 256, 32) operands, the level buffers of an L = 32 list
# walk at B = 256, a 2^19-element call cost 19.7 ns per element in one
# piece and 9.6-13 ns in 2^15-element slices (2-core Xeon VM, AVX-512);
# 2^14 measured the same, 2^13 slower on 2^15-element calls
SOFT_XOR_SLICE = 1 << 15


def soft_xor(a, b):
    """Exact check-node LLR combine: 2 atanh(tanh(a/2) tanh(b/2)).

    Stable form: sign(a)sign(b)min(|a|,|b|) plus correction terms in
    ln((1+e^{a+b})/(e^a+e^b)); the exponents |a+b| and |a-b| are
    nonnegative, so nothing overflows.  The operations run in the order
    of that formula, into the output and two scratch buffers of the
    call's own.  The sign comes from the product a b, whose sign bit is
    that of sign(a)sign(b) also where it underflows to 0 or overflows to
    inf; where min(|a|,|b|) is 0 the signed zero this may leave is
    cleared by the first correction term.  A call of more than
    SOFT_XOR_SLICE elements runs in slices of whole rows along axis 0,
    which changes no bit: every operation is elementwise.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    shape = np.broadcast(a, b).shape
    out = np.empty(shape)
    if out.size <= SOFT_XOR_SLICE:
        _soft_xor_into(a, b, out, np.empty(shape), np.empty(shape))
        return out
    if a.shape != shape or b.shape != shape:
        a, b = np.broadcast_arrays(a, b)
    step = max(1, SOFT_XOR_SLICE * shape[0] // out.size)  # rows per slice
    t, mn = np.empty((step,) + shape[1:]), np.empty((step,) + shape[1:])
    for s in range(0, shape[0], step):
        o = out[s : s + step]
        _soft_xor_into(a[s : s + step], b[s : s + step], o, t[: len(o)], mn[: len(o)])
    return out


def _soft_xor_into(a, b, out, t, mn):
    """soft_xor's formula on operands of out's shape, into out, with the
    scratch buffers t and mn."""
    np.minimum(np.abs(a, out=t), np.abs(b, out=mn), out=mn)
    with np.errstate(over="ignore"):
        np.multiply(a, b, out=out)
    np.copysign(mn, out, out=out)
    for c in (np.add(a, b, out=t), np.subtract(a, b, out=mn)):  # ln(1 + e^-|c|)
        np.log1p(np.exp(np.negative(np.abs(c, out=c), out=c), out=c), out=c)
    out += t
    out -= mn


def channel_llr(y, noise_var: float) -> np.ndarray:
    """LLR ln P(y|bit 0)/P(y|bit 1) for antipodal signaling in AWGN.

    noise_var is the per-dimension (real) variance of the symbol noise.
    Values are clamped to +/-LLR_MAX.
    """
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    llr = 2.0 * np.real(np.asarray(y)) / noise_var
    return np.clip(llr, -LLR_MAX, LLR_MAX)


def _fold(a):
    """Sum over the width axis in the walk's own pairwise order, s[h:] + s[:h]
    per level: the update a right child gets when its left sibling is 0."""
    while len(a) > 1:
        h = len(a) // 2
        a = a[h:] + a[:h]
    return a[0]


def node_plan(frozen, list_size: int) -> tuple:
    """The node kind (0, RATE0, REP or RATE1) of each of the 2^d nodes at
    every tree level d < n, node k covering leaves [k w, (k + 1) w) with
    w = N / 2^d; RATE1 only at list size 1 (SC).  Read top down, the
    first planned node on a branch is decoded whole."""
    return _node_plan(np.asarray(frozen, dtype=bool).tobytes(), list_size == 1)


@lru_cache(maxsize=32)
def _node_plan(mask: bytes, rate1: bool) -> tuple:
    frozen = np.frombuffer(mask, dtype=bool)
    plan = []
    for d in range(len(frozen).bit_length() - 1):
        nodes = frozen.reshape(1 << d, -1)
        kind = np.where(nodes[:, :-1].all(axis=1) & ~nodes[:, -1], REP, 0)
        kind[nodes.all(axis=1)] = RATE0
        if rate1:
            kind[~nodes.any(axis=1)] = RATE1
        plan.append(tuple(kind.tolist()))
    return tuple(plan)


# --------------------------------------------------------------------------
# the successive-cancellation walk; SC and SCL are its leaf rules
# --------------------------------------------------------------------------

class _Walk:
    """Depth-first successive-cancellation walk over compact per-level buffers.

    The (B, N) codeword-order LLRs enter once as the bit-reversed (leaf
    order) transpose, llr[0] of shape (N, B, 1).  Each tree level d keeps
    only the active node's LLRs llr[d] and the left-child partial sums
    uleft[d], shaped (width, B, paths), so the frames lie on the
    contiguous axis and a deep level's few LLRs per frame still make one
    long vector.  A buffer keeps a path axis of size 1 (broadcasting)
    while it does not depend on the path, and is never gathered.  A list
    prune (`_prune`) moves no buffer: it composes each level's pending
    (B, L) row map, and a level buffer is gathered through that map only
    where the walk reads it again (`_take`): llr[d] before the right
    child, uleft[d] at the combine.  llr[d+1] is computed afresh before
    each child, so the leaf level is always current.  SC never prunes.
    Every leaf returns its codeword bits, (1, B, paths), and so does a
    node of a `node_plan`, decoded whole from its input LLRs,
    (width, B, paths).  Subclasses read the leaf through `leaf_llrs` and
    move paths through `rows` and `gather`, so the layout stays inside this
    class.  The rules here are SC: hard decision, 0 at frozen leaves, exact
    path metric.
    """

    def __init__(self, llrs, frozen, list_size=1, plan=None):
        self.B, self.N = llrs.shape
        self.n = self.N.bit_length() - 1
        self.L = list_size
        self.frozen = frozen
        self.llr = [None] * (self.n + 1)
        self.llr[0] = llrs.T[bit_reversal(self.N)][:, :, None]  # leaf order, (N, B, 1)
        self.uleft = [None] * max(self.n, 1)
        self.pend = [None] * self.n  # (B, L) rows into a buffer's B*L (frame, path) pairs, or None
        self.pm = np.full((self.B, self.L), _BIG)
        self.pm[:, 0] = 0.0
        self.u_hat = np.zeros((self.B, self.N), dtype=np.uint8)
        self._zero = np.zeros((1, self.B, 1), dtype=np.uint8)
        self.plan = plan

    def run(self):
        self._node(0, 0)
        return self.u_hat, self.pm[:, 0]

    def _node(self, d, offset):
        if d == self.n:
            return self._leaf(offset)
        lam = self.llr[d]
        kind = self.plan[d][offset >> (self.n - d)] if self.plan else 0
        if kind:
            self.llr[d] = None  # read only here
            if kind == RATE0:
                return self._rate0(lam)
            return self._rep(lam, d, offset) if kind == REP else self._rate1(lam, offset)
        h = (self.N >> d) // 2
        self.llr[d + 1] = soft_xor(lam[:h], lam[h:])
        self.uleft[d] = self._node(d + 1, offset)
        lam = self._take(self.llr, d)  # pruned while the left subtree ran
        self.llr[d + 1] = lam[h:] + (1.0 - 2.0 * self.uleft[d]) * lam[:h]
        cw_r = self._node(d + 1, offset + h)
        u_l = self._take(self.uleft, d)  # pruned while the right subtree ran
        return np.concatenate(np.broadcast_arrays(u_l ^ cw_r, cw_r), axis=0)

    def leaf_llrs(self):
        """The current leaf's LLRs, (B, paths)."""
        return self.llr[self.n][0]

    def rows(self, src):
        """(B, L) rows that make path src[b, j] of frame b its path j."""
        return np.arange(0, self.B * self.L, self.L)[:, None] + src

    def gather(self, buf, rows):
        """A level buffer with its (frame, path) pairs gathered through (B, L)
        rows; a buffer that does not depend on the path comes back as is."""
        if buf.shape[2] == 1:
            return buf
        return np.take(buf.reshape(len(buf), self.B * self.L), rows, axis=1)

    def _take(self, bufs, d):
        """Take level d's buffer out of `bufs` for its last read, gathered
        through the level's pending row map, which is cleared.  A level has
        one live buffer at a time, and the stale copy is freed here."""
        buf, bufs[d] = bufs[d], None
        rows, self.pend[d] = self.pend[d], None
        return buf if rows is None else self.gather(buf, rows)

    def _prune(self, src, levels):
        """Make path src[b, j] of frame b its path j, at B*L cost per level,
        for the levels above the pruning node, the only ones read again."""
        flat = self.rows(src)
        for d in range(levels):
            rows = self.pend[d]
            self.pend[d] = flat if rows is None else np.take(rows, flat)

    def _leaf(self, offset):
        dm = self.leaf_llrs()
        if self.frozen[offset]:
            self.pm = self.pm + _softplus(-dm)
            return self._zero
        bit = (dm < 0).astype(np.uint8)
        self.pm = self.pm + _softplus(-(1.0 - 2.0 * bit) * dm)
        self.u_hat[:, offset] = bit[:, 0]
        return bit[None]

    def _rate0(self, lam):
        self.pm = self.pm + _fold(_softplus(-lam))
        return np.broadcast_to(self._zero, (len(lam), self.B, 1))

    def _rep(self, lam, d, offset):
        bit = (_fold(lam) < 0).astype(np.uint8)  # the last leaf's LLR, bit for bit
        self.pm = self.pm + _fold(_softplus(-(1.0 - 2.0 * bit) * lam))
        self.u_hat[:, offset + len(lam) - 1] = bit[:, 0]
        return np.broadcast_to(bit, lam.shape)

    def _rate1(self, lam, offset):
        x = (lam < 0).astype(np.uint8)
        self.pm = self.pm + _fold(_softplus(-np.abs(lam)))
        self.u_hat[:, offset : offset + len(lam)] = transform(x[:, :, 0].T)  # x F^m = u
        return x


def _decoder_inputs(llrs, frozen_mask=None):
    """Checked (B, N) float LLRs in codeword order, and the boolean frozen
    mask of length N when one is given."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    N = llrs.shape[1]
    _check_power_of_two(N)
    frozen = None if frozen_mask is None else np.asarray(frozen_mask, dtype=bool)
    if frozen is not None and len(frozen) != N:
        raise ValueError(f"frozen mask length {len(frozen)} != N = {N}")
    return llrs, frozen


def sc_decode_batch(llrs: np.ndarray, frozen_mask: np.ndarray):
    """SC-decode a (B, N) batch; returns (source bits (B, N), metrics (B,))."""
    llrs, frozen = _decoder_inputs(llrs, frozen_mask)
    return _Walk(llrs, frozen, plan=node_plan(frozen, 1)).run()


def genie_decision_llrs(llrs: np.ndarray) -> np.ndarray:
    """Per-index SC decision LLRs of the all-zero source word.

    llrs is (B, N) in codeword order.  Output column i is the LLR the
    decoder would see for source bit i if all previous decisions were
    correct and the word sent was all-zero.  On a binary-input symmetric
    channel the true-bit LLR (1 - 2u_i) L_i has the same distribution for
    every source word (Arikan, IEEE Trans. IT 2009), so this is all the
    genie-aided estimator needs.

    With every decision known, the walk's order no longer matters, so the
    tree is swept one level at a time.  Buffers are laid out (width,
    nodes, B): a level's nodes sit side by side, the left children of
    one level first, then the right ones, so node position p at level d
    is node bitrev_d(p), and the leaves come out in bit-reversed order.
    Each level makes one soft_xor call for all left children and one
    update b + a for all right ones: the walk's operations on the walk's
    operands with every partial sum 0, so the result is the walk's bit
    for bit.
    """
    llrs, _ = _decoder_inputs(llrs)
    rev = bit_reversal(llrs.shape[1])
    lam = llrs.T[rev][:, None]  # level 0: (N, 1, B)
    while len(lam) > 1:
        h = len(lam) // 2
        a, b = lam[:h], lam[h:]
        lam = np.concatenate([soft_xor(a, b), b + a], axis=1)
    return np.ascontiguousarray(lam[0][rev].T)


class _SclEngine(_Walk):
    """SCL leaf rule: every path forks at an information leaf and the L
    best of the 2L extensions survive; frozen leaves use the SC rule.  A
    REP node forks once, on its last leaf; Rate-0 nodes use the SC rule,
    and so do Rate-1 nodes, planned at L = 1 only, where SC's decision is
    the fork's.

    A fork keeps the first L of a stable sort of the 2L candidates, so a
    metric tie goes to the bit-0 extension of the earlier path.  It finds
    them with a fast sort, and sorts stably again only the rows with a
    tie among their first L + 1 (`_fork`).  The costs of both extensions
    share one ln(1 + e^-|z|) (`_softplus_pair`).

    Each fork keeps the survivors' sort positions among the 2L
    candidates, in the smallest unsigned dtype that holds 2L - 1:
    position >= L is the path's bit, position % L its parent path.  The
    best path's bits are traced back through them once, at the end.
    """

    def __init__(self, llrs, frozen, list_size, plan=None):
        super().__init__(llrs, frozen, list_size, plan)
        self.back = []  # (info index, (B, L) sort positions) per information leaf
        self.back_dtype = np.min_scalar_type(2 * list_size - 1)
        self.cand_rows = np.arange(0, self.B * 2 * list_size, 2 * list_size)[:, None]

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
        return self._fork(*_softplus_pair(self.leaf_llrs()), offset, self.n)[None]

    def _rep(self, lam, d, offset):
        w = len(lam)
        cost0, cost1 = _softplus_pair(lam)
        bits = self._fork(_fold(cost0), _fold(cost1), offset + w - 1, d)
        return np.broadcast_to(bits, (w, self.B, self.L))

    def _fork(self, cost0, cost1, offset, levels):
        """Extend every path by bit `offset` at costs (B, paths) for 0 and
        1, keep the L best, and return the survivors' bits (B, L).

        The survivors are the first L of a stable sort of the 2L
        candidates.  numpy's default (SIMD) sort finds them on every row
        whose first L + 1 sorted values rise strictly: then its first L
        are unique, in the stable sort's order.  The other rows (exact
        ties, the _BIG sentinels of a list not yet full, +-0, NaN) are
        sorted again stably.  The choice is made row by row, so no frame
        depends on its batch."""
        cand = np.concatenate([self.pm + cost0, self.pm + cost1], axis=1)
        order = np.argsort(cand, axis=1)[:, : self.L + 1]
        top = np.take(cand, order + self.cand_rows)
        tied = np.flatnonzero(~(top[:, 1:] > top[:, :-1]).all(axis=1))
        order = order[:, : self.L]
        if tied.size:
            order[tied] = np.argsort(cand[tied], axis=1, kind="stable")[:, : self.L]
        self.pm = np.take(cand, order + self.cand_rows)
        back = order.astype(self.back_dtype)
        self._prune(back % self.L, levels)
        self.back.append((offset, back))
        return (back >= self.L).astype(np.uint8)


def scl_decode_batch(llrs: np.ndarray, frozen_mask: np.ndarray, list_size: int):
    """SCL-decode a (B, N) batch with the exact path metric.

    Returns (source bits (B, N) of the best path, its metric (B,)).
    Candidate pruning keeps the first L of a stable sort, so metric ties
    resolve to the bit-0 extension of the earlier-ranked path:
    deterministic output.  A fast sort finds them, and only rows with a
    tie among their first L + 1 candidates are sorted again stably.
    """
    if list_size < 1:
        raise ValueError(f"list size must be >= 1, got {list_size}")
    llrs, frozen = _decoder_inputs(llrs, frozen_mask)
    return _SclEngine(llrs, frozen, list_size, node_plan(frozen, list_size)).run()


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
    Returns the information bits (B, K).
    """
    y = np.atleast_2d(np.asarray(y))
    if y.shape[1] != config.N:
        raise ValueError(f"expected {config.N} symbols per frame, got {y.shape[1]}")
    if config.r is not None:
        y = y[:, receive_permutation(config.spec)]
    llrs = channel_llr(y, noise_var)
    frozen = config.frozen_mask()
    if list_size == 1:
        u_hat, _ = sc_decode_batch(llrs, frozen)
    else:
        u_hat, _ = scl_decode_batch(llrs, frozen, list_size)
    return u_hat[:, config.A_dec]
