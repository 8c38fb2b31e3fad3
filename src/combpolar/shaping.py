"""Comb-shaping index sets and the order-preserving index map.

Confining the information indices of a polar code to the set of indices
whose r-th bit is 1 makes every codeword locally periodic, which puts
periodic nulls into the BPSK spectrum.  The index map (and its inverse)
links those indices to the top half {N/2,...,N-1}, preserving order, so
constrained sub-channel quality can be read off the unconstrained one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polar import _check_power_of_two, bit_reversal


@dataclass(frozen=True)
class CisSpec:
    """Code length N (power of two) and shaping order r in {0,...,log2(N)-1}."""

    N: int
    r: int

    def __post_init__(self):
        m = _check_power_of_two(self.N)
        if not (0 <= self.r <= m - 1):
            raise ValueError(
                f"shaping order must lie in [0, {m - 1}], got {self.r}"
            )

    @property
    def m(self) -> int:
        return self.N.bit_length() - 1


def cis(spec: CisSpec) -> np.ndarray:
    """Ascending index set {i : bit r of i is 1}; always N/2 indices."""
    i = np.arange(spec.N, dtype=np.int64)
    return i[((i >> spec.r) & 1) == 1]


def is_locally_periodic(seq, L: int, M: int) -> bool:
    """True iff seq is a succession of blocks, each L-periodic with M periods."""
    seq = np.asarray(seq)
    if L < 1 or M < 2:
        raise ValueError(f"need L >= 1 and M >= 2, got L={L}, M={M}")
    n = seq.shape[0]
    if n % (M * L) != 0:
        raise ValueError(f"length {n} not divisible by M*L = {M * L}")
    blocks = seq.reshape(n // (M * L), M, L)
    return bool(np.all(blocks == blocks[:, :1, :]))


def half_to_cis(spec: CisSpec, i) -> np.ndarray | int:
    """Forward index map; restricted to {N/2,...,N-1} it is an
    order-preserving bijection onto cis(spec)."""
    N, r = spec.N, spec.r
    i_arr = np.asarray(i, dtype=np.int64)
    if np.any(i_arr < 0) or np.any(i_arr >= N):
        raise ValueError(f"index out of range [0, {N})")
    half = N // 2
    out = (2 * ((i_arr % half) >> r) + i_arr // half) * (1 << r) + (i_arr % (1 << r))
    return out if i_arr.ndim else int(out)


def cis_to_half(spec: CisSpec, i) -> np.ndarray | int:
    """Inverse of half_to_cis; maps cis(spec) onto {N/2,...,N-1}."""
    N, r = spec.N, spec.r
    i_arr = np.asarray(i, dtype=np.int64)
    if np.any(i_arr < 0) or np.any(i_arr >= N):
        raise ValueError(f"index out of range [0, {N})")
    out = (i_arr >> (r + 1)) * (1 << r) + ((i_arr >> r) & 1) * (N // 2) + (i_arr % (1 << r))
    return out if i_arr.ndim else int(out)


def receive_permutation(spec: CisSpec) -> np.ndarray:
    """Gather table for permuting a received codeword vector.

    Relabeling the source word through the index map (u_rel[j] =
    u[map(j)]) corresponds on the codeword side to gathering through the
    same map conjugated by bit reversal, because the codeword domain is
    the bit-reversed image of the source domain.  The returned table t is
    used as y_permuted[j] = y[t[j]]; it turns a shaping-set-coded frame
    into a top-half-coded frame.

    The convention is pinned by exact GF(2) facts covered in the test
    suite: with P the matrix of the inverse index map and B the
    bit-reversal matrix, G P G = B P B (so the codeword-side image of the
    relabeling is itself a permutation), P G P_t = G for the table's
    matrix P_t, and encode(u[map_table]) == encode(u)[t] for every source
    word.
    """
    rev = bit_reversal(spec.N)
    return rev[half_to_cis(spec, rev)]


def permutation_matrix(mapping: np.ndarray) -> np.ndarray:
    """Explicit 0/1 matrix P with P[i, j] = 1 iff j == mapping[i]."""
    mapping = np.asarray(mapping, dtype=np.int64)
    N = len(mapping)
    if sorted(mapping.tolist()) != list(range(N)):
        raise ValueError("mapping is not a bijection on {0,...,N-1}")
    P = np.zeros((N, N), dtype=np.uint8)
    P[np.arange(N), mapping] = 1
    return P


@dataclass(frozen=True)
class CodeConfig:
    """Full identity of a (comb-shaping) polar code.

    A is the ascending information index set; for a shaped code (r given)
    A must lie inside cis(CisSpec(N, r)) and A_dec is its image under the
    inverse map, in {N/2,...,N-1}.  For a conventional code (r is None),
    A_dec equals A and the decoder applies no permutation.
    """

    N: int
    K: int
    r: int | None
    A: np.ndarray
    A_dec: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        _check_power_of_two(self.N)
        A = np.sort(np.asarray(self.A, dtype=np.int64))
        object.__setattr__(self, "A", A)
        if len(A) != self.K:
            raise ValueError(f"|A| = {len(A)} != K = {self.K}")
        if len(np.unique(A)) != len(A):
            raise ValueError("information indices must be distinct")
        if np.any(A < 0) or np.any(A >= self.N):
            raise ValueError("information indices out of range")
        if self.r is None:
            object.__setattr__(self, "A_dec", A)
            return
        spec = CisSpec(self.N, self.r)
        in_cis = ((A >> self.r) & 1) == 1
        if not np.all(in_cis):
            raise ValueError(
                f"information indices {A[~in_cis].tolist()} lie outside the "
                f"order-{self.r} shaping set"
            )
        if self.K > self.N // 2:
            raise ValueError("rate exceeds 1/2 under a shaping index set")
        a_dec = np.sort(cis_to_half(spec, A))
        if self.A_dec is None:
            object.__setattr__(self, "A_dec", a_dec)
        elif not np.array_equal(np.sort(np.asarray(self.A_dec)), a_dec):
            raise ValueError("A_dec is not the inverse-map image of A")

    @property
    def spec(self) -> CisSpec | None:
        return None if self.r is None else CisSpec(self.N, self.r)

    def frozen_mask(self, decoder_side: bool = False) -> np.ndarray:
        """Boolean mask, True at frozen indices (A or A_dec complement)."""
        mask = np.ones(self.N, dtype=bool)
        mask[self.A_dec if decoder_side else self.A] = False
        return mask


def index_set_text(indices: np.ndarray) -> str:
    """Ascending comma-separated serialization used in text reports."""
    return ",".join(str(int(i)) for i in np.sort(np.asarray(indices)))
