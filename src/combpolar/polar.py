"""Polar generator-matrix algebra and encoding.

Bit words are plain numpy uint8 arrays of 0/1 values; permutations are
numpy int64 index arrays.  The generator matrix convention is
G_N = B_N F^m = F^m B_N with F = [[1, 0], [1, 1]] and B_N the bit-reversal
permutation.  Bit d of an index means the d-th least-significant bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _check_power_of_two(N: int) -> int:
    """Return log2(N), raising if N is not a positive power of two."""
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"length must be a power of two >= 2, got {N}")
    return N.bit_length() - 1


@lru_cache(maxsize=None)
def bit_reversal(N: int) -> np.ndarray:
    """Bit-reversal permutation of {0,...,N-1} over log2(N) bit positions.

    Built once per N and returned read-only: every encode and decoder walk
    gathers with it.
    """
    m = _check_power_of_two(N)
    idx = np.arange(N, dtype=np.int64)
    rev = np.zeros(N, dtype=np.int64)
    for d in range(m):
        rev |= ((idx >> d) & 1) << (m - 1 - d)
    rev.flags.writeable = False
    return rev


def generator_matrix(N: int) -> np.ndarray:
    """Full N x N generator matrix from its closed form, without `transform`.

    Entry (i, j) is 0 iff some bit position d has i_d = 0 and j_{m-d-1} = 1,
    that is iff the bit reversal of j has a one where i has a zero.
    """
    i = np.arange(N, dtype=np.int64)
    return ((bit_reversal(N)[None, :] & ~i[:, None]) == 0).astype(np.uint8)


# the first three stages of `transform` inside little-endian 64-bit words of
# eight bytes: stage d shifts byte j + 2^d onto byte j and keeps the bytes
# whose index in the word has bit d clear
_WORD_STAGES = tuple((np.uint64(8 << d), np.uint64(mask)) for d, mask in
                     enumerate((0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)))


def transform(u: np.ndarray) -> np.ndarray:
    """u F^m over GF(2) along the last axis, in natural order, in O(N log N).

    An involution: transform(transform(u)) == u.
    """
    u = np.asarray(u)
    N = u.shape[-1]
    _check_power_of_two(N)
    v = u.astype(np.uint8, order="C")  # a copy; splitting its last axis gives views
    # supersets transform: v_j = XOR of u_i over i whose support covers j;
    # stage d pairs j with j + 2^d for every j whose bit d is 0.  From N = 8
    # on, the stages within a word of eight bytes run on 64-bit words, and
    # the later ones pair whole words.
    w = v
    if N >= 8:
        w = v.view("<u8")
        for shift, mask in _WORD_STAGES:
            w ^= (w >> shift) & mask
    n = w.shape[-1]
    for d in range(n.bit_length() - 1):
        pairs = w.reshape(w.shape[:-1] + (n >> (d + 1), 2, 1 << d))
        pairs[..., 0, :] ^= pairs[..., 1, :]
    return v


def encode(u: np.ndarray) -> np.ndarray:
    """Encode a source word: x = u G_N over GF(2), in O(N log N).

    `transform` computes u F^m in natural order; the bit-reversal factor
    is applied as a final gather.  The encoder is an involution, so
    encode(encode(u)) == u.
    """
    u = np.asarray(u)
    return transform(u)[..., bit_reversal(u.shape[-1])]


def assemble_source(info_bits: np.ndarray, A: np.ndarray, N: int) -> np.ndarray:
    """Scatter info bits (..., K) into source words (..., N), zeros elsewhere.

    `A` must be the ascending information index set; info_bits[..., k] is
    placed at index A[k].
    """
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    A = np.asarray(A, dtype=np.int64)
    _check_power_of_two(N)
    if info_bits.shape[-1] != len(A):
        raise ValueError(
            f"info length {info_bits.shape[-1]} != |A| = {len(A)}"
        )
    u = np.zeros(info_bits.shape[:-1] + (N,), dtype=np.uint8)
    u[..., A] = info_bits
    return u
