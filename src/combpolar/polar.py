"""Polar generator-matrix algebra and encoding.

Bit words are plain numpy uint8 arrays of 0/1 values; permutations are
numpy int64 index arrays.  The generator matrix convention is
G_N = B_N F^m = F^m B_N with F = [[1, 0], [1, 1]] and B_N the bit-reversal
permutation.  Bit d of an index means the d-th least-significant bit.
"""

from __future__ import annotations

import numpy as np


def _check_power_of_two(N: int) -> int:
    """Return log2(N), raising if N is not a positive power of two."""
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"length must be a power of two >= 2, got {N}")
    return N.bit_length() - 1


def bit_reversal(N: int) -> np.ndarray:
    """Bit-reversal permutation of {0,...,N-1} over log2(N) bit positions."""
    m = _check_power_of_two(N)
    idx = np.arange(N, dtype=np.int64)
    rev = np.zeros(N, dtype=np.int64)
    for d in range(m):
        rev |= ((idx >> d) & 1) << (m - 1 - d)
    return rev


def generator_row(i: int, m: int) -> np.ndarray:
    """Row i of the N=2^m generator matrix as a length-N uint8 array.

    Evaluates the closed form: entry j is 0 iff some bit position d has
    i_d = 0 and j_{m-d-1} = 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    N = 1 << m
    if not (0 <= i < N):
        raise ValueError(f"row index must lie in [0, {N}), got {i}")
    j = np.arange(N, dtype=np.int64)
    row = np.ones(N, dtype=np.uint8)
    for d in range(m):
        if not ((i >> d) & 1):
            row &= (1 - ((j >> (m - d - 1)) & 1)).astype(np.uint8)
    return row


def generator_matrix(N: int) -> np.ndarray:
    """Full N x N generator matrix built row by row from the closed form."""
    m = _check_power_of_two(N)
    return np.stack([generator_row(i, m) for i in range(N)])


def encode(u: np.ndarray) -> np.ndarray:
    """Encode a source word: x = u G_N over GF(2), in O(N log N).

    The butterfly computes u F^m in natural order; the bit-reversal factor
    is applied as a final gather.  The transform is an involution, so
    encode(encode(u)) == u.
    """
    u = np.asarray(u)
    N = u.shape[-1]
    m = _check_power_of_two(N)
    v = u.astype(np.uint8).copy()
    # supersets transform: v_j = XOR of u_i over i whose support covers j
    for d in range(m):
        step = 1 << d
        idx = np.nonzero((np.arange(N) & step) == 0)[0]
        v[..., idx] ^= v[..., idx + step]
    return v[..., bit_reversal(N)]


def assemble_source(info_bits: np.ndarray, A: np.ndarray, N: int) -> np.ndarray:
    """Scatter K info bits into an N-length source word, zeros elsewhere.

    `A` must be the ascending information index set; info_bits[k] is placed
    at index A[k].
    """
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    A = np.asarray(A, dtype=np.int64)
    _check_power_of_two(N)
    if info_bits.ndim == 1:
        if len(A) != len(info_bits):
            raise ValueError(
                f"info length {len(info_bits)} != |A| = {len(A)}"
            )
        u = np.zeros(N, dtype=np.uint8)
        u[A] = info_bits
        return u
    if info_bits.shape[-1] != len(A):
        raise ValueError(
            f"info length {info_bits.shape[-1]} != |A| = {len(A)}"
        )
    u = np.zeros(info_bits.shape[:-1] + (N,), dtype=np.uint8)
    u[..., A] = info_bits
    return u
