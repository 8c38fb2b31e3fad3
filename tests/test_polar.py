import numpy as np
import pytest

from combpolar import polar


def kron_oracle(N):
    """Reference generator: bit-reversal row permutation of the Kronecker
    power, built with numpy.kron only."""
    F = np.array([[1, 0], [1, 1]], dtype=np.int64)
    M = np.array([[1]], dtype=np.int64)
    while M.shape[0] < N:
        M = np.kron(F, M)
    rev = polar.bit_reversal(N)
    return M[rev, :] % 2


class TestGeneratorEntry:
    def test_kernel_values(self):
        # G_2 = F = [[1,0],[1,1]]
        assert polar.generator_row(0, 1).tolist() == [1, 0]
        assert polar.generator_row(1, 1).tolist() == [1, 1]

    def test_n4_entry_against_oracle(self):
        G = kron_oracle(4)
        assert polar.generator_row(1, 2)[2] == 1
        assert G[1, 2] == 1
        rows = ["".join(map(str, row)) for row in G]
        assert rows == ["1000", "1010", "1100", "1111"]

    def test_last_row_all_ones(self):
        for m in (1, 2, 3, 5, 7):
            N = 1 << m
            G = kron_oracle(N)
            assert np.all(G[N - 1] == 1)
            assert np.all(polar.generator_row(N - 1, m) == 1)

    def test_matrix_matches_oracle(self):
        for N in (2, 4, 8, 16, 32, 64):
            assert np.array_equal(polar.generator_matrix(N), kron_oracle(N))

    def test_both_factorizations(self):
        # B F^m == F^m B
        F = np.array([[1, 0], [1, 1]], dtype=np.int64)
        for N in (4, 8, 16, 32):
            M = np.array([[1]], dtype=np.int64)
            while M.shape[0] < N:
                M = np.kron(F, M)
            rev = polar.bit_reversal(N)
            assert np.array_equal(M[rev, :] % 2, M[:, rev] % 2)
            assert np.array_equal(polar.generator_matrix(N), M[:, rev] % 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            polar.generator_row(4, 2)
        with pytest.raises(ValueError):
            polar.generator_row(-1, 2)
        with pytest.raises(ValueError):
            polar.generator_row(0, 0)


class TestBitReversal:
    def test_small_tables(self):
        assert polar.bit_reversal(2).tolist() == [0, 1]
        assert polar.bit_reversal(4).tolist() == [0, 2, 1, 3]
        assert polar.bit_reversal(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_involution(self):
        for N in (2, 8, 64, 1024):
            rev = polar.bit_reversal(N)
            assert np.array_equal(rev[rev], np.arange(N))

    def test_rejects_non_power_of_two(self):
        for bad in (0, 1, 3, 6, 100):
            with pytest.raises(ValueError):
                polar.bit_reversal(bad)


class TestEncode:
    def test_zero_word(self):
        assert np.array_equal(polar.encode(np.zeros(8, dtype=np.uint8)), np.zeros(8))

    def test_unit_vectors_give_rows(self):
        for N in (4, 16, 64):
            G = polar.generator_matrix(N)
            eye = np.eye(N, dtype=np.uint8)
            assert np.array_equal(polar.encode(eye), G)

    def test_frozen_example(self):
        # row 1 xor row 3 of the N=4 generator: 1010 ^ 1111 = 0101
        assert polar.encode(np.array([0, 1, 0, 1])).tolist() == [0, 1, 0, 1]

    def test_matches_matrix_product_up_to_1024(self):
        rng = np.random.default_rng(0)
        for N in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            G = polar.generator_matrix(N).astype(np.int64)
            u = rng.integers(0, 2, (100, N), dtype=np.uint8)
            ref = (u.astype(np.int64) @ G) % 2
            assert np.array_equal(polar.encode(u), ref.astype(np.uint8))

    def test_involution_exhaustive_small(self):
        for N in (2, 4, 8, 16):
            words = ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1).astype(np.uint8)
            assert np.array_equal(polar.encode(polar.encode(words)), words)

    def test_involution_random_large(self):
        rng = np.random.default_rng(1)
        for N in (128, 1024):
            u = rng.integers(0, 2, (50, N), dtype=np.uint8)
            assert np.array_equal(polar.encode(polar.encode(u)), u)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            polar.encode(np.zeros(6, dtype=np.uint8))


class TestAssembleSource:
    def test_empty_info(self):
        u = polar.assemble_source(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64), 8)
        assert np.array_equal(u, np.zeros(8))

    def test_direct_placement(self):
        u = polar.assemble_source([1, 1], [1, 3], 4)
        assert u.tolist() == [0, 1, 0, 1]

    def test_odd_index_set(self):
        u = polar.assemble_source([1, 0, 1, 0], [1, 3, 5, 7], 8)
        assert u.tolist() == [0, 1, 0, 0, 0, 1, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            polar.assemble_source([1, 1, 1], [1, 3], 4)
