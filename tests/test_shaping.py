import numpy as np
import pytest

from combpolar import polar, shaping


class TestCis:
    def test_listed_sets(self):
        assert shaping.cis(shaping.CisSpec(8, 0)).tolist() == [1, 3, 5, 7]
        assert shaping.cis(shaping.CisSpec(8, 1)).tolist() == [2, 3, 6, 7]
        assert shaping.cis(shaping.CisSpec(8, 2)).tolist() == [4, 5, 6, 7]

    def test_size_and_block_form(self):
        for N in (4, 32, 256):
            m = N.bit_length() - 1
            for r in range(m):
                lam = shaping.cis(shaping.CisSpec(N, r))
                assert len(lam) == N // 2
                assert np.all(np.diff(lam) > 0)
                blocks = np.concatenate(
                    [np.arange((2 * k + 1) << r, (2 * k + 2) << r)
                     for k in range(N >> (r + 1))]
                )
                assert np.array_equal(lam, blocks)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            shaping.CisSpec(8, 3)
        with pytest.raises(ValueError):
            shaping.CisSpec(8, -1)


class TestLocalPeriodicity:
    def test_worked_example(self):
        seq = "011001100110101110111011110011001100001000100010000100010001"
        bits = np.array([int(c) for c in seq])
        assert len(bits) == 60
        assert shaping.is_locally_periodic(bits, 4, 3)

    def test_constant_sequences(self):
        assert shaping.is_locally_periodic(np.zeros(24), 2, 3)
        assert shaping.is_locally_periodic(np.ones(24), 3, 4)

    def test_negative_case(self):
        assert not shaping.is_locally_periodic([0, 1, 0, 0], 1, 2)

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            shaping.is_locally_periodic([0, 1, 0], 2, 2)


class TestIndexMaps:
    def test_forward_examples(self):
        s = shaping.CisSpec(16, 1)
        assert shaping.half_to_cis(s, 8) == 2
        assert shaping.half_to_cis(s, 10) == 6
        assert shaping.half_to_cis(s, 15) == 15
        img = shaping.half_to_cis(s, np.arange(8, 16))
        assert img.tolist() == [2, 3, 6, 7, 10, 11, 14, 15]

    def test_top_order_identity(self):
        for N in (8, 64):
            m = N.bit_length() - 1
            s = shaping.CisSpec(N, m - 1)
            upper = np.arange(N // 2, N)
            assert np.array_equal(shaping.half_to_cis(s, upper), upper)

    def test_small_forward(self):
        s = shaping.CisSpec(4, 0)
        assert shaping.half_to_cis(s, 2) == 1
        assert shaping.half_to_cis(s, 3) == 3

    def test_inverse_examples(self):
        s = shaping.CisSpec(16, 1)
        assert shaping.cis_to_half(s, 2) == 8
        assert shaping.cis_to_half(s, 6) == 10

    def test_round_trip_all_orders(self):
        for N in (4, 64, 1024):
            m = N.bit_length() - 1
            idx = np.arange(N)
            for r in range(m):
                s = shaping.CisSpec(N, r)
                assert np.array_equal(shaping.cis_to_half(s, shaping.half_to_cis(s, idx)), idx)

    def test_order_preserving_bijection(self):
        for N in (8, 128, 1024):
            m = N.bit_length() - 1
            for r in range(m):
                s = shaping.CisSpec(N, r)
                img = shaping.half_to_cis(s, np.arange(N // 2, N))
                assert np.all(np.diff(img) > 0)
                assert np.array_equal(np.sort(img), shaping.cis(s))
                assert np.array_equal(
                    np.sort(shaping.cis_to_half(s, shaping.cis(s))), np.arange(N // 2, N)
                )

    def test_out_of_range(self):
        s = shaping.CisSpec(8, 1)
        with pytest.raises(ValueError):
            shaping.half_to_cis(s, 8)
        with pytest.raises(ValueError):
            shaping.cis_to_half(s, -1)


class TestReceivePermutation:
    def test_forward_inverse_compose_to_identity(self):
        # the forward table conjugates the forward map by bit reversal the
        # same way the receive table conjugates the inverse map
        for N, r in [(8, 0), (16, 1), (64, 3)]:
            s = shaping.CisSpec(N, r)
            rev = polar.bit_reversal(N)
            t = shaping.receive_permutation(s)
            tf = rev[shaping.cis_to_half(s, rev)]
            assert np.array_equal(t[tf], np.arange(N))
            assert np.array_equal(tf[t], np.arange(N))

    def test_convention_pin_matrix_identities(self):
        """The conjugation facts that make permuted decoding exact.

        With P the matrix of the inverse index map (row i carries a one in
        column map^{-1}(i)) and B the bit-reversal matrix: G P G = B P B,
        and P G P_t = G for the receive gather table t.  Both exact over
        GF(2) for every length/order here.
        """
        for N in (4, 8, 16, 32):
            G = polar.generator_matrix(N).astype(np.int64)
            B = shaping.permutation_matrix(polar.bit_reversal(N)).astype(np.int64)
            m = N.bit_length() - 1
            for r in range(m):
                s = shaping.CisSpec(N, r)
                P = shaping.permutation_matrix(
                    shaping.cis_to_half(s, np.arange(N))
                ).astype(np.int64)
                assert np.array_equal((G @ P @ G) % 2, (B @ P @ B) % 2), (N, r)
                Pt = shaping.permutation_matrix(
                    shaping.receive_permutation(s)
                ).astype(np.int64)
                assert np.array_equal((P @ G @ Pt) % 2, G), (N, r)

    def test_convention_pin_functional(self):
        """Relabeling the source then encoding equals encoding then the
        receive gather: the tx/rx permutation pair is consistent."""
        rng = np.random.default_rng(0)
        for N in (8, 64, 256):
            m = N.bit_length() - 1
            for r in range(m):
                s = shaping.CisSpec(N, r)
                gt = shaping.half_to_cis(s, np.arange(N))
                t = shaping.receive_permutation(s)
                u = rng.integers(0, 2, (10, N), dtype=np.uint8)
                assert np.array_equal(polar.encode(u[:, gt]), polar.encode(u)[:, t])

    def test_shaped_source_relabels_to_top_half(self):
        rng = np.random.default_rng(1)
        for N, r in [(16, 1), (64, 2)]:
            s = shaping.CisSpec(N, r)
            lam = shaping.cis(s)
            gt = shaping.half_to_cis(s, np.arange(N))
            u = np.zeros(N, dtype=np.uint8)
            u[lam] = rng.integers(0, 2, N // 2, dtype=np.uint8)
            relabeled = u[gt]
            assert np.all(relabeled[: N // 2] == 0)
            assert np.array_equal(relabeled[N // 2 :], u[lam])


class TestRowPeriodicity:
    def test_all_shaping_rows(self):
        # exhaustive over r and rows at moderate sizes; the acceptance
        # suite extends this to N = 1024
        for N in (8, 64, 256):
            m = N.bit_length() - 1
            G = polar.generator_matrix(N)
            for r in range(m):
                for i in shaping.cis(shaping.CisSpec(N, r)):
                    assert shaping.is_locally_periodic(G[i], 1 << (m - r - 1), 2)

    def test_codeword_closure(self):
        rng = np.random.default_rng(2)
        for N in (64, 256):
            m = N.bit_length() - 1
            for r in (0, m // 2, m - 1):
                lam = shaping.cis(shaping.CisSpec(N, r))
                for _ in range(10):
                    K = int(rng.integers(1, N // 2 + 1))
                    u = np.zeros(N, dtype=np.uint8)
                    u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
                    assert shaping.is_locally_periodic(
                        polar.encode(u), 1 << (m - r - 1), 2
                    )


class TestCodeConfig:
    def test_auto_decoder_side_set(self):
        s = shaping.CisSpec(16, 1)
        A = np.array([2, 6, 15])
        cfg = shaping.CodeConfig(N=16, K=3, r=1, A=A)
        assert np.array_equal(cfg.A_dec, np.sort(shaping.cis_to_half(s, A)))
        assert np.all(cfg.A_dec >= 8)

    def test_rejects_indices_outside_set(self):
        with pytest.raises(ValueError):
            shaping.CodeConfig(N=16, K=2, r=1, A=np.array([1, 2]))

    def test_rejects_rate_above_half(self):
        lam = shaping.cis(shaping.CisSpec(16, 0))
        with pytest.raises(ValueError):
            shaping.CodeConfig(N=16, K=9, r=0, A=np.concatenate([lam, [0]]))

    def test_frozen_masks(self):
        cfg = shaping.CodeConfig(N=8, K=2, r=1, A=np.array([2, 7]))
        assert np.flatnonzero(~cfg.frozen_mask()).tolist() == [2, 7]
        assert np.flatnonzero(~cfg.frozen_mask(decoder_side=True)).tolist() == cfg.A_dec.tolist()

    def test_conventional_config(self):
        cfg = shaping.CodeConfig(N=8, K=3, r=None, A=np.array([3, 5, 7]))
        assert np.array_equal(cfg.A_dec, cfg.A)

    def test_index_serialization(self):
        assert shaping.index_set_text(np.array([7, 1, 3])) == "1,3,7"
