import numpy as np
import pytest

from combpolar import decoder, oracles, polar, shaping


class TestChannelLlr:
    def test_reference_values(self):
        assert decoder.channel_llr(np.array([1.0]), 1.0)[0] == 2.0
        assert decoder.channel_llr(np.array([0.0]), 1.0)[0] == 0.0
        assert decoder.channel_llr(np.array([-0.5]), 0.5)[0] == -2.0

    def test_clamped(self):
        llr = decoder.channel_llr(np.array([1e6, -1e6]), 1.0)
        assert llr.tolist() == [decoder.LLR_MAX, -decoder.LLR_MAX]

    def test_complex_input_uses_real_part(self):
        assert decoder.channel_llr(np.array([0.5 + 9j]), 1.0)[0] == 1.0

    def test_bad_variance(self):
        for noise_var in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                decoder.channel_llr(np.array([1.0]), noise_var)

    def test_infinite_variance_erases(self):
        assert decoder.channel_llr(np.array([1.0, -1.0]), np.inf).tolist() == [0.0, 0.0]


class TestSoftXor:
    def test_matches_exact_formula(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(5000) * 8
        b = rng.standard_normal(5000) * 8
        exact = np.log((1 + np.exp(a + b)) / (np.exp(a) + np.exp(b)))
        assert np.max(np.abs(decoder.soft_xor(a, b) - exact)) < 1e-12

    def test_erasure_absorbs(self):
        assert decoder.soft_xor(0.0, 3.7) == 0.0

    def test_no_overflow_at_extremes(self):
        out = decoder.soft_xor(np.array([700.0]), np.array([-700.0]))
        assert np.isfinite(out[0])


def subchannel_probability_bsc(x_obs, u_prefix, i, u_i, p, free_indices=None):
    """oracles.subchannel_probability on a binary symmetric channel:
    x_obs holds the observed antipodal values (+1/-1), and a flip relative
    to the transmitted symbol has probability p."""
    x_obs = np.asarray(x_obs, dtype=np.float64)
    N = len(x_obs)
    s, Kf = oracles._target_words(N, u_prefix, i, u_i, free_indices)
    flips = np.sum(s != x_obs[None, :], axis=1)
    lik = (p**flips) * ((1 - p) ** (N - flips))
    return float(np.sum(lik) / 2.0 ** (Kf - 1))


def random_code(rng, N, K):
    A = np.sort(rng.choice(N, K, replace=False))
    return shaping.CodeConfig(N=N, K=K, r=None, A=A)


class TestScDecode:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        code = random_code(rng, 64, 30)
        info = rng.integers(0, 2, 30, dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, 64))
        llr = decoder.channel_llr(1.0 - 2.0 * x.astype(float), 0.5)
        u_hat, _ = decoder.sc_decode_batch(llr[None, :], code.frozen_mask())
        assert np.array_equal(u_hat[0, code.A], info)

    def test_all_frozen_decodes_zero(self):
        rng = np.random.default_rng(2)
        llr = rng.standard_normal(16)
        u_hat, _ = decoder.sc_decode_batch(llr[None, :], np.ones(16, dtype=bool))
        assert u_hat.shape == (1, 16) and np.all(u_hat == 0)

    def test_source_estimate_zero_at_frozen(self):
        rng = np.random.default_rng(3)
        code = random_code(rng, 32, 12)
        llr = rng.standard_normal(32) * 3
        u_hat, _ = decoder.sc_decode_batch(llr[None, :], code.frozen_mask())
        assert np.all(u_hat[0, code.frozen_mask()] == 0)

    def test_decision_llrs_match_enumeration(self):
        """SC's per-step LLRs equal brute-force sub-channel probability
        ratios given random true prefixes, pinning the walk's index
        convention and its partial-sum sign flips."""
        rng = np.random.default_rng(4)
        N, nv = 8, 0.8
        for _ in range(10):
            y = rng.standard_normal(N) * 1.3
            llr = 2.0 * y / nv
            u = rng.integers(0, 2, (1, N), dtype=np.uint8)
            dec = decoder.genie_decision_llrs(llr[None, :], u)
            for i in range(N):
                w0 = oracles.subchannel_probability(y, u[0, :i], i, 0, nv)
                w1 = oracles.subchannel_probability(y, u[0, :i], i, 1, nv)
                assert abs(dec[0, i] - np.log(w0 / w1)) < 1e-8

    def test_ml_agreement_when_unambiguous(self):
        rng = np.random.default_rng(5)
        code = random_code(rng, 8, 4)
        frozen = code.frozen_mask()
        info = rng.integers(0, 2, (400, 4), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, 8))
        y = (1.0 - 2.0 * x) + 0.35 * rng.standard_normal((400, 8))
        llr = decoder.channel_llr(y, 0.35**2)
        u_sc, _ = decoder.sc_decode_batch(llr, frozen)
        u_ml, _ = oracles.ml_decode_batch(llr, frozen)
        # at this SNR SC and ML agree on the overwhelming majority
        agree = np.mean(np.all(u_sc == u_ml, axis=1))
        assert agree > 0.97


class EagerScl(decoder._SclEngine):
    """Reference list decoder that moves every copy at once: each prune
    gathers every level buffer with a path axis and a (B, L, N) path
    history, and the best row of that history is the output."""

    def __init__(self, lam0, frozen, list_size):
        super().__init__(lam0, frozen, list_size)
        self.hist = np.zeros((self.B, self.L, self.N), dtype=np.uint8)

    def run(self):
        self._node(0, 0)
        best = np.argmin(self.pm, axis=1)
        rows = np.arange(self.B)
        return self.hist[rows, best], self.pm[rows, best]

    def _leaf(self, offset):
        if self.frozen[offset]:
            return decoder._Walk._leaf(self, offset)
        dm = self.llr[self.n][:, :, 0]
        cand = np.concatenate([self.pm + np.logaddexp(0.0, -dm),
                               self.pm + np.logaddexp(0.0, dm)], axis=1)
        order = np.argsort(cand, axis=1, kind="stable")[:, : self.L]
        src = order % self.L
        self.pm = np.take_along_axis(cand, order, axis=1)
        rows = np.arange(self.B)[:, None]
        for buf in (self.llr, self.uleft):
            for d, arr in enumerate(buf):
                if arr is not None and arr.shape[1] == self.L:
                    buf[d] = arr[rows, src]
        self.hist = self.hist[rows, src]
        self.hist[:, :, offset] = (order >= self.L).astype(np.uint8)
        return self.hist[:, :, offset : offset + 1]


def lazy_vs_eager_cases():
    """(name, LLRs in codeword order, frozen mask) over lengths, rates, and
    LLRs with ties everywhere or clamped at +-LLR_MAX."""
    rng = np.random.default_rng(17)
    for N in (2, 4, 16, 64, 256):
        masks = {"all-frozen": np.ones(N, dtype=bool), "all-info": np.zeros(N, dtype=bool)}
        for K in sorted({1, N // 4, N // 2} - {0}):
            masks[f"K{K}"] = random_code(rng, N, K).frozen_mask()
        x = rng.integers(0, 2, (24, N))
        llrs = {
            "noisy": 2.0 * ((1.0 - 2.0 * x) + rng.standard_normal((24, N))),
            "zero": np.zeros((24, N)),
            "clamped": decoder.LLR_MAX * rng.choice([-1.0, 1.0], (24, N)),
        }
        for mname, frozen in masks.items():
            for lname, llr in llrs.items():
                yield f"N{N}-{mname}-{lname}", llr, frozen


class TestSclDecode:
    @pytest.mark.parametrize("L", [1, 2, 3, 8, 32])
    def test_lazy_gathers_match_eager_copies(self, L):
        """Lazy row maps and the back-pointer traceback give the same
        decisions and metrics, bit for bit, as gathering every buffer and
        the path history at each prune; L > 2^K is among the cases."""
        for name, llr, frozen in lazy_vs_eager_cases():
            u_hat, pm = decoder.scl_decode_batch(llr, frozen, L)
            u_ref, pm_ref = EagerScl(llr[:, polar.bit_reversal(len(frozen))], frozen, L).run()
            assert np.array_equal(u_hat, u_ref), name
            assert np.array_equal(pm, pm_ref), name

    def test_list_one_equals_sc(self):
        rng = np.random.default_rng(6)
        code = random_code(rng, 64, 32)
        frozen = code.frozen_mask()
        info = rng.integers(0, 2, (1000, 32), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, 64))
        y = (1.0 - 2.0 * x) + 0.9 * rng.standard_normal((1000, 64))
        llr = decoder.channel_llr(y, 0.81)
        u_sc, pm_sc = decoder.sc_decode_batch(llr, frozen)
        u_l1, pm_l1 = decoder.scl_decode_batch(llr, frozen, 1)
        assert np.array_equal(u_sc, u_l1)
        assert np.array_equal(pm_sc, pm_l1)

    def test_full_list_is_maximum_likelihood(self):
        rng = np.random.default_rng(7)
        code = random_code(rng, 8, 4)
        frozen = code.frozen_mask()
        info = rng.integers(0, 2, (3000, 4), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, 8))
        y = (1.0 - 2.0 * x) + rng.standard_normal((3000, 8))
        llr = decoder.channel_llr(y, 1.0)
        u_scl, _ = decoder.scl_decode_batch(llr, frozen, 16)
        u_ml, _ = oracles.ml_decode_batch(llr, frozen)
        assert np.array_equal(u_scl, u_ml)

    def test_fer_monotone_in_list_size(self):
        rng = np.random.default_rng(8)
        code = random_code(rng, 64, 32)
        frozen = code.frozen_mask()
        n_frames = 10000
        info = rng.integers(0, 2, (n_frames, 32), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, 64))
        y = (1.0 - 2.0 * x) + 0.75 * rng.standard_normal((n_frames, 64))
        llr = decoder.channel_llr(y, 0.75**2)
        fer = {}
        for L in (1, 8):
            u_hat, _ = decoder.scl_decode_batch(llr, frozen, L)
            fer[L] = np.mean(np.any(u_hat[:, code.A] != info, axis=1))
        sigma = np.sqrt(fer[1] * (1 - fer[1]) / n_frames)
        assert fer[8] <= fer[1] + 3 * sigma

    def test_path_metric_is_best_path_likelihood(self):
        """The returned metric of SC and of SCL at every list size is the
        sum of softplus penalties over the genie LLRs of the decoded word."""
        rng = np.random.default_rng(9)
        code = random_code(rng, 64, 32)
        frozen = code.frozen_mask()
        info = rng.integers(0, 2, (300, 32), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, 64))
        llr = decoder.channel_llr((1.0 - 2.0 * x) + rng.standard_normal((300, 64)), 1.0)
        decoders = {"sc": lambda: decoder.sc_decode_batch(llr, frozen)}
        for L in (1, 8, 32):
            decoders[f"scl{L}"] = lambda L=L: decoder.scl_decode_batch(llr, frozen, L)
        for name, decode in decoders.items():
            u_hat, pm = decode()
            dec = decoder.genie_decision_llrs(llr, u_hat)
            expected = np.sum(np.logaddexp(0.0, -(1.0 - 2.0 * u_hat) * dec), axis=1)
            assert np.allclose(pm, expected, rtol=1e-12, atol=1e-9), name
            assert np.all(u_hat[:, frozen] == 0), name

    def test_back_pointers_are_narrow(self):
        """Each information leaf keeps one (B, L) row of sort positions in
        the smallest unsigned dtype that holds 2L - 1."""
        frozen = np.zeros(16, dtype=bool)
        for L, dtype in ((1, np.uint8), (128, np.uint8), (129, np.uint16)):
            engine = decoder._SclEngine(np.ones((3, 16)), frozen, L)
            engine.run()
            assert len(engine.back) == 16
            assert all(order.dtype == dtype and order.shape == (3, L) for _, order in engine.back)

    def test_metric_growth_is_monotone(self):
        """Path metrics only accumulate nonnegative penalties, so the best
        live metric never decreases as decoding proceeds."""
        rng = np.random.default_rng(14)
        code = random_code(rng, 32, 16)
        llr = decoder.channel_llr(
            (1.0 - 2.0 * polar.encode(polar.assemble_source(
                rng.integers(0, 2, 16, dtype=np.uint8), code.A, 32)))
            + rng.standard_normal(32), 1.0)

        mins = []

        class Traced(decoder._SclEngine):
            def _leaf(self, offset):
                out = super()._leaf(offset)
                mins.append(float(np.min(self.pm)))
                return out

        from combpolar.polar import bit_reversal

        engine = Traced(llr[None, bit_reversal(32)], code.frozen_mask(), 4)
        _, pm = engine.run()
        assert len(mins) == 32
        assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))
        assert pm[0] >= 0.0

    def test_survivors_are_best_candidates(self):
        """After every fork the kept metrics are the smallest of the 2L
        candidate extensions."""
        rng = np.random.default_rng(15)
        code = random_code(rng, 16, 8)
        llr = rng.standard_normal(16) * 2

        checks = []

        class Traced(decoder._SclEngine):
            def _leaf(self, offset):
                if not self.frozen[offset]:
                    dm = self.llr[self.n][:, :, 0]
                    cand = np.sort(np.concatenate(
                        [self.pm + np.logaddexp(0, -dm), self.pm + np.logaddexp(0, dm)],
                        axis=1), axis=1)[:, : self.L]
                    out = super()._leaf(offset)
                    checks.append(np.allclose(np.sort(self.pm, axis=1), cand))
                    return out
                return super()._leaf(offset)

        from combpolar.polar import bit_reversal

        Traced(llr[None, bit_reversal(16)], code.frozen_mask(), 4).run()
        assert len(checks) == 8 and all(checks)

    def test_bad_list_size(self):
        with pytest.raises(ValueError):
            decoder.scl_decode_batch(np.zeros((1, 8)), np.ones(8, dtype=bool), 0)


class TestCcdDecode:
    def shaped_code(self, rng, N, K, r):
        lam = shaping.cis(shaping.CisSpec(N, r))
        A = np.sort(rng.choice(lam, K, replace=False))
        return shaping.CodeConfig(N=N, K=K, r=r, A=A)

    def test_noiseless_recovery_every_order(self):
        rng = np.random.default_rng(10)
        for N, K in ((16, 6), (64, 24)):
            m = N.bit_length() - 1
            for r in range(m):
                code = self.shaped_code(rng, N, K, r)
                info = rng.integers(0, 2, K, dtype=np.uint8)
                x = polar.encode(polar.assemble_source(info, code.A, N))
                got, source, _ = decoder.ccd_decode_batch(
                    (1.0 - 2.0 * x.astype(float))[None, :], code, 0.5, 8)
                assert np.array_equal(got[0], info)
                assert np.array_equal(source[0, code.A], info)
                assert np.all(source[0, code.frozen_mask()] == 0)

    def test_top_order_equals_plain_decoding(self):
        # the permutation degenerates to the identity at the top order
        rng = np.random.default_rng(11)
        N, K, r = 32, 10, 4
        code = self.shaped_code(rng, N, K, r)
        assert np.array_equal(code.A, code.A_dec)
        info = rng.integers(0, 2, (200, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        y = (1.0 - 2.0 * x) + 0.8 * rng.standard_normal((200, N))
        got, _, _ = decoder.ccd_decode_batch(y, code, 0.64, 4)
        llr = decoder.channel_llr(y, 0.64)
        u_hat, _ = decoder.scl_decode_batch(llr, code.frozen_mask(), 4)
        assert np.array_equal(got, u_hat[:, code.A])

    def test_decisions_maximize_constrained_probability(self):
        """Single-path permuted decoding makes, at every information
        index, the decision that maximizes the constrained sub-channel
        probability computed by exhaustive marginalization (binary
        symmetric channel with crossover 0.1)."""
        rng = np.random.default_rng(12)
        N, K, r = 8, 3, 1
        code = self.shaped_code(rng, N, K, r)
        spec = shaping.CisSpec(N, r)
        free = shaping.cis(spec)
        p = 0.1
        mag = np.log((1 - p) / p)
        nv_equiv = 2.0 / mag  # channel_llr(y, nv) reproduces +-mag at y = +-1
        for _ in range(20):
            info = rng.integers(0, 2, K, dtype=np.uint8)
            x = polar.encode(polar.assemble_source(info, code.A, N))
            flips = rng.random(N) < p
            y = (1.0 - 2.0 * x.astype(float)) * np.where(flips, -1.0, 1.0)
            _, source, _ = decoder.ccd_decode_batch(y[None, :], code, nv_equiv, 1)
            # follow the same decision feedback the decoder used
            for i in code.A:
                pos = int(np.searchsorted(free, i))
                prefix = source[0, free[:pos]]
                w = [
                    subchannel_probability_bsc(x_obs=y, u_prefix=prefix, i=int(i),
                                               u_i=b, p=p, free_indices=free)
                    for b in (0, 1)
                ]
                if abs(np.log(w[0] / w[1])) < 1e-9:
                    continue  # exact tie: either decision maximizes
                best = 0 if w[0] > w[1] else 1
                assert source[0, i] == best

    def test_equivalent_to_plain_decoding_of_relabeled_code(self):
        """Permuted decoding of the shaped code gives bit-identical output
        to plain list decoding of the top-half code on the permuted
        symbols, frame for frame."""
        rng = np.random.default_rng(16)
        N, K, r = 64, 20, 2
        code = self.shaped_code(rng, N, K, r)
        relabeled = shaping.CodeConfig(N=N, K=K, r=None, A=code.A_dec)
        t = shaping.receive_permutation(shaping.CisSpec(N, r))
        info = rng.integers(0, 2, (300, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        y = (1.0 - 2.0 * x) + 0.9 * rng.standard_normal((300, N))
        got, _, _ = decoder.ccd_decode_batch(y, code, 0.81, 8)
        llr = decoder.channel_llr(y[:, t], 0.81)
        u_hat, _ = decoder.scl_decode_batch(llr, relabeled.frozen_mask(), 8)
        assert np.array_equal(got, u_hat[:, relabeled.A])

    @pytest.mark.parametrize("L", [1, 8])
    def test_rows_do_not_depend_on_batch(self, L):
        """A frame decodes to the same bits and metric alone, in a whole
        batch, or in either of two uneven halves of it."""
        rng = np.random.default_rng(18)
        N, K, r = 64, 24, 2
        code = self.shaped_code(rng, N, K, r)
        info = rng.integers(0, 2, (37, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        y = (1.0 - 2.0 * x) + 0.9 * rng.standard_normal((37, N))
        whole = decoder.ccd_decode_batch(y, code, 0.81, L)
        for parts in ([y[:11], y[11:]], [y[i : i + 1] for i in range(len(y))]):
            split = [decoder.ccd_decode_batch(p, code, 0.81, L) for p in parts]
            for got, ref in zip(zip(*split), whole):
                assert np.array_equal(np.concatenate(got), ref)

    def test_config_shape_mismatch(self):
        rng = np.random.default_rng(13)
        code = self.shaped_code(rng, 16, 4, 1)
        with pytest.raises(ValueError):
            decoder.ccd_decode_batch(np.zeros((1, 8)), code, 1.0, 2)


class TestMlOracle:
    def test_refuses_large_codes(self):
        with pytest.raises(ValueError):
            oracles.ml_decode_batch(np.zeros((1, 64)), np.zeros(64, dtype=bool))
