import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from combpolar import decoder, oracles, polar, shaping, simulate
from combpolar.config import load_config

REFERENCE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.json")
SLICE = decoder.SOFT_XOR_SLICE


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

    def test_sign_by_copysign_is_sign_product_bit_for_bit(self):
        """The sign taken from the product a b gives the bits of
        sign(a) sign(b) min(|a|, |b|), also at signed zeros and where the
        product underflows or overflows: the first correction term
        clears a signed zero."""
        rng = np.random.default_rng(21)
        mag = 10.0 ** rng.uniform(-300, 3, (2, 200_000))
        a, b = mag * rng.choice([-1.0, 1.0], mag.shape)
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-170, -1e-170, 700.0, -700.0,
                            1e300, -1e300, 1.0, -1.0])
        sa, sb = (g.ravel() for g in np.meshgrid(special, special))
        a, b = np.concatenate([a, sa]), np.concatenate([b, sb])
        got = decoder.soft_xor(a, b)
        ref = soft_xor_sign_product(a, b)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("shapes", [
        ((1,), (1,)), ((SLICE - 1,), (SLICE - 1,)), ((SLICE,), (SLICE,)),
        ((SLICE + 1,), (SLICE + 1,)), ((3, SLICE // 2 + 1), (3, SLICE // 2 + 1)),
        ((128, 256, 32), (128, 256, 32)), ((), ()), ((), (4, SLICE // 2 + 1)),
        ((1, SLICE // 2 + 1), (5, SLICE // 2 + 1)), ((SLICE + 1,), (3, SLICE + 1)),
    ], ids=str)
    def test_slices_are_the_one_shot_formula_bit_for_bit(self, shapes):
        """Below, at and above SOFT_XOR_SLICE elements, 0-d and broadcast
        operands included, soft_xor gives the one-shot formula's bits and
        shape, with +-0, +-1e-300, +-LLR_MAX and +-inf among the values
        (inf - inf is NaN in both), and no warning the formula does not
        give."""
        rng = np.random.default_rng(24)
        special = np.array([0.0, -0.0, 1e-300, -1e-300, decoder.LLR_MAX, -decoder.LLR_MAX,
                            np.inf, -np.inf])
        a, b = (np.where(rng.random(sh) < 0.1, rng.choice(special, sh), 8.0 * rng.standard_normal(sh))
                for sh in shapes)
        with warnings.catch_warnings(record=True) as ref_warn:
            warnings.simplefilter("always")
            ref = np.asarray(soft_xor_one_shot(a, b))
        with warnings.catch_warnings(record=True) as got_warn:
            warnings.simplefilter("always")
            got = decoder.soft_xor(a, b)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert {str(w.message) for w in got_warn} <= {str(w.message) for w in ref_warn}


def soft_xor_one_shot(a, b):
    """soft_xor's formula in one piece over the broadcast shape, the
    reference its slices are checked against."""
    with np.errstate(over="ignore"):
        out = np.copysign(np.minimum(np.abs(a), np.abs(b)), a * b)
    out += np.log1p(np.exp(-np.abs(a + b)))
    out -= np.log1p(np.exp(-np.abs(a - b)))
    return out


def soft_xor_sign_product(a, b):
    """soft_xor with its sign written as sign(a) sign(b), the operations in
    the order of the stable formula."""
    out = np.sign(a) * np.sign(b)
    out *= np.minimum(np.abs(a), np.abs(b))
    t = np.log1p(np.exp(-np.abs(a + b)))
    mn = np.log1p(np.exp(-np.abs(a - b)))
    out += t
    out -= mn
    return out


class TestSoftplus:
    def test_matches_logaddexp(self):
        """Within 5e-16 relative of np.logaddexp(0, z) over +-[1e-300, 800]."""
        mag = np.logspace(-300, np.log10(800.0), 20_001)
        z = np.concatenate([-mag[::-1], [0.0], mag])
        ref = np.logaddexp(0.0, z)
        got = decoder._softplus(z)
        assert np.all(np.abs(got - ref) <= 5e-16 * ref)

    def test_exact_at_the_ends(self):
        """No overflow and no warning at +-inf and +-800: the exponent is
        never positive."""
        got = decoder._softplus(np.array([np.inf, -np.inf, 800.0, -800.0]))
        assert got.tolist() == [np.inf, 0.0, 800.0, 0.0]

    def test_pair_is_two_softplus_calls_bit_for_bit(self):
        """_softplus_pair(z) gives (_softplus(-z), _softplus(z)) bit for bit
        over +-[1e-300, 800], +-0, +-LLR_MAX and +-inf, with no warning."""
        mag = np.logspace(-300, np.log10(800.0), 20_001)
        z = np.concatenate([-mag[::-1], [0.0, -0.0, decoder.LLR_MAX, -decoder.LLR_MAX,
                                         np.inf, -np.inf], mag]).reshape(2, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = decoder._softplus_pair(z)
            ref = decoder._softplus(-z), decoder._softplus(z)
        for g, r in zip(got, ref):
            assert g.shape == z.shape
            assert np.array_equal(g.view(np.uint64), r.view(np.uint64))


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


@pytest.mark.parametrize("noise_var", [0.8, 0.05])
@pytest.mark.parametrize("free_indices", [None, np.array([1, 3, 5, 6, 7])])
def test_subchannel_probability_matches_scipy_logsumexp(noise_var, free_indices):
    rng = np.random.default_rng(6)
    N = 8
    free = np.arange(N) if free_indices is None else free_indices
    y = rng.standard_normal(N) * 1.3
    for pos, i in enumerate(free):
        prefix = rng.integers(0, 2, pos)
        for u_i in (0, 1):
            s, Kf = oracles._target_words(N, prefix, int(i), u_i, free_indices)
            loglik = (-np.sum((y - s) ** 2, axis=1) / (2 * noise_var)
                      - 0.5 * N * np.log(2 * np.pi * noise_var))
            ref = np.exp(logsumexp(loglik) - (Kf - 1) * np.log(2.0))
            got = oracles.subchannel_probability(y, prefix, int(i), u_i, noise_var,
                                                 free_indices)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)


def random_code(rng, N, K):
    A = np.sort(rng.choice(N, K, replace=False))
    return shaping.CodeConfig(N=N, r=None, A=A)


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
        """The walk's per-step LLRs, fed back random true bits, equal
        brute-force sub-channel probability ratios given those prefixes,
        pinning the walk's index convention and its partial-sum sign
        flips."""
        rng = np.random.default_rng(4)
        N, nv = 8, 0.8
        for _ in range(10):
            y = rng.standard_normal(N) * 1.3
            llr = 2.0 * y / nv
            u = rng.integers(0, 2, (1, N), dtype=np.uint8)
            dec = GenieWalk(llr[None, :], u).run()
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
        u_ml = oracles.ml_decode_batch(llr, frozen)
        # at this SNR SC and ML agree on the overwhelming majority
        agree = np.mean(np.all(u_sc == u_ml, axis=1))
        assert agree > 0.97


class GenieWalk(decoder._Walk):
    """The recursive genie: the depth-first walk, leaf by leaf, recording
    each leaf's LLR and feeding back the true bit.  With the all-zero
    word it is the reference the level sweep of `genie_decision_llrs` is
    checked against; with other words, the reference for the walk's
    partial-sum sign flips."""

    def __init__(self, llrs, u_true):
        super().__init__(llrs, None)
        self.u = np.ascontiguousarray(u_true.T)[:, None, :, None]  # leaf i's bits (1, B, 1)
        self.dec = np.empty((self.N, self.B))  # leaf i's LLRs in row i

    def run(self):
        self._node(0, 0)
        return np.ascontiguousarray(self.dec.T)

    def _leaf(self, offset):
        self.dec[offset] = self.leaf_llrs()[:, 0]
        return self.u[offset]


class TestGenie:
    @pytest.mark.parametrize("N", [2, 4, 8, 32, 256, 1024])
    def test_level_sweep_is_the_walk_bit_for_bit(self, N):
        """The level sweep gives the recursive walk's decision LLRs on the
        all-zero word, bit for bit, on noisy, all-zero, clamped (+-LLR_MAX)
        and 1e-300-scaled LLRs."""
        rng = np.random.default_rng(22)
        u = rng.integers(0, 2, (48, N), dtype=np.uint8)
        noisy = 2.0 * ((1.0 - 2.0 * polar.encode(u)) + rng.standard_normal((48, N)))
        llrs = {
            "noisy": noisy,
            "zero": np.zeros((48, N)),
            "clamped": decoder.LLR_MAX * rng.choice([-1.0, 1.0], (48, N)),
            "tiny": 1e-300 * noisy,
        }
        zeros = np.zeros((48, N), dtype=np.uint8)
        for name, llr in llrs.items():
            got = decoder.genie_decision_llrs(llr)
            ref = GenieWalk(llr, zeros).run()
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), name


class EagerScl(decoder._SclEngine):
    """Reference list decoder that moves every copy at once: each prune
    gathers every level buffer with a path axis (through the walk's own
    `gather`, which leaves path-independent buffers alone) and a (B, L, N)
    path history, and the best row of that history is the output."""

    def __init__(self, llrs, frozen, list_size):
        super().__init__(llrs, frozen, list_size)
        self.hist = np.zeros((self.B, self.L, self.N), dtype=np.uint8)

    def run(self):
        self._node(0, 0)
        best = np.argmin(self.pm, axis=1)
        rows = np.arange(self.B)
        return self.hist[rows, best], self.pm[rows, best]

    def _leaf(self, offset):
        if self.frozen[offset]:
            return decoder._Walk._leaf(self, offset)
        dm = self.leaf_llrs()
        cand = np.concatenate([self.pm + decoder._softplus(-dm),
                               self.pm + decoder._softplus(dm)], axis=1)
        order = np.argsort(cand, axis=1, kind="stable")[:, : self.L]
        src = order % self.L
        self.pm = np.take_along_axis(cand, order, axis=1)
        rows = self.rows(src)
        for buf in (self.llr, self.uleft):
            for d, arr in enumerate(buf):
                if arr is not None:
                    buf[d] = self.gather(arr, rows)
        self.hist = self.hist[np.arange(self.B)[:, None], src]
        self.hist[:, :, offset] = (order >= self.L).astype(np.uint8)
        return self.hist[None, :, :, offset]


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


class LeafWalkTies(decoder._SclEngine):
    """The plan-free list walk, noting each frame where it chose on a tie:
    the L-th and (L+1)-th best extensions at a fork, or at the end the
    best two paths, within 1e-12 relative.  A node sums the leaf metrics
    in another order, so a tie may resolve the other way there."""

    def __init__(self, llrs, frozen, list_size):
        super().__init__(llrs, frozen, list_size)
        self.tied = np.zeros(self.B, dtype=bool)

    def _note(self, metrics, k):
        m = np.sort(metrics, axis=1)
        if m.shape[1] > k:
            live = m[:, k - 1] < decoder._BIG / 2
            self.tied |= live & (m[:, k] - m[:, k - 1] <= 1e-12 * m[:, k])

    def _leaf(self, offset):
        if not self.frozen[offset]:
            dm = self.leaf_llrs()
            self._note(np.concatenate([self.pm + np.logaddexp(0.0, -dm),
                                       self.pm + np.logaddexp(0.0, dm)], axis=1), self.L)
        return super()._leaf(offset)

    def run(self):
        out = super().run()
        self._note(self.pm, 1)
        return out


def assert_same_decisions(llr, frozen, L, case, ties=False):
    """The public decoder at list size L (and SC at L = 1) makes the leaf
    walk's decisions on every frame, or, with `ties`, on every frame the
    leaf walk did not decide on a tie; metrics of equal decisions within
    1e-12 relative."""
    leaf = LeafWalkTies(llr, frozen, L) if ties else decoder._SclEngine(llr, frozen, L)
    walks = [(f"scl{L}", decoder.scl_decode_batch(llr, frozen, L), leaf.run())]
    if L == 1:
        walks.append(("sc", decoder.sc_decode_batch(llr, frozen), decoder._Walk(llr, frozen).run()))
    for name, (u_hat, pm), (u_ref, pm_ref) in walks:
        same = np.all(u_hat == u_ref, axis=1)
        assert np.all(same | leaf.tied) if ties else np.all(same), (case, name)
        np.testing.assert_allclose(pm[same], pm_ref[same], rtol=1e-12, atol=0,
                                   err_msg=f"{case} {name}")


@pytest.fixture(scope="module")
def reference_link_llrs():
    """2048 frames of each arm of configs/reference.json at -1 dB, as the
    decoder reads them: (arm, LLRs after the receive permutation, frozen
    mask of the decoder-side set)."""
    base = load_config(REFERENCE_CONFIG)
    out = []
    for arm in ("cp", "csp-nonc", "csp-c"):
        cfg = base.for_arm(arm)
        link = simulate.make_link(cfg, simulate.build_code(cfg), -1.0)
        _, y = simulate.synthesize_frames(link, range(2048))
        code = link.code
        if code.r is not None:
            y = y[:, shaping.receive_permutation(code.spec)]
        out.append((arm, decoder.channel_llr(y, link.symbol_noise_var),
                    code.frozen_mask()))
    return out


def walk_cover(plan, n):
    """(first leaf, width, kind) of every node the walk decodes whole and
    of every leaf it still visits (kind 0), reading the plan top down."""
    out = []

    def visit(d, k):
        kind = plan[d][k] if d < n else 0
        if d == n or kind:
            out.append((k << (n - d), 1 << (n - d), kind))
        else:
            visit(d + 1, 2 * k)
            visit(d + 1, 2 * k + 1)

    visit(0, 0)
    return out


def expected_kind(m, L):
    """A node's kind from its slice m of the frozen mask at list size L."""
    if m.all():
        return decoder.RATE0
    if m[:-1].all():
        return decoder.REP
    return decoder.RATE1 if L == 1 and not m.any() else 0


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), L=st.sampled_from([1, 2, 3, 8]), data=st.data())
def test_node_plan_covers_each_leaf_once(n, L, data):
    """Every node's kind is its slice of the mask, Rate-1 at L = 1 only;
    the nodes the walk decodes whole and the leaves it still visits cover
    [0, N) once; no SPC node (only its first leaf frozen) is planned."""
    N = 1 << n
    frozen = np.array(data.draw(st.lists(st.booleans(), min_size=N, max_size=N)))
    plan = decoder.node_plan(frozen, L)
    assert len(plan) == n
    for d, kinds in enumerate(plan):
        w = N >> d
        assert list(kinds) == [expected_kind(frozen[k * w : (k + 1) * w], L)
                               for k in range(1 << d)]
    cover = walk_cover(plan, n)
    leaves = np.concatenate([np.arange(start, start + w) for start, w, _ in cover])
    assert np.array_equal(leaves, np.arange(N))
    for start, w, _ in cover:
        m = frozen[start : start + w]
        assert not (w >= 4 and m[0] and not m[1:].any())


class TestSclDecode:
    @pytest.mark.parametrize("L", [1, 2, 3, 8, 32])
    def test_nodes_match_leaf_walk(self, L, reference_link_llrs):
        """SC and SCL with the node plan make the leaf walk's decisions,
        metrics within 1e-12 relative, on 2048 reference-link frames per
        arm at -1 dB, and on every lazy-vs-eager case (all-zero and clamped
        LLRs, all-frozen and all-info masks) except where the leaf walk
        decided on a tie, its two sides within 1e-12 relative: zero or
        clamped LLRs cancelling to a decision LLR of 0, or a long soft-XOR
        chain underflowing to 0.  The leaf walk settles a tie by bit 0, a
        node by its own sums."""
        for arm, llr, frozen in reference_link_llrs:
            assert_same_decisions(llr, frozen, L, arm)
        for name, llr, frozen in lazy_vs_eager_cases():
            assert_same_decisions(llr, frozen, L, name, ties=True)

    @pytest.mark.parametrize("L", [1, 2, 3, 8, 32])
    def test_lazy_gathers_match_eager_copies(self, L):
        """Lazy row maps and the back-pointer traceback give the same
        decisions and metrics, bit for bit, as gathering every buffer and
        the path history at each prune; L > 2^K is among the cases.  Both
        engines walk leaf by leaf (no node plan)."""
        for name, llr, frozen in lazy_vs_eager_cases():
            u_hat, pm = decoder._SclEngine(llr, frozen, L).run()
            u_ref, pm_ref = EagerScl(llr, frozen, L).run()
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
        u_ml = oracles.ml_decode_batch(llr, frozen)
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
            dec = GenieWalk(llr, u_hat).run()
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

        engine = Traced(llr[None, :], code.frozen_mask(), 4)
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
                    dm = self.leaf_llrs()
                    cand = np.sort(np.concatenate(
                        [self.pm + np.logaddexp(0, -dm), self.pm + np.logaddexp(0, dm)],
                        axis=1), axis=1)[:, : self.L]
                    out = super()._leaf(offset)
                    checks.append(np.allclose(np.sort(self.pm, axis=1), cand))
                    return out
                return super()._leaf(offset)

        Traced(llr[None, :], code.frozen_mask(), 4).run()
        assert len(checks) == 8 and all(checks)

    def test_bad_list_size(self):
        with pytest.raises(ValueError):
            decoder.scl_decode_batch(np.zeros((1, 8)), np.ones(8, dtype=bool), 0)


def fork_rows(rng, L):
    """Crafted (2L,) candidate rows of a fork, named by their tie kind, each
    shuffled: ties inside the top L, across positions L and L + 1, beyond
    them, +-0 pairs, the _BIG sentinels of a list not yet full, all-equal
    and tie-free rows."""
    def distinct():
        return np.sort(rng.uniform(-5.0, 50.0, 2 * L))

    rows = {"tie-free": distinct(), "all-equal": np.full(2 * L, 3.5)}
    v = distinct()
    v[L] = v[L - 1]
    rows["tie-across"] = v
    v = distinct()
    v[: L + 1] = np.sort(np.concatenate([[-0.0, 0.0], rng.uniform(-5.0, -1.0, L - 1)]))
    rows["signed-zero-across"] = v
    v = np.abs(distinct())
    v[:2] = [0.0, -0.0]
    rows["signed-zero-first"] = v
    live = rng.integers(1, L + 1)
    rows["big-sentinels"] = np.concatenate([distinct()[:live], np.full(2 * L - live, decoder._BIG)])
    v = distinct()
    v[live:] = decoder._BIG + v[live:]  # == _BIG
    rows["big-plus-cost"] = v
    if L >= 2:
        v = distinct()
        i = rng.integers(0, L - 1)
        v[i + 1] = v[i]
        rows["tie-inside"] = v
    if 2 * L >= L + 3:
        v = distinct()
        v[L + 2] = v[L + 1]
        rows["tie-beyond"] = v
    return {name: rng.permutation(v) for name, v in rows.items()}


class TestForkTies:
    @pytest.mark.parametrize("L", [1, 2, 8, 16, 32])
    def test_fork_keeps_the_stable_sorts_first_l(self, L):
        """One batch of crafted candidate rows of every tie kind, four
        draws each, in a shuffled order: the survivors' metrics, their
        bits, the back-pointer row and the pending row map are those of
        the first L of a stable argsort, bit for bit."""
        rng = np.random.default_rng(25)
        named = [(name, row) for _ in range(4) for name, row in fork_rows(rng, L).items()]
        named = [named[i] for i in rng.permutation(len(named))]
        cand = np.array([row for _, row in named])
        B = len(cand)
        engine = decoder._SclEngine(np.zeros((B, 2)), np.zeros(2, dtype=bool), L)
        engine.pm = np.full((B, L), -0.0)  # x + -0.0 is x, also for x = -0.0
        bits = engine._fork(cand[:, :L], cand[:, L:], 1, 1)
        order = np.argsort(cand, axis=1, kind="stable")[:, :L]
        pm = np.take_along_axis(cand, order, axis=1)
        for b, (name, _) in enumerate(named):
            assert np.array_equal(engine.pm[b].view(np.uint64), pm[b].view(np.uint64)), name
            assert np.array_equal(bits[b], order[b] >= L), name
        offset, back = engine.back[-1]
        assert offset == 1 and back.dtype == engine.back_dtype
        assert np.array_equal(back, order)
        assert np.array_equal(engine.pend[0], engine.rows(order % L))


class TestCcdDecode:
    def shaped_code(self, rng, N, K, r):
        lam = shaping.cis(shaping.CisSpec(N, r))
        A = np.sort(rng.choice(lam, K, replace=False))
        return shaping.CodeConfig(N=N, r=r, A=A)

    def test_noiseless_recovery_every_order(self):
        rng = np.random.default_rng(10)
        for N, K in ((16, 6), (64, 24)):
            m = N.bit_length() - 1
            for r in range(m):
                code = self.shaped_code(rng, N, K, r)
                info = rng.integers(0, 2, K, dtype=np.uint8)
                x = polar.encode(polar.assemble_source(info, code.A, N))
                got = decoder.ccd_decode_batch(
                    (1.0 - 2.0 * x.astype(float))[None, :], code, 0.5, 8)
                assert got.shape == (1, K) and np.array_equal(got[0], info)

    def test_top_order_equals_plain_decoding(self):
        # the permutation degenerates to the identity at the top order
        rng = np.random.default_rng(11)
        N, K, r = 32, 10, 4
        code = self.shaped_code(rng, N, K, r)
        assert np.array_equal(code.A, code.A_dec)
        info = rng.integers(0, 2, (200, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        y = (1.0 - 2.0 * x) + 0.8 * rng.standard_normal((200, N))
        got = decoder.ccd_decode_batch(y, code, 0.64, 4)
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
            got = decoder.ccd_decode_batch(y[None, :], code, nv_equiv, 1)
            source = polar.assemble_source(got, code.A, N)  # transmit-domain decisions
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
        relabeled = shaping.CodeConfig(N=N, r=None, A=code.A_dec)
        t = shaping.receive_permutation(shaping.CisSpec(N, r))
        info = rng.integers(0, 2, (300, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        y = (1.0 - 2.0 * x) + 0.9 * rng.standard_normal((300, N))
        got = decoder.ccd_decode_batch(y, code, 0.81, 8)
        llr = decoder.channel_llr(y[:, t], 0.81)
        u_hat, _ = decoder.scl_decode_batch(llr, relabeled.frozen_mask(), 8)
        assert np.array_equal(got, u_hat[:, relabeled.A])

    @pytest.mark.parametrize("L", [1, 8, 32])
    def test_rows_do_not_depend_on_batch(self, L):
        """A frame decodes to the same information bits alone, in a whole
        batch, or in either of two uneven halves of it, and so do the
        source bits and metric of the decoder it runs on the permuted
        frames.  Among 37 noisy
        frames are 12 whose LLRs are clamped at +-LLR_MAX, some of their
        symbols flipped: their metric ties send their rows to the stable
        re-sort at forks where the noisy rows keep the fast sort."""
        rng = np.random.default_rng(18)
        N, K, r = 64, 24, 2
        code = self.shaped_code(rng, N, K, r)
        info = rng.integers(0, 2, (37, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        y = (1.0 - 2.0 * x) + 0.9 * rng.standard_normal((37, N))
        info = rng.integers(0, 2, (12, K), dtype=np.uint8)
        x = polar.encode(polar.assemble_source(info, code.A, N))
        flips = np.where(rng.random((12, N)) < 0.1, -1.0, 1.0)
        clamped = 100.0 * (1.0 - 2.0 * x) * flips  # LLR 247 before the clamp
        y = np.concatenate([y, clamped])[rng.permutation(49)]

        def decode(y):
            llr = decoder.channel_llr(y[:, shaping.receive_permutation(code.spec)], 0.81)
            walk = (decoder.sc_decode_batch(llr, code.frozen_mask()) if L == 1
                    else decoder.scl_decode_batch(llr, code.frozen_mask(), L))
            return (decoder.ccd_decode_batch(y, code, 0.81, L), *walk)

        whole = decode(y)
        for parts in ([y[:11], y[11:]], [y[i : i + 1] for i in range(len(y))]):
            split = [decode(p) for p in parts]
            for got, ref in zip(zip(*split), whole):
                assert np.array_equal(np.concatenate(got), ref)

    def test_genie_rows_do_not_depend_on_batch(self):
        """Frames share vectors along the walk's contiguous axis, yet a
        frame's genie decision LLRs are the same alone, in a whole batch,
        or in either of two uneven halves of it."""
        rng = np.random.default_rng(20)
        N = 64
        u = rng.integers(0, 2, (37, N), dtype=np.uint8)
        y = (1.0 - 2.0 * polar.encode(u)) + 0.9 * rng.standard_normal((37, N))
        llr = decoder.channel_llr(y, 0.81)
        whole = decoder.genie_decision_llrs(llr)
        for cuts in ([11], range(1, 37)):
            split = [decoder.genie_decision_llrs(lp) for lp in np.split(llr, cuts)]
            assert np.array_equal(np.concatenate(split), whole)

    def test_config_shape_mismatch(self):
        rng = np.random.default_rng(13)
        code = self.shaped_code(rng, 16, 4, 1)
        with pytest.raises(ValueError):
            decoder.ccd_decode_batch(np.zeros((1, 8)), code, 1.0, 2)


class TestMlOracle:
    def test_refuses_large_codes(self):
        with pytest.raises(ValueError):
            oracles.ml_decode_batch(np.zeros((1, 64)), np.zeros(64, dtype=bool))
