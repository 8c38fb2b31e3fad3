import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from combpolar import construction, decoder, polar, shaping
from combpolar.config import ExperimentConfig, load_config
from combpolar.simulate import build_code

ROOT = Path(__file__).resolve().parents[1]
ROLLOFF = ExperimentConfig.pulse.rolloff  # the default pulse's, 0.25


class TestGaussianApproximation:
    def test_extreme_snr_limits(self):
        hi = construction.estimate_symmetric_reliability(2, 25.0, ROLLOFF)
        assert np.all(hi > 0.99)
        lo = construction.estimate_symmetric_reliability(2, -35.0, ROLLOFF)
        assert np.all(lo < 0.01)

    def test_polarization_partial_order(self):
        c = construction.estimate_symmetric_reliability(4, 0.0, ROLLOFF)
        assert c[0] <= c[1] <= c[3]
        assert c[0] <= c[2] <= c[3]

    def test_profile_invariants(self):
        p = construction.estimate_symmetric_reliability(64, 1.0, ROLLOFF)
        assert p.shape == (64,)
        assert np.all((p >= 0) & (p <= 1))


def _scalar_phi_inverse(y):
    """Reference: per-value bisection of _phi, one 0-d evaluation per step."""
    if y >= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while construction._phi(hi) > y:
        hi *= 2
        if hi > 1e9:
            return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if construction._phi(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _scalar_ga_levels(N, noise_var):
    """Reference: per-node density evolution; the means of every tree level
    down to length N (level k holds the means of the length-2^k code)."""
    levels = [np.array([2.0 / noise_var])]
    while len(levels[-1]) < N:
        mu = levels[-1]
        nxt = np.empty(2 * len(mu))
        for k, m in enumerate(mu):
            nxt[2 * k] = _scalar_phi_inverse(
                1.0 - (1.0 - construction._phi(np.array([m]))[0]) ** 2)
            nxt[2 * k + 1] = 2.0 * m
        levels.append(nxt)
    return levels


class TestGaussianApproximationMatchesScalar:
    @pytest.mark.parametrize("snr_db", [-300.0, -35.0, -2.0, 1.0, 25.0, 300.0])
    def test_means_match_per_node_bisection(self, snr_db):
        noise_var = construction.snr_db_to_noise_var(snr_db, ROLLOFF)
        levels = _scalar_ga_levels(1024, noise_var)
        for N in (2, 4, 16, 64, 256, 1024):
            want = levels[N.bit_length() - 1]
            got = construction.gaussian_approximation_means(N, noise_var)
            assert got.shape == (N,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"N={N}")

    def test_phi_inverse_at_one_and_above_is_zero(self):
        y = np.array([1.0, 1.5, 1e300])
        assert np.array_equal(construction._phi_inverse(y), np.zeros(3))
        assert construction._phi_inverse(1.0) == 0.0

    def test_phi_inverse_at_zero_grows_the_bracket(self):
        # _phi underflows to 0 between x = 2048 and 4096, so the bracket
        # [0, 1] must double twelve times before the bisection starts
        x = construction._phi_inverse(0.0)
        assert x == _scalar_phi_inverse(0.0)
        assert 2048 < x <= 4096 and construction._phi(4096.0) == 0.0

    def test_zero_is_the_bisections_result(self):
        for zero in (0.0, -0.0):
            assert _bits(construction._PHI_INVERSE_ZERO) == _bits(_scalar_phi_inverse(zero))

    def test_phi_inverse_elementwise_matches_scalar(self):
        # _phi jumps up at x = 10: y in the band between _phi(10^-) and
        # _phi(10) crosses it on both sides, and bisection keeps the crossing
        # above 10.  k * 2^-52 are the smallest positive y the GA forms.
        below, at10 = construction._phi(np.nextafter(10.0, 0.0)), construction._phi(10.0)
        band = np.concatenate([np.linspace(below, at10, 6),
                               np.nextafter([below, below, at10, at10], [0.0, 1.0, 0.0, 1.0])])
        k = np.arange(1.0, 9.0)
        y = np.concatenate([[0.0, 1e-300, 0.5, 1.0, 2.0], np.linspace(0.0, 1.0, 41), band,
                            np.ldexp(k, -52), 1.0 - np.ldexp(k, -53)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = construction._phi_inverse(y)
        want = np.array([_scalar_phi_inverse(v) for v in y])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert construction._phi_inverse(y.reshape(2, -1)).shape == (2, len(y) // 2)
        assert np.isnan(construction._phi_inverse([-1.0, np.nan])).all()

    def test_phi_of_phi_inverse_is_identity(self):
        y = np.linspace(0.0, 1.0, 201)[1:-1]
        np.testing.assert_allclose(construction._phi(construction._phi_inverse(y)), y,
                                   rtol=1e-9, atol=1e-12)


class TestPinnedConstructions:
    """The information sets of configs/reference.json's three arms, at its
    N=256 and at N=1024 (r=5, K=384), as the per-node GA built them."""

    PINNED = json.loads((ROOT / "tests" / "reference_constructions.json").read_text())

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_information_set(self, key):
        n, arm = key.split("/")
        overrides = {"code": {"N": 1024, "K": 384, "r": 5}} if n == "1024" else None
        cfg = load_config(str(ROOT / "configs" / "reference.json"), overrides).for_arm(arm)
        assert cfg.N == int(n)
        assert shaping.index_set_text(build_code(cfg).A) == self.PINNED[key]


def mc_capacity(N, snr_db, trials, rng):
    """The genie-aided Monte-Carlo capacity vector, clipped to [0, 1]."""
    mean, _ = construction.monte_carlo_symmetric_capacity(
        N, construction.snr_db_to_noise_var(snr_db, ROLLOFF), trials, rng
    )
    return np.clip(mean, 0.0, 1.0)


class TestMonteCarloEstimator:
    def test_extreme_snr_limits(self):
        hi = mc_capacity(2, 25.0, 20000, np.random.default_rng(0))
        assert np.all(hi > 0.99)
        lo = mc_capacity(2, -35.0, 20000, np.random.default_rng(1))
        assert np.all(lo < 0.01)

    def test_partial_order_n4(self):
        mean, se = construction.monte_carlo_symmetric_capacity(
            4, construction.snr_db_to_noise_var(0.0, ROLLOFF), 50000, np.random.default_rng(2)
        )
        c = np.clip(mean, 0.0, 1.0)
        slack = 3 * np.max(se)
        assert c[0] <= c[1] + slack and c[1] <= c[3] + slack
        assert c[0] <= c[2] + slack and c[2] <= c[3] + slack

    def test_agrees_with_gaussian_approximation(self):
        # same ranking of the clearly-separated sub-channels at N = 16
        ga = construction.estimate_symmetric_reliability(16, 0.0, ROLLOFF)
        mc = mc_capacity(16, 0.0, 50000, np.random.default_rng(4))
        assert np.max(np.abs(ga - mc)) < 0.06
        top_ga = set(np.argsort(-ga)[:4].tolist())
        top_mc = set(np.argsort(-mc)[:4].tolist())
        assert top_ga == top_mc

    @pytest.mark.parametrize("N, trials, batch", [
        pytest.param(2, 1000, 300, id="2"),
        pytest.param(1024, 1000, 300, id="1024"),
        pytest.param(256, 5000, 4096, id="256"),
    ])
    def test_slices_match_a_whole_batch_reference(self, monkeypatch, N, trials, batch):
        """Batches cut into slices of MC_CHUNK_LLRS // N frames give the
        mean of a plain whole-batch computation within 1e-13 and leave the
        generator in the same state.  The last batch is partial; at N = 1024 and 256 it ends
        inside a slice, and at N = 256 the full 4096-frame batch is 16
        whole slices.  The estimator draws each slice's normals after the
        batch's bits, so a numpy Generator that kept a normal in reserve
        between calls would fail here."""
        noise_var = 0.9
        rng = np.random.default_rng(23)
        monkeypatch.setattr(construction, "MC_BATCH", batch)
        mean, _ = construction.monte_carlo_symmetric_capacity(N, noise_var, trials, rng)
        sizes = [batch] * (trials // batch) + [trials % batch]
        chunk = max(1, construction.MC_CHUNK_LLRS // N)
        assert sizes[-1] % chunk
        ref_rng = np.random.default_rng(23)
        terms = []
        for b in sizes:
            u = ref_rng.integers(0, 2, size=(b, N), dtype=np.uint8)
            y = (1.0 - 2.0 * polar.encode(u)) + ref_rng.standard_normal((b, N)) * np.sqrt(noise_var)
            dec = decoder.genie_decision_llrs(2.0 * y / noise_var, u)
            terms.append(1.0 - np.logaddexp(0.0, -(1.0 - 2.0 * u) * dec) / np.log(2.0))
        np.testing.assert_allclose(mean, np.concatenate(terms).mean(axis=0), rtol=0, atol=1e-13)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bad_trials_rejected_before_drawing(self, trials):
        """trials = 0 would divide by zero; it raises before the generator
        is touched."""
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            construction.monte_carlo_symmetric_capacity(8, 1.0, trials, rng)
        assert rng.bit_generator.state == state


class TestSelection:
    def test_full_set(self):
        sel = construction.select_code([0.1, 0.9, 0.4, 0.7], 4, criterion="symmetric").A
        assert sel.tolist() == [0, 1, 2, 3]

    def test_best_upper_half(self):
        p = construction.estimate_symmetric_reliability(16, 0.0, ROLLOFF)
        sel = construction.select_code(p, 1, 0, criterion="cis-constrained").A_dec
        assert sel.tolist() == [15]

    def test_tie_break_smaller_index(self):
        sel = construction.select_code([0.5, 0.5, 0.5, 0.9], 2, criterion="symmetric").A
        assert sel.tolist() == [0, 3]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            construction.select_code([0.5, 0.5], 3, criterion="symmetric")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="unknown selection criterion"):
            construction.select_code([0.5, 0.5], 1, criterion="tea-leaves")

    def test_unshaped_criteria_coincide(self):
        p = construction.estimate_symmetric_reliability(64, 0.0, ROLLOFF)
        a, b = (construction.select_code(p, 20, None, criterion=crit) for crit in construction.CRITERIA)
        assert np.array_equal(a.A, b.A)

    def test_constrained_selection_identity_order(self):
        # at the top shaping order the map is the identity on the top half
        p = construction.estimate_symmetric_reliability(16, 0.0, ROLLOFF)
        cfg = construction.select_code(p, 4, 3, criterion="cis-constrained")
        assert np.array_equal(cfg.A, cfg.A_dec)

    def test_constrained_selection_subset_of_cis(self):
        p = construction.estimate_symmetric_reliability(64, 0.0, ROLLOFF)
        spec = shaping.CisSpec(64, 2)
        cfg = construction.select_code(p, 20, 2, criterion="cis-constrained")
        assert np.all(np.isin(cfg.A, shaping.cis(spec)))
        # the 20 most reliable upper-half indices: a conventional pick on p[32:]
        upper = construction.select_code(p[32:], 20, criterion="symmetric")
        assert np.array_equal(cfg.A_dec, 32 + upper.A)

    def test_rate_bound(self):
        p = construction.estimate_symmetric_reliability(16, 0.0, ROLLOFF)
        with pytest.raises(ValueError):
            construction.select_code(p, 9, 1, criterion="cis-constrained")

    def test_determinism(self):
        p = construction.estimate_symmetric_reliability(64, 0.0, ROLLOFF)
        a = construction.select_code(p, 16, 1, criterion="cis-constrained")
        b = construction.select_code(p, 16, 1, criterion="cis-constrained")
        assert np.array_equal(a.A, b.A)


class TestMcsc:
    def test_single_index(self):
        p = construction.estimate_symmetric_reliability(16, 0.0, ROLLOFF)
        cfg = shaping.CodeConfig(N=16, r=None, A=np.array([15]))
        assert construction.mcsc(cfg, p) == p[15]

    def test_reads_through_inverse_map(self):
        p = construction.estimate_symmetric_reliability(16, 0.0, ROLLOFF)
        spec = shaping.CisSpec(16, 1)
        cfg = construction.select_code(p, 4, 1, criterion="cis-constrained")
        expect = np.min(p[shaping.cis_to_half(spec, cfg.A)])
        assert construction.mcsc(cfg, p) == expect

    def test_dominance_over_symmetric_criterion(self):
        # the constrained criterion can never do worse on its own metric
        for snr in (-2.0, 0.0, 2.0):
            p = construction.estimate_symmetric_reliability(128, snr, ROLLOFF)
            for r in (0, 2, 5):
                for K in (16, 32, 48):
                    c1 = construction.mcsc(construction.select_code(p, K, r, criterion="cis-constrained"), p)
                    c2 = construction.mcsc(construction.select_code(p, K, r, criterion="symmetric"), p)
                    assert c1 >= c2
