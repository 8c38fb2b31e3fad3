import numpy as np
import pytest

from combpolar import construction, shaping


class TestValidateParams:
    def test_reference_cases(self):
        assert construction.validate_params(800.0, 50.0, 256) == {
            "feasible": True, "recommended_r": 3,
        }
        assert construction.validate_params(800.0, 50.0, 1024) == {
            "feasible": True, "recommended_r": 5,
        }
        assert construction.validate_params(25600.0, 50.0, 1024) == {
            "feasible": True, "recommended_r": 0,
        }

    def test_feasible_without_recommendation(self):
        # quotient 3 is a positive integer but not a power of two
        out = construction.validate_params(300.0, 50.0, 256)  # 256/(12) not integer
        assert out["feasible"] is False
        out = construction.validate_params(2400.0, 450.0, 32)  # 32/(32/3) = 3
        assert out["feasible"] is True
        assert out["recommended_r"] is None

    def test_infeasible(self):
        assert construction.validate_params(800.0, 60.0, 256)["feasible"] is False

    def test_positivity(self):
        with pytest.raises(ValueError):
            construction.validate_params(-800.0, 50.0, 256)


class TestGaussianApproximation:
    def test_extreme_snr_limits(self):
        hi = construction.estimate_symmetric_reliability(2, 25.0)
        assert np.all(hi.capacity > 0.99)
        lo = construction.estimate_symmetric_reliability(2, -35.0)
        assert np.all(lo.capacity < 0.01)

    def test_polarization_partial_order(self):
        p = construction.estimate_symmetric_reliability(4, 0.0)
        c = p.capacity
        assert c[0] <= c[1] <= c[3]
        assert c[0] <= c[2] <= c[3]

    def test_profile_invariants(self):
        p = construction.estimate_symmetric_reliability(64, 1.0)
        assert len(p.capacity) == 64
        assert np.all((p.capacity >= 0) & (p.capacity <= 1))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            construction.estimate_symmetric_reliability(8, 0.0, method="tea-leaves")


class TestMonteCarloEstimator:
    def test_extreme_snr_limits(self):
        hi = construction.estimate_symmetric_reliability(
            2, 25.0, method="monte-carlo-genie", trials=20000, rng=np.random.default_rng(0)
        )
        assert np.all(hi.capacity > 0.99)
        lo = construction.estimate_symmetric_reliability(
            2, -35.0, method="monte-carlo-genie", trials=20000, rng=np.random.default_rng(1)
        )
        assert np.all(lo.capacity < 0.01)

    def test_partial_order_n4(self):
        p = construction.estimate_symmetric_reliability(
            4, 0.0, method="monte-carlo-genie", trials=50000, rng=np.random.default_rng(2)
        )
        c = p.capacity
        slack = 3 * np.max(p.std_err)
        assert c[0] <= c[1] + slack and c[1] <= c[3] + slack
        assert c[0] <= c[2] + slack and c[2] <= c[3] + slack

    def test_agrees_with_gaussian_approximation(self):
        # same ranking of the clearly-separated sub-channels at N = 16
        ga = construction.estimate_symmetric_reliability(16, 0.0)
        mc = construction.estimate_symmetric_reliability(
            16, 0.0, method="monte-carlo-genie", trials=50000, rng=np.random.default_rng(4)
        )
        assert np.max(np.abs(ga.capacity - mc.capacity)) < 0.06
        top_ga = set(np.argsort(-ga.capacity)[:4].tolist())
        top_mc = set(np.argsort(-mc.capacity)[:4].tolist())
        assert top_ga == top_mc


class TestSelection:
    def profile(self, capacity):
        return construction.ReliabilityProfile(
            len(capacity), 0.0, "gaussian-approximation", np.asarray(capacity)
        )

    def test_full_set(self):
        p = self.profile([0.1, 0.9, 0.4, 0.7])
        sel = construction.select_symmetric(p, 4, np.arange(4))
        assert sel.tolist() == [0, 1, 2, 3]

    def test_best_upper_half(self):
        p = construction.estimate_symmetric_reliability(16, 0.0)
        sel = construction.select_symmetric(p, 1, np.arange(8, 16))
        assert sel.tolist() == [15]

    def test_tie_break_smaller_index(self):
        p = self.profile([0.5, 0.5, 0.5, 0.9])
        sel = construction.select_symmetric(p, 2, np.arange(4))
        assert sel.tolist() == [0, 3]

    def test_k_too_large(self):
        p = self.profile([0.5, 0.5])
        with pytest.raises(ValueError):
            construction.select_symmetric(p, 3, np.arange(2))

    def test_constrained_selection_identity_order(self):
        # at the top shaping order the map is the identity on the top half
        p = construction.estimate_symmetric_reliability(16, 0.0)
        cfg = construction.select_cis_constrained(p, 4, shaping.CisSpec(16, 3))
        assert np.array_equal(cfg.A, cfg.A_dec)

    def test_constrained_selection_subset_of_cis(self):
        p = construction.estimate_symmetric_reliability(64, 0.0)
        spec = shaping.CisSpec(64, 2)
        cfg = construction.select_cis_constrained(p, 20, spec)
        assert np.all(np.isin(cfg.A, shaping.cis(spec)))
        assert np.array_equal(
            cfg.A_dec, construction.select_symmetric(p, 20, np.arange(32, 64))
        )

    def test_rate_bound(self):
        p = construction.estimate_symmetric_reliability(16, 0.0)
        with pytest.raises(ValueError):
            construction.select_cis_constrained(p, 9, shaping.CisSpec(16, 1))

    def test_determinism(self):
        p = construction.estimate_symmetric_reliability(64, 0.0)
        spec = shaping.CisSpec(64, 1)
        a = construction.select_cis_constrained(p, 16, spec)
        b = construction.select_cis_constrained(p, 16, spec)
        assert np.array_equal(a.A, b.A)


class TestMcsc:
    def test_single_index(self):
        p = construction.estimate_symmetric_reliability(16, 0.0)
        cfg = shaping.CodeConfig(N=16, K=1, r=None, A=np.array([15]))
        assert construction.mcsc(cfg, p) == p.capacity[15]

    def test_reads_through_inverse_map(self):
        p = construction.estimate_symmetric_reliability(16, 0.0)
        spec = shaping.CisSpec(16, 1)
        cfg = construction.select_cis_constrained(p, 4, spec)
        expect = np.min(p.capacity[shaping.cis_to_half(spec, cfg.A)])
        assert construction.mcsc(cfg, p) == expect

    def test_dominance_over_symmetric_criterion(self):
        # the constrained criterion can never do worse on its own metric
        for snr in (-2.0, 0.0, 2.0):
            p = construction.estimate_symmetric_reliability(128, snr)
            for r in (0, 2, 5):
                spec = shaping.CisSpec(128, r)
                for K in (16, 32, 48):
                    c1 = construction.mcsc(construction.select_cis_constrained(p, K, spec), p)
                    c2 = construction.mcsc(construction.select_symmetric_in_cis(p, K, spec), p)
                    assert c1 >= c2
