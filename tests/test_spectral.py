import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

from combpolar import polar, selftest, simulate, spectral
from combpolar.config import load_config

REFERENCE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.json")


def scipy_welch(samples, sample_rate, segment):
    """scipy's Welch estimate with the settings welch_psd fixes, on an
    ascending frequency grid."""
    freqs, psd = signal.welch(samples, fs=sample_rate, window="hann", nperseg=segment,
                              noverlap=int(0.5 * segment), detrend=False,
                              return_onesided=False, scaling="density")
    order = np.argsort(freqs)
    return freqs[order], psd[order]


class TestNullSet:
    def test_reference_scenario(self):
        nulls = spectral.null_set(256, 3, 800.0, 130.0)
        assert nulls.tolist() == [-125.0, -75.0, -25.0, 25.0, 75.0, 125.0]

    def test_codeword_frequency(self):
        # semiperiod = 2^r * symbol_rate / N
        nulls = spectral.null_set(256, 0, 800.0, 10.0)
        assert np.allclose(np.diff(nulls), 2 * 800.0 / 256)
        assert abs(nulls[nulls > 0][0] - 3.125) < 1e-12

    def test_long_code_same_grid(self):
        a = spectral.null_set(256, 3, 800.0, 500.0)
        b = spectral.null_set(1024, 5, 800.0, 500.0)
        assert np.array_equal(a, b)


class TestCoveringOrder:
    """The one shaping order whose nulls hold every tone of the grid."""

    def test_reference_cases(self):
        # (N, symbol rate, fundamental, offset) -> order
        assert spectral.covering_order(256, 800.0, 50.0, 25.0) == 3
        assert spectral.covering_order(1024, 800.0, 50.0, 25.0) == 5
        assert spectral.covering_order(1024, 25600.0, 50.0, 25.0) == 0

    def test_quotient_not_a_power_of_two(self):
        # N*fundamental/(2*symbol_rate) = 3; nulls at odd multiples of 75 Hz
        # still hold the tones 225 + 450k Hz
        assert spectral.covering_order(32, 2400.0, 450.0, 225.0) == 0

    def test_no_order(self):
        assert spectral.covering_order(256, 800.0, 60.0, 25.0) is None
        assert spectral.covering_order(256, 300.0, 50.0, 25.0) is None
        # a tone at DC sits on no null
        assert spectral.covering_order(256, 800.0, 50.0, 0.0) is None

    def test_agrees_with_null_membership(self):
        # with two neighbouring tones in range, the nulls hold every tone in
        # range iff they hold the whole grid
        covered = 0
        for N, rate, fun, frac in itertools.product(
            (16, 64, 256), (400.0, 800.0, 2400.0), (25.0, 50.0, 150.0, 450.0),
            (0.0, 0.125, 0.25, 0.5, 0.75, 1 / 3),
        ):
            offset, f_max = fun * frac, 2 * fun
            tones = spectral.tone_centers(fun, offset, f_max)
            assert len(tones) >= 2
            holding = [
                r for r in range(N.bit_length() - 1)
                if all(np.any(np.isclose(spectral.null_set(N, r, rate, f_max), t,
                                         rtol=0.0, atol=1e-9)) for t in tones)
            ]
            order = spectral.covering_order(N, rate, fun, offset)
            assert holding == ([] if order is None else [order]), (N, rate, fun, offset)
            covered += order is not None
        assert covered >= 10


class TestWelchPsd:
    def test_white_noise_flat(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2**19) + 1j * rng.standard_normal(2**19)
        est = spectral.welch_psd(x, 1000.0, segment=1024)
        db = 10 * np.log10(est.psd)
        assert np.max(np.abs(db - np.mean(db))) < 1.0

    def test_tone_peak_bin(self):
        fs, f0 = 1000.0, 123.4
        t = np.arange(2**16) / fs
        x = np.exp(2j * np.pi * f0 * t)
        est = spectral.welch_psd(x, fs, segment=4096)
        peak = est.freqs[np.argmax(est.psd)]
        assert abs(peak - f0) <= fs / 4096

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2**18)
        est = spectral.welch_psd(x, 2000.0, segment=4096)
        df = est.freqs[1] - est.freqs[0]
        ratio = np.sum(est.psd) * df / np.mean(np.abs(x) ** 2)
        assert 0.99 < ratio < 1.01

    def test_grid_spans_two_sided(self):
        x = np.random.default_rng(3).standard_normal(8192)
        est = spectral.welch_psd(x, 100.0, segment=1024)
        assert est.freqs[0] == -50.0
        assert est.freqs[-1] < 50.0
        assert np.all(np.diff(est.freqs) > 0)
        assert np.all(est.psd >= 0)

    def test_segment_validation(self):
        # a 1-point periodic Hann window is [0], which would give a NaN PSD
        for segment in (200, 1, 0):
            with pytest.raises(ValueError, match="segment"):
                spectral.welch_psd(np.zeros(100), 100.0, segment=segment)

    @pytest.mark.parametrize("segment, length", [
        (3, 5000), (4, 5000), (17, 5000), (1024, 5000), (16384, 65536),
        (5000, 5000), (1001, 1001),  # one segment spanning the signal
    ])
    def test_matches_scipy_on_white_noise(self, segment, length):
        x = np.random.default_rng(segment).standard_normal(length)
        est = spectral.welch_psd(x, 100.0, segment=segment)
        freqs, psd = scipy_welch(x, 100.0, segment)
        assert np.array_equal(est.freqs, freqs)
        np.testing.assert_allclose(est.psd, psd, rtol=1e-12, atol=0)

    def test_matches_scipy_on_the_reference_psd_signal(self, tmp_path, monkeypatch):
        # the signal `psd` estimates on configs/reference.json; relative to
        # the peak, since the deep nulls differ more per bin (about 1e-10)
        seen = []

        def spy(samples, sample_rate, *, segment):
            seen.append((samples, sample_rate, segment))
            return spectral.welch_psd(samples, sample_rate, segment=segment)

        monkeypatch.setattr(simulate, "welch_psd", spy)
        simulate.run_psd(load_config(REFERENCE_CONFIG), str(tmp_path))
        (samples, sample_rate, segment), = seen
        est = spectral.welch_psd(samples, sample_rate, segment=segment)
        freqs, psd = scipy_welch(samples, sample_rate, segment)
        assert np.array_equal(est.freqs, freqs)
        assert np.max(np.abs(est.psd - psd)) <= 1e-12 * np.max(psd)


class TestNullDepth:
    def test_flat_psd_zero_depth(self):
        est = spectral.PsdEstimate(np.linspace(-50, 50, 101), np.ones(101))
        depths = spectral.null_depth(est, [-20.0, 0.0, 17.5], (-40, 40))
        assert np.max(np.abs(depths)) < 1e-9

    def test_notched_psd(self):
        freqs = np.linspace(-50, 50, 1001)
        psd = np.ones(1001)
        psd[np.abs(freqs - 10.0) < 0.2] = 1e-3
        est = spectral.PsdEstimate(freqs, psd)
        d = spectral.null_depth(est, [10.0], (-40, 40))
        assert d[0] > 29.0

    def test_out_of_range_frequency(self):
        est = spectral.PsdEstimate(np.linspace(-50, 50, 11), np.ones(11))
        with pytest.raises(ValueError):
            spectral.null_depth(est, [60.0], (-40, 40))


class TestExactTier:
    def test_shaped_codeword_nulls_machine_precision(self):
        ok, detail = selftest.check_exact_nulls(sizes=(64, 256), draws=5, seed=5)
        assert ok, detail

    def test_null_bins_match_null_set(self):
        N, r, sps, Rs = 256, 3, 8, 800.0
        bins = spectral.exact_null_bins(N, r, sps)
        L = N * sps
        freqs = np.fft.fftfreq(L, 1 / (Rs * sps))
        got = np.sort(freqs[bins])
        expect = spectral.null_set(N, r, Rs, Rs * sps / 2)
        expect = expect[np.abs(expect) < Rs * sps / 2]
        # every predicted null below Nyquist lands on a tested bin
        assert np.all(np.isin(np.round(expect, 6), np.round(got, 6)))

    def test_violation_detected(self):
        # one information index outside the shaping set destroys a null
        N, r = 64, 2
        u = np.zeros(N, dtype=np.uint8)
        u[8] = 1  # bit 2 of 8 is 0: not in the order-2 set
        mag = spectral.exact_spectrum_magnitude(polar.encode(u), 4)
        bins = spectral.exact_null_bins(N, r, 4)
        assert mag[bins].max() / mag.max() > 1e-3


class TestAverageWelch:
    def test_averaging_reduces_variance(self):
        # run_psd estimates over the concatenated frames, so Welch's
        # segment averaging spans all of them
        rng = np.random.default_rng(6)
        frames = [rng.standard_normal(4096) for _ in range(40)]
        one = spectral.welch_psd(frames[0], 100.0, segment=1024)
        avg = spectral.welch_psd(np.concatenate(frames), 100.0, segment=1024)
        assert np.std(avg.psd) < np.std(one.psd)
