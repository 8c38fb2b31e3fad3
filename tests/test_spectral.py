import numpy as np
import pytest

from combpolar import modem, polar, shaping, spectral


class TestGWindow:
    def test_dc_value(self):
        for M in (2, 3, 7):
            assert spectral.g_window(M, 0.5, 0.0) == M

    def test_half_grid_null(self):
        assert abs(spectral.g_window(2, 1.0, 0.5)) < 1e-12

    def test_closed_form_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for M, T in ((2, 1.0), (3, 0.013), (8, 2.5)):
            f = rng.uniform(-5 / T, 5 / T, 1000)
            direct = np.sum(
                np.exp(-2j * np.pi * np.outer(f, T * np.arange(M))), axis=1
            )
            closed = spectral.g_window(M, T, f)
            assert np.max(np.abs(closed - direct)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral.g_window(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            spectral.g_window(2, 0.0, 0.0)


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
        with pytest.raises(ValueError):
            spectral.welch_psd(np.zeros(100), 100.0, segment=200)


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
    def test_factorization_of_repeated_signal(self):
        # FFT of sum of M shifted copies = FFT of one copy times the window
        rng = np.random.default_rng(4)
        M, D, total = 3, 64, 512
        s0 = np.zeros(total, dtype=complex)
        s0[:100] = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        s = sum(np.roll(s0, m * D) for m in range(M))
        fs = 1000.0
        freqs = np.fft.fftfreq(total, 1 / fs)
        ref = np.fft.fft(s0) * spectral.g_window(M, D / fs, freqs)
        assert np.max(np.abs(np.fft.fft(s) - ref)) < 1e-9

    def test_shaped_codeword_nulls_machine_precision(self):
        rng = np.random.default_rng(5)
        for N in (64, 256):
            m = N.bit_length() - 1
            for r in range(m):
                lam = shaping.cis(shaping.CisSpec(N, r))
                bins = spectral.exact_null_bins(N, r, 4)
                for _ in range(5):
                    K = int(rng.integers(1, N // 2 + 1))
                    u = np.zeros(N, dtype=np.uint8)
                    u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
                    mag = spectral.exact_spectrum_magnitude(polar.encode(u), 4)
                    assert mag[bins].max() / mag.max() < 1e-9

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
