import numpy as np
import pytest
from scipy.signal import fftconvolve

import link_reference
from combpolar import modem, polar, shaping


class TestBpskMap:
    def test_mapping(self):
        assert modem.bpsk_map([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]

    def test_all_zeros(self):
        assert np.all(modem.bpsk_map(np.zeros(16, dtype=np.uint8)) == 1.0)

    def test_antipodal_flip_identity(self):
        # (1-2v)(q(u) - qa) + qa == q(u xor v) with qa = 0
        q = lambda b: modem.bpsk_map([b])[0]
        for u in (0, 1):
            for v in (0, 1):
                assert (1 - 2 * v) * q(u) == q(u ^ v)


class TestSrrcTaps:
    def test_unit_energy_and_symmetry(self):
        for beta in (0.0, 0.25, 0.5, 1.0):
            for span in (4, 8, 16):
                taps = modem.srrc_taps(modem.PulseSpec(beta, span, 8))
                assert len(taps) == span * 8 + 1
                assert abs(np.sum(taps**2) - 1.0) < 1e-12
                assert np.array_equal(taps, taps[::-1])

    def test_zero_rolloff_is_sinc(self):
        spec = modem.PulseSpec(0.0, 16, 8)
        taps = modem.srrc_taps(spec)
        t = (np.arange(len(taps)) - (len(taps) - 1) / 2) / 8
        ref = np.sinc(t)
        ref /= np.sqrt(np.sum(ref**2))
        assert np.max(np.abs(taps - ref)) < 1e-12

    def test_singular_points_finite(self):
        # beta = 0.25 puts the removable singularity exactly on tap grid
        taps = modem.srrc_taps(modem.PulseSpec(0.25, 8, 8))
        assert np.all(np.isfinite(taps))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            modem.PulseSpec(1.5, 8, 8)
        with pytest.raises(ValueError):
            modem.PulseSpec(0.25, 0, 8)


def modulate_bits(bits, spec):
    return modem.modulate_symbols(modem.bpsk_map(bits), spec)


class TestModulate:
    def test_single_symbol_is_impulse_response(self):
        spec = modem.PulseSpec(0.25, 8, 8)
        samples = modulate_bits(np.array([0]), spec)
        taps = modem.srrc_taps(spec)
        assert len(samples) == 8 + 64
        assert np.allclose(samples[: len(taps)], taps)
        assert np.allclose(samples[len(taps):], 0.0)

    def test_output_length_and_batch_rows(self):
        rng = np.random.default_rng(3)
        spec = modem.PulseSpec(0.25, 8, 8)
        bits = rng.integers(0, 2, (5, 256), dtype=np.uint8)
        batch = modulate_bits(bits, spec)
        assert batch.shape == (5, 256 * 8 + 8 * 8)
        for row, b in zip(batch, bits):
            assert np.max(np.abs(row - modulate_bits(b, spec))) < 1e-12

    @pytest.mark.parametrize("shape", [(1,), (255,), (3, 256), (2, 6400)])
    def test_matches_scipy_fftconvolve(self, shape):
        spec = modem.PulseSpec(0.25, 16, 8)
        symbols = modem.bpsk_map(np.random.default_rng(shape[-1]).integers(0, 2, shape))
        up = np.zeros(shape[:-1] + (shape[-1] * spec.sps,))
        up[..., :: spec.sps] = symbols
        taps = modem.srrc_taps(spec).reshape((1,) * (up.ndim - 1) + (-1,))
        ref = fftconvolve(up, taps, mode="full", axes=-1)
        got = modem.modulate_symbols(symbols, spec)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_superposition_of_shifted_pulses(self):
        spec = modem.PulseSpec(0.25, 8, 8)
        samples = modulate_bits(np.zeros(4, dtype=np.uint8), spec)
        taps = modem.srrc_taps(spec)
        ref = np.zeros(4 * 8 + 64)
        for n in range(4):
            ref[n * 8 : n * 8 + len(taps)] += taps
        assert np.max(np.abs(samples - ref)) < 1e-12

    def test_repetition_identity_for_shaped_codewords(self):
        # a locally periodic codeword modulates to s0 + delay(s0, L*sps)
        rng = np.random.default_rng(4)
        N, r = 256, 3
        m = 8
        spec = modem.PulseSpec(0.25, 8, 8)
        lam = shaping.cis(shaping.CisSpec(N, r))
        u = np.zeros(N, dtype=np.uint8)
        u[rng.choice(lam, 64, replace=False)] = rng.integers(0, 2, 64)
        x = polar.encode(u)
        L = 1 << (m - r - 1)
        assert shaping.is_locally_periodic(x, L, 2)
        sym = modem.bpsk_map(x)
        first_period = np.zeros(N)
        for k in range(N // (2 * L)):
            first_period[k * 2 * L : k * 2 * L + L] = 1
        s0 = modem.modulate_symbols(sym * first_period, spec)
        full = modem.modulate_symbols(sym, spec)
        shifted = np.concatenate([np.zeros(L * 8), s0[: -L * 8]])
        assert np.max(np.abs(full - (s0 + shifted))) < 1e-12

    def test_mean_power(self):
        # unit-energy taps: frame energy equals symbol count
        rng = np.random.default_rng(5)
        spec = modem.PulseSpec(0.25, 8, 8)
        bits = rng.integers(0, 2, 4096, dtype=np.uint8)
        samples = modulate_bits(bits, spec)
        assert abs(np.sum(samples**2) / 4096 - 1.0) < 0.02


    @pytest.mark.parametrize("spec", (modem.PulseSpec(0.25, 16, 8), modem.PulseSpec(0.5, 8, 4),
                                      modem.PulseSpec(0.0, 4, 2)))
    def test_pulse_spectrum_folds_the_waveform_spectrum(self, spec):
        # the L-point FFT of a modulated frame is its (n + span)-point symbol
        # spectrum times each row of pulse_spectrum, row after row
        bits = np.random.default_rng(10).integers(0, 2, (3, 64), dtype=np.uint8)
        ref = np.fft.fft(modulate_bits(bits, spec), axis=-1)
        pulse = modem.pulse_spectrum(spec, 64)
        assert pulse.shape == (spec.sps, 64 + spec.span_symbols)
        got = np.fft.fft(modem.bpsk_map(bits), pulse.shape[1])[:, None, :] * pulse
        assert np.max(np.abs(got.reshape(ref.shape) - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the taps are symmetric, so the matched filter has the same spectrum
        taps = modem.srrc_taps(spec)
        assert np.array_equal(pulse.ravel(), np.fft.fft(np.conj(taps[::-1]), pulse.size))


class TestDemodulate:
    """The matched filter and symbol sampler of the waveform reference link."""

    def test_noiseless_round_trip_hard_decisions(self):
        rng = np.random.default_rng(6)
        spec = modem.PulseSpec(0.25, 8, 8)
        bits = rng.integers(0, 2, (4, 256), dtype=np.uint8)
        y = link_reference.matched_filter(modulate_bits(bits, spec), spec, 256)
        assert np.array_equal(np.sign(np.real(y)), modem.bpsk_map(bits))

    def test_isi_levels(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, (4, 256), dtype=np.uint8)
        for span, bound in ((8, 2.5e-2), (16, 5e-3), (32, 1.1e-3)):
            spec = modem.PulseSpec(0.25, span, 8)
            y = link_reference.matched_filter(modulate_bits(bits, spec), spec, 256)
            assert np.max(np.abs(np.real(y) - modem.bpsk_map(bits))) < bound

    def test_linearity_in_scale(self):
        rng = np.random.default_rng(8)
        spec = modem.PulseSpec(0.25, 8, 8)
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        samples = modulate_bits(bits, spec)
        y1 = link_reference.matched_filter(samples, spec, 64)
        y2 = link_reference.matched_filter(2.5 * samples, spec, 64)
        assert np.allclose(y2, 2.5 * y1)

    def test_noise_variance_preserved(self):
        # white noise with per-sample variance v stays at v per symbol
        rng = np.random.default_rng(9)
        spec = modem.PulseSpec(0.25, 8, 8)
        v = 0.7
        shape = (10, 8000)
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(v / 2)
        y = link_reference.matched_filter(noise, spec, 900)
        assert y.shape == (10, 900)
        assert abs(np.var(y) / v - 1.0) < 0.05

    def test_too_short_signal(self):
        spec = modem.PulseSpec(0.25, 8, 8)
        samples = modulate_bits(np.zeros((2, 4), dtype=np.uint8), spec)
        with pytest.raises(ValueError, match="too short"):
            link_reference.matched_filter(samples, spec, 400)
