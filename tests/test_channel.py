"""The link's channel: calibrate_channel for the levels, and impair, the
waveform reference of the link, for a block of frames.  The FER link's
spectral form, received_spectrum, is checked against impair in
test_simulate.py."""

import dataclasses

import numpy as np
import pytest

from combpolar import channel, modem, polar, shaping
from combpolar.config import ConfigError, ExperimentConfig, load_config


def link_cfg(**kw):
    """The reference link: N=256 at 800 Hz, 8 samples/symbol, 50 Hz grid."""
    return dataclasses.replace(ExperimentConfig(), **kw).validate()


def tx_frames(cfg, n_frames, seed=0):
    bits = np.random.default_rng(seed).integers(0, 2, (n_frames, cfg.N), dtype=np.uint8)
    return modem.modulate_symbols(modem.bpsk_map(bits), cfg.pulse)


def received(cfg, snr_db, s, seed=0):
    gens = [np.random.default_rng([seed, k]) for k in range(len(s))]
    return channel.impair(channel.calibrate_channel(cfg, snr_db), s, gens)


def power_in(x, cfg, lo, hi):
    """Mean per-sample power of the frames' component inside [lo, hi] Hz."""
    L = x.shape[-1]
    f = np.fft.fftfreq(L, d=1.0 / cfg.sample_rate)
    spec = np.fft.fft(x, axis=-1)[..., (f >= lo) & (f <= hi)]
    return float(np.mean(np.sum(np.abs(spec) ** 2, axis=-1)) / L**2)


def ratio_db(a, b):
    return 10 * np.log10(a / b)


class TestAddAwgn:
    """Noise calibrated against the in-band signal power."""

    def test_infinite_snr_is_identity(self):
        cfg = link_cfg(sir_db=None, comb_enabled=False)
        s = tx_frames(cfg, 4)
        assert channel.calibrate_channel(cfg, np.inf).noise_sigma2 == 0.0
        assert np.array_equal(received(cfg, np.inf, s), s.astype(np.complex128))

    def test_requested_snr_is_met(self):
        # with interference on, for both tone models: the noise is the
        # difference to the same draws at infinite SNR
        for model in ("noise", "sinusoid"):
            cfg = link_cfg(tone_model=model, comb_enabled=False)
            s = tx_frames(cfg, 200)
            noise = received(cfg, -1.0, s) - received(cfg, np.inf, s)
            snr = ratio_db(power_in(s, cfg, *cfg.band), power_in(noise, cfg, *cfg.band))
            assert abs(snr - (-1.0)) < 0.1, (model, snr)

    def test_zero_db_matches_powers(self):
        cfg = link_cfg(sir_db=None, comb_enabled=False)
        s = tx_frames(cfg, 200, seed=2)
        noise = received(cfg, 0.0, s, seed=2) - s
        assert abs(ratio_db(power_in(noise, cfg, *cfg.band),
                            power_in(s, cfg, *cfg.band))) < 0.1

    def test_noise_whiteness(self):
        cfg = link_cfg(sir_db=None, comb_enabled=False)
        z = received(cfg, 0.0, np.zeros((20, 2176)), seed=5)
        z = z - z.mean()
        n = z.size
        for lag in (1, 3, 10, 100):
            rho = np.vdot(z[:, :-lag], z[:, lag:]) / np.vdot(z, z).real
            assert abs(rho) < 5 / np.sqrt(n)

    def test_empty_band_rejected(self):
        with pytest.raises(ConfigError, match="symbol rate"):
            load_config(None, {"modem": {"symbol_rate_hz": 0.0}})


class TestPeriodicInterference:
    """Tones on the periodic grid, calibrated to the in-band SIR."""

    def test_infinite_sir_is_identity(self):
        for sir in (None, np.inf):
            cfg = link_cfg(sir_db=sir, comb_enabled=False)
            s = tx_frames(cfg, 4)
            assert channel.calibrate_channel(cfg, np.inf).intf_scale == 0.0
            assert np.array_equal(received(cfg, np.inf, s), s.astype(np.complex128))

    def test_tone_centers_grid(self):
        centers = channel.tone_centers(50.0, 25.0, 150.0)
        assert centers.tolist() == [-125.0, -75.0, -25.0, 25.0, 75.0, 125.0]

    def test_power_concentrated_in_tone_bands(self):
        cfg = link_cfg(comb_enabled=False)
        s = tx_frames(cfg, 20, seed=1)
        intf = received(cfg, np.inf, s, seed=1) - s
        centers = channel.tone_centers(50.0, 25.0, cfg.sample_rate / 2)
        in_tones = sum(power_in(intf, cfg, c - 10.0001, c + 10.0001) for c in centers)
        total = np.mean(np.abs(intf) ** 2)
        assert in_tones / total > 0.999

    def test_requested_sir_is_met(self):
        for model, tol in (("noise", 0.2), ("sinusoid", 0.5)):
            cfg = link_cfg(tone_model=model, comb_enabled=False)
            s = tx_frames(cfg, 200, seed=3)
            intf = received(cfg, np.inf, s, seed=3) - s
            sir = ratio_db(power_in(s, cfg, *cfg.band), power_in(intf, cfg, *cfg.band))
            assert abs(sir - (-20.0)) < tol, (model, sir)

    def test_determinism(self):
        cfg = link_cfg()
        s = tx_frames(cfg, 4)
        assert np.array_equal(received(cfg, 0.0, s, seed=9), received(cfg, 0.0, s, seed=9))
        assert not np.allclose(received(cfg, 0.0, s, seed=9), received(cfg, 0.0, s, seed=10))

    def test_overlapping_tones_rejected(self):
        with pytest.raises(ConfigError, match="tone bandwidth"):
            load_config(None, {"channel": {"tone_bandwidth_hz": 60.0}})

    def test_sinusoid_tone_model(self):
        # every frame's interference is one random-phase tone of equal
        # amplitude at each grid center
        cfg = link_cfg(tone_model="sinusoid", comb_enabled=False)
        ch = channel.calibrate_channel(cfg, np.inf)
        s = tx_frames(cfg, 3, seed=4)
        intf = received(cfg, np.inf, s, seed=4) - s
        coef = np.linalg.lstsq(ch.tone_basis.T, intf.T, rcond=None)[0]
        assert np.max(np.abs(intf - (ch.tone_basis.T @ coef).T)) < 1e-9
        assert np.allclose(np.abs(coef), ch.intf_scale, rtol=1e-9)

    def test_unknown_tone_model(self):
        with pytest.raises(ConfigError, match="tone model"):
            dataclasses.replace(ExperimentConfig(), tone_model="square").validate()


class TestCombFilter:
    """The receiver comb: notches of the notch bandwidth on the tone grid."""

    def tone_gain(self, freq_hz):
        # span 32 makes the frame 2304 samples, which puts 25 + 25k Hz on FFT bins
        cfg = link_cfg(sir_db=None, pulse=modem.PulseSpec(0.25, 32, 8))
        t = np.arange(2304) / cfg.sample_rate
        tone = np.exp(2j * np.pi * freq_hz * t)[None, :]
        out = received(cfg, np.inf, tone)
        return np.sum(np.abs(out) ** 2) / np.sum(np.abs(tone) ** 2)

    def test_tone_at_notch_center_removed(self):
        assert self.tone_gain(25.0) < 1e-20

    def test_tone_between_notches_passes(self):
        assert abs(self.tone_gain(50.0) - 1.0) < 1e-9  # midway between 25 and 75

    def test_interference_removal(self):
        # removed when the tones fit inside the notches, not otherwise
        for tone_bw, notch_bw, removed in ((20.0, 20.0, True), (10.0, 20.0, True),
                                           (30.0, 10.0, False)):
            cfg = link_cfg(tone_bandwidth_hz=tone_bw, notch_bandwidth_hz=notch_bw)
            s = tx_frames(cfg, 20, seed=3)
            clean = received(dataclasses.replace(cfg, sir_db=None), np.inf, s, seed=3)
            resid = received(cfg, np.inf, s, seed=3) - clean
            intf = received(dataclasses.replace(cfg, comb_enabled=False), np.inf, s, seed=3) - s
            frac = np.sum(np.abs(resid) ** 2) / np.sum(np.abs(intf) ** 2)
            assert (frac < 1e-20) if removed else (frac > 0.3), (tone_bw, notch_bw, frac)

    def test_shaped_codeword_suffers_less_distortion(self):
        rng = np.random.default_rng(11)
        cfg = link_cfg(sir_db=None)
        N, K = cfg.N, cfg.K
        lam = shaping.cis(shaping.CisSpec(N, cfg.r))
        u_shaped = np.zeros((100, N), dtype=np.uint8)
        for u in u_shaped:
            u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
        u_conv = rng.integers(0, 2, (100, N), dtype=np.uint8)
        loss = {}
        for name, u in (("shaped", u_shaped), ("conventional", u_conv)):
            s = modem.modulate_symbols(modem.bpsk_map(polar.encode(u)), cfg.pulse)
            d = received(cfg, np.inf, s) - s
            loss[name] = np.mean(np.sum(np.abs(d) ** 2, axis=1) / np.sum(s**2, axis=1))
        assert loss["shaped"] < 0.5 * loss["conventional"]

    def test_needs_centers(self):
        with pytest.raises(ConfigError, match="notch bandwidth"):
            load_config(None, {"comb_filter": {"notch_bandwidth_hz": -5.0}})
        with pytest.raises(ConfigError, match="no tone"):
            load_config(None, {"code": {"r": None}, "decoder": {"mode": "plain"},
                               "channel": {"fundamental_hz": 2000.0, "tone_offset_hz": 600.0}})
