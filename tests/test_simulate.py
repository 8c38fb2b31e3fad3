import dataclasses
import json
import multiprocessing
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

import link_reference
from combpolar import channel, modem, polar, selftest, shaping, simulate
from combpolar.cli import main as cli_main
from combpolar.config import ARM_PRESETS, ConfigError, ExperimentConfig, load_config
from combpolar.decoder import ccd_decode_batch
from combpolar.spectral import tone_centers

REFERENCE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.json")
ARMS = tuple(ARM_PRESETS)


def tiny_cfg(**kw):
    """A fast feasible scenario: N=64, r=1 at 800 Hz / 50 Hz."""
    return ExperimentConfig(**{
        "N": 64, "K": 16, "r": 1, "list_size": 4, "pulse": modem.PulseSpec(0.25, 8, 8),
        "snr_sweep_db": (0.0,), "min_frame_errors": 5, "max_frames": 256,
        "construction_trials": 5000, "design_snr_db": 1.0, **kw})


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.N == 256 and cfg.K == 96 and cfg.r == 3
        assert cfg.criterion == "cis-constrained"

    def test_unknown_top_level_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"coed": {"N": 64}}))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(p))

    def test_unknown_nested_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"code": {"N": 64, "rr": 2}}))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(p))

    def test_infeasible_parameters_cite_constraint(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "code": {"N": 256, "K": 64, "r": 3},
            "channel": {"fundamental_hz": 60.0},
        }))
        with pytest.raises(ConfigError, match="not a positive integer"):
            load_config(str(p))

    def test_rate_above_half_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"code": {"N": 256, "K": 130, "r": 3}}))
        with pytest.raises(ConfigError, match="rate exceeds 1/2"):
            load_config(str(p))

    def test_wrong_order_for_grid(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"code": {"N": 256, "K": 64, "r": 2}}))
        with pytest.raises(ConfigError, match="r = 3"):
            load_config(str(p))

    def test_ccd_needs_shaping(self):
        with pytest.raises(ConfigError, match="ccd decoding needs a shaped code"):
            ExperimentConfig(r=None)

    def test_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.threads = 2
        assert cfg.threads == 1

    @pytest.mark.parametrize("change, data", [
        ({"threads": 0}, {"threads": 0}),
        ({"K": 0}, {"code": {"K": 0}}),
        ({"snr_sweep_db": ()}, {"snr_sweep_db": []}),
    ], ids=["threads", "K", "snr_sweep_db"])
    def test_replace_checks_as_load_does(self, tmp_path, change, data):
        # a config changed in code fails where and as the same JSON fails to load
        p = tmp_path / "c.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as loaded:
            load_config(str(p))
        with pytest.raises(ConfigError) as replaced:
            dataclasses.replace(ExperimentConfig(), **change)
        assert str(replaced.value) == str(loaded.value)

    def test_conventional_loads(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "code": {"N": 128, "K": 64, "r": None},
            "decoder": {"mode": "plain"},
        }))
        cfg = load_config(str(p))
        assert cfg.r is None and cfg.N == 128

    def test_snr_db_key_rejected(self, tmp_path):
        # the sweep sets the link SNR; a single channel SNR is not a key
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"channel": {"snr_db": 99.0}}))
        with pytest.raises(ConfigError, match="unknown config key 'channel'.'snr_db'"):
            load_config(str(p))

    def test_for_arm(self):
        cfg = tiny_cfg()
        cp, nonc, c = (cfg.for_arm(a) for a in ("cp", "csp-nonc", "csp-c"))
        assert (cp.r, cp.criterion, cp.decoder_mode) == (None, "symmetric", "plain")
        assert (nonc.r, nonc.criterion, nonc.decoder_mode) == (1, "symmetric", "plain")
        assert (c.r, c.criterion, c.decoder_mode) == (1, "cis-constrained", "ccd")
        assert cfg.for_arm("cp") is not cfg and cfg.r == 1
        with pytest.raises(ConfigError, match="unknown arm"):
            cfg.for_arm("csp")
        for arm in ("csp-nonc", "csp-c"):
            with pytest.raises(ConfigError, match=f"arm '{arm}' needs a shaped code"):
                cp.for_arm(arm)


class TestWilson:
    def test_basic_properties(self):
        lo, hi = simulate.wilson_interval(10, 100)
        assert 0 < lo < 0.1 < hi < 1
        lo0, hi0 = simulate.wilson_interval(0, 100)
        assert lo0 == 0.0 and hi0 < 0.05

    def test_empty(self):
        assert simulate.wilson_interval(0, 0) == (0.0, 1.0)

    def test_exact_ends(self):
        # center -/+ half does not cancel exactly at every n (lo 4.3e-19 at n = 600)
        for n in range(1, 5001):
            none, every = simulate.wilson_interval(0, n), simulate.wilson_interval(n, n)
            assert none[0] == 0.0 and every[1] == 1.0, n
            assert all(type(b) is float for b in none + every), n


class TestBuildCode:
    def test_constrained_criterion(self):
        cfg = tiny_cfg()
        code = simulate.build_code(cfg)
        lam = shaping.cis(shaping.CisSpec(64, 1))
        assert np.all(np.isin(code.A, lam))
        assert np.all(code.A_dec >= 32)

    def test_conventional(self):
        cfg = tiny_cfg(r=None, decoder_mode="plain", criterion="symmetric")
        code = simulate.build_code(cfg)
        assert code.r is None and len(code.A) == 16


class TestLinkDeterminism:
    def test_replay_identical(self):
        cfg = tiny_cfg()
        code = simulate.build_code(cfg)
        link = simulate.make_link(cfg, code, 0.0)
        e1 = simulate.run_link_frames(link, range(64))
        e2 = simulate.run_link_frames(link, range(64))
        assert np.array_equal(e1, e2)

    def test_batch_split_invariant(self):
        # a split off the 64-frame block boundaries, over three blocks
        cfg = tiny_cfg()
        code = simulate.build_code(cfg)
        link = simulate.make_link(cfg, code, 0.0)
        whole = simulate.run_link_frames(link, range(150))
        parts = np.concatenate([
            simulate.run_link_frames(link, range(0, 17)),
            simulate.run_link_frames(link, range(17, 150)),
        ])
        assert np.array_equal(whole, parts)

    def test_frames_do_not_depend_on_the_cap(self):
        # a final partial block is drawn whole: the first 100 frames are the
        # same whether the run stops at 100 or 256 frames
        cfg = tiny_cfg(min_frame_errors=10**6)
        link = simulate.make_link(cfg, simulate.build_code(cfg), 0.0)
        info, y = simulate.synthesize_frames(link, range(256))
        info_100, y_100 = simulate.synthesize_frames(link, range(100))
        assert np.array_equal(info_100, info[:100]) and np.array_equal(y_100, y[:100])
        flags = simulate.run_link_frames(link, range(256))
        for cap in (100, 256):
            rec = simulate.run_fer(dataclasses.replace(cfg, max_frames=cap))[0]
            assert (rec.frames, rec.frame_errors) == (cap, np.count_nonzero(flags[:cap]))

    def test_any_index_order(self):
        # frames from several blocks, in any order and repeated, are the rows
        # of one run over the blocks; no frames give empty arrays
        cfg = tiny_cfg(tone_model="sinusoid")
        link = simulate.make_link(cfg, simulate.build_code(cfg), 0.0)
        info, y = simulate.synthesize_frames(link, range(192))
        picked = [130, 3, 64, 63, 3, 191]
        info_p, y_p = simulate.synthesize_frames(link, picked)
        assert np.array_equal(info_p, info[picked]) and np.array_equal(y_p, y[picked])
        info_0, y_0 = simulate.synthesize_frames(link, [])
        assert info_0.shape == (0, cfg.K) and y_0.shape == (0, cfg.N)

    @pytest.mark.parametrize("lo, hi, parts, want", [
        (0, 512, 2, [(0, 256), (256, 512)]),
        (0, 200, 2, [(0, 128), (128, 200)]),
        (0, 200, 1, [(0, 200)]),
        (16, 32, 2, [(16, 32)]),
        (48, 200, 3, [(48, 64), (64, 128), (128, 200)]),
        (0, 128, 4, [(0, 64), (64, 128)]),
    ])
    def test_tasks_cut_on_block_boundaries(self, lo, hi, parts, want):
        assert simulate._block_split(lo, hi, parts) == want

    def test_channel_identical_across_arms(self):
        """Common random numbers: the channel contribution to the received
        symbols is the same whichever code/decoder the arm uses."""
        contributions = {}
        for arm in ("cp", "csp-c"):
            cfg = tiny_cfg().for_arm(arm)
            code = simulate.build_code(cfg)
            noisy = simulate.make_link(cfg, code, 0.0)
            clean = simulate.make_link(dataclasses.replace(cfg, sir_db=None), code, np.inf)
            _, y_noisy = simulate.synthesize_frames(noisy, range(8))
            _, y_clean = simulate.synthesize_frames(clean, range(8))
            contributions[arm] = y_noisy - y_clean
        assert np.allclose(contributions["cp"], contributions["csp-c"], atol=1e-12)

    def test_fer_csv_bytes_reproducible(self, tmp_path):
        cfg = tiny_cfg()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        simulate.run_fer(cfg, str(a))
        simulate.run_fer(cfg, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_realizations(self):
        cfg1, cfg2 = tiny_cfg(), tiny_cfg(master_seed=2)
        code = simulate.build_code(cfg1)
        y1 = simulate.synthesize_frames(simulate.make_link(cfg1, code, 0.0), range(4))[1]
        y2 = simulate.synthesize_frames(simulate.make_link(cfg2, code, 0.0), range(4))[1]
        assert not np.allclose(y1, y2)

    def test_pinned_arm_frame_errors(self):
        """Exact per-arm counts of a small paired run, for both tone models,
        under SCL (L=4, and L=32 with the noise model) and SC (L=1).  Any
        change to the channel, modem or decoders that moves a single
        decision shows here."""
        pinned = {
            (4, "noise"): {"cp": [200, 157], "csp-nonc": [22, 4], "csp-c": [14, 0]},
            (32, "noise"): {"cp": [200, 157], "csp-nonc": [22, 4], "csp-c": [13, 0]},
            (4, "sinusoid"): {"cp": [249, 247], "csp-nonc": [231, 226], "csp-c": [230, 225]},
            (1, "noise"): {"cp": [196, 168], "csp-nonc": [41, 6], "csp-c": [32, 3]},
            (1, "sinusoid"): {"cp": [248, 248], "csp-nonc": [243, 236], "csp-c": [229, 226]},
        }
        for (list_size, model), want in pinned.items():
            res = simulate.run_fer_arms(tiny_cfg(snr_sweep_db=(-5.0, -3.0), tone_model=model,
                                                 list_size=list_size))
            got = {arm: [r.frame_errors for r in recs] for arm, recs in res.items()}
            assert got == want, (list_size, model)
            assert all(r.frames == 256 for recs in res.values() for r in recs)

    def test_threads_do_not_change_results(self):
        r1 = simulate.run_fer(tiny_cfg(), None)
        r2 = simulate.run_fer(tiny_cfg(threads=2), None)
        assert [(r.frames, r.frame_errors) for r in r1] == \
               [(r.frames, r.frame_errors) for r in r2]

    def test_threads_do_not_change_bytes_off_block_boundary(self, tmp_path):
        # 200 frames: two workers split them on a block boundary, 128 + 72
        paths = []
        for threads in (1, 2):
            cfg = tiny_cfg(threads=threads, min_frame_errors=10**6, max_frames=200,
                           snr_sweep_db=(-2.0, 0.0))
            paths.append(tmp_path / f"t{threads}.csv")
            recs = simulate.run_fer(cfg, str(paths[-1]))
            assert [r.frames for r in recs] == [200, 200]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_arms_share_one_profile(self, tmp_path, monkeypatch):
        # run_fer_arms runs the arms of ARM_PRESETS in its order, builds the
        # capacity profile once for all of them, and each arm's CSV is the
        # one it writes when run on its own, at one worker or two
        cfg = tiny_cfg(snr_sweep_db=(-1.0,), max_frames=128)
        alone = tmp_path / "alone"
        alone.mkdir()
        for arm in ARMS:
            simulate.run_fer(cfg.for_arm(arm), str(alone / f"fer_{arm}.csv"))
        calls = []
        build_profile = simulate.build_profile

        def counted(c):
            calls.append(c)
            return build_profile(c)

        monkeypatch.setattr(simulate, "build_profile", counted)
        for threads in (1, 2):
            out = tmp_path / f"arms_t{threads}"
            res = simulate.run_fer_arms(dataclasses.replace(cfg, threads=threads),
                                        out_dir=str(out))
            assert list(res) == list(ARM_PRESETS)
            assert len(calls) == threads
            for arm in ARMS:
                name = f"fer_{arm}.csv"
                assert (out / name).read_bytes() == (alone / name).read_bytes(), (arm, threads)


def folded_covariance(ch, n_symbols):
    """E[y y^T] of the folded link's real noise plus noise-model interference.

    y = IRFFT_M(H)[span:], where bin m of H has independent real and
    imaginary parts of deviations noise_sd (laid out as the LinkChannel
    says), so the covariance is circulant:
    E[y_n y_n'] = IRFFT_M(E|H|^2)[(n - n') mod M] / M.
    """
    m, h = len(ch.noise_sd), len(ch.gain)
    power = ch.noise_sd[:h] ** 2
    power[1:m - h + 1] += ch.noise_sd[h:] ** 2
    c = np.fft.irfft(power, m) / m
    return c[np.subtract.outer(np.arange(n_symbols), np.arange(n_symbols)) % m]


def real_part_covariance(cfg, wch):
    """E[Re(y) Re(y)^T] of the waveform chain's noise plus noise-model
    interference: the noise is circular, so half the real part of E[y y^H]."""
    return link_reference.waveform_covariance(cfg, wch).real / 2.0


class TestSpectralLink:
    """synthesize_frames runs the link on the rfft bins of the M = N + span
    bins that the matched filter reads, and returns the real part of the
    matched-filter samples; the waveform chain of link_reference
    (modulate_symbols -> impair -> matched_filter) is its reference, whose
    real part it must be.  The symbols, and the sinusoid interference from
    the same tone phases, must match to rounding.  Noise and noise-model
    interference are other draws than the reference's, so they must match
    in distribution."""

    CASES = {
        "reference": {},
        "sinusoid": {"tone_model": "sinusoid"},
        "no-comb": {"comb_enabled": False},
        "sinusoid-no-comb": {"tone_model": "sinusoid", "comb_enabled": False},
        "no-interference": {"sir_db": None},
        "tone-band-wider-than-notch": {"tone_bandwidth_hz": 30.0, "notch_bandwidth_hz": 10.0},
        "other-pulse": {"pulse": modem.PulseSpec(0.5, 8, 4)},
        # M = N + span odd: no Nyquist bin
        "odd-span": {"pulse": modem.PulseSpec(0.25, 7, 8)},
    }

    @staticmethod
    def noiseless(link):
        """The same link without its noise and noise-model interference."""
        ch = dataclasses.replace(link.channel, noise_sd=np.zeros_like(link.channel.noise_sd))
        return dataclasses.replace(link, channel=ch)

    @pytest.mark.parametrize("snr_db", [-1.0, np.inf])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_waveform_chain(self, case, snr_db):
        cfg = tiny_cfg(**self.CASES[case])
        link = simulate.make_link(cfg, simulate.build_code(cfg), snr_db)
        wch = link_reference.waveform_channel(cfg, snr_db)
        frames = range(56, 72)  # across the first block boundary
        info, y = simulate.synthesize_frames(self.noiseless(link), frames)
        x = polar.encode(polar.assemble_source(info, link.code.A, link.code.N))
        s = modem.modulate_symbols(modem.bpsk_map(x), cfg.pulse)
        phasors, _, _, info_ref = link_reference.block_draws(cfg, wch, cfg.master_seed, frames)
        y_ref = link_reference.matched_filter(link_reference.apply_waveform(wch, s, phasors),
                                              cfg.pulse, cfg.N).real
        assert np.array_equal(info, info_ref)
        assert y.dtype == np.float64 and y.shape == y_ref.shape == (16, cfg.N)
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * max(1.0, np.max(np.abs(y_ref)))
        # the rest, in closed form from the folded deviations against unit
        # impulses through the waveform chain
        cov_ref = real_part_covariance(cfg, wch)
        cov = folded_covariance(link.channel, cfg.N)
        assert np.max(np.abs(cov - cov_ref)) <= 1e-12 * max(1.0, np.max(np.abs(cov_ref)))

    @pytest.mark.parametrize("case", list(CASES))
    def test_noise_sample_moments(self, case):
        # the draws themselves, on 10240 frames at -1 dB: zero mean and the
        # covariance of the waveform chain's real part, each entry within 6
        # standard errors
        cfg = tiny_cfg(**self.CASES[case])
        link = simulate.make_link(cfg, simulate.build_code(cfg), -1.0)
        frames = range(10240)
        r = simulate.synthesize_frames(link, frames)[1]
        r -= simulate.synthesize_frames(self.noiseless(link), frames)[1]
        cov = real_part_covariance(cfg, link_reference.waveform_channel(cfg, -1.0))
        power = np.diag(cov)
        # the product of two zero-mean real normals has variance
        # C_ii C_jj + C_ij^2
        se = np.sqrt((np.outer(power, power) + cov**2) / len(r))
        assert np.all(np.abs(r.mean(axis=0)) <= 6 * np.sqrt(power / len(r)))
        assert np.all(np.abs(r.T @ r / len(r) - cov) <= 6 * se)

    def test_interference_the_comb_removes_adds_nothing(self):
        # the reference tone band lies inside the notch, so the folded
        # deviations are those without interference, bit for bit; a wider
        # tone band leaks past the notch
        def sd(cfg, **kw):
            return channel.calibrate_channel(dataclasses.replace(cfg, **kw), 0.0).noise_sd

        for cfg in (load_config(REFERENCE_CONFIG), tiny_cfg(**self.CASES["reference"])):
            assert cfg.sir_db == -20.0
            assert np.array_equal(sd(cfg), sd(cfg, sir_db=None))
        wide = tiny_cfg(**self.CASES["tone-band-wider-than-notch"])
        assert np.any(sd(wide) > sd(wide, sir_db=None))

    @pytest.mark.parametrize("model", ["noise", "sinusoid"])
    def test_channel_draws_do_not_depend_on_sir_or_comb(self, model):
        # every block makes the same channel draws, so its information bits
        # (drawn next from the same generator) stay paired
        code = simulate.build_code(tiny_cfg())
        states, infos = [], []
        for sir_db in (-20.0, 10.0, None):
            for comb in (True, False):
                for snr_db in (-1.0, np.inf):
                    cfg = tiny_cfg(tone_model=model, sir_db=sir_db, comb_enabled=comb)
                    link = simulate.make_link(cfg, code, snr_db)
                    gens = [simulate._rng(cfg.master_seed, simulate._FRAME_STREAM, k)
                            for k in (0, 1)]
                    for g in gens:
                        channel.draw_channel(link.channel, g, simulate._BLOCK)
                    states.append([g.bit_generator.state for g in gens])
                    infos.append(simulate.synthesize_frames(link, [0, 1, 63, 64, 100])[0])
        assert all(state == states[0] for state in states)
        assert all(np.array_equal(info, infos[0]) for info in infos)

    def test_tone_masks_equal_the_loop(self):
        configs = [load_config(REFERENCE_CONFIG)] + [tiny_cfg(**kw) for kw in self.CASES.values()]
        for cfg in configs:
            L, fs = channel.frame_samples(cfg), cfg.sample_rate
            centers = tone_centers(cfg.fundamental_hz, cfg.tone_offset_hz, fs / 2)
            tones = link_reference.tone_mask_loop(L, fs, centers, cfg.tone_bandwidth_hz / 2)
            notches = link_reference.tone_mask_loop(L, fs, centers, cfg.notch_bandwidth_hz / 2)
            assert np.array_equal(channel.noise_tone_mask(cfg)[0], tones)
            assert np.array_equal(channel.comb_mask(cfg), ~notches if cfg.comb_enabled
                                  else np.ones(L, dtype=bool))

    def test_pickled_link_size(self):
        # what a pool task carries: the folded M-vectors, and under the
        # sinusoid model the (tones x M) response, not L-point masks or phasors
        cfg = load_config(REFERENCE_CONFIG)
        code = simulate.build_code(cfg)
        for model, bound in (("noise", 16_000), ("sinusoid", 600_000)):
            link = simulate.make_link(dataclasses.replace(cfg, tone_model=model), code, -1.0)
            assert len(pickle.dumps(link)) <= bound, model

    def test_fer_matches_waveform_chain(self):
        # SC on the reference config at -1 dB and its master_seed 1, 10240
        # frames per arm: overlapping z = 3 Wilson intervals on every arm
        frames, batch = 10240, 256
        base = load_config(REFERENCE_CONFIG, {"decoder": {"list_size": 1}})
        assert base.master_seed == 1
        for arm in ("cp", "csp-nonc", "csp-c"):
            cfg = base.for_arm(arm)
            link = simulate.make_link(cfg, simulate.build_code(cfg), -1.0)
            folded = waveform = 0
            for lo in range(0, frames, batch):
                idx = range(lo, lo + batch)
                folded += int(np.count_nonzero(simulate.run_link_frames(link, idx)))
                info, y = link_reference.waveform_frames(cfg, link, -1.0, idx)
                info_hat = ccd_decode_batch(y, link.code, link.symbol_noise_var, 1)
                waveform += int(np.count_nonzero(np.any(info_hat != info, axis=1)))
            lo_f, hi_f = simulate.wilson_interval(folded, frames, z=3.0)
            lo_w, hi_w = simulate.wilson_interval(waveform, frames, z=3.0)
            print(f"{arm}: folded {folded}, waveform {waveform} of {frames}")
            assert lo_f <= hi_w and lo_w <= hi_f, (arm, folded, waveform)


class TestWorkerPool:
    """run_fer and run_fer_arms build one worker pool per call and leave no
    worker behind."""

    @pytest.fixture
    def counted_pools(self, monkeypatch):
        built = []

        class Counted(simulate.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Counted)
        # two super-batches per SNR point
        monkeypatch.setattr(simulate, "_SUPER_BATCH", 16)
        return built

    def cfg(self, threads=2):
        return tiny_cfg(threads=threads, snr_sweep_db=(0.0, 1.0), list_size=1,
                        min_frame_errors=10**6, max_frames=32)

    @pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_sweep(self, counted_pools, threads, pools):
        recs = simulate.run_fer(self.cfg(threads))
        assert [r.frames for r in recs] == [32, 32]
        assert len(counted_pools) == pools
        assert multiprocessing.active_children() == []

    def test_pool_shut_down_when_sweep_raises(self, counted_pools, monkeypatch):
        make_link = simulate.make_link
        points = []

        def failing(cfg, code, snr_db):
            points.append(snr_db)
            if len(points) == 2:
                raise RuntimeError("injected failure")
            return make_link(cfg, code, snr_db)

        monkeypatch.setattr(simulate, "make_link", failing)
        with pytest.raises(RuntimeError, match="injected"):
            simulate.run_fer(self.cfg())
        assert points == [0.0, 1.0] and len(counted_pools) == 1
        assert multiprocessing.active_children() == []

    def test_pool_shut_down_when_a_round_raises(self, counted_pools, monkeypatch):
        # once the workers run: a log line that raises in this process,
        # then a task that raises in a worker (the second point's link has
        # no code)
        cfg = dataclasses.replace(self.cfg(), snr_sweep_db=(-8.0, 1.0), min_frame_errors=1)

        def log(line):
            raise RuntimeError("injected in the parent")

        with pytest.raises(RuntimeError, match="injected in the parent"):
            simulate.run_fer(cfg, log=log)
        assert multiprocessing.active_children() == []
        make_link = simulate.make_link
        links = []

        def broken_second(cfg, code, snr_db):
            links.append(make_link(cfg, code, snr_db))
            return links[-1] if len(links) == 1 else dataclasses.replace(links[-1], code=None)

        monkeypatch.setattr(simulate, "make_link", broken_second)
        with pytest.raises(AttributeError):
            simulate.run_fer(cfg)
        assert len(counted_pools) == 2 and multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_multi_arm_sweep(self, counted_pools, threads, pools):
        res = simulate.run_fer_arms(self.cfg(threads))
        assert {arm: [r.frames for r in recs] for arm, recs in res.items()} == \
               dict.fromkeys(ARMS, [32, 32])
        assert len(counted_pools) == pools
        assert multiprocessing.active_children() == []

    def test_multi_arm_pool_shut_down_when_a_round_raises(self, counted_pools, monkeypatch):
        # as above, across three arms: a log line that raises in this
        # process, then a task that raises in a worker (the last arm's
        # second link has no code)
        cfg = dataclasses.replace(self.cfg(), snr_sweep_db=(-8.0, 1.0), min_frame_errors=1)

        def log(line):
            raise RuntimeError("injected in the parent")

        with pytest.raises(RuntimeError, match="injected in the parent"):
            simulate.run_fer_arms(cfg, log=log)
        assert multiprocessing.active_children() == []
        make_link = simulate.make_link
        links = []

        def broken_last(cfg, code, snr_db):
            links.append(make_link(cfg, code, snr_db))
            if cfg.criterion == "cis-constrained" and snr_db == 1.0:
                return dataclasses.replace(links[-1], code=None)
            return links[-1]

        monkeypatch.setattr(simulate, "make_link", broken_last)
        with pytest.raises(AttributeError):
            simulate.run_fer_arms(cfg)
        assert len(links) == 6
        assert len(counted_pools) == 2 and multiprocessing.active_children() == []


def point_by_point(cfg):
    """The reference sweep: one point after another, each run one
    super-batch at a time until its stop rule closes it, written as
    run_fer writes fer.csv.  Returns (records, csv text)."""
    code = simulate.build_code(cfg)
    records = []
    text = ("# combpolar fer v1\n"
            f"# N={cfg.N} K={cfg.K} r={cfg.r} criterion={cfg.criterion} "
            f"decoder={cfg.decoder_mode} L={cfg.list_size} sir_db={cfg.sir_db} "
            f"comb={int(cfg.comb_enabled)} master_seed={cfg.master_seed}\n"
            "snr_db,frames,frame_errors,fer,wilson_lo,wilson_hi,seed_lo,seed_hi\n")
    for snr in cfg.snr_sweep_db:
        link = simulate.make_link(cfg, code, snr)
        errors = frames = 0
        while errors < cfg.min_frame_errors and frames < cfg.max_frames:
            b = min(simulate._SUPER_BATCH, cfg.max_frames - frames)
            errors += int(np.count_nonzero(
                simulate.run_link_frames(link, range(frames, frames + b))))
            frames += b
        lo, hi = simulate.wilson_interval(errors, frames)
        records.append(simulate.FERRecord(snr, frames, errors, errors / frames))
        text += (f"{snr},{frames},{errors},{errors / frames:.8g},{lo:.8g},{hi:.8g},"
                 f"0,{frames - 1}\n")
    return records, text


class _Recording:
    """A stand-in for the worker pool: runs each round in this process and
    keeps its tasks."""

    def __init__(self, max_workers):
        self.rounds = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.rounds.append(list(tasks))
        return map(fn, self.rounds[-1])


class TestRounds:
    """The sweep runs in rounds: one call per round, holding the next
    super-batch of every (arm, point) that is still open."""

    @pytest.fixture
    def pools(self, monkeypatch):
        built = []

        def recording(max_workers):
            built.append(_Recording(max_workers))
            return built[-1]

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", recording)
        return built

    def test_each_round_holds_every_open_point(self, pools, monkeypatch):
        monkeypatch.setattr(simulate, "_SUPER_BATCH", 16)
        cfg = tiny_cfg(threads=2, snr_sweep_db=(0.0, 1.0), list_size=1,
                       min_frame_errors=10**6, max_frames=32)
        simulate.run_fer(cfg)
        rounds = pools[0].rounds
        assert len(pools) == 1 and len(rounds) == 2
        links = [link for link, _, _ in rounds[0]]
        assert len(links) == 2 and links[0] is not links[1]
        for k, tasks in enumerate(rounds):
            assert len(tasks) == 2 and all(t[0] is link for t, link in zip(tasks, links))
            assert [t[1:] for t in tasks] == [(16 * k, 16 * k + 16)] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rounds_equal_a_point_by_point_sweep(self, monkeypatch, tmp_path, threads):
        # the points stop in three different rounds
        monkeypatch.setattr(simulate, "_SUPER_BATCH", 16)
        cfg = tiny_cfg(threads=threads, snr_sweep_db=(-5.0, -8.0, 0.0), list_size=1,
                       min_frame_errors=5, max_frames=64)
        want, text = point_by_point(cfg)
        assert [r.frames for r in want] == [32, 16, 64]
        lines = []
        got = simulate.run_fer(cfg, str(tmp_path / "fer.csv"), log=lines.append)
        assert got == want
        assert (tmp_path / "fer.csv").read_text() == text
        assert lines == [f"snr {r.snr_db:+.1f} dB: {r.frame_errors}/{r.frames} errors, "
                         f"fer {r.fer:.3e}" for r in want]

    def test_each_round_holds_every_open_arm_and_point(self, pools, monkeypatch):
        # arms and points stop in different rounds: cp after round 1,
        # csp-nonc after rounds 1, 1, 4 and csp-c after 2, 1, 4
        monkeypatch.setattr(simulate, "_SUPER_BATCH", 16)
        cfg = tiny_cfg(threads=2, snr_sweep_db=(-5.0, -8.0, 0.0), list_size=1,
                       min_frame_errors=5, max_frames=64)
        stops = {arm: [r.frames // 16 for r in point_by_point(cfg.for_arm(arm))[0]]
                 for arm in ARMS}
        assert stops == {"cp": [1, 1, 1], "csp-nonc": [1, 1, 4], "csp-c": [2, 1, 4]}
        arm_of = {}
        for arm in ARMS:
            c = cfg.for_arm(arm)
            arm_of[c.r, c.criterion, c.decoder_mode] = arm
        made = []
        make_link = simulate.make_link

        def labelled(c, code, snr_db):
            made.append((make_link(c, code, snr_db),
                         (arm_of[c.r, c.criterion, c.decoder_mode], snr_db)))
            return made[-1][0]

        monkeypatch.setattr(simulate, "make_link", labelled)
        simulate.run_fer_arms(cfg)
        rounds = pools[0].rounds
        assert len(pools) == 1 and len(rounds) == 4 and len(made) == 9
        for k, tasks in enumerate(rounds):
            held = [next(label for link, label in made if link is t[0]) for t in tasks]
            assert sorted(held) == sorted((arm, snr) for arm in ARMS
                                          for snr, stop in zip(cfg.snr_sweep_db, stops[arm])
                                          if stop > k)
            assert {t[1:] for t in tasks} == {(16 * k, 16 * k + 16)}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_arms_equal_point_by_point_sweeps(self, monkeypatch, tmp_path, threads):
        # each arm's records and CSV are those of a point-by-point sweep of
        # that arm alone; log lines name their arm and come as each point
        # and every point of its arm before it are done
        monkeypatch.setattr(simulate, "_SUPER_BATCH", 16)
        cfg = tiny_cfg(threads=threads, snr_sweep_db=(-5.0, -8.0, 0.0), list_size=1,
                       min_frame_errors=5, max_frames=64)
        lines = []
        got = simulate.run_fer_arms(cfg, out_dir=str(tmp_path), log=lines.append)
        want_lines = []
        for a, arm in enumerate(ARMS):
            want, text = point_by_point(cfg.for_arm(arm))
            assert got[arm] == want, arm
            assert (tmp_path / f"fer_{arm}.csv").read_text() == text, arm
            reported = np.maximum.accumulate([r.frames for r in want])
            want_lines += [(n, a, i, f"{arm}: snr {r.snr_db:+.1f} dB: {r.frame_errors}/"
                                     f"{r.frames} errors, fer {r.fer:.3e}")
                           for i, (n, r) in enumerate(zip(reported, want))]
        assert lines == [line for *_, line in sorted(want_lines)]

    def test_open_points_fill_many_workers(self, pools):
        # one 512-frame super-batch is 8 draw blocks, so a single point
        # gives at most 8 tasks; five open points give 40
        cfg = tiny_cfg(threads=16, list_size=1, min_frame_errors=10**6, max_frames=512)
        simulate.run_fer(dataclasses.replace(cfg, snr_sweep_db=(0.0,)))
        simulate.run_fer(dataclasses.replace(cfg, snr_sweep_db=(-2.0, -1.0, 0.0, 1.0, 2.0)))
        assert [[len(tasks) for tasks in pool.rounds] for pool in pools] == [[8], [40]]


class TestStopRule:
    def test_stops_on_errors_or_cap(self):
        cfg = tiny_cfg(snr_sweep_db=(-6.0,), min_frame_errors=10, max_frames=1024)
        rec = simulate.run_fer(cfg, None)[0]
        assert rec.frame_errors >= 10 or rec.frames == 1024
        cfg2 = tiny_cfg(snr_sweep_db=(30.0,), min_frame_errors=10, max_frames=128)
        rec2 = simulate.run_fer(cfg2, None)[0]
        assert rec2.frames == 128


class TestPsdRuns:
    def test_welch_tier_shaped_vs_conventional(self, tmp_path):
        cfg = tiny_cfg(psd_frames=60, N=256, K=64, r=3, welch_segment=16384)
        out = simulate.run_psd(cfg, str(tmp_path / "shaped"))
        assert min(out["depths"]) > 20.0
        assert (tmp_path / "shaped" / "psd.csv").exists()
        assert (tmp_path / "shaped" / "nulldepth.csv").exists()

        conv = tiny_cfg(psd_frames=60, N=256, K=64, r=None, decoder_mode="plain",
                        welch_segment=16384)
        out2 = simulate.run_psd(conv, str(tmp_path / "conv"))
        flat = np.abs(out2["targets"]) <= 0.75 * conv.symbol_rate / 2
        assert max(out2["depths"][flat]) < 6.0

    def test_frames_are_the_per_frame_draws(self, tmp_path, monkeypatch):
        # the (frames, N) encode carries the bits of one draw and one encode per frame
        cfg = tiny_cfg(psd_frames=5, welch_segment=1024)
        seen = []
        modulate = modem.modulate_symbols

        def spy(symbols, pulse):
            seen.append(np.array(symbols))
            return modulate(symbols, pulse)

        monkeypatch.setattr(modem, "modulate_symbols", spy)
        simulate.run_psd(cfg, str(tmp_path))
        rng = simulate._rng(cfg.master_seed, simulate._PSD_STREAM)
        code = simulate.build_code(cfg)
        expect = [modem.bpsk_map(polar.encode(polar.assemble_source(
            rng.integers(0, 2, cfg.K, dtype=np.uint8), code.A, cfg.N)))
            for _ in range(cfg.psd_frames)]
        assert len(seen) == 1 and np.array_equal(seen[0], np.concatenate(expect))


class TestMcscRun:
    def test_ordering_and_csv(self, tmp_path):
        cfg = tiny_cfg(construction_trials=20000)
        rows = simulate.run_mcsc(cfg, str(tmp_path / "mcsc.csv"))
        by = {(rate, crit): v for rate, crit, v in rows}
        for rate in simulate.MCSC_RATES:
            assert by[(rate, "cis-constrained")] >= by[(rate, "symmetric")]
        text = (tmp_path / "mcsc.csv").read_text()
        assert text.startswith("# combpolar mcsc v1")
        # exact values: any change to the genie decoder or the estimator shows
        assert text.splitlines()[2:] == [
            "rate,criterion,mcsc",
            "0.25,cis-constrained,0.986817",
            "0.25,symmetric,0.986817",
            "0.3125,cis-constrained,0.930638",
            "0.3125,symmetric,0.930638",
            "0.375,cis-constrained,0.808123",
            "0.375,symmetric,0.808123",
        ]


class TestConstructReport:
    def test_report_contents(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "construct.csv"
        out = simulate.construct_report(cfg, str(path))
        assert set(out) == {"A", "mcsc"}
        text = path.read_text()
        assert "# A=" in text and "# mcsc=" in text
        assert "index,capacity,selected" in text
        lam = shaping.cis(shaping.CisSpec(64, 1))
        assert np.all(np.isin(out["A"], lam))
        assert 0.0 <= out["mcsc"] <= 1.0

    def test_bytes_ignore_seed_and_trials(self, tmp_path):
        # the Gaussian approximation draws nothing and reads no trial count
        texts = set()
        for seed in (1, 7):
            for trials in (1, 200000):
                cfg = load_config(REFERENCE_CONFIG, {"master_seed": seed,
                                                     "construction": {"trials": trials}})
                path = tmp_path / f"construct_{seed}_{trials}.csv"
                simulate.construct_report(cfg, str(path))
                texts.add(path.read_bytes())
        assert len(texts) == 1
        assert b" method=gaussian-approximation " in texts.pop()


class TestSelftestNegativeControl:
    def test_corrupted_map_detected(self):
        def broken(spec, idx):
            good = shaping.half_to_cis(spec, idx)
            if spec.N == 8 and spec.r == 1 and np.ndim(good):
                two = np.where(good == 2)[0]
                three = np.where(good == 3)[0]
                good = good.copy()
                good[two], good[three] = 3, 2
            return good

        ok, detail = selftest.check_conjugation(map_fn=broken)
        assert not ok

    def test_intact_map_passes(self):
        ok, _ = selftest.check_conjugation()
        assert ok

    def test_unshaped_codewords_break_the_nulls(self, monkeypatch):
        # information bits drawn from all N indices leave no exact null
        monkeypatch.setattr(selftest, "cis", lambda spec: np.arange(spec.N))
        ok, detail = selftest.check_exact_nulls()
        assert not ok, detail


class TestCli:
    def test_selftest_exit_zero(self, capsys):
        assert cli_main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "[PASS] generator-conjugation",
            "[PASS] shaping-row-periodicity",
            "[PASS] exact-spectral-nulls",
            "[PASS] map-bijection-order",
            "[PASS] constrained-capacity-match",
            "[PASS] transition-probability-oracle",
            "[PASS] scl-vs-ml",
            "[PASS] noiseless-roundtrip",
        ]
        assert lines[2].endswith(": worst relative magnitude at predicted nulls 0.00e+00 "
                                 "over 280 draws")
        assert lines[6].endswith(": 2000/2000 frames decision-identical")
        assert lines[7].endswith(": 0 errors over 150 noiseless frames")

    def test_selftest_failure_exit_two(self, monkeypatch, capsys):
        monkeypatch.setattr(
            selftest, "SELFTEST_CHECKS",
            (("doomed", lambda: (False, "injected failure")),),
        )
        assert cli_main(["selftest"]) == 2
        assert "[FAIL] doomed" in capsys.readouterr().out

    def test_construct_and_fer(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "code": {"N": 64, "K": 16, "r": 1},
            "decoder": {"mode": "ccd", "list_size": 4},
            "snr_sweep_db": [0.0],
            "stop": {"min_frame_errors": 5, "max_frames": 128},
            "construction": {"trials": 5000, "design_snr_db": 1.0},
        }))
        assert cli_main(["construct", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "construct.csv").exists()
        assert cli_main(["fer", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fer.csv").read_text().splitlines()
        assert lines[0] == "# combpolar fer v1"
        assert lines[2].startswith("snr_db,frames")
        assert len(lines) == 4

    @pytest.mark.parametrize("argv", [
        ["fer", "--bogus"],
        ["fer", "--threads", "abc"],
        [],
        # each subcommand takes only the flags it reads
        ["construct", "--threads", "2"],
        ["selftest", "--config", "x"],
    ])
    def test_usage_error_exit_one(self, tmp_path, capsys, argv):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fer", "--help"])
        assert exc.value.code == 0
        assert "--threads" in capsys.readouterr().out

    def test_bad_config_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not-a-key": 1}))
        assert cli_main(["fer", "--config", str(bad)]) == 1

    def test_infeasible_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"code": {"N": 256, "K": 64, "r": 3},
                                   "channel": {"fundamental_hz": 60.0}}))
        assert cli_main(["construct", "--config", str(bad)]) == 1

    def test_channel_checks_exit_one(self, tmp_path, capsys):
        for bad in ({"channel": {"tone_bandwidth_hz": 60}},
                    {"comb_filter": {"notch_bandwidth_hz": -5}}):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            assert cli_main(["fer", "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1

    def test_unwritable_output_exit_three(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "code": {"N": 64, "K": 16, "r": 1},
            "decoder": {"mode": "ccd", "list_size": 4},
            "snr_sweep_db": [0.0],
            "stop": {"min_frame_errors": 2, "max_frames": 64},
            "construction": {"trials": 5000, "design_snr_db": 1.0},
        }))
        target = tmp_path / "blocker"
        target.write_text("a plain file, not a directory")
        rc = cli_main(["fer", "--config", str(cfgfile), "--out", str(target / "sub")])
        assert rc == 3

    def test_sinusoid_tone_model_runs(self):
        cfg = tiny_cfg(tone_model="sinusoid", snr_sweep_db=(2.0,))
        rec = simulate.run_fer(cfg, None)[0]
        assert rec.frames > 0
        # and the draw is reproducible
        rec2 = simulate.run_fer(tiny_cfg(tone_model="sinusoid", snr_sweep_db=(2.0,)), None)[0]
        assert (rec.frames, rec.frame_errors) == (rec2.frames, rec2.frame_errors)

    def test_seed_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "code": {"N": 64, "K": 16, "r": 1},
            "decoder": {"mode": "ccd", "list_size": 4},
            "snr_sweep_db": [0.0],
            "stop": {"min_frame_errors": 5, "max_frames": 128},
            "construction": {"trials": 5000, "design_snr_db": 1.0},
        }))
        assert cli_main(["fer", "--config", str(cfgfile), "--out", str(tmp_path),
                         "--seed", "99"]) == 0
        first = (tmp_path / "fer.csv").read_bytes()
        assert cli_main(["fer", "--config", str(cfgfile), "--out", str(tmp_path),
                         "--seed", "99"]) == 0
        assert (tmp_path / "fer.csv").read_bytes() == first
