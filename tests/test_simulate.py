import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from combpolar import channel, modem, polar, selftest, shaping, simulate
from combpolar.cli import main as cli_main
from combpolar.config import ConfigError, ExperimentConfig, load_config


def tiny_cfg(**kw):
    """A fast feasible scenario: N=64, r=1 at 800 Hz / 50 Hz."""
    cfg = ExperimentConfig()
    cfg.N, cfg.K, cfg.r = 64, 16, 1
    cfg.list_size = 4
    cfg.pulse = type(cfg.pulse)(0.25, 8, 8)
    cfg.snr_sweep_db = (0.0,)
    cfg.min_frame_errors = 5
    cfg.max_frames = 256
    cfg.construction_trials = 5000
    cfg.design_snr_db = 1.0
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


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
        cfg = ExperimentConfig()
        cfg.r = None
        with pytest.raises(ConfigError, match="ccd"):
            cfg.validate()

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
        cfg = tiny_cfg()
        code = simulate.build_code(cfg)
        link = simulate.make_link(cfg, code, 0.0)
        whole = simulate.run_link_frames(link, range(48))
        parts = np.concatenate([
            simulate.run_link_frames(link, range(0, 17)),
            simulate.run_link_frames(link, range(17, 48)),
        ])
        assert np.array_equal(whole, parts)

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
            (4, "noise"): {"cp": [203, 174], "csp-nonc": [19, 0], "csp-c": [23, 3]},
            (32, "noise"): {"cp": [204, 173], "csp-nonc": [20, 0], "csp-c": [21, 3]},
            (4, "sinusoid"): {"cp": [247, 246], "csp-nonc": [231, 228], "csp-c": [217, 210]},
            (1, "noise"): {"cp": [203, 188], "csp-nonc": [40, 4], "csp-c": [38, 7]},
            (1, "sinusoid"): {"cp": [249, 248], "csp-nonc": [239, 234], "csp-c": [217, 214]},
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


class TestSpectralLink:
    """synthesize_frames runs the link on frame spectra; the waveform chain
    modulate_symbols -> impair -> matched_filter on the same draws is its
    reference."""

    CASES = {
        "reference": {},
        "sinusoid": {"tone_model": "sinusoid"},
        "no-comb": {"comb_enabled": False},
        "sinusoid-no-comb": {"tone_model": "sinusoid", "comb_enabled": False},
        "no-interference": {"sir_db": None},
        "tone-band-wider-than-notch": {"tone_bandwidth_hz": 30.0, "notch_bandwidth_hz": 10.0},
        "other-pulse": {"pulse": modem.PulseSpec(0.5, 8, 4)},
    }

    @pytest.mark.parametrize("snr_db", [-1.0, np.inf])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_waveform_chain(self, case, snr_db):
        cfg = tiny_cfg(**self.CASES[case])
        link = simulate.make_link(cfg, simulate.build_code(cfg), snr_db)
        frames = range(5, 21)
        info, y = simulate.synthesize_frames(link, frames)
        x = polar.encode(polar.assemble_source(info, link.code.A, link.code.N))
        gens = [simulate._rng(cfg.master_seed, simulate._CHANNEL_STREAM, fi) for fi in frames]
        s = modem.modulate_symbols(modem.bpsk_map(x), cfg.pulse)
        y_ref = modem.matched_filter(channel.impair(link.channel, s, gens), cfg.pulse, cfg.N)
        assert y.shape == y_ref.shape == (16, cfg.N)
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * max(1.0, np.max(np.abs(y_ref)))

    def test_interference_skip_runs_both_ways(self):
        # the reference tone band fits the notch, so its interference is
        # zero after the comb; a wider tone band leaks past it
        def notched(**kw):
            ch = channel.calibrate_channel(tiny_cfg(**kw), 0.0)
            return not np.any(ch.tone_mask & ch.comb_keep)

        assert notched(**self.CASES["reference"])
        assert not notched(**self.CASES["tone-band-wider-than-notch"])


class TestWorkerPool:
    """run_fer builds one worker pool per call and leaves no worker behind."""

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

    def cfg(self):
        return tiny_cfg(threads=2, snr_sweep_db=(0.0, 1.0), list_size=1,
                        min_frame_errors=10**6, max_frames=32)

    def test_one_pool_per_sweep(self, counted_pools):
        recs = simulate.run_fer(self.cfg())
        assert [r.frames for r in recs] == [32, 32]
        assert len(counted_pools) == 1
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
        cfg = tiny_cfg(psd_frames=60)
        cfg.N, cfg.K, cfg.r = 256, 64, 3
        cfg.welch_segment = 16384
        cfg.validate()
        out = simulate.run_psd(cfg, str(tmp_path / "shaped"))
        assert min(out["depths"]) > 20.0
        assert (tmp_path / "shaped" / "psd.csv").exists()
        assert (tmp_path / "shaped" / "nulldepth.csv").exists()

        conv = tiny_cfg(psd_frames=60)
        conv.N, conv.K, conv.r = 256, 64, None
        conv.decoder_mode = "plain"
        conv.welch_segment = 16384
        conv.validate()
        out2 = simulate.run_psd(conv, str(tmp_path / "conv"))
        flat = np.abs(out2["targets"]) <= 0.75 * conv.symbol_rate / 2
        assert max(out2["depths"][flat]) < 6.0

    def test_exact_tier(self, tmp_path):
        cfg = tiny_cfg(psd_tier="exact", psd_frames=20)
        out = simulate.run_psd(cfg, str(tmp_path))
        assert out["worst_relative_magnitude"] < 1e-9

    def test_exact_tier_draws_configured_frames(self, tmp_path, monkeypatch):
        calls = []
        spectrum = simulate.exact_spectrum_magnitude

        def counted(*args, **kwargs):
            calls.append(1)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(simulate, "exact_spectrum_magnitude", counted)
        simulate.run_psd(tiny_cfg(psd_tier="exact", psd_frames=3), str(tmp_path))
        assert len(calls) == 3


class TestMcscRun:
    def test_ordering_and_csv(self, tmp_path):
        cfg = tiny_cfg(construction_trials=20000)
        rows = simulate.run_mcsc(cfg, str(tmp_path / "mcsc.csv"), rates=(0.25, 0.375))
        by = {(rate, crit): v for rate, crit, v in rows}
        for rate in (0.25, 0.375):
            assert by[(rate, "cis-constrained")] >= by[(rate, "symmetric")]
        text = (tmp_path / "mcsc.csv").read_text()
        assert text.startswith("# combpolar mcsc v1")
        # exact values: any change to the genie decoder or the estimator shows
        assert text.splitlines()[2:] == [
            "rate,criterion,mcsc",
            "0.25,cis-constrained,0.986817",
            "0.25,symmetric,0.986817",
            "0.375,cis-constrained,0.808123",
            "0.375,symmetric,0.808123",
        ]


class TestConstructReport:
    def test_report_contents(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "construct.csv"
        out = simulate.construct_report(cfg, str(path))
        text = path.read_text()
        assert "# A=" in text and "# mcsc=" in text
        assert "index,capacity,selected" in text
        lam = shaping.cis(shaping.CisSpec(64, 1))
        assert np.all(np.isin(out["A"], lam))
        assert 0.0 <= out["mcsc"] <= 1.0


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


class TestCli:
    def test_selftest_exit_zero(self, capsys):
        assert cli_main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "[PASS] generator-conjugation",
            "[PASS] shaping-row-periodicity",
            "[PASS] map-bijection-order",
            "[PASS] constrained-capacity-match",
            "[PASS] transition-probability-oracle",
            "[PASS] scl-vs-ml",
            "[PASS] noiseless-roundtrip",
        ]
        assert lines[5].endswith(": 2000/2000 frames decision-identical")
        assert lines[6].endswith(": 0 errors over 150 noiseless frames")

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
