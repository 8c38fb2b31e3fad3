"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the measured margins (run pytest with -s to see them live).

Every tolerance is pinned here; seeds are fixed so the whole suite is
deterministic.
"""

import dataclasses

import numpy as np

from combpolar import construction, decoder, modem, polar, selftest, shaping, simulate, spectral
from combpolar.config import ExperimentConfig


def _report(k, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


ALL_N = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def test_criterion_1_structural_exactness():
    # conjugation identities, exact, N in {4,...,32}, all orders
    ok_conj, detail_conj = selftest.check_conjugation(sizes=(4, 8, 16, 32))
    # local periodicity of every shaping row, N up to 1024, all orders
    ok_rows, detail_rows = selftest.check_row_periodicity(ALL_N)
    # bijection and order preservation, N up to 1024, all orders
    ok_maps, detail_maps = selftest.check_map_bijection(ALL_N)
    _report(1, ok_conj and ok_rows and ok_maps,
            f"conjugation: {detail_conj}; periodicity: {detail_rows}; maps: {detail_maps}")


def test_criterion_2_exact_spectral_nulls():
    # every shaped codeword, N in {64, 256}, all orders, 20 draws each
    ok, detail = selftest.check_exact_nulls(sizes=(64, 256), draws=20, sps=4, seed=20)
    _report(2, ok, detail)


def test_criterion_3_psd_notch_depths():
    rng = np.random.default_rng(30)
    N, r, K = 256, 3, 96
    Rs = 800.0
    pulse = modem.PulseSpec(0.25, 16, 8)
    lam = shaping.cis(shaping.CisSpec(N, r))
    targets = spectral.null_set(N, r, Rs, (1 + pulse.rolloff) * Rs / 2)
    flat_edge = (1 - pulse.rolloff) * Rs / 2

    def averaged_depths(shaped):
        syms = []
        for _ in range(200):
            u = np.zeros(N, dtype=np.uint8)
            where = rng.choice(lam if shaped else np.arange(N), K, replace=False)
            u[where] = rng.integers(0, 2, K)
            syms.append(modem.bpsk_map(polar.encode(u)))
        samples = modem.modulate_symbols(np.concatenate(syms), pulse)
        est = spectral.welch_psd(samples, Rs * pulse.sps, segment=16384)
        return spectral.null_depth(est, targets, (-flat_edge, flat_edge))

    shaped = averaged_depths(True)
    control = averaged_depths(False)
    in_flat = np.abs(targets) <= flat_edge
    ok = bool(np.min(shaped) >= 25.0 and np.max(control[in_flat]) < 6.0)
    _report(3, ok, f"shaped min depth {np.min(shaped):.1f} dB over {len(targets)} targets "
                   f"(need >= 25); control max {np.max(control[in_flat]):.1f} dB over "
                   f"{int(in_flat.sum())} flat-band targets (need < 6)")


def test_criterion_4_capacity_table():
    N, r, snr_db, trials = 256, 3, -2.0, 200_000
    reference = {
        (0.25, "cis-constrained"): 0.9997, (0.25, "symmetric"): 0.9984,
        (0.3125, "cis-constrained"): 0.9901, (0.3125, "symmetric"): 0.9588,
        (0.375, "cis-constrained"): 0.8314, (0.375, "symmetric"): 0.7627,
    }
    noise_var = construction.snr_db_to_noise_var(snr_db, ExperimentConfig.pulse.rolloff)
    mean, _ = construction.monte_carlo_symmetric_capacity(
        N, noise_var, trials, np.random.default_rng(40)
    )
    capacity = np.clip(mean, 0.0, 1.0)
    worst = 0.0
    ordered = True
    lines = []
    for rate in (0.25, 0.3125, 0.375):
        K = int(round(rate * N))
        got_c = construction.mcsc(
            construction.select_code(capacity, K, r, criterion="cis-constrained"), capacity)
        got_s = construction.mcsc(construction.select_code(capacity, K, r, criterion="symmetric"), capacity)
        worst = max(worst, abs(got_c - reference[(rate, "cis-constrained")]),
                    abs(got_s - reference[(rate, "symmetric")]))
        ordered &= got_c >= got_s
        lines.append(f"rate {rate}: {got_c:.4f}/{got_s:.4f}")
    ok = worst <= 0.03 and ordered
    _report(4, ok, f"{'; '.join(lines)}; worst |delta| {worst:.4f} (tol 0.03), "
                   f"dominance {'holds' if ordered else 'BROKEN'} ({trials} trials)")


def test_criterion_5_constrained_capacity_identity():
    N, trials = 16, 100_000
    noise_var = construction.snr_db_to_noise_var(-2.0, ExperimentConfig.pulse.rolloff)
    ok, detail = selftest.check_capacity_match(N, noise_var, trials, trials, seed=50, tol_se=3.0)
    pairs = (N.bit_length() - 1) * N // 2  # every order, every shaping-set index
    _report(5, ok, f"{detail} over {pairs} (order, index) pairs at {trials} trials each "
                   f"(need < 3)")


def test_criterion_6_transition_probability_identity():
    draws = 20
    ok, detail = selftest.check_transition_oracle(draws, seed=60)
    checks = 3 * 4 * draws  # orders 0-2 at N=8, four shaping-set indices each
    _report(6, ok, f"{detail} over {checks} enumerated checks (constant 2^(N/2) included)")


def test_criterion_7_decoder_soundness():
    rng = np.random.default_rng(70)
    # exhaustive-list SCL equals maximum likelihood
    ok_ml, detail_ml = selftest.check_scl_vs_ml(10_000, rng)

    # degenerate list equals successive cancellation, drawing on from rng
    N2, K2 = 64, 32
    A2 = np.sort(rng.choice(N2, K2, replace=False))
    code2 = shaping.CodeConfig(N=N2, r=None, A=A2)
    froz2 = code2.frozen_mask()
    info2 = rng.integers(0, 2, (1000, K2), dtype=np.uint8)
    x2 = polar.encode(polar.assemble_source(info2, code2.A, N2))
    y2 = (1.0 - 2.0 * x2) + 0.9 * rng.standard_normal((1000, N2))
    llr2 = decoder.channel_llr(y2, 0.81)
    u_sc, pm_sc = decoder.sc_decode_batch(llr2, froz2)
    u_l1, pm_l1 = decoder.scl_decode_batch(llr2, froz2, 1)
    sc_same = bool(np.array_equal(u_sc, u_l1) and np.array_equal(pm_sc, pm_l1))

    # noiseless frames decode perfectly for every arm of the link
    ok_nl, detail_nl = selftest.check_noiseless_roundtrip(1000, design_snr_db=1.0)

    _report(7, ok_ml and sc_same and ok_nl,
            f"SCL(16)=ML: {detail_ml}; SCL(1)=SC bit-exact: {sc_same}; "
            f"noiseless: {detail_nl} across arms")


def test_criterion_8_fer_ordering_and_floor():
    # N=256, K=96 (rate 3/8), r=3, SIR -20 dB, comb on, L=8
    cfg = ExperimentConfig(
        design_snr_db=1.0,
        snr_sweep_db=(-2.0, -1.5, -1.0, -0.5),
        min_frame_errors=100,
        max_frames=100_000,
        master_seed=80,
        threads=2,  # output bytes do not depend on the worker count
    )

    results = simulate.run_fer_arms(cfg, out_dir=None)
    fer = {arm: np.array([rec.fer for rec in recs]) for arm, recs in results.items()}
    in_window = np.ones(len(cfg.snr_sweep_db), dtype=bool)
    for arm in fer:
        in_window &= (fer[arm] >= 1e-3) & (fer[arm] <= 0.5)
    ordered = all(
        fer["csp-c"][k] < fer["csp-nonc"][k] < fer["cp"][k]
        for k in np.flatnonzero(in_window)
    )

    # error-floor contrast at high SNR
    floor = {}
    for arm in ("cp", "csp-c"):
        acfg = dataclasses.replace(cfg.for_arm(arm), snr_sweep_db=(4.0,), max_frames=20_000)
        floor[arm] = simulate.run_fer(acfg, None)[0].fer
    floor_ok = floor["cp"] >= 1e-2 and floor["csp-c"] <= floor["cp"] / 5

    window_pts = [cfg.snr_sweep_db[k] for k in np.flatnonzero(in_window)]
    ok = bool(in_window.any() and ordered and floor_ok)
    detail = (
        f"window {window_pts} dB; "
        + "; ".join(
            f"{s:+.1f}dB cp {fer['cp'][k]:.3g} nonc {fer['csp-nonc'][k]:.3g} "
            f"c {fer['csp-c'][k]:.3g}"
            for k, s in enumerate(cfg.snr_sweep_db)
        )
        + f"; floor at +4dB: cp {floor['cp']:.3g} vs csp-c {floor['csp-c']:.3g}"
    )
    _report(8, ok, detail)
