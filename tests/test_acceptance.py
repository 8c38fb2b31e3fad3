"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the measured margins (run pytest with -s to see them live).

Every tolerance is pinned here; seeds are fixed so the whole suite is
deterministic.
"""

import numpy as np

from combpolar import construction, decoder, modem, oracles, polar, shaping, spectral
from combpolar.config import ARM_PRESETS, ExperimentConfig
from combpolar import simulate


def _report(k, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


ALL_N = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def test_criterion_1_structural_exactness():
    # conjugation identities, exact, N in {4,...,32}, all orders
    ok_conj, detail_conj = simulate.check_conjugation(sizes=(4, 8, 16, 32))
    # local periodicity of every shaping row, N up to 1024, all orders
    bad_rows = 0
    for N in ALL_N:
        m = N.bit_length() - 1
        G = polar.generator_matrix(N)
        for r in range(m):
            L = 1 << (m - r - 1)
            for i in shaping.cis(shaping.CisSpec(N, r)):
                if not shaping.is_locally_periodic(G[i], L, 2):
                    bad_rows += 1
    # bijection and order preservation, N up to 1024, all orders
    bad_maps = 0
    for N in ALL_N:
        m = N.bit_length() - 1
        idx = np.arange(N)
        for r in range(m):
            s = shaping.CisSpec(N, r)
            img = shaping.half_to_cis(s, np.arange(N // 2, N))
            ok = (
                np.all(np.diff(img) > 0)
                and np.array_equal(np.sort(img), shaping.cis(s))
                and np.array_equal(shaping.cis_to_half(s, shaping.half_to_cis(s, idx)), idx)
            )
            bad_maps += 0 if ok else 1
    ok = ok_conj and bad_rows == 0 and bad_maps == 0
    _report(1, ok, f"conjugation: {detail_conj}; periodicity violations: {bad_rows}; "
                   f"map violations: {bad_maps} (N up to 1024)")


def test_criterion_2_exact_spectral_nulls():
    rng = np.random.default_rng(20)
    worst = 0.0
    draws = 0
    for N in (64, 256):
        m = N.bit_length() - 1
        for r in range(m):
            lam = shaping.cis(shaping.CisSpec(N, r))
            bins = spectral.exact_null_bins(N, r, 4)
            for _ in range(20):
                K = int(rng.integers(1, N // 2 + 1))
                u = np.zeros(N, dtype=np.uint8)
                u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
                mag = spectral.exact_spectrum_magnitude(polar.encode(u), 4)
                worst = max(worst, float(mag[bins].max() / mag.max()))
                draws += 1
    _report(2, worst < 1e-9,
            f"worst relative magnitude at predicted nulls {worst:.2e} over {draws} draws")


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
    noise_var = construction.snr_db_to_noise_var(snr_db)
    mean, _ = construction.monte_carlo_symmetric_capacity(
        N, noise_var, trials, np.random.default_rng(40), batch=4096
    )
    profile = construction.ReliabilityProfile(
        N, snr_db, "monte-carlo-genie", np.clip(mean, 0.0, 1.0)
    )
    spec = shaping.CisSpec(N, r)
    worst = 0.0
    ordered = True
    lines = []
    for rate in (0.25, 0.3125, 0.375):
        K = int(round(rate * N))
        got_c = construction.mcsc(construction.select_cis_constrained(profile, K, spec), profile)
        got_s = construction.mcsc(construction.select_symmetric_in_cis(profile, K, spec), profile)
        worst = max(worst, abs(got_c - reference[(rate, "cis-constrained")]),
                    abs(got_s - reference[(rate, "symmetric")]))
        ordered &= got_c >= got_s
        lines.append(f"rate {rate}: {got_c:.4f}/{got_s:.4f}")
    ok = worst <= 0.03 and ordered
    _report(4, ok, f"{'; '.join(lines)}; worst |delta| {worst:.4f} (tol 0.03), "
                   f"dominance {'holds' if ordered else 'BROKEN'} ({trials} trials)")


def test_criterion_5_constrained_capacity_identity():
    N, trials = 16, 100_000
    noise_var = construction.snr_db_to_noise_var(-2.0)
    sym_mean, sym_se = construction.monte_carlo_symmetric_capacity(
        N, noise_var, trials, np.random.default_rng(50)
    )
    worst_z = 0.0
    pairs = 0
    for r in range(4):
        spec = shaping.CisSpec(N, r)
        free, mean, se = oracles.constrained_capacity_curve(
            N, r, noise_var, trials, np.random.default_rng(51 + r)
        )
        dec = shaping.cis_to_half(spec, free)
        z = np.abs(mean - sym_mean[dec]) / np.sqrt(se**2 + sym_se[dec] ** 2)
        worst_z = max(worst_z, float(z.max()))
        pairs += len(free)
    _report(5, worst_z < 3.0,
            f"worst |z| = {worst_z:.2f} combined std errors over {pairs} "
            f"(order, index) pairs at {trials} trials each (need < 3)")


def test_criterion_6_transition_probability_identity():
    rng = np.random.default_rng(60)
    N, noise_var = 8, 0.8
    worst = 0.0
    checks = 0
    for r in range(3):
        spec = shaping.CisSpec(N, r)
        free = shaping.cis(spec)
        t = shaping.receive_permutation(spec)
        for i in free:
            j = int(shaping.cis_to_half(spec, int(i)))
            pos = int(np.searchsorted(free, i))
            for _ in range(20):
                y = rng.standard_normal(N) * 1.5
                prefix = rng.integers(0, 2, pos)
                u_i = int(rng.integers(0, 2))
                lhs = oracles.subchannel_probability(y, prefix, int(i), u_i, noise_var, free)
                rhs = oracles.subchannel_probability(
                    y[t], np.concatenate([np.zeros(N // 2, dtype=np.int64), prefix]),
                    j, u_i, noise_var,
                )
                worst = max(worst, abs(lhs - 2.0 ** (N // 2) * rhs) / max(abs(lhs), 1e-300))
                checks += 1
    _report(6, worst < 1e-9,
            f"worst relative error {worst:.2e} over {checks} enumerated checks "
            f"(constant 2^(N/2) included)")


def test_criterion_7_decoder_soundness():
    rng = np.random.default_rng(70)
    # exhaustive-list SCL equals maximum likelihood
    N, K = 8, 4
    A = np.sort(rng.choice(N, K, replace=False))
    code = shaping.CodeConfig(N=N, K=K, r=None, A=A)
    frozen = code.frozen_mask()
    info = rng.integers(0, 2, (10_000, K), dtype=np.uint8)
    x = polar.encode(polar.assemble_source(info, code.A, N))
    y = (1.0 - 2.0 * x) + rng.standard_normal((10_000, N))
    llr = decoder.channel_llr(y, 1.0)
    u_scl, _ = decoder.scl_decode_batch(llr, frozen, 16)
    u_ml, _ = decoder.ml_decode_batch(llr, frozen)
    ml_same = int(np.sum(np.all(u_scl == u_ml, axis=1)))

    # degenerate list equals successive cancellation
    N2, K2 = 64, 32
    A2 = np.sort(rng.choice(N2, K2, replace=False))
    code2 = shaping.CodeConfig(N=N2, K=K2, r=None, A=A2)
    froz2 = code2.frozen_mask()
    info2 = rng.integers(0, 2, (1000, K2), dtype=np.uint8)
    x2 = polar.encode(polar.assemble_source(info2, code2.A, N2))
    y2 = (1.0 - 2.0 * x2) + 0.9 * rng.standard_normal((1000, N2))
    llr2 = decoder.channel_llr(y2, 0.81)
    u_sc, pm_sc = decoder.sc_decode_batch(llr2, froz2)
    u_l1, pm_l1 = decoder.scl_decode_batch(llr2, froz2, 1)
    sc_same = bool(np.array_equal(u_sc, u_l1) and np.array_equal(pm_sc, pm_l1))

    # noiseless frames decode perfectly for every arm of the link
    noiseless_errors = 0
    base = ExperimentConfig()
    base.sir_db = None
    base.comb_enabled = False
    base.construction_trials = 20_000
    base.design_snr_db = 1.0
    for arm in ARM_PRESETS:
        cfg = base.for_arm(arm)
        arm_code = simulate.build_code(cfg)
        link = simulate.make_link(cfg, arm_code, np.inf)
        noiseless_errors += int(np.count_nonzero(simulate.run_link_frames(link, range(1000))))

    ok = ml_same == 10_000 and sc_same and noiseless_errors == 0
    _report(7, ok, f"SCL(16)=ML on {ml_same}/10000 frames; SCL(1)=SC bit-exact: {sc_same}; "
                   f"noiseless errors {noiseless_errors}/3000 frames across arms")


def test_criterion_8_fer_ordering_and_floor():
    cfg = ExperimentConfig()  # N=256, K=96 (rate 3/8), r=3, SIR -20 dB, comb on, L=8
    cfg.design_snr_db = 1.0
    cfg.snr_sweep_db = (-2.0, -1.5, -1.0, -0.5)
    cfg.min_frame_errors = 100
    cfg.max_frames = 100_000
    cfg.master_seed = 80

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
        acfg = cfg.for_arm(arm)
        acfg.snr_sweep_db = (4.0,)
        acfg.max_frames = 20_000
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
