"""Desk-scale frame-error-rate comparison under periodic interference.

Three arms share identical per-frame channel realizations:

  cp        conventional polar code, plain list decoding
  csp-nonc  comb-shaping code picked by raw symmetric capacities,
            plain list decoding
  csp-c     comb-shaping code picked through the index map, decoded on
            the permuted received vector

The channel carries 50 Hz-grid band-limited interference at -20 dB SIR
plus AWGN; the receiver comb-filters the interference away.  The shaped
arms lose almost nothing to the comb filter, the conventional arm is
badly distorted by it.

`simulate.run_fer_arms` runs the three arms of `config.ARM_PRESETS` as
one sweep: each round holds the next super-batch of every (arm, SNR point)
still open, each arm keeps its own stop rule and rows, and each log line
names its arm.  Each demo_out/fer_<arm>.csv is byte for byte what
`combpolar fer` writes for that arm's config alone.

Run:  python demos/link_comparison.py        (a few minutes)
Fast: python demos/link_comparison.py quick
"""

import sys

from combpolar.config import ARM_PRESETS, ExperimentConfig
from combpolar import simulate

quick = len(sys.argv) > 1 and sys.argv[1] == "quick"

# N=256, rate 3/8, r=3, SIR -20 dB, comb on, L=8
cfg = ExperimentConfig(
    design_snr_db=1.0,
    snr_sweep_db=(-2.0, -1.0, 0.0) if quick else (-2.0, -1.5, -1.0, -0.5, 0.0),
    min_frame_errors=20 if quick else 60,
    max_frames=2000 if quick else 20000,
    master_seed=1,
)

print(f"N={cfg.N}, K={cfg.K} (rate {cfg.K/cfg.N}), shaping order {cfg.r}, "
      f"SIR {cfg.sir_db} dB, comb filter on, list size {cfg.list_size}")
results = simulate.run_fer_arms(cfg, out_dir="demo_out", log=print)

print(f"\n{'snr_db':>7}" + "".join(f" {arm:>10}" for arm in ARM_PRESETS))
for k, snr in enumerate(cfg.snr_sweep_db):
    print(f"{snr:>7.1f}" + "".join(f" {results[arm][k].fer:>10.3e}" for arm in ARM_PRESETS))
print("\nper-arm CSVs are in demo_out/ ("
      + ", ".join(f"fer_{arm}.csv" for arm in ARM_PRESETS) + ")")
