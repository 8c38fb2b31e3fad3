"""Walk through the spectral side of comb shaping.

A polar codeword whose information indices all carry a one in the same
bit position is locally periodic, so its BPSK signal is a sum of two
shifted copies of one waveform -- and that puts exact spectral nulls on a
periodic grid.  This script shows the null grid three ways: the exact
FFT of a rectangular-pulse frame, the Welch-averaged PSD of an SRRC
stream, and the notch-depth report against the interference grid.

Run:  python demos/spectral_shaping.py
"""

import numpy as np

from combpolar import modem, polar, shaping, spectral

rng = np.random.default_rng(1)

N, r, K = 256, 3, 96
SYMBOL_RATE = 800.0  # Hz; with a 50 Hz interference grid this needs order r=3
spec = shaping.CisSpec(N, r)
lam = shaping.cis(spec)

print(f"code length N={N}, shaping order r={r}")
print(f"shaping index set holds {len(lam)} of {N} indices "
      f"(first few: {lam[:6].tolist()} ...)")

# --- exact tier: every predicted null is a true zero of the spectrum
u = np.zeros(N, dtype=np.uint8)
u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
x = polar.encode(u)
m = N.bit_length() - 1
print(f"\ncodeword is locally periodic with block {1 << (m - r - 1)}, twice:",
      shaping.is_locally_periodic(x, 1 << (m - r - 1), 2))

mag = spectral.exact_spectrum_magnitude(x, sps=4)
bins = spectral.exact_null_bins(N, r, sps=4)
print(f"rectangular-pulse FFT at the {len(bins)} predicted null bins: "
      f"max relative magnitude {mag[bins].max() / mag.max():.2e}")

nulls = spectral.null_set(N, r, SYMBOL_RATE, 130.0)
print(f"predicted nulls near DC: {nulls.tolist()} Hz "
      f"(codeword frequency {SYMBOL_RATE / N} Hz)")

# --- estimation tier: SRRC stream + Welch averaging
pulse = modem.PulseSpec(rolloff=0.25, span_symbols=16, sps=8)
SAMPLE_RATE = SYMBOL_RATE * pulse.sps
frames = []
for _ in range(200):
    u = np.zeros(N, dtype=np.uint8)
    u[rng.choice(lam, K, replace=False)] = rng.integers(0, 2, K)
    frames.append(modem.bpsk_map(polar.encode(u)))
samples = modem.modulate_symbols(np.concatenate(frames), pulse)
est = spectral.welch_psd(samples, SAMPLE_RATE, segment=16384)

targets = spectral.null_set(N, r, SYMBOL_RATE, (1 + pulse.rolloff) * SYMBOL_RATE / 2)
flat = (1 - pulse.rolloff) * SYMBOL_RATE / 2
depths = spectral.null_depth(est, targets, (-flat, flat))
print(f"\nWelch PSD over 200 frames at {SAMPLE_RATE:.0f} Hz sampling:")
for f, d in zip(targets, depths):
    if f > 0:
        print(f"  notch at +/-{f:5.0f} Hz: depth {d:5.1f} dB")

# --- control: a conventional code has no notches to show
frames = []
for _ in range(200):
    u = np.zeros(N, dtype=np.uint8)
    u[rng.choice(N, K, replace=False)] = rng.integers(0, 2, K)
    frames.append(modem.bpsk_map(polar.encode(u)))
samples = modem.modulate_symbols(np.concatenate(frames), pulse)
est = spectral.welch_psd(samples, SAMPLE_RATE, segment=16384)
d0 = spectral.null_depth(est, targets, (-flat, flat))
sel = np.abs(targets) <= flat
print(f"\nconventional control, same frequencies: depth range "
      f"[{d0[sel].min():.1f}, {d0[sel].max():.1f}] dB -- no comb")
