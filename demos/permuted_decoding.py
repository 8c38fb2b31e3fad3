"""What the receive permutation buys.

A shaped code freezes every source bit outside the shaping set.  A plain
list decoder can decode it (the frozen bits really are zero), but its
information set was capped by the wrong reliability ranking.  Permuting
the received vector turns the shaped code into an ordinary top-half code
whose sub-channel qualities are the plain symmetric ones, so both the
construction and the decoder work with the true reliabilities.

This script decodes the same noisy frames both ways at matched rate and
counts frame errors (paired: identical noise on both arms).

Run:  python demos/permuted_decoding.py
"""

import numpy as np

from combpolar import construction, decoder, polar, shaping

rng = np.random.default_rng(0)
N, r, K = 256, 3, 96
SNR_DB = 0.0
spec = shaping.CisSpec(N, r)

profile = construction.estimate_symmetric_reliability(N, 1.0)
code_mapped = construction.select_cis_constrained(profile, K, spec)
code_plain = construction.select_symmetric_in_cis(profile, K, spec)
# plain decoding is the same decoder on the same A with no permutation
code_unpermuted = shaping.CodeConfig(N, K, None, code_plain.A)
print(f"shaped codes at N={N}, K={K}, order {r}")
print(f"  mapped construction:    min constrained capacity "
      f"{construction.mcsc(code_mapped, profile):.4f}")
print(f"  symmetric construction: min constrained capacity "
      f"{construction.mcsc(code_plain, profile):.4f}")

noise_var = construction.snr_db_to_noise_var(SNR_DB)
frames = 4000
errors = {"mapped + permuted decode": 0, "symmetric + plain decode": 0}
for lo in range(0, frames, 500):
    b = min(500, frames - lo)
    noise = rng.standard_normal((b, N)) * np.sqrt(noise_var)

    info = rng.integers(0, 2, (b, K), dtype=np.uint8)
    x = polar.encode(polar.assemble_source(info, code_mapped.A, N))
    y = (1.0 - 2.0 * x) + noise
    got, _, _ = decoder.ccd_decode_batch(y, code_mapped, noise_var, 8)
    errors["mapped + permuted decode"] += int(np.sum(np.any(got != info, axis=1)))

    x = polar.encode(polar.assemble_source(info, code_plain.A, N))
    y = (1.0 - 2.0 * x) + noise
    got, _, _ = decoder.ccd_decode_batch(y, code_unpermuted, noise_var, 8)
    errors["symmetric + plain decode"] += int(np.sum(np.any(got != info, axis=1)))

print(f"\n{frames} paired frames over the symbol channel at {SNR_DB} dB:")
for k, v in errors.items():
    print(f"  {k:<26} {v:>5} frame errors  (FER {v / frames:.2e})")
