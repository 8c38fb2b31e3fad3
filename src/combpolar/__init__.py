"""Comb-shaping polar codes.

Polar codes whose information indices are confined to a comb-shaping
index set, so the BPSK-modulated codeword has periodic spectral nulls and
can be separated from periodic interference by a comb filter, together
with the constrained construction/decoding that restores the lost
sub-channel reliability, and a baseband link simulator.

Names are imported from their submodule (`combpolar.simulate`,
`combpolar.shaping`, ...); the package itself defines only `__version__`.
"""

__version__ = "0.1.0"
