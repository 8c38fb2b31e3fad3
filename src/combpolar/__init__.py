"""Comb-shaping polar codes.

Polar codes whose information indices are confined to a comb-shaping
index set, so the BPSK-modulated codeword has periodic spectral nulls and
can be separated from periodic interference by a comb filter, together
with the constrained construction/decoding that restores the lost
sub-channel reliability, and a baseband link simulator.
"""

from .channel import LinkChannel, calibrate_channel
from .construction import CRITERIA, estimate_symmetric_reliability, mcsc, select_code
from .decoder import ccd_decode_batch, channel_llr, sc_decode_batch, scl_decode_batch
from .modem import PulseSpec, bpsk_map, modulate_symbols, srrc_taps
from .polar import assemble_source, bit_reversal, encode, generator_matrix
from .shaping import (
    CisSpec,
    CodeConfig,
    cis,
    cis_to_half,
    half_to_cis,
    is_locally_periodic,
    receive_permutation,
)
from .spectral import (
    PsdEstimate,
    covering_order,
    null_depth,
    null_set,
    tone_centers,
    welch_psd,
)

__version__ = "0.1.0"
