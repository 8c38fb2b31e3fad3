"""Experiment configuration: JSON file with a fixed schema.

Unknown or repeated keys anywhere in the file are an error, so typos
fail fast and no copy of a key silently replaces another, and every
value's type is checked as the file loads.  Every field has a default; a
config file only needs the overrides.  An `ExperimentConfig` is immutable
and checks every value's range when it is built, from a file or in code,
so every config in hand is valid; change one with `dataclasses.replace`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .channel import frame_samples, noise_tone_mask
from .construction import CRITERIA, select_code
from .modem import PulseSpec
from .spectral import covering_order, tone_centers

# every JSON key: (ExperimentConfig attribute, value type[, null allowed]);
# "pulse." attributes belong to the PulseSpec
_FIELDS = {
    "code": {"N": ("N", int), "K": ("K", int), "r": ("r", int, True)},
    "criterion": ("criterion", str),
    "decoder": {"mode": ("decoder_mode", str), "list_size": ("list_size", int)},
    "modem": {"rolloff": ("pulse.rolloff", float), "span_symbols": ("pulse.span_symbols", int),
              "sps": ("pulse.sps", int), "symbol_rate_hz": ("symbol_rate", float)},
    "channel": {"sir_db": ("sir_db", float, True), "fundamental_hz": ("fundamental_hz", float),
                "tone_bandwidth_hz": ("tone_bandwidth_hz", float),
                "tone_offset_hz": ("tone_offset_hz", float), "tone_model": ("tone_model", str)},
    "comb_filter": {"enabled": ("comb_enabled", bool),
                    "notch_bandwidth_hz": ("notch_bandwidth_hz", float)},
    "construction": {"design_snr_db": ("design_snr_db", float),
                     "trials": ("construction_trials", int)},
    "snr_sweep_db": ("snr_sweep_db", list),
    "stop": {"min_frame_errors": ("min_frame_errors", int), "max_frames": ("max_frames", int)},
    "master_seed": ("master_seed", int),
    "welch": {"segment": ("welch_segment", int), "frames": ("psd_frames", int)},
    "threads": ("threads", int),
}

_CHOICES = {
    "criterion": CRITERIA,
    "decoder_mode": ("ccd", "plain"),
    "tone_model": ("noise", "sinusoid"),
}


# the three arms of the paired comparison: conventional code, shaped code
# with symmetric construction and plain decoding, and shaped code with the
# constrained construction and permuted decoding
ARM_PRESETS = {
    "cp": {"shaped": False, "criterion": "symmetric", "decoder_mode": "plain"},
    "csp-nonc": {"shaped": True, "criterion": "symmetric", "decoder_mode": "plain"},
    "csp-c": {"shaped": True, "criterion": "cis-constrained", "decoder_mode": "ccd"},
}


class ConfigError(ValueError):
    pass


# fixed limits, so a config loads the same way on every machine
MAX_THREADS = 256
MAX_FRAME_SAMPLES = 1 << 20
# sizes whose buffers grow with the config: SCL keeps (N, 512, L) path
# buffers (about 1 GiB at the ceiling), the sinusoid tone model a complex
# (tones, frame samples) phasor basis that each link folds (128 MiB), and
# psd the whole Welch signal with its segments (about 85 bytes per sample)
MAX_LIST_SYMBOLS = 1 << 16
MAX_TONE_PHASORS = 1 << 23
MAX_PSD_SAMPLES = 1 << 23
DB_LIMIT = 300.0  # |SNR| and |SIR| in dB; beyond it 10**(dB/10) leaves the float range


@dataclass(frozen=True)
class ExperimentConfig:
    N: int = 256
    K: int = 96
    r: int | None = 3
    criterion: str = "cis-constrained"  # or "symmetric"
    decoder_mode: str = "ccd"  # or "plain"
    list_size: int = 8
    pulse: PulseSpec = PulseSpec(0.25, 16, 8)
    symbol_rate: float = 800.0
    sir_db: float | None = -20.0
    fundamental_hz: float = 50.0
    tone_bandwidth_hz: float = 20.0
    tone_offset_hz: float = 25.0
    tone_model: str = "noise"
    comb_enabled: bool = True
    notch_bandwidth_hz: float = 20.0
    design_snr_db: float = 0.0
    construction_trials: int = 200_000
    snr_sweep_db: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    min_frame_errors: int = 100
    max_frames: int = 100_000
    master_seed: int = 1
    welch_segment: int = 16384
    psd_frames: int = 200
    threads: int = 1

    @property
    def sample_rate(self) -> float:
        return self.symbol_rate * self.pulse.sps

    @property
    def band(self):
        """Occupied signal band used for link SNR/SIR calibration."""
        half = (1.0 + self.pulse.rolloff) * self.symbol_rate / 2.0
        return (-half, half)

    def for_arm(self, name: str) -> ExperimentConfig:
        """This config running arm `name` of ARM_PRESETS, a new config checked
        like any other; an unshaped arm drops the shaping order, and a shaped
        arm needs one."""
        if name not in ARM_PRESETS:
            raise ConfigError(f"unknown arm {name!r}")
        preset = ARM_PRESETS[name]
        if preset["shaped"] and self.r is None:
            raise ConfigError(f"arm {name!r} needs a shaped code (set code.r)")
        return replace(
            self,
            r=self.r if preset["shaped"] else None,
            criterion=preset["criterion"],
            decoder_mode=preset["decoder_mode"],
        )

    def __post_init__(self):
        if not (self.N >= 2 and self.N & (self.N - 1) == 0):
            raise ConfigError(f"code.N must be a power of two >= 2, got {self.N}")
        samples = frame_samples(self)
        if samples > MAX_FRAME_SAMPLES:
            raise ConfigError(f"a frame of {samples} samples exceeds {MAX_FRAME_SAMPLES}")
        if self.K < 1:
            raise ConfigError(f"code.K must be >= 1, got {self.K}")
        if self.r is not None and not 0 <= self.r < self.N.bit_length() - 1:
            raise ConfigError(
                f"code.r must be null or lie in [0, {self.N.bit_length() - 2}], got {self.r}"
            )
        for attr, allowed in _CHOICES.items():
            if getattr(self, attr) not in allowed:
                raise ConfigError(f"unknown {attr.replace('_', ' ')} {getattr(self, attr)!r}")
        if self.decoder_mode == "ccd" and self.r is None:
            raise ConfigError("ccd decoding needs a shaped code (set code.r)")
        for name, value in (("decoder.list_size", self.list_size),
                            ("construction.trials", self.construction_trials),
                            ("stop.min_frame_errors", self.min_frame_errors),
                            ("stop.max_frames", self.max_frames),
                            ("welch.frames", self.psd_frames)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.welch_segment < 2:  # a 1-point periodic Hann window is 0
            raise ConfigError(f"welch.segment must be >= 2, got {self.welch_segment}")
        if self.list_size * self.N > MAX_LIST_SYMBOLS:
            raise ConfigError(f"decoder.list_size {self.list_size} x code.N {self.N} exceeds "
                              f"{MAX_LIST_SYMBOLS} path symbols")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(f"threads must lie in [1, {MAX_THREADS}], got {self.threads}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if not self.snr_sweep_db:
            raise ConfigError("snr_sweep_db must list at least one SNR")
        # +inf means no noise (sweep) or no interference (sir)
        for name, db, inf_ok in (("construction.design_snr_db", self.design_snr_db, False),
                                 *(("snr_sweep_db", s, True) for s in self.snr_sweep_db),
                                 ("channel.sir_db", self.sir_db, True)):
            if db is not None and not (abs(db) <= DB_LIMIT or (inf_ok and db == math.inf)):
                raise ConfigError(f"{name} must lie in [-{DB_LIMIT:g}, {DB_LIMIT:g}] dB"
                                  f"{' or be Infinity' if inf_ok else ''}, got {db}")
        if not 0 < self.symbol_rate < math.inf:
            raise ConfigError(f"symbol rate must be positive and finite, got {self.symbol_rate}")
        fun, resolution = self.fundamental_hz, self.sample_rate / samples
        if not resolution <= fun < math.inf:
            raise ConfigError(f"fundamental {fun} Hz must be finite and at least the "
                              f"frame's frequency resolution {resolution:.6g} Hz")
        for name, bw in (("tone bandwidth", self.tone_bandwidth_hz),
                         ("notch bandwidth", self.notch_bandwidth_hz)):
            if not 0 < bw < fun:
                raise ConfigError(f"{name} {bw} Hz must be positive and smaller than "
                                  f"the fundamental {fun} Hz")
        if not 0 <= self.tone_offset_hz < fun:
            raise ConfigError(f"tone offset {self.tone_offset_hz} Hz must lie in [0, {fun}) Hz")
        half = self.band[1]
        if half >= self.sample_rate / 2:
            raise ConfigError(f"modem.sps {self.pulse.sps} puts the Nyquist frequency at "
                              f"{self.sample_rate / 2:g} Hz, not above the pulse's band edge "
                              f"{half:g} Hz")
        if len(tone_centers(fun, self.tone_offset_hz, half)) == 0:
            raise ConfigError(
                f"no tone of the grid (offset {self.tone_offset_hz} Hz, spacing "
                f"{fun} Hz) falls inside the signal band +/-{half} Hz"
            )
        interfered = self.sir_db is not None and self.sir_db != math.inf
        if interfered and self.tone_model == "noise" and noise_tone_mask(self)[1] == 0:
            raise ConfigError(f"no FFT bin of the {samples}-sample frame lies in both a "
                              f"{self.tone_bandwidth_hz} Hz tone band and the signal band")
        if interfered and self.tone_model == "sinusoid":
            tones = len(tone_centers(fun, self.tone_offset_hz, self.sample_rate / 2))
            if tones * samples > MAX_TONE_PHASORS:
                raise ConfigError(f"the sinusoid tone model's {tones} tones x {samples} frame "
                                  f"samples exceed {MAX_TONE_PHASORS} phasors")
        psd_samples = (self.psd_frames * self.N + self.pulse.span_symbols) * self.pulse.sps
        if self.welch_segment > psd_samples:
            raise ConfigError(f"welch.segment {self.welch_segment} is longer than the "
                              f"{psd_samples}-sample PSD signal of {self.psd_frames} frames")
        if psd_samples > MAX_PSD_SAMPLES:
            raise ConfigError(f"welch.frames {self.psd_frames} make a {psd_samples}-sample "
                              f"PSD signal, over {MAX_PSD_SAMPLES}")
        # notch depths are read off the Welch grid, spaced as np.fft.fftfreq spaces it
        seg = self.welch_segment
        step = 1.0 / (seg * (1.0 / self.sample_rate))
        lo, hi = -(seg // 2) * step, (seg - 1) // 2 * step
        targets = tone_centers(fun, self.tone_offset_hz, half)
        if targets[0] < lo or targets[-1] > hi:
            raise ConfigError(f"a {seg}-point welch.segment spans [{lo:g}, {hi:g}] Hz, "
                              f"short of the tones at {targets[0]:g} to {targets[-1]:g} Hz")
        # last, so an order the message names passes every other check
        try:  # K against the candidate set of the selection rule
            select_code(np.zeros(self.N), self.K, self.r, criterion=self.criterion)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.r is not None:
            order = covering_order(self.N, self.symbol_rate, fun, self.tone_offset_hz)
            if order != self.r:
                q = self.N * fun / (2 * self.symbol_rate)
                if order is not None:
                    why = f"these parameters need r = {order}"
                elif math.isfinite(q) and round(q) >= 1 and abs(q - round(q)) < 1e-9:
                    why = "no shaping order covers it"
                else:
                    why = ("no shaping order covers it, as N / (2*symbol_rate/fundamental) "
                           f"= {q:.6g} is not a positive integer")
                semi = (1 << self.r) * self.symbol_rate / self.N
                raise ConfigError(
                    f"shaping order {self.r} puts nulls at odd multiples of "
                    f"{semi:.6g} Hz, which do not cover the tone grid "
                    f"(offset {self.tone_offset_hz} Hz, spacing {fun} Hz); {why}"
                )


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list of numbers"}


def _typed(value, path: str, kind, nullable: bool = False):
    """value as `kind` (int, float, bool, str or list of floats); anything
    else is a ConfigError."""
    if value is None and nullable:
        return None
    if kind in (int, float) and isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind is float:
            try:
                return float(value)
            except OverflowError:  # an integer beyond the float range
                return math.copysign(math.inf, value)
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    elif kind is list and isinstance(value, list):
        return tuple(_typed(v, path, float) for v in value)
    elif kind in (bool, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")


class _Pairs(list):
    """A JSON object's (key, value) pairs in file order, as json reads them."""


def _objects(value, path: tuple = ()):
    """value with each JSON object's pairs made a dict; a key that an
    object repeats is a ConfigError, named by its path from the top."""
    if isinstance(value, _Pairs):
        out = {}
        for k, v in value:
            if k in out:
                raise ConfigError("duplicate config key " + ".".join(map(repr, path + (k,))))
            out[k] = _objects(v, path + (k,))
        return out
    return [_objects(v, path) for v in value] if isinstance(value, list) else value


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file (all fields optional) into an ExperimentConfig."""
    data = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = _objects(json.load(fh, object_pairs_hook=_Pairs))
            except RecursionError:
                raise ConfigError("config file nests deeper than Python's recursion limit") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    values, pulse = {}, {}
    for key, val in {**data, **(overrides or {})}.items():
        spec = _FIELDS.get(key)
        if spec is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not isinstance(spec, dict):
            items = [(key, spec, val)]
        elif isinstance(val, dict):
            for k in val:
                if k not in spec:
                    raise ConfigError(f"unknown config key {key!r}.{k!r}")
            items = [(f"{key}.{k}", spec[k], v) for k, v in val.items()]
        else:
            raise ConfigError(f"config key {key!r} must be an object")
        for key_path, (attr, *kind), v in items:
            value = _typed(v, key_path, *kind)
            if attr.startswith("pulse."):
                pulse[attr[len("pulse."):]] = value
            else:
                values[attr] = value
    try:
        values["pulse"] = replace(ExperimentConfig.pulse, **pulse)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(**values)
