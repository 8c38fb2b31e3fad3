"""Experiment configuration: JSON file with a fixed schema.

Unknown keys anywhere in the file are an error, so typos fail fast, and
every value's type and range is checked when the config loads.  Every
field has a default; a config file only needs the overrides.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

from scipy.signal import get_window

from .channel import frame_samples, noise_tone_mask, tone_centers
from .modem import PulseSpec

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
    "construction": {"method": ("construction_method", str),
                     "design_snr_db": ("design_snr_db", float),
                     "trials": ("construction_trials", int)},
    "snr_sweep_db": ("snr_sweep_db", list),
    "stop": {"min_frame_errors": ("min_frame_errors", int), "max_frames": ("max_frames", int)},
    "master_seed": ("master_seed", int),
    "welch": {"segment": ("welch_segment", int), "overlap": ("welch_overlap", float),
              "window": ("welch_window", str), "frames": ("psd_frames", int)},
    "psd_tier": ("psd_tier", str),
    "threads": ("threads", int),
}

_CHOICES = {
    "criterion": ("cis-constrained", "symmetric"),
    "decoder_mode": ("ccd", "plain"),
    "construction_method": ("gaussian-approximation", "monte-carlo-genie"),
    "tone_model": ("noise", "sinusoid"),
    "psd_tier": ("welch", "exact"),
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
DB_LIMIT = 300.0  # |SNR| and |SIR| in dB; beyond it 10**(dB/10) leaves the float range


@dataclass
class ExperimentConfig:
    N: int = 256
    K: int = 96
    r: int | None = 3
    criterion: str = "cis-constrained"  # or "symmetric"
    decoder_mode: str = "ccd"  # or "plain"
    list_size: int = 8
    pulse: PulseSpec = field(default_factory=lambda: PulseSpec(0.25, 16, 8))
    symbol_rate: float = 800.0
    sir_db: float | None = -20.0
    fundamental_hz: float = 50.0
    tone_bandwidth_hz: float = 20.0
    tone_offset_hz: float = 25.0
    tone_model: str = "noise"
    comb_enabled: bool = True
    notch_bandwidth_hz: float = 20.0
    construction_method: str = "gaussian-approximation"
    design_snr_db: float = 0.0
    construction_trials: int = 200_000
    snr_sweep_db: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    min_frame_errors: int = 100
    max_frames: int = 100_000
    master_seed: int = 1
    welch_segment: int = 16384
    welch_overlap: float = 0.5
    welch_window: str = "hann"
    psd_frames: int = 200
    psd_tier: str = "welch"  # or "exact"
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
        """A validated copy of this config running arm `name` of ARM_PRESETS;
        an unshaped arm drops the shaping order."""
        if name not in ARM_PRESETS:
            raise ConfigError(f"unknown arm {name!r}")
        preset = ARM_PRESETS[name]
        return replace(
            self,
            r=self.r if preset["shaped"] else None,
            criterion=preset["criterion"],
            decoder_mode=preset["decoder_mode"],
        ).validate()

    def validate(self):
        from .construction import validate_params

        if not (self.N >= 2 and self.N & (self.N - 1) == 0):
            raise ConfigError(f"code.N must be a power of two >= 2, got {self.N}")
        samples = frame_samples(self)
        if samples > MAX_FRAME_SAMPLES:
            raise ConfigError(f"a frame of {samples} samples exceeds {MAX_FRAME_SAMPLES}")
        if not 1 <= self.K <= self.N:
            raise ConfigError(f"code.K must lie in [1, {self.N}], got {self.K}")
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
                            ("welch.segment", self.welch_segment),
                            ("welch.frames", self.psd_frames)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
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
        if len(tone_centers(fun, self.tone_offset_hz, half)) == 0:
            raise ConfigError(
                f"no tone of the grid (offset {self.tone_offset_hz} Hz, spacing "
                f"{fun} Hz) falls inside the signal band +/-{half} Hz"
            )
        if self.r is not None:
            if self.K > self.N // 2:
                raise ConfigError("rate exceeds 1/2 under a shaping index set")
            check = validate_params(self.symbol_rate, fun, self.N)
            if not check["feasible"]:
                raise ConfigError(
                    "infeasible parameters: N / (2*symbol_rate/fundamental) "
                    f"= {self.N * fun / (2 * self.symbol_rate):.6g} "
                    "is not a positive integer"
                )
            # nulls sit at odd multiples of the semiperiod; they cover the
            # tone grid iff the offset is an odd multiple and the spacing
            # an even multiple of it
            semi = (1 << self.r) * self.symbol_rate / self.N
            off, fun_semi = self.tone_offset_hz / semi, fun / semi
            aligned = (
                abs(off - round(off)) < 1e-9 and int(round(off)) % 2 == 1
                and abs(fun_semi - round(fun_semi)) < 1e-9 and int(round(fun_semi)) % 2 == 0
            )
            if not aligned:
                rec = check["recommended_r"]
                hint = f"; these parameters need r = {rec}" if rec is not None else ""
                raise ConfigError(
                    f"shaping order {self.r} puts nulls at odd multiples of "
                    f"{semi:.6g} Hz, which do not cover the tone grid "
                    f"(offset {self.tone_offset_hz} Hz, spacing {fun} Hz){hint}"
                )
        interfered = self.sir_db is not None and self.sir_db != math.inf
        if interfered and self.tone_model == "noise" and noise_tone_mask(self)[1] == 0:
            raise ConfigError(f"no FFT bin of the {samples}-sample frame lies in both a "
                              f"{self.tone_bandwidth_hz} Hz tone band and the signal band")
        if not 0 <= self.welch_overlap < 1:
            raise ConfigError(f"welch.overlap must lie in [0, 1), got {self.welch_overlap}")
        try:
            get_window(self.welch_window, 16)  # checks the name only
        except (TypeError, ValueError):
            raise ConfigError(f"unknown welch.window {self.welch_window!r}") from None
        psd_samples = (self.psd_frames * self.N + self.pulse.span_symbols) * self.pulse.sps
        if self.psd_tier == "welch" and self.welch_segment > psd_samples:
            raise ConfigError(f"welch.segment {self.welch_segment} is longer than the "
                              f"{psd_samples}-sample PSD signal of {self.psd_frames} frames")
        return self


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


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file (all fields optional) into an ExperimentConfig."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg, pulse = ExperimentConfig(), {}
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
                setattr(cfg, attr, value)
    try:
        cfg.pulse = replace(cfg.pulse, **pulse)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg.validate()
