"""Experiment configuration: JSON file with a fixed schema.

Unknown keys anywhere in the file are an error, so typos fail fast.
Every field has a default; a config file only needs the overrides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .channel import tone_centers
from .modem import PulseSpec

_SCHEMA = {
    "code": {"N", "K", "r"},
    "criterion": None,
    "decoder": {"mode", "list_size"},
    "modem": {"rolloff", "span_symbols", "sps", "symbol_rate_hz"},
    "channel": {"sir_db", "fundamental_hz", "tone_bandwidth_hz", "tone_offset_hz", "tone_model"},
    "comb_filter": {"enabled", "notch_bandwidth_hz"},
    "construction": {"method", "design_snr_db", "trials"},
    "snr_sweep_db": None,
    "stop": {"min_frame_errors", "max_frames"},
    "master_seed": None,
    "welch": {"segment", "overlap", "window", "frames"},
    "psd_tier": None,
    "threads": None,
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

        if self.criterion not in ("cis-constrained", "symmetric"):
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.decoder_mode not in ("ccd", "plain"):
            raise ConfigError(f"unknown decoder mode {self.decoder_mode!r}")
        if self.decoder_mode == "ccd" and self.r is None:
            raise ConfigError("ccd decoding needs a shaped code (set code.r)")
        if self.symbol_rate <= 0:
            raise ConfigError(f"symbol rate must be positive, got {self.symbol_rate}")
        if not 0 < self.tone_bandwidth_hz < self.fundamental_hz:
            raise ConfigError(
                f"tone bandwidth {self.tone_bandwidth_hz} Hz must be positive and "
                f"smaller than the fundamental {self.fundamental_hz} Hz"
            )
        if self.notch_bandwidth_hz <= 0:
            raise ConfigError(
                f"notch bandwidth must be positive, got {self.notch_bandwidth_hz} Hz"
            )
        half = self.band[1]
        if len(tone_centers(self.fundamental_hz, self.tone_offset_hz, half)) == 0:
            raise ConfigError(
                f"no tone of the grid (offset {self.tone_offset_hz} Hz, spacing "
                f"{self.fundamental_hz} Hz) falls inside the signal band +/-{half} Hz"
            )
        if self.r is not None:
            if self.K > self.N // 2:
                raise ConfigError("rate exceeds 1/2 under a shaping index set")
            check = validate_params(self.symbol_rate, self.fundamental_hz, self.N)
            if not check["feasible"]:
                raise ConfigError(
                    "infeasible parameters: N / (2*symbol_rate/fundamental) "
                    f"= {self.N * self.fundamental_hz / (2 * self.symbol_rate):.6g} "
                    "is not a positive integer"
                )
            # nulls sit at odd multiples of the semiperiod; they cover the
            # tone grid iff the offset is an odd multiple and the spacing
            # an even multiple of it
            semi = (1 << self.r) * self.symbol_rate / self.N
            off, fun = self.tone_offset_hz / semi, self.fundamental_hz / semi
            aligned = (
                abs(off - round(off)) < 1e-9 and int(round(off)) % 2 == 1
                and abs(fun - round(fun)) < 1e-9 and int(round(fun)) % 2 == 0
            )
            if not aligned:
                rec = check["recommended_r"]
                hint = f"; these parameters need r = {rec}" if rec is not None else ""
                raise ConfigError(
                    f"shaping order {self.r} puts nulls at odd multiples of "
                    f"{semi:.6g} Hz, which do not cover the tone grid "
                    f"(offset {self.tone_offset_hz} Hz, spacing "
                    f"{self.fundamental_hz} Hz){hint}"
                )
        if self.tone_model not in ("noise", "sinusoid"):
            raise ConfigError(f"unknown tone model {self.tone_model!r}")
        if self.psd_tier not in ("welch", "exact"):
            raise ConfigError(f"unknown psd tier {self.psd_tier!r}")
        return self


def _check_keys(data: dict):
    for key, val in data.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        sub = _SCHEMA[key]
        if sub is not None:
            if not isinstance(val, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for k in val:
                if k not in sub:
                    raise ConfigError(f"unknown config key {key!r}.{k!r}")


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file (all fields optional) into an ExperimentConfig."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    _check_keys(data)
    if overrides:
        data = {**data, **overrides}

    cfg = ExperimentConfig()
    code = data.get("code", {})
    cfg.N = int(code.get("N", cfg.N))
    cfg.K = int(code.get("K", cfg.K))
    cfg.r = code.get("r", cfg.r)
    if cfg.r is not None:
        cfg.r = int(cfg.r)
    cfg.criterion = data.get("criterion", cfg.criterion)
    dec = data.get("decoder", {})
    cfg.decoder_mode = dec.get("mode", cfg.decoder_mode)
    cfg.list_size = int(dec.get("list_size", cfg.list_size))
    mod = data.get("modem", {})
    cfg.pulse = PulseSpec(
        rolloff=float(mod.get("rolloff", cfg.pulse.rolloff)),
        span_symbols=int(mod.get("span_symbols", cfg.pulse.span_symbols)),
        sps=int(mod.get("sps", cfg.pulse.sps)),
    )
    cfg.symbol_rate = float(mod.get("symbol_rate_hz", cfg.symbol_rate))
    ch = data.get("channel", {})
    sir = ch.get("sir_db", cfg.sir_db)
    cfg.sir_db = None if sir is None else float(sir)
    cfg.fundamental_hz = float(ch.get("fundamental_hz", cfg.fundamental_hz))
    cfg.tone_bandwidth_hz = float(ch.get("tone_bandwidth_hz", cfg.tone_bandwidth_hz))
    cfg.tone_offset_hz = float(ch.get("tone_offset_hz", cfg.tone_offset_hz))
    cfg.tone_model = ch.get("tone_model", cfg.tone_model)
    cf = data.get("comb_filter", {})
    cfg.comb_enabled = bool(cf.get("enabled", cfg.comb_enabled))
    cfg.notch_bandwidth_hz = float(cf.get("notch_bandwidth_hz", cfg.notch_bandwidth_hz))
    con = data.get("construction", {})
    cfg.construction_method = con.get("method", cfg.construction_method)
    cfg.design_snr_db = float(con.get("design_snr_db", cfg.design_snr_db))
    cfg.construction_trials = int(con.get("trials", cfg.construction_trials))
    if "snr_sweep_db" in data:
        cfg.snr_sweep_db = tuple(float(s) for s in data["snr_sweep_db"])
    stop = data.get("stop", {})
    cfg.min_frame_errors = int(stop.get("min_frame_errors", cfg.min_frame_errors))
    cfg.max_frames = int(stop.get("max_frames", cfg.max_frames))
    cfg.master_seed = int(data.get("master_seed", cfg.master_seed))
    wl = data.get("welch", {})
    cfg.welch_segment = int(wl.get("segment", cfg.welch_segment))
    cfg.welch_overlap = float(wl.get("overlap", cfg.welch_overlap))
    cfg.welch_window = wl.get("window", cfg.welch_window)
    cfg.psd_frames = int(wl.get("frames", cfg.psd_frames))
    cfg.psd_tier = data.get("psd_tier", cfg.psd_tier)
    cfg.threads = int(data.get("threads", cfg.threads))
    return cfg.validate()
