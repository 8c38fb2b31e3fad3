"""The benchmark's workloads and their correctness checks.

Each workload writes the combpolar configs it needs from
`configs/reference.json` and the workload seed (which becomes
`master_seed`), so the package only sees generated configs.  A workload
has a set-up step (timed on its own) and a pass: a fixed amount of work
that is identical on every pass and on every commit, timed around the
public calls into `combpolar.simulate`.

- `ref-scl32`: three arms, SCL L=32, -1 dB, threads=1.  The decoder
  dominates frame time.
- `ref-sc-t2`: three arms, SC, the reference five-point sweep, run at
  threads=2 (timed) and then at threads=1 for the same frames.  Channel
  synthesis and the per-super-batch process pool dominate.
- `design`: no frames; `construct` at N=256 and N=1024, the Monte-Carlo
  `mcsc` table and the Welch `psd`.

Frame workloads set `stop.min_frame_errors` out of reach, so every
arm x SNR point simulates exactly the frame budget.
"""

from __future__ import annotations

import copy
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from combpolar import simulate
from combpolar.config import load_config
from combpolar.shaping import index_set_text

from tracing import ARMS, Tracer

# The three paired arms, written as config overrides (README: a
# conventional code is "code": {"r": null} with plain decoding).
ARM_CONFIG = {
    "cp": {"r": None, "criterion": "symmetric", "mode": "plain"},
    "csp-nonc": {"r": 3, "criterion": "symmetric", "mode": "plain"},
    "csp-c": {"r": 3, "criterion": "cis-constrained", "mode": "ccd"},
}

# Half-width, in standard deviations, of the Wilson intervals that the
# FER check compares.  The run's frames and the reference's frames are
# independent Monte-Carlo samples, so at 95% (z = 1.96) a correct program
# would fail about one point in twenty across seeds; at z = 5 a correct
# program fails with probability below 1e-6 per point, while a broken
# decoder or channel (FER off by a large factor) still fails.
FER_Z = 5.0
# criterion 3's notch-depth threshold, and criterion 4's capacity tolerance
PSD_MIN_DEPTH_DB = 25.0
MCSC_TOL = 0.03
MCSC_TRIALS = 50_000
N1024_CODE = {"N": 1024, "K": 384, "r": 5}


@dataclass
class PassResult:
    """One pass: the wall time of each timed call, and per-operation outcomes."""

    parts: dict = field(default_factory=dict)     # call name -> seconds
    outcomes: list = field(default_factory=list)  # (operation, problem or None)
    counts: dict = field(default_factory=dict)    # frame errors by (arm, threads, snr)


def call_medians(passes: list, calls) -> float:
    """Sum over the named calls of each call's median time over the passes."""
    return sum(statistics.median(p.parts[k] for p in passes if k in p.parts) for k in calls)


def wilson(k: int, n: int, z: float) -> tuple:
    """Wilson score interval for k successes in n trials at z standard deviations.

    Kept apart from `simulate.wilson_interval`, so the check does not rest
    on the code it checks.
    """
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def fer_consistent(errors: int, frames: int, ref_errors: int, ref_frames: int,
                   z: float = FER_Z) -> bool:
    """True when the run's and the reference's Wilson intervals overlap."""
    lo, hi = wilson(errors, frames, z)
    rlo, rhi = wilson(ref_errors, ref_frames, z)
    return lo <= rhi and rlo <= hi


def _write_config(out_dir: Path, name: str, data: dict) -> Path:
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(data, indent=1))
    return path


def arm_config(base: dict, arm: str) -> dict:
    cfg = copy.deepcopy(base)
    preset = ARM_CONFIG[arm]
    cfg["code"]["r"] = preset["r"]
    cfg["criterion"] = preset["criterion"]
    cfg["decoder"]["mode"] = preset["mode"]
    return cfg


class _Workload:
    """Every pass runs the same seed and the same work, so its results repeat exactly."""

    def __init__(self):
        self._first = {}

    def repeats_differ(self, key, value) -> bool:
        return self._first.setdefault(key, value) != value


class FrameWorkload(_Workload):
    """Paired FER runs of all three arms over a fixed frame budget."""

    def __init__(self, name, base, seed, out_dir, reference, *, list_size, snrs,
                 frames, threads):
        super().__init__()
        self.frames = frames
        self.threads = threads
        self.reference = reference
        self.paths = {}
        for arm in ARMS:
            for t in threads:
                cfg = arm_config(base, arm)
                cfg["decoder"]["list_size"] = list_size
                if snrs is not None:
                    cfg["snr_sweep_db"] = list(snrs)
                cfg["stop"] = {"min_frame_errors": 10**12, "max_frames": frames}
                cfg["master_seed"] = seed
                cfg["threads"] = t
                self.paths[arm, t] = _write_config(out_dir, f"{name}-{arm}-t{t}", cfg)
        self.snrs = tuple(load_config(str(self.paths[ARMS[0], threads[0]])).snr_sweep_db)

    def budget(self) -> dict:
        return {"frames_per_point": self.frames, "arms": list(ARMS),
                "snr_db": list(self.snrs), "threads": list(self.threads),
                "frames_per_pass": self.frames_per_pass()}

    def frames_per_pass(self) -> int:
        return self.frames * len(ARMS) * len(self.snrs)

    def setup(self) -> None:
        """Config load, then build_code and make_link for every arm and SNR point."""
        for arm in ARMS:
            cfg = load_config(str(self.paths[arm, self.threads[0]]))
            code = simulate.build_code(cfg)
            for snr in cfg.snr_sweep_db:
                simulate.make_link(cfg, code, snr)

    def timed_parts(self) -> list:
        return [f"t{self.threads[0]}.{arm}" for arm in ARMS]

    def run_pass(self, tracer: Tracer, full: bool) -> PassResult:
        """Run the timed thread setting; with `full`, then the others for the same frames."""
        res = PassResult()
        for t in self.threads if full else self.threads[:1]:
            for arm in ARMS:
                cfg = load_config(str(self.paths[arm, t]))
                labels = [f"run_fer {arm} {snr:+.1f} dB threads={t}" for snr in self.snrs]
                try:
                    with tracer.operation("bench.run_fer", arm=arm, threads=t):
                        t0 = time.perf_counter()
                        records = simulate.run_fer(cfg)
                        res.parts[f"t{t}.{arm}"] = time.perf_counter() - t0
                except Exception:
                    problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
                    res.outcomes += [(label, f"raised {problem}") for label in labels]
                    continue
                for label, snr, rec in zip(labels, self.snrs, records):
                    res.outcomes.append((label, self._check_point(res, arm, t, snr, rec)))
                for label in labels[len(records):]:
                    res.outcomes.append((label, "no record for this SNR point"))
        return res

    def _check_point(self, res: PassResult, arm, t, snr, rec):
        res.counts[arm, t, snr] = rec.frame_errors
        if rec.snr_db != snr or rec.frames != self.frames:
            return f"record reads {rec.frames} frames at {rec.snr_db} dB"
        ref_k, ref_n = self.reference[arm][f"{snr:+.1f}"]
        if not fer_consistent(rec.frame_errors, rec.frames, ref_k, ref_n):
            return (f"{rec.frame_errors}/{rec.frames} frame errors is inconsistent "
                    f"with the reference {ref_k}/{ref_n}")
        if t == self.threads[-1] and len(self.threads) > 1:
            multi = res.counts.get((arm, self.threads[0], snr))
            if multi != rec.frame_errors:
                return (f"threads={self.threads[0]} gave {multi} frame errors, "
                        f"threads={t} gave {rec.frame_errors}")
        if self.repeats_differ((arm, t, snr), rec.frame_errors):
            return f"{rec.frame_errors} frame errors differ from the first pass"
        return None

    def describe(self, passes: list) -> dict:
        """Figures printed beside the gated metrics."""
        n = self.frames_per_pass()
        out = {"frames_per_s": (n / call_medians(passes, self.timed_parts()), "frames/s")}
        if len(self.threads) > 1:
            single = [f"t{self.threads[-1]}.{arm}" for arm in ARMS]
            out["frames_per_s_t1"] = (n / call_medians(passes, single), "frames/s")
            out["parallel_eff"] = (out["frames_per_s"][0]
                                   / (self.threads[0] * out["frames_per_s_t1"][0]), "ratio")
        return out


class DesignWorkload(_Workload):
    """The design commands: construct at two lengths, mcsc and Welch psd."""

    def __init__(self, name, base, seed, out_dir, reference):
        super().__init__()
        self.out_dir = out_dir
        self.reference = reference
        n256 = copy.deepcopy(base)
        n1024 = copy.deepcopy(base)
        n1024["code"] = dict(N1024_CODE)
        tables = copy.deepcopy(base)
        tables["construction"]["trials"] = MCSC_TRIALS
        for cfg in (n256, n1024, tables):
            cfg["master_seed"] = seed
        self.paths = {
            "n256": _write_config(out_dir, f"{name}-n256", n256),
            "n1024": _write_config(out_dir, f"{name}-n1024", n1024),
            "tables": _write_config(out_dir, f"{name}-tables", tables),
        }

    def budget(self) -> dict:
        cfg = load_config(str(self.paths["tables"]))
        return {"construct_N": [256, 1024], "mcsc_trials": cfg.construction_trials,
                "psd_frames": cfg.psd_frames, "frames_per_pass": 0}

    def setup(self) -> None:
        """Config load, then build_code for both construction lengths."""
        load_config(str(self.paths["tables"]))
        for key in ("n256", "n1024"):
            simulate.build_code(load_config(str(self.paths[key])))

    def timed_parts(self) -> list:
        return ["construct.n256", "construct.n1024", "mcsc", "psd"]

    def _timed(self, res, tracer, part, call, check):
        try:
            with tracer.operation(f"bench.{part}"):
                t0 = time.perf_counter()
                out = call()
                res.parts[part] = time.perf_counter() - t0
        except Exception:
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
            res.outcomes.append((part, f"raised {problem}"))
            return
        res.outcomes.append((part, check(out)))

    def run_pass(self, tracer: Tracer, full: bool) -> PassResult:
        res = PassResult()
        for key in ("n256", "n1024"):
            cfg = load_config(str(self.paths[key]))
            out = str(self.out_dir / f"construct-{key}.csv")
            self._timed(res, tracer, f"construct.{key}",
                        lambda: simulate.construct_report(cfg, out),
                        lambda s, key=key: self._check_construct(key, s))
        cfg = load_config(str(self.paths["tables"]))
        self._timed(res, tracer, "mcsc", lambda: simulate.run_mcsc(cfg), self._check_mcsc)
        psd_dir = str(self.out_dir / "psd")
        self._timed(res, tracer, "psd", lambda: simulate.run_psd(cfg, psd_dir),
                    self._check_psd)
        return res

    def _check_construct(self, key, summary):
        ref = self.reference[f"construct_{key}"]
        if index_set_text(summary["A"]) != ref["A"]:
            return "information set differs from the reference construction"
        if abs(summary["mcsc"] - ref["mcsc"]) > 1e-9:
            return f"mcsc {summary['mcsc']:.9f} differs from the reference {ref['mcsc']:.9f}"
        return None

    def _check_mcsc(self, rows):
        ref = {(r, c): v for r, c, v in self.reference["mcsc_table"]}
        got = {(r, c): v for r, c, v in rows}
        if set(got) != set(ref):
            return "capacity table has other rows than the reference"
        for (rate, crit), v in got.items():
            if abs(v - ref[rate, crit]) > MCSC_TOL:
                return f"rate {rate} {crit}: {v:.4f} vs reference {ref[rate, crit]:.4f}"
        for rate in {r for r, _ in got}:
            if got[rate, "cis-constrained"] < got[rate, "symmetric"]:
                return f"rate {rate}: constrained selection does not dominate"
        if self.repeats_differ("mcsc", sorted(got.items())):
            return "capacity table differs from the first pass"
        return None

    def _check_psd(self, res):
        worst = float(min(res["depths"]))
        if res["tier"] != "welch" or worst < PSD_MIN_DEPTH_DB:
            return f"shallowest notch {worst:.1f} dB < {PSD_MIN_DEPTH_DB} dB"
        if self.repeats_differ("psd", [float(d) for d in res["depths"]]):
            return "notch depths differ from the first pass"
        return None

    def describe(self, passes: list) -> dict:
        """Figures printed beside the gated metrics."""
        return {"construct_s": (call_medians(passes, ["construct.n256", "construct.n1024"]), "s"),
                "mcsc_s": (call_medians(passes, ["mcsc"]), "s"),
                "psd_s": (call_medians(passes, ["psd"]), "s")}


def make_workload(name: str, root: Path, seed: int, out_dir: Path, smoke: bool = False):
    """Build a workload from the reference config; `smoke` shrinks frame budgets."""
    base = json.loads((root / "configs" / "reference.json").read_text())
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())[name]
    if name == "ref-scl32":
        return FrameWorkload(name, base, seed, out_dir, reference, list_size=32,
                             snrs=(-1.0,), frames=8 if smoke else 256, threads=(1,))
    if name == "ref-sc-t2":
        return FrameWorkload(name, base, seed, out_dir, reference, list_size=1,
                             snrs=None, frames=8 if smoke else 256, threads=(2, 1))
    if name == "design":
        return DesignWorkload(name, base, seed, out_dir, reference)
    raise KeyError(name)
