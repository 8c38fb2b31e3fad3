"""Golden output digests: the sha256 of every output file of a small, fixed
set of runs at master seeds 1 and 7, checked against tests/golden.json.

The runs, on configs/reference.json:
  - `construct` on the reference code and on N = 1024, r = 5, K = 384
  - `psd` at welch.frames 8
  - `mcsc` at 5000 trials (a partial 4096-trial batch)
  - each arm's FER CSV at L in {1, 8, 32}, on the noise tone model (SIR
    -20 dB) and the sinusoid one (SIR 0 dB, where the SNR still matters),
    over -3 and 0 dB with 64-frame super-batches, so the points and arms
    stop in different rounds.  Each FER digest is checked twice: through
    one `run_fer_arms` call at two workers and through a single-arm
    `run_fer` at one.

The manifest records the numpy version it was made with, the one
dependency the output bytes rest on (scipy is only a test reference);
under another numpy the test fails and names both versions.  A change
that moves output bytes rewrites the manifest and lists each moved
digest:

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from combpolar import simulate
from combpolar.config import ARM_PRESETS, load_config

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
SEEDS = (1, 7)
ARMS = tuple(ARM_PRESETS)
LIST_SIZES = (1, 8, 32)
TONE_MODELS = {"noise": -20.0, "sinusoid": 0.0}  # tone model: SIR (dB)


def versions() -> dict:
    return {"numpy": np.__version__}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cases(out: Path) -> tuple:
    """Run every golden case under `out`.  Returns ({file key: sha256},
    {FER file key: sha256 of the same file from a single-arm run_fer})."""
    base = load_config(str(ROOT / "configs" / "reference.json"))
    alone = {}
    for seed in SEEDS:
        cfg = dataclasses.replace(base, master_seed=seed)
        d = out / f"seed{seed}"
        for name in ("construct-n256", "construct-n1024", "mcsc"):
            (d / name).mkdir(parents=True)
        simulate.construct_report(cfg, str(d / "construct-n256" / "construct.csv"))
        simulate.construct_report(dataclasses.replace(cfg, N=1024, K=384, r=5),
                                  str(d / "construct-n1024" / "construct.csv"))
        simulate.run_psd(dataclasses.replace(cfg, psd_frames=8), str(d / "psd"))
        simulate.run_mcsc(dataclasses.replace(cfg, construction_trials=5000),
                          str(d / "mcsc" / "mcsc.csv"))
        with mock.patch.object(simulate, "_SUPER_BATCH", 64):
            for model, sir_db in TONE_MODELS.items():
                for L in LIST_SIZES:
                    fer_cfg = dataclasses.replace(
                        cfg, tone_model=model, sir_db=sir_db, list_size=L, threads=2,
                        snr_sweep_db=(-3.0, 0.0), min_frame_errors=20, max_frames=192,
                    )
                    case = f"seed{seed}/fer-{model}-L{L}"
                    simulate.run_fer_arms(fer_cfg, out_dir=str(out / case))
                    (out / "alone" / case).mkdir(parents=True)
                    for arm in ARMS:
                        path = out / "alone" / case / f"fer_{arm}.csv"
                        simulate.run_fer(dataclasses.replace(fer_cfg.for_arm(arm), threads=1),
                                         str(path))
                        alone[f"{case}/{path.name}"] = _sha256(path)
    digests = {str(f.relative_to(out)): _sha256(f) for f in sorted(out.glob("seed*/*/*.csv"))}
    return digests, alone


def test_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != versions():
        pytest.fail(f"{MANIFEST.name} was made with {manifest['versions']}, this run has "
                    f"{versions()}; check the outputs under the manifest's versions, or "
                    f"rewrite it and say why the bytes moved")
    digests, alone = run_cases(tmp_path)
    want = manifest["digests"]
    moved = sorted(k for k in want.keys() | digests.keys() if want.get(k) != digests.get(k))
    assert not moved, f"output bytes moved: {moved}"
    split = sorted(k for k, v in alone.items() if v != digests[k])
    assert not split, f"single-arm run_fer differs from run_fer_arms: {split}"


def test_version_gate_reads_numpy_only(tmp_path):
    # the gate of test_golden_digests, with the runs replaced by the
    # manifest's own digests: another scipy passes, another numpy fails
    # and names both versions
    scipy = pytest.importorskip("scipy")
    manifest = json.loads(MANIFEST.read_text())
    runs = mock.patch.object(sys.modules[__name__], "run_cases",
                             return_value=(manifest["digests"], {}))
    with runs, mock.patch.object(scipy, "__version__", "0.0.1"):
        test_golden_digests(tmp_path)
    with runs, mock.patch.object(np, "__version__", "0.0.1"):
        with pytest.raises(pytest.fail.Exception) as failed:
            test_golden_digests(tmp_path)
    assert manifest["versions"]["numpy"] in str(failed.value)
    assert "0.0.1" in str(failed.value)


def rewrite():
    with tempfile.TemporaryDirectory() as tmp:
        digests, alone = run_cases(Path(tmp))
    split = sorted(k for k, v in alone.items() if v != digests[k])
    if split:
        sys.exit(f"single-arm run_fer differs from run_fer_arms, manifest not written: {split}")
    old = json.loads(MANIFEST.read_text())["digests"] if MANIFEST.exists() else {}
    for k in sorted(old.keys() | digests.keys()):
        if old.get(k) != digests.get(k):
            print(f"moved: {k}: {old.get(k)} -> {digests.get(k)}")
    MANIFEST.write_text(json.dumps({"versions": versions(), "digests": digests}, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(digests)} digests)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(__doc__)
    rewrite()
