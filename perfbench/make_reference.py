"""Write perfbench/reference.json: the counts the benchmark checks against.

    python3 perfbench/make_reference.py

Frame workloads: frame-error counts per arm and SNR point, simulated at a
seed no benchmark run is expected to use and with many more frames than a
run, so the reference is an independent, tighter estimate.  Design:
the information sets and mcsc of both constructions (deterministic), and
the Monte-Carlo capacity table at the workload's trial count.

Run it again only when a change is meant to alter decoder decisions or
channel statistics, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 20260101
REFERENCE_FRAMES = 4096


def main() -> int:
    from run import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from combpolar import simulate
    from combpolar.config import load_config
    from combpolar.shaping import index_set_text

    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    base = json.loads((ROOT / "configs" / "reference.json").read_text())
    ref = {"seed": REFERENCE_SEED}
    for name, list_size, snrs in (("ref-scl32", 32, (-1.0,)), ("ref-sc-t2", 1, None)):
        wl = workloads.FrameWorkload(name, base, REFERENCE_SEED, out_dir, {},
                                     list_size=list_size, snrs=snrs,
                                     frames=REFERENCE_FRAMES, threads=(2,))
        ref[name] = {}
        for arm in workloads.ARMS:
            records = simulate.run_fer(load_config(str(wl.paths[arm, 2])))
            ref[name][arm] = {f"{r.snr_db:+.1f}": [r.frame_errors, r.frames] for r in records}
            print(name, arm, ref[name][arm], flush=True)

    design = workloads.DesignWorkload("design", base, REFERENCE_SEED, out_dir, {})
    ref["design"] = {}
    for key in ("n256", "n1024"):
        summary = simulate.construct_report(load_config(str(design.paths[key])),
                                            str(out_dir / f"reference-{key}.csv"))
        ref["design"][f"construct_{key}"] = {"A": index_set_text(summary["A"]),
                                             "mcsc": summary["mcsc"]}
    ref["design"]["mcsc_table"] = simulate.run_mcsc(load_config(str(design.paths["tables"])))
    print("design", ref["design"]["mcsc_table"], flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
