"""Fast self-check of the benchmark itself (about a minute on two cores).

    python3 perfbench/selfcheck.py

- BENCHMARK.json has the keys, names, units and limits its format requires, and
  metric_map.json covers every per-layer metric and workload in it.
- Each workload runs at a tiny frame budget (`--smoke`), untraced and
  traced; the last output line must carry exactly the metrics BENCHMARK.json
  names for that mode, each with its declared unit, and report the
  operations its correctness check ran, none failed.
- The correctness check must fail a result that is wrong: frame-error
  counts inflated at threads=2, a PSD without notches and a construction
  with another information set.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict, metric_map: dict) -> list:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: needs exactly name and a one-line why")
    for kind, keyset in (("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            names.append(m["name"])
            if set(m) != keyset or not UNIT.match(m["unit"]) or \
                    m["better"] not in ("lower", "higher"):
                problems.append(f"{kind} metric {m.get('name')}: bad keys, unit or better")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must lie in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    layers = metric_map["layers"]
    problems += [f"metric_map.json has no entry for {m['name']}"
                 for m in spec["per_layer"] if m["name"] not in layers]
    workloads = {w["name"] for w in spec["workloads"]}
    for layer, entry in layers.items():
        unknown = set(entry.get("moves", {})) - workloads
        if unknown:
            problems.append(f"metric_map.json: {layer} names unknown workloads {sorted(unknown)}")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correctness check did not pass or did not run: "
                        f"{lines[-1][:200]} {proc.stderr.strip()[-300:]}")
    if not any(line.startswith("fail_frac = ") for line in lines):
        problems.append(f"{where}: no fail_frac line")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}")
    for name, unit in declared.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {entry}, declared unit {unit}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: no '{name} = ... {unit}' line")
    if trace and not (HERE / "out" / f"spans-{workload}-s7.json").is_file():
        problems.append(f"{where}: no spans file")
    return problems


def check_detects_wrong_results() -> list:
    """The checks must fail results that are wrong, on the real code paths."""
    sys.path.insert(0, str(ROOT / "src"))
    from combpolar import simulate

    import workloads
    from tracing import Tracer

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    problems = []
    wl = workloads.make_workload("ref-sc-t2", ROOT, 7, out_dir, smoke=True)
    run_fer = simulate.run_fer

    def inflated(cfg, *args, **kwargs):
        records = run_fer(cfg, *args, **kwargs)
        if cfg.threads > 1:
            for rec in records:
                rec.frame_errors = rec.frames if rec.frame_errors == 0 else 0
        return records

    simulate.run_fer = inflated
    try:
        res = wl.run_pass(Tracer(), full=True)
    finally:
        simulate.run_fer = run_fer
    t1_ok = [label for label, problem in res.outcomes
             if label.endswith("threads=1") and problem is None]
    if t1_ok:
        problems.append(f"wrong threads=2 counts passed the check: {t1_ok[:3]}")

    design = workloads.make_workload("design", ROOT, 7, out_dir)
    if design._check_psd({"tier": "welch", "depths": [3.0, 40.0]}) is None:
        problems.append("a 3 dB notch passed the PSD check")
    wrong = {"A": [0, 1, 2], "mcsc": design.reference["construct_n256"]["mcsc"]}
    if design._check_construct("n256", wrong) is None:
        problems.append("a wrong information set passed the construction check")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metric_map.json").read_text())
    problems = check_spec(spec, metric_map)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"[{'FAIL' if found else 'PASS'}] {w['name']} --trace {trace}", flush=True)
            problems += found
    found = check_detects_wrong_results()
    print(f"[{'FAIL' if found else 'PASS'}] correctness check rejects wrong results")
    problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
