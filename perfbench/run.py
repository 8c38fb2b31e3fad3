"""combpolar benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload ref-scl32 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  The benchmark imports combpolar
from `src/`, writes the configs it generates and the command outputs
under `perfbench/out/`, and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

- `--trace 0` gives the end-to-end metrics: `pass_s` (wall time of one
  pass of the workload's timed calls: the sum of each call's median over
  the passes of the run), `setup_s` (median of three set-ups,
  which alternate with the first passes) and `peak_rss_mb`.
- `--trace 1` alternates untraced and traced passes and gives the
  per-layer metrics of `tracing.py`, plus `trace.overhead_frac`; it also
  writes the spans to `perfbench/out/spans-<workload>-s<seed>.json`.

One operation is one arm x SNR point of a `run_fer` call, or one design
command; `attempted` and `failed` count operations over every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ref-scl32", "ref-sc-t2", "design")
SETUPS = 3
# Native math libraries would otherwise start one thread per core in the
# benchmark process and in each worker; the benchmark keeps to the two
# worker processes `threads=2` asks for.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny frame budgets, one set-up and the fewest passes (self-check)")
    return p.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "budget": wl.budget(),
    }


def _peak_rss_mb() -> float:
    """Own peak resident set plus the largest worker's (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "combpolar" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "reference.json").is_file():
        print(f"benchmark: no combpolar source checkout at {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from tracing import Tracer, layer_metrics, traced_boundaries
    from workloads import call_medians, make_workload

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    wl = make_workload(args.workload, ROOT, args.seed, out_dir, smoke=args.smoke)
    context = _context(args, wl)
    print("context " + json.dumps(context), flush=True)

    # The set-ups alternate with the first passes, so they sample more of
    # the run than back-to-back set-ups would.
    setup_count = 1 if args.smoke else SETUPS
    tracer = Tracer()
    setups, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if len(setups) < setup_count:
            wl.setup()
            setups.append(time.perf_counter() - t0)
        # with tracing on, passes alternate untraced / traced; the untimed
        # thread settings run on the first untraced pass and on every
        # traced pass, enough for the equality check and the pool's base
        if args.trace and len(plain) > len(traced):
            with traced_boundaries(tracer):
                traced.append(wl.run_pass(tracer, full=True))
        else:
            plain.append(wl.run_pass(Tracer(), full=not plain))
        last = time.perf_counter() - t0
        enough = len(setups) == setup_count and (traced or not args.trace)
        if enough and (args.smoke or time.perf_counter() - start + last > args.seconds):
            break

    passes = plain + traced
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [(label, problem) for label, problem in outcomes if problem is not None]
    for label, problem in failed:
        print(f"FAILED {label}: {problem}", file=sys.stderr)

    timed = wl.timed_parts()
    never = [k for k in timed if not any(k in p.parts for p in plain)]
    if never:
        print(f"benchmark: no untraced pass completed {never}; no timing to report",
              file=sys.stderr)
        return 1
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; timed calls per pass (s): "
          + json.dumps([{k: round(p.parts[k], 4) for k in timed if k in p.parts}
                        for p in passes]))
    for name, (value, unit) in wl.describe(plain).items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {len(failed) / len(outcomes):.6g} ratio "
          f"({len(failed)} failed of {len(outcomes)} operations)")

    if args.trace:
        shared = sorted(set(traced[0].parts) & set(plain[0].parts))
        overhead = call_medians(traced, shared) / call_medians(plain, shared) - 1.0
        metrics = layer_metrics(tracer.spans, len(traced), overhead)
        spans_path = out_dir / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps({"context": context, "spans": tracer.to_json()}))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "pass_s": (call_medians(plain, timed), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
