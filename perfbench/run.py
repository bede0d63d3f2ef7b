"""Benchmark of quandlelab: whole passes of a workload's operation list.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  With `--trace 0` the run repeats whole passes until S
seconds of timed library calls have gone by and prints the end-to-end
metrics; with `--trace 1` it runs pass 0 untraced twice and then traced and
prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 60
# one BLAS thread: with two, a busy neighbour doubles the time of a pass
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare(workload: str, seed: int):
    """Everything before the first timed call: import, pass-0 inputs."""
    import quandlelab as ql
    import quandlelab.cli  # noqa: F401  (the CLI is driven in-process)
    import workloads

    if Path(ql.__file__).resolve().parent != SRC / "quandlelab":
        raise SystemExit(f"quandlelab imported from {ql.__file__}, not from {SRC}")
    return ql, workloads.WORKLOADS[workload], workloads.WORKLOADS[workload](ql, seed, 0)


def run_pass(ops, tracer=None) -> dict:
    """Time each call, then check its output.  A raise counts as failed; a
    wrong output counts as failed on a known fault and as incorrect
    otherwise."""
    import checks

    ok = failed = wrong = 0
    seconds = 0.0
    for op in ops:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # the run goes on; the failure is counted and shown
            seconds += time.perf_counter() - t0
            failed += 1
            if not op.fault:
                print(f"FAILED {op.name}:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        seconds += time.perf_counter() - t0
        try:
            op.check(out)
        except checks.Wrong as exc:
            if op.fault:
                failed += 1
            else:
                wrong += 1
                print(f"WRONG {op.name}: {exc}", file=sys.stderr)
            continue
        ok += 1
    return {"ops": len(ops), "ok": ok, "failed": failed, "wrong": wrong, "seconds": seconds}


def child_seconds(argv: list[str]) -> float:
    """Run a fresh interpreter with one BLAS thread and return the float on
    its last output line."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def setup_seconds(args) -> float:
    """Process start to the first timed call, in a fresh process."""
    t0 = time.monotonic()
    ready = child_seconds([str(Path(__file__)), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", "0", "--probe"])
    return ready - t0


def import_seconds() -> float:
    return child_seconds(["-c", "import time; t = time.perf_counter(); import quandlelab; "
                                "print(time.perf_counter() - t)"])


def end_to_end(args, ql, build, ops0) -> tuple[list[dict], dict]:
    passes, k, ops = [], 0, ops0
    while True:
        passes.append(run_pass(ops))
        k += 1
        if sum(p["seconds"] for p in passes) >= args.seconds:
            break
        ops = build(ql, args.seed, k)
    setup = statistics.median(setup_seconds(args) for _ in range(SETUP_PROBES))
    ok = sum(p["ok"] for p in passes)
    metrics = {
        "ok_per_s": {"value": ok / sum(p["seconds"] for p in passes), "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    return passes, metrics


def traced(args, ql, build, ops0) -> tuple[list[dict], dict]:
    """Pass 0 untraced twice, then traced.  The tracer also records the
    construction of the traced pass's inputs, which is the set-up's work."""
    import tracing

    passes = [run_pass(ops0)]  # warms the process; a first pass is slower
    passes.append(run_pass(ops0))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    ops = build(ql, args.seed, 0)
    tracer.active = False
    passes.append(run_pass(ops, tracer))
    tracer.uninstall()
    values = tracer.metrics()
    values["init.import_s"] = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
    values["trace.overhead_s"] = passes[2]["seconds"] - passes[1]["seconds"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["regular-decompose", "cyclic-verify", "infinite-image"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print the monotonic clock and exit")
    args = parser.parse_args(argv)

    if not (SRC / "quandlelab" / "__init__.py").is_file():
        print(f"error: no quandlelab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))

    ql, build, ops0 = prepare(args.workload, args.seed)
    if args.probe:
        print(time.monotonic())
        return 0
    passes, metrics = (traced if args.trace else end_to_end)(args, ql, build, ops0)

    import checks
    bad_controls = checks.negative_controls(ql)
    for name in bad_controls:
        print(f"NEGATIVE CONTROL NOT REJECTED: {name}", file=sys.stderr)
    result = {
        "correct": not bad_controls and all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), "passes": passes, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
