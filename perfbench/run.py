"""runslab benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Workloads: sweep-large, sweep-small, sweep-mixed, exact
(see perfbench/README.md).  Every process this starts is a fresh Python
with BLAS pinned to one thread and runslab's jobs = 1:

* --trace 0 starts SETUP_PROBES set-up probes (import runslab, then exit)
  and one worker that runs the workload's ops in passes for S seconds.  It
  reports the end-to-end metrics named in BENCHMARK.json.
* --trace 1 starts one worker that alternates untraced and traced passes
  and reports the per-layer metrics named in BENCHMARK.json.

The output is a readable report, a JSON line with the environment and the
per-op details, and last a JSON line with the result.  The exit code is not
0, and no result is printed, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 9
DEADLINE_S = 170.0  # the whole run must end within 180 s

# One BLAS thread: the jackknife's x.T @ x would otherwise start OpenBLAS
# threads on a box whose two cores are shared.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
JOBS = 1  # every op runs with runslab's default jobs = 1

COUNT_SUFFIXES = (".calls", ".reps", ".cells")


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("RUNSLAB_SEED", None)
    return env


def _run_child(args, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=_child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return lines[-1]


def setup_times(deadline: float, probes: int = SETUP_PROBES):
    """Seconds from starting a fresh process until runslab is imported:
    (scaled to reference machine speed, raw) per probe."""
    scaled, raw = [], []
    for _ in range(probes):
        line = _run_child(["--probe", repr(time.monotonic())], deadline)
        one_scaled, one_raw = map(float, line.split())
        scaled.append(one_scaled)
        raw.append(one_raw)
    return scaled, raw


def git_commit(root: Path = ROOT):
    """The checkout's commit, read from .git without running git; None if
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(samples):
    """(percentile, value) of the highest percentile in 50..99.9 with at
    least ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def describe_timing(samples, what: str) -> str:
    text = f"median of {len(samples)} {what}"
    tail = tail_percentile(samples)
    if tail is None:
        return text + "; no percentile has 10 samples beyond it"
    return text + f"; p{tail[0]:g} {tail[1]:.6g} s"


def end_to_end(worker: dict, setups) -> dict:
    """The end-to-end metrics from reference-speed times (speed.py)."""
    wall = statistics.median(worker["passes"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cells_per_s": sum(op["cells"] for op in worker["ops"]) / wall,
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(worker: dict):
    """Layer metrics: counts from the traced passes (which must agree),
    times as medians over them; plus the tracing overhead."""
    layers = worker["layers"]
    problems = []
    out = {}
    for name in layers[0]:
        values = [pass_metrics[name] for pass_metrics in layers]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    untraced = statistics.median(worker["passes"])
    out["trace.overhead_frac"] = statistics.median(worker["traced_passes"]) / untraced - 1.0
    return out, problems


def run(args) -> dict:
    if not (ROOT / "src" / "runslab" / "__init__.py").is_file():
        raise BenchError(f"no runslab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_start": os.getloadavg(),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "jobs": JOBS,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    setups, raw_setups = ([], []) if args.trace else setup_times(deadline)
    worker = json.loads(_run_child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline))
    env["load_end"] = os.getloadavg()
    env.update(worker["environment"])

    problems = []
    if args.trace:
        values, problems = per_layer(worker)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(worker, setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(op["executions"] for op in worker["ops"])
    failed = sum(op["failed"] for op in worker["ops"])
    return {
        "env": env,
        "setups": setups,
        "raw_setups": raw_setups,
        "worker": worker,
        "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def report(out: dict) -> None:
    env, result, worker = out["env"], out["result"], out["worker"]
    print(f"workload {env['workload']}  seed {env['seed']}  seconds {env['seconds']}"
          f"  trace {env['trace']}")
    print("env      " + "  ".join(
        f"{k}={env.get(k)}" for k in ("nproc", "affinity", "load_start", "load_end", "python",
                                      "numpy", "blas", "blas_threads", "jobs", "commit")))
    for op in worker["ops"]:
        times = op["traced_times"] if env["trace"] and not op["times"] else op["times"]
        median = f"{statistics.median(times):.6g} s" if times else "-"
        raw = f"raw {statistics.median(op['raw_times']):.6g} s; " if op["raw_times"] else ""
        status = "ok" if not op["failed"] else f"FAILED {op['failed']}/{op['executions']}"
        print(f"op       {op['name']:<30} {median:>12}  ({raw}{describe_timing(times, 'runs')})"
              f"  digest {op['digest']}  {status}")
        for problem in op["problems"] + op["errors"][:3]:
            print(f"         ! {problem.strip()}")
    for problem in out["problems"]:
        print(f"         ! {problem}")
    if "spans_file" in worker:
        print(f"spans    {worker['spans_file']}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = (f"  (raw {statistics.median(out['raw_setups']):.6g} s;"
                    f" {describe_timing(out['setups'], 'probes')})")
        elif name == "wall_s":
            note = (f"  (raw {statistics.median(worker['raw_passes']):.6g} s;"
                    f" {describe_timing(worker['passes'], 'passes')})")
        print(f"{name:<26} {metric['value']:>16.6g} {metric['unit']}{note}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<26} {frac:>16.6g} 1  ({result['failed']} of {result['attempted']} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(out)
    details = {k: out[k] for k in ("env", "setups", "raw_setups")}
    details.update((k, v) for k, v in out["worker"].items() if k not in ("layers", "environment"))
    print(json.dumps({"details": details}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
