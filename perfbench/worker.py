"""One fresh process of the benchmark: a set-up probe or one workload run.

    python3 perfbench/worker.py --probe STARTED
        import runslab and print the time from STARTED (a time.monotonic()
        stamp taken just before this process was started) until it is
        ready, scaled to reference machine speed (speed.py) and raw;
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        run the workload's ops in passes for S seconds (at least one pass)
        and print one JSON record of times, digests and check results.

Op times are scaled to reference machine speed (speed.py); raw times are
kept too.  With --trace 1 the passes alternate between untraced and traced,
and each traced pass also yields per-layer counts and self times; the spans
of the last traced pass are written to perfbench/spans-out/NAME.jsonl at
the end.  run.py starts these processes; they import runslab from the
checkout's own src/.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "spans-out"


def import_runslab() -> None:
    sys.path.insert(0, str(SRC))
    import runslab
    import runslab.cli  # noqa: F401

    where = Path(runslab.__file__).resolve().parent
    if where != SRC / "runslab":
        raise ImportError(f"runslab imported from {where}, not from {SRC}")


def _environment() -> dict:
    import platform

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _check(rec: dict, spec, raw, traced: bool) -> None:
    """Digest one output; check the first, compare later ones with it."""
    import workloads

    out = workloads.digest_output(spec, raw)
    if rec["digest"] is None:
        rec["digest"] = out.digest
        rec["problems"] += workloads.check_output(spec, out.payload)
    elif out.digest != rec["digest"]:
        rec["errors"].append(f"output digest {out.digest} differs from {rec['digest']}"
                             + (" (traced pass)" if traced else ""))
        rec["failed"] += 1
        return
    if rec["problems"]:
        rec["failed"] += 1


def _run_pass(specs, records, psi_paths, kernel, traced: bool):
    """Run every op once; return (scaled total, raw total, calibration points).

    Each op's time is scaled by the calibration points taken before and
    after it, on ``kernel`` (a speed.Kernel); ops shorter than
    speed.CALIBRATE_EVERY_S share points.
    """
    import traceback

    import speed
    import workloads

    key = "traced_times" if traced else "times"
    total = raw_total = 0.0
    before = kernel.seconds()
    points = [before]
    since = time.perf_counter()
    pending = []  # (record, raw seconds) waiting for the next point
    for spec, rec, path in zip(specs, records, psi_paths):
        rec["executions"] += 1
        t0 = time.perf_counter()
        try:
            raw = workloads.run_op(spec, path)
        except Exception:
            rec["failed"] += 1
            rec["errors"].append(traceback.format_exc(limit=3))
        else:
            pending.append((rec, time.perf_counter() - t0))
            _check(rec, spec, raw, traced)
        if pending and (time.perf_counter() - since >= speed.CALIBRATE_EVERY_S
                        or rec is records[-1]):
            after = kernel.seconds()
            points.append(after)
            factor = kernel.scale(before, after)
            for done, seconds in pending:
                done[key].append(seconds * factor)
                if not traced:
                    done["raw_times"].append(seconds)
                total += seconds * factor
                raw_total += seconds
            before, since, pending = after, time.perf_counter(), []
    return total, raw_total, points


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tempfile

    import spans
    import speed
    import workloads

    specs = workloads.make_inputs(workload, seed)
    kernel = speed.Kernel(memory_bound=workload in workloads.MEMORY_BOUND)
    records = [
        {"name": s.name, "cells": s.cells, "times": [], "raw_times": [], "traced_times": [],
         "digest": None, "executions": 0, "failed": 0, "problems": [], "errors": []}
        for s in specs
    ]
    tracer = spans.Tracer() if trace else None
    out = {"passes": [], "raw_passes": [], "pass_points": [], "traced_passes": [], "layers": []}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        psi_paths = []
        for i, spec in enumerate(specs):
            path = None
            if spec.psi is not None:
                path = str(Path(tmp) / f"window-{i}.txt")
                Path(path).write_text(spec.psi, encoding="utf-8")
            psi_paths.append(path)

        start = time.perf_counter()
        while True:
            total, raw_total, points = _run_pass(specs, records, psi_paths, kernel, traced=False)
            out["passes"].append(total)
            out["raw_passes"].append(raw_total)
            out["pass_points"].append(points)
            if trace:
                with tracer:
                    total, _, _ = _run_pass(specs, records, psi_paths, kernel, traced=True)
                out["traced_passes"].append(total)
                last_spans = tracer.take_spans()
                out["layers"].append(spans.layer_metrics(last_spans))
            if time.perf_counter() - start >= seconds:
                break
    if trace:
        path = spans.write_spans(SPANS_DIR / f"{workload}.jsonl", last_spans)
        out["spans_file"] = str(path.relative_to(ROOT))
    out.update(ops=records, peak_rss_mb=_peak_rss_mb(), environment=_environment())
    return out


def main(argv) -> int:
    if argv[:1] == ["--probe"]:
        import_runslab()
        setup = time.monotonic() - float(argv[1])
        import statistics

        import speed

        kernel = speed.Kernel()
        kernel.seconds()  # the first run pays for page faults
        point = statistics.median(kernel.seconds() for _ in range(3))
        print(f"{setup * kernel.scale(point, point)!r} {setup!r}", flush=True)
        return 0

    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_runslab()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
