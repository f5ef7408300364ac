"""Record the reference values the benchmark's output checks compare against.

Run from the repository root, at the commit whose outputs define the
references:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json.  Exact rationals are stored as "p/q"
strings.  The subset-DP distributions are cross-checked against
brute-force enumeration for every n <= 9 before anything is written.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from runslab import asymptotics, combinatorics, patterns, verify  # noqa: E402

from workloads import COV_GRID, REFERENCE_FILE  # noqa: E402

EXACT_SIZES = (9, 12, 13, 14, 15, 16)
RUN_LENGTHS = range(1, 7)

# The step-1e-3 parabola sampler is biased low against the continuum
# constant (about 0.974 against 0.996); the vconst op is checked against
# this recorded discretized value instead.
VCONST = {"step": 0.001, "horizon": 4.0, "paths": 20_000, "seed": 20070101}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def record() -> dict:
    for n in range(1, 10):
        if combinatorics.max_pmf_subset_dp(n) != combinatorics.brute_force_max_pmf(n):
            raise SystemExit(f"subset DP disagrees with brute force at n={n}")
    max_pmf = {
        str(n): {str(k): str(p) for k, p in combinatorics.max_pmf_subset_dp(n).items()}
        for n in EXACT_SIZES
    }
    constants = {
        str(d): {k: str(v) for k, v in patterns.run_length_reference_constants(d).items()}
        for d in RUN_LENGTHS
    }
    est = asymptotics.sample_parabola_max(asymptotics.VSamplerConfig(
        step=VCONST["step"], horizon=VCONST["horizon"], paths=VCONST["paths"],
        base_seed=VCONST["seed"]))
    refs = verify.REFERENCES
    return {
        "recorded_at": _commit(),
        "brownian_parabola_mean": refs["brownian-parabola-mean"],
        "run_length_1_correction_scale": refs["run-length-1-correction-scale"],
        "runs_max_52": {"reference": refs["runs-max-52-mean"], "band": 0.08},
        "max_pmf": max_pmf,
        "run_length_constants": constants,
        "runs_time_covariance": {
            "grid": list(COV_GRID),
            "matrix": asymptotics.limit_covariance("runs-time").grid_matrix(COV_GRID).tolist(),
        },
        "vconst": {**VCONST, "mean": est.mean, "se": est.se},
    }


if __name__ == "__main__":
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
