"""The benchmark's workloads: inputs drawn from a seed, the ops, the checks.

A workload is a fixed list of ops.  Every op goes through a public entry
point of runslab: ``runslab.cli.main`` where a subcommand exists, otherwise
the library calls that the matching ``verify`` check makes.  The program
receives only generated inputs -- ``--seed`` values for sweeps and window
files -- and every op's output is checked against recorded references or
against the limit theory.

The sizes keep the shapes of the full-scale verify checks (same models, same
n, same kernels); only the repetition counts are cut so that one pass over a
workload's ops takes seconds, not minutes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("sweep-large", "sweep-small", "sweep-mixed", "exact")

# Workloads whose time is spent mostly in memory-bound numpy work on 10^6-cell
# arrays; their calibration kernel draws and gathers too (speed.Kernel).
MEMORY_BOUND = frozenset({"sweep-large"})

# Grid of the runs-time covariance op, as in verify's covariance-grids check.
COV_GRID = tuple(k / 10 for k in range(2, 9))

# KS comparison level.  verify's queue check uses 0.01, but a benchmark run
# on many seeds cannot: with 2,000 reps a side the two (equal-in-law)
# queue implementations failed at 0.01 on 3 of 250 seeds.
KS_ALPHA = 0.001

# verify --scale quick draws 100 random windows from its --seed, and their
# cost swings by about 20% from seed to seed; a fixed seed keeps that op's
# work the same in every run.  The seeded windows live in the pattern ops.
VERIFY_SEED = 0

# Random windows per length 2, 3 and 4 in the exact workload.
WINDOWS_PER_LENGTH = 8


@dataclass(frozen=True)
class OpSpec:
    """One op with its generated inputs and what its output must satisfy.

    kind: "cli" (``args`` is the argv of ``runslab.cli.main``), "covgrid"
    or "ks" (library calls; ``args`` holds their arguments).  ``psi`` is a
    window file's text, written out before timing; its path is appended to
    the argv as ``--psi-file``.  ``cells`` is the op's sum of n * reps (for
    an exact max-pmf op, n: one exact distribution over n cells; 0 for ops
    that are not sweeps).  ``expect`` names the check and carries its
    reference numbers.
    """

    name: str
    kind: str
    args: Tuple
    cells: int
    expect: Tuple
    psi: Optional[str] = None


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- input generation ----------------------------------------------------------


def _simulate(model: str, n: int, reps: int, seed: int, expect: Tuple, extra=()) -> OpSpec:
    argv = ("simulate", "--model", model, "--n", str(n), "--reps", str(reps),
            "--seed", str(seed), *extra)
    return OpSpec(f"simulate-{model}-n{n}", "cli", argv, n * reps, expect)


def _exact_mean(pmf: Dict[str, str]) -> Fraction:
    return sum(int(k) * Fraction(p) for k, p in pmf.items())


def _sweep_large(rng: random.Random, ref: dict) -> List[OpSpec]:
    n, reps = 1_000_000, 20
    predicted = n / 4 + 0.5 * ref["brownian_parabola_mean"] * n ** (1 / 3)
    return [_simulate("runs", n, reps, rng.getrandbits(32), ("mean-4se", predicted))]


def _sweep_small(rng: random.Random, ref: dict) -> List[OpSpec]:
    ops = []
    for n, reps in ((9, 20_000), (13, 20_000)):
        exact = float(_exact_mean(ref["max_pmf"][str(n)]))
        ops.append(_simulate("runs", n, reps, rng.getrandbits(32), ("mean-4se", exact)))
    band = ref["runs_max_52"]
    ops.append(_simulate("runs", 52, 10_000, rng.getrandbits(32),
                         ("mean-band", band["reference"], band["band"])))
    return ops


def _sweep_mixed(rng: random.Random, ref: dict) -> List[OpSpec]:
    v = ref["brownian_parabola_mean"]
    cov_n, cov_reps = 10_000, 2_000
    ks_n, ks_reps = 100, 2_000
    pq_n, pq_reps = 10_000, 100
    pat_n, pat_reps = 100_000, 40
    vc, paths = ref["vconst"], 1_000
    return [
        OpSpec(
            "covgrid-runs-time-n10000", "covgrid",
            ("runs-time", cov_n, cov_reps, COV_GRID, rng.getrandbits(32)),
            cov_n * cov_reps, ("covgrid", ref["runs_time_covariance"]),
        ),
        _simulate("pq", pq_n, pq_reps, rng.getrandbits(32),
                  ("mean-4se", pq_n / 2 + v * pq_n ** (1 / 3))),
        OpSpec(
            "ks-pq-vs-lazy-hash-n100", "ks",
            (ks_n, ks_reps, rng.getrandbits(32), rng.getrandbits(32)),
            2 * ks_n * ks_reps, ("ks", KS_ALPHA),
        ),
        _simulate("pattern", pat_n, pat_reps, rng.getrandbits(32),
                  ("mean-4se", 4 * pat_n / 27
                   + ref["run_length_1_correction_scale"] * v * pat_n ** (1 / 3)),
                  extra=("--run-length", "1")),
        OpSpec(
            "vconst", "cli",
            ("vconst", "--step", str(vc["step"]), "--horizon", str(vc["horizon"]),
             "--paths", str(paths), "--seed", str(rng.getrandbits(32))),
            0, ("vconst", vc["mean"], vc["se"]),
        ),
    ]


def random_window_text(rng: random.Random, ell: int) -> str:
    """A window table with values k/8, k uniform in -8..8."""
    lines = [str(ell)]
    for w in range(1 << ell):
        lines.append(f"{format(w, f'0{ell}b')} {Fraction(rng.randint(-8, 8), 8)}")
    return "\n".join(lines) + "\n"


def admissible(text: str) -> bool:
    """Whether runslab's window analysis accepts the table (interior peak)."""
    from runslab import patterns

    try:
        patterns.summarize(patterns.parse_pattern_text(text))
    except patterns.NoInteriorPeakError:
        return False
    return True


def _exact(rng: random.Random, ref: dict) -> List[OpSpec]:
    ops = []
    for n in range(12, 17):
        ops.append(OpSpec(f"exact-max-pmf-n{n}", "cli", ("exact", "--n", str(n), "--max-pmf"),
                          n, ("max-pmf", ref["max_pmf"][str(n)])))
    for d in range(1, 7):
        ops.append(OpSpec(f"pattern-run-length-{d}", "cli",
                          ("pattern", "--run-length", str(d), "--report"),
                          0, ("run-length", ref["run_length_constants"][str(d)])))
    # Length-1 windows never have an interior peak; lengths 2..4 are drawn
    # in equal numbers so the mix of (costly) long windows is the same for
    # every seed.
    for ell in (2, 3, 4):
        found = 0
        while found < WINDOWS_PER_LENGTH:
            text = random_window_text(rng, ell)
            if admissible(text):
                ops.append(OpSpec(f"pattern-window-l{ell}-{found}", "cli",
                                  ("pattern", "--report"), 0, ("window",), psi=text))
                found += 1
    ops.append(OpSpec("verify-quick", "cli",
                      ("verify", "--scale", "quick", "--seed", str(VERIFY_SEED)),
                      0, ("verify",)))
    return ops


_BUILDERS = {
    "sweep-large": _sweep_large,
    "sweep-small": _sweep_small,
    "sweep-mixed": _sweep_mixed,
    "exact": _exact,
}


def make_inputs(workload: str, seed: int, ref: Optional[dict] = None) -> List[OpSpec]:
    """The workload's ops; the same (workload, seed) gives the same ops."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, ref if ref is not None else load_reference())


# -- running one op ----------------------------------------------------------------


@dataclass
class Output:
    digest: str
    payload: object


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def run_op(spec: OpSpec, psi_path: Optional[str] = None):
    """Run one op through runslab and return its raw result.

    Module attributes are looked up at call time, so a tracer that has
    patched them sees the calls.
    """
    import runslab.cli
    import runslab.evolve
    import runslab.stats

    if spec.kind == "cli":
        argv = list(spec.args)
        if psi_path is not None:
            argv += ["--psi-file", psi_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = runslab.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    if spec.kind == "covgrid":
        model, n, reps, grid, seed = spec.args
        return runslab.stats.empirical_covariance_grid(model, n=n, reps=reps, grid=grid, seed=seed)
    if spec.kind == "ks":
        n, reps, seed_pq, seed_lazy = spec.args
        evolve = runslab.evolve
        samples = [
            evolve.run_sweep(evolve.SimConfig(model=model, n=n, reps=reps, base_seed=seed,
                                              keep_max_samples=True)).max_samples
            for model, seed in (("priority-queue", seed_pq), ("lazy-hash", seed_lazy))
        ]
        return samples, runslab.stats.ks_statistic(*samples)
    raise ValueError(f"unknown op kind {spec.kind!r}")


def digest_output(spec: OpSpec, raw) -> Output:
    """Digest of the op's output rows, and what its check reads."""
    if spec.kind == "cli":
        code, text, _ = raw
        # verify reports how long some checks took; those rows vary by design.
        rows = [line for line in text.splitlines(keepends=True)
                if "-runtime-seconds," not in line]
        return Output(_digest(str(code).encode(), *(r.encode() for r in rows)), (code, text))
    if spec.kind == "covgrid":
        return Output(_digest(raw.covariance.tobytes(), raw.se.tobytes()),
                      (raw.covariance.tolist(), raw.se.tolist()))
    samples, stat = raw
    sizes = tuple(int(s.size) for s in samples)
    return Output(_digest(*(s.tobytes() for s in samples), repr(stat).encode()), (stat, sizes))


# -- output checks ---------------------------------------------------------------------


def _rows(text: str) -> Dict[str, Dict[str, str]]:
    return {row["quantity"]: row for row in csv.DictReader(io.StringIO(text))}


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_output(spec: OpSpec, payload) -> List[str]:
    """Problems with one op's output; an empty list means it passed."""
    tag, *params = spec.expect
    if spec.kind == "cli":
        code, text = payload
        if code != 0:
            return [f"exit code {code}"]
        rows = _rows(text)
    problems: List[str] = []

    if tag == "mean-4se":
        (want,) = params
        mean, se = float(rows["max-mean"]["value"]), float(rows["max-mean"]["se"])
        if not abs(mean - want) <= 4 * se:
            problems.append(f"max-mean {mean} is {abs(mean - want) / se:.2f} SE from {want}")
    elif tag == "mean-band":
        want, band = params
        mean = float(rows["max-mean"]["value"])
        if not _close(mean, want, band):
            problems.append(f"max-mean {mean} outside {want} +- {band}")
    elif tag == "vconst":
        want, want_se = params
        mean, se = (float(rows["parabola-max-mean"][c]) for c in ("value", "se"))
        if not _close(mean, want, 4 * math.hypot(se, want_se)):
            problems.append(f"parabola-max-mean {mean} vs recorded {want}")
    elif tag == "max-pmf":
        (pmf,) = params
        got = {q[len("max-pmf-"):]: Fraction(r["value"]) for q, r in rows.items()
               if q.startswith("max-pmf-")}
        if got != {k: Fraction(v) for k, v in pmf.items()}:
            problems.append("max-pmf rows differ from the recorded rationals")
        if Fraction(rows["max-mean"]["value"]) != _exact_mean(pmf):
            problems.append("max-mean differs from the recorded rational")
    elif tag == "run-length":
        (consts,) = params
        for quantity, key in (("peak-time", "peak_time"), ("peak-mean", "peak_mean"),
                              ("peak-curvature", "peak_curvature"),
                              ("variance-rate", "variance_rate"),
                              ("jump-variance", "jump_variance")):
            if not _close(float(rows[quantity]["value"]), float(Fraction(consts[key])), 1e-10):
                problems.append(f"{quantity} differs from the closed form")
        cubed = float(rows["correction-scale"]["value"]) ** 3
        if not _close(cubed, float(Fraction(consts["correction_scale_cubed"])), 1e-10):
            problems.append("correction-scale differs from the closed form")
        problems += _report_consistency(rows)
    elif tag == "window":
        problems += _report_consistency(rows)
    elif tag == "verify":
        failed = [q for q, r in rows.items() if r["pass"] != "true"]
        if failed:
            problems.append(f"verify rows failed: {', '.join(failed)}")
    elif tag == "covgrid":
        (reference,) = params
        cov, se = payload
        worst = 0.0
        for i, row in enumerate(reference["matrix"]):
            for j, want in enumerate(row):
                band = max(3.0 * se[i][j], 0.01)  # verify's se_band
                worst = max(worst, abs(cov[i][j] - want) / band)
        if worst > 1.0:
            problems.append(f"covariance grid outside its band (worst ratio {worst:.3f})")
    elif tag == "ks":
        (alpha,) = params
        stat, (n1, n2) = payload
        critical = math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n1 + n2) / (n1 * n2))
        if not stat < critical:
            problems.append(f"KS {stat} >= critical value {critical} at alpha {alpha}")
    else:
        problems.append(f"unknown check {tag!r}")
    return problems


def _report_consistency(rows: Dict[str, Dict[str, str]]) -> List[str]:
    """A window report must agree with itself: the variance shares add up to
    the variance rate, and the correction scale is (jv^2/|curvature|)^(1/3)."""
    problems = []
    rate = float(rows["variance-rate"]["value"])
    shares = sum(float(r["value"]) for q, r in rows.items() if q.startswith("variance-share-"))
    if not _close(shares, rate, 1e-9 * max(1.0, abs(rate))):
        problems.append(f"variance shares sum to {shares}, variance rate is {rate}")
    peak = float(rows["peak-time"]["value"])
    if not 0.0 < peak < 1.0:
        problems.append(f"peak time {peak} not interior")
    jv = float(rows["jump-variance"]["value"])
    curvature = float(rows["peak-curvature"]["value"])
    scale = float(rows["correction-scale"]["value"])
    if not _close(scale, (jv * jv / -curvature) ** (1 / 3), 1e-9 * scale):
        problems.append("correction scale disagrees with jump variance and curvature")
    return problems
