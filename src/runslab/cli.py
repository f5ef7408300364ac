"""Command-line front end: exact tables, sweeps, window reports, verification.

Output discipline: every subcommand produces rows under the fixed schema

    model,n,reps,seed,quantity,value,se,reference,band,pass

as CSV (default) or as JSON that mirrors the rows cell-for-cell, plus a
manifest carrying the command line, base seed, artifact version, and wall
time.  Cells are formatted once, the same way for both formats: floats with
17 significant digits (lossless round trip), exact rationals as "p/q".
The run's wall time lives only in the JSON manifest, so the row bytes for
a fixed command line and seed are identical from run to run.  The
exception is the verify rows whose value is a check's own wall time:
exact-moments-runtime-seconds, and at full scale
reference-max-runtime-seconds and desk-scale-runtime-seconds.

`pattern --report` adds one variance-share-<a> row per pattern a of the
window's decomposition: a's term of the variance rate, evaluated at the
rational with denominator <= 10^12 nearest the float peak time, not at the
exact peak.  An irrational peak therefore leaves last-bit residue: for the
window with mean rate t - t^3 (peak 1/sqrt(3)) variance-share-1 prints
3.3e-33, where the exact value is 0.

Exit codes: 0 success, 1 failed verification or inadmissible analysis,
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import __version__
from .combinatorics import (
    MAX_DP_CELLS,
    MAX_PMF_CELLS,
    max_pmf_gap_dp,
    mean_runs_discrete,
    run_count_pmf,
    var_runs_discrete,
)
from .patterns import (
    NoInteriorPeakError,
    PatternFunctional,
    load_pattern,
    run_length_pattern,
    summarize,
)
from .asymptotics import VSamplerConfig, sample_parabola_max
from .evolve import MODEL_ALIASES, SimConfig, run_sweep
from .verify import REFERENCES, run_checks

__all__ = ["main"]

ENV_SEED = "RUNSLAB_SEED"
DEFAULT_SEED = 0

COLUMNS = (
    "model",
    "n",
    "reps",
    "seed",
    "quantity",
    "value",
    "se",
    "reference",
    "band",
    "pass",
)

class UsageError(Exception):
    """Bad flag combinations or values; maps to exit code 2."""


def _fmt(value) -> str:
    """One cell: '' for missing, p/q for rationals, %.17g for floats."""
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)  # p/q, or bare p when the denominator is 1
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row(
    quantity,
    value,
    *,
    model=None,
    n=None,
    reps=None,
    seed=None,
    se=None,
    reference=None,
    band=None,
    passed=None,
) -> Dict[str, str]:
    cells = (model, n, reps, seed, quantity, value, se, reference, band, passed)
    return {col: _fmt(cell) for col, cell in zip(COLUMNS, cells)}


@dataclass
class RunManifest:
    """Everything needed to rerun a command plus the one thing that varies."""

    command: str
    base_seed: int
    wall_time_seconds: float = 0.0
    outputs: Dict[str, str] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)


def _emit(rows: List[Dict[str, str]], manifest: RunManifest, args) -> None:
    manifest.wall_time_seconds = time.perf_counter() - manifest.started
    if args.format == "csv":
        lines = [",".join(COLUMNS)]
        lines.extend(",".join(row[c] for c in COLUMNS) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "manifest": {
                "command": manifest.command,
                "base_seed": manifest.base_seed,
                "artifact_version": __version__,
                "wall_time_seconds": manifest.wall_time_seconds,
                **({"outputs": manifest.outputs} if manifest.outputs else {}),
            },
            "rows": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Refuse an --out the run could not write, before any work is done."""
    target = os.path.abspath(path)
    if os.path.isdir(target) or not os.access(
        target if os.path.exists(target) else os.path.dirname(target), os.W_OK
    ):
        raise UsageError(f"cannot write {path}")


def _base_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}")
    return DEFAULT_SEED


def _parse_grid(text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad grid {text!r}; expected comma-separated numbers")


def _resolve_model(name: str) -> str:
    try:
        return MODEL_ALIASES[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_ALIASES))
        raise UsageError(f"unknown model {name!r}; choose from {known}")


def _load_cli_pattern(args) -> PatternFunctional:
    if (args.psi_file is None) == (args.run_length is None):
        raise UsageError("give exactly one of --psi-file or --run-length")
    try:
        if args.run_length is not None:
            return run_length_pattern(args.run_length)
        return load_pattern(args.psi_file)
    except OSError as exc:
        raise UsageError(f"cannot read window file {args.psi_file}: {exc}")
    except ValueError as exc:
        raise UsageError(str(exc))


# -- subcommands -------------------------------------------------------------


def cmd_exact(args, manifest: RunManifest) -> int:
    n = args.n
    if n is None or n < 1:
        raise UsageError("exact needs --n >= 1")
    rows: List[Dict[str, str]] = []
    if args.max_pmf:
        if args.m is not None or args.pmf:
            raise UsageError("--max-pmf takes neither --m nor --pmf")
        if n > MAX_DP_CELLS:
            raise UsageError(f"--max-pmf supports n <= {MAX_DP_CELLS}")
        pmf = max_pmf_gap_dp(n)
        for k in sorted(pmf):
            rows.append(_row(f"max-pmf-{k}", pmf[k], n=n))
        mean = sum(k * p for k, p in pmf.items())
        rows.append(_row("max-mean", mean, n=n))
        rows.append(_row("max-mean-decimal", float(mean), n=n))
    else:
        if args.m is None or not 0 <= args.m <= n:
            raise UsageError("exact needs --m between 0 and n (or --max-pmf)")
        m = args.m
        if args.pmf:
            if n > MAX_PMF_CELLS:
                raise UsageError(f"--pmf supports n <= {MAX_PMF_CELLS}")
            pmf = run_count_pmf(n, m)
            for k in sorted(pmf.probs):
                rows.append(_row(f"pmf-{k}", pmf.probs[k], n=n))
        mean = mean_runs_discrete(n, m)
        var = var_runs_discrete(n, m)
        rows.append(_row("mean", mean, n=n))
        rows.append(_row("mean-decimal", float(mean), n=n))
        rows.append(_row("variance", var, n=n))
        rows.append(_row("variance-decimal", float(var), n=n))
    _emit(rows, manifest, args)
    return 0


def cmd_simulate(args, manifest: RunManifest) -> int:
    model = _resolve_model(args.model)
    seed = manifest.base_seed
    pattern = _load_cli_pattern(args) if model == "pattern" else None
    if model != "pattern" and (args.psi_file is not None or args.run_length is not None):
        raise UsageError("--psi-file/--run-length only apply to --model pattern")
    if model != "pattern" and args.linear:
        raise UsageError("--linear only applies to --model pattern (use runs or runs-cyclic)")
    grid = _parse_grid(args.grid)
    try:
        config = SimConfig(
            model=model,
            n=args.n,
            reps=args.reps,
            base_seed=seed,
            grid=grid,
            pattern=pattern,
            cyclic=not args.linear,
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    result = run_sweep(config)

    meta = dict(model=model, n=args.n, reps=args.reps, seed=seed)
    rows = [
        _row("max-mean", result.max_stats.mean, se=result.max_stats.se(), **meta),
        _row("max-variance", result.max_stats.variance(), **meta),
        _row("argmax-mean", result.argmax_stats.mean, se=result.argmax_stats.se(), **meta),
        _row("mid-mean", result.mid_stats.mean, se=result.mid_stats.se(), **meta),
    ]
    if result.grid_stats is not None:
        stats = result.grid_stats
        # a single rep has no spread: se is nan, as for max-mean
        var = stats.covariance().diagonal() if stats.count > 1 else [math.nan] * stats.dim
        for i, t in enumerate(config.grid):
            rows.append(
                _row(
                    f"grid-mean-{t:g}",
                    stats.mean[i],
                    se=(var[i] / stats.count) ** 0.5,
                    **meta,
                )
            )
    _emit(rows, manifest, args)
    return 0


def cmd_pattern(args, manifest: RunManifest) -> int:
    pattern = _load_cli_pattern(args)
    try:
        summary = summarize(pattern)
    except NoInteriorPeakError as exc:
        print(f"no admissible t0: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a window past the exact-analysis cap
        raise UsageError(str(exc))
    rows = [
        _row("peak-time", summary.peak_time),
        _row("peak-mean", summary.peak_mean),
        _row("peak-curvature", summary.peak_curvature),
        _row("variance-rate", summary.variance_rate),
        _row("jump-variance", summary.jump_variance),
        _row("correction-scale", summary.correction_scale),
    ]
    if args.report:
        dec = summary.decomposition
        t0 = Fraction(summary.peak_time).limit_denominator(10**12)
        q = t0 * (1 - t0)
        for alpha in sorted(dec.terms, key=lambda a: (len(a), a)):
            weight = float(dec.terms[alpha](t0) ** 2 * q ** alpha.count("1"))
            rows.append(_row(f"variance-share-{alpha}", weight))
    _emit(rows, manifest, args)
    return 0


def cmd_vconst(args, manifest: RunManifest) -> int:
    seed = manifest.base_seed
    try:
        config = VSamplerConfig(
            step=args.step, horizon=args.horizon, paths=args.paths, base_seed=seed
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    est = sample_parabola_max(config)
    lo, hi = est.ci()
    meta = dict(reps=config.paths, seed=seed)
    rows = [
        _row("parabola-max-mean", est.mean, se=est.se, **meta),
        _row("parabola-max-sd", est.sd, **meta),
        _row("ci-low", lo, **meta),
        _row("ci-high", hi, **meta),
    ]
    _emit(rows, manifest, args)
    return 0


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, float]:
    overrides: Dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise UsageError(f"--override-constant wants NAME=VALUE, got {pair!r}")
        if name not in REFERENCES:
            known = ", ".join(sorted(REFERENCES))
            raise UsageError(f"unknown constant {name!r}; choose from {known}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise UsageError(f"bad value in {pair!r}")
    return overrides


def cmd_verify(args, manifest: RunManifest) -> int:
    overrides = _parse_overrides(args.override_constant)

    def progress(name, reports):
        status = "pass" if all(r.passed for r in reports) else "FAIL"
        print(f"[{status}] {name} ({len(reports)} rows)", file=sys.stderr)

    try:
        result = run_checks(
            args.scale, base_seed=manifest.base_seed, jobs=args.jobs, overrides=overrides,
            progress=progress,
        )
    except ValueError as exc:  # refused before any check ran
        raise UsageError(str(exc))
    rows = [
        _row(
            r.quantity,
            r.value,
            model=r.model,
            n=r.n,
            reps=r.reps,
            seed=r.seed,
            se=r.se,
            reference=r.reference,
            band=r.band,
            passed=r.passed,
        )
        for r in result.reports
    ]
    manifest.outputs["scale"] = args.scale
    manifest.outputs["checks_passed"] = _fmt(result.passed)
    _emit(rows, manifest, args)
    if not result.passed:
        for r in result.failures:
            print(r.describe(), file=sys.stderr)
        return 1
    return 0


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runslab",
        description="Exact analysis and simulation of evolving run statistics.",
    )
    parser.add_argument("--version", action="version", version=f"runslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write output here instead of stdout")
        if seeded:
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help=f"base seed (default: ${ENV_SEED} or {DEFAULT_SEED})",
            )

    p = sub.add_parser("exact", help="exact distributions and moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--pmf", action="store_true", help="include the full pmf rows")
    p.add_argument(
        "--max-pmf", action="store_true", help="distribution of the running max"
    )
    common(p, seeded=False)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo sweep of one model")
    p.add_argument("--model", required=True, help="runs, pq, runs-time, pattern, ...")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--grid", help="comma-separated fill fractions to sample at")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--linear", action="store_true", help="pattern windows stop at the boundary")
    p.add_argument("--psi-file", help="window table file (pattern model)")
    p.add_argument("--run-length", type=int, help="isolated-run window of this length")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pattern", help="exact asymptotic report for one window")
    p.add_argument("--psi-file", help="window table file")
    p.add_argument("--run-length", type=int, help="isolated-run window of this length")
    p.add_argument(
        "--report", action="store_true", help="add per-pattern variance shares"
    )
    common(p, seeded=False)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("vconst", help="estimate the drifted-path max constant")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=4.0)
    p.add_argument("--paths", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_vconst)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--override-constant",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="replace a reference constant (sensitivity testing)",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code or 0)
    try:
        seed = _base_seed(args) if hasattr(args, "seed") else DEFAULT_SEED
        if args.out:
            _check_out(args.out)
        manifest = RunManifest(command="runslab " + " ".join(argv), base_seed=seed)
        return args.func(args, manifest)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
