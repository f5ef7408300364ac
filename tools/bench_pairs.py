"""Benchmark two checkouts in alternating pairs and write BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 811-820 --label pr8_sweep-small [--out-dir .]

For each seed of --seeds LO-HI, runs ``python3 perfbench/run.py --workload NAME
--seed SEED --seconds S --trace 0`` once in each checkout, one after the
other, where S is ``run_seconds`` of the change's BENCHMARK.json; the
parent goes first on even pairs and the change on odd ones, so that drift
of the machine's speed falls on both sides alike.  The JSON file holds the
raw last two stdout lines of every run (the details record and the result)
and, per end-to-end metric and for the raw (unscaled) pass time, each
side's median and quartiles, the median ratio change/parent, and the pairs
in which the change was better; per declared metric also its bound, the
parent's relative IQR, whether the change's median is worse than the
parent's by more than the bound, and whether the parent's spread is too
wide for the bound to tell (`unresolved`); whether the scaled and raw
times moved the same way (`raw_agrees`); per op, each side's median
time, their ratio, the pairs the change won and whether the output
digests matched in every pair; and each side's line counts under
src/runslab/ and tests/, so that a change's line delta, and any code it
moved into the tests, come from the same record as its timings.

Both checkouts must be git checkouts, so that the record names their
commits; the tool refuses a side that git cannot describe before any run.
Make the parent side with ``git worktree add DIR PARENT`` (or a ``git
clone`` checked out at the parent), not from an archive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str):
    """'811-820' -> [811, ..., 820]."""
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def describe(checkout: Path):
    """`git describe --always --dirty` of a checkout, or None outside git."""
    proc = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or None


def source_lines(checkout: Path, part: str = "src/runslab") -> int:
    """The number of lines in the Python files under the checkout's `part`
    (the package by default)."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (checkout / part).rglob("*.py")
    )


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return lines[-2:]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(sides, unit, better, bound=None):
    """Both sides' quartiles and the paired comparison of one metric.

    With a `bound` (a relative change, as BENCHMARK.json declares it), also:
    the parent's IQR over its median; `worse`, whether the change's median
    is worse than the parent's by more than the bound; and `unresolved`,
    whether the parent's relative IQR is wider than the bound while some
    change run fails to beat every parent run.
    """
    lower = better == "lower"
    parent, change = sides["parent"], sides["change"]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    out = {
        "unit": unit,
        "better": better,
        "parent": quartiles(parent),
        "change": quartiles(change),
        "median_ratio": statistics.median(change) / statistics.median(parent),
        "change_better_pairs": f"{wins}/{len(parent)}",
    }
    if bound is not None:
        p = out["parent"]
        ratio = out["median_ratio"]
        separated = max(change) < min(parent) if lower else min(change) > max(parent)
        out["bound"] = bound
        out["parent_rel_iqr"] = (p["q3"] - p["q1"]) / p["median"]
        out["worse"] = ratio > 1 + bound if lower else ratio < 1 - bound
        out["unresolved"] = out["parent_rel_iqr"] > bound and not separated
    return out


def summarize(pairs, declared):
    """Per end-to-end metric: both sides' quartiles and the paired comparison.

    `raw_wall_s` compares each run's median raw pass time (``raw_passes``),
    unscaled: a scaled time divides by a calibration kernel that runs in the
    same worker heap as the program, so a change to how the program uses
    the allocator can move the kernel, and the scaled times with it.
    `raw_agrees` says whether the two median ratios fall on the same side
    of 1.
    """
    summary = {}
    for metric in declared:
        name = metric["name"]
        sides = {
            side: [json.loads(p[side][1])["metrics"][name]["value"] for p in pairs]
            for side in ("parent", "change")
        }
        summary[name] = compare(sides, metric["unit"], metric["better"], metric.get("bound"))
    raw = {
        side: [statistics.median(json.loads(p[side][0])["details"]["raw_passes"]) for p in pairs]
        for side in ("parent", "change")
    }
    summary["raw_wall_s"] = compare(raw, "s", "lower")
    # both median ratios below 1, both above, or both exactly 1
    ratios = (summary["wall_s"]["median_ratio"], summary["raw_wall_s"]["median_ratio"])
    summary["raw_agrees"] = len({(r > 1) - (r < 1) for r in ratios}) == 1
    for side in ("parent", "change"):
        summary[f"failed_ops_{side}"] = sum(json.loads(p[side][1])["failed"] for p in pairs)
    summary["ops"] = op_medians(pairs)
    return summary


def op_medians(pairs):
    """Per op: each side's median over the pairs of the run's median op time
    (seconds at reference speed), and the ratio change/parent; the pairs in
    which the change's run median was lower (`change_better_pairs`, out of
    the pairs in which both sides finished the op); and `digests_match`,
    whether every pair ran the op on both sides with one output digest.  A
    side on which the op never finished reads None, and so does the ratio."""
    sides = ("parent", "change")
    runs = [{side: {op["name"]: op for op in json.loads(pair[side][0])["details"]["ops"]}
             for side in sides} for pair in pairs]
    out = {}
    for name in dict.fromkeys(name for run in runs for side in sides for name in run[side]):
        medians = [{side: statistics.median(run[side][name]["times"])
                    if name in run[side] and run[side][name]["times"] else None for side in sides}
                   for run in runs]
        med = {}
        for side in sides:
            finished = [m[side] for m in medians if m[side] is not None]
            med[side] = statistics.median(finished) if finished else None
        both = [m for m in medians if None not in m.values()]
        out[name] = {
            **med,
            "ratio": med["change"] / med["parent"] if None not in med.values() else None,
            "change_better_pairs": f"{sum(m['change'] < m['parent'] for m in both)}/{len(both)}",
            "digests_match": all(
                name in run["parent"] and name in run["change"]
                and run["parent"][name]["digest"] == run["change"][name]["digest"] for run in runs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: describe(path) for side, path in checkouts.items()}
    for side, commit in commits.items():
        if commit is None:
            parser.error(f"--{side} {checkouts[side]} is not a git checkout; no commit to record")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
        pairs.append(pair)
        walls = {s: json.loads(pair[s][1])["metrics"]["wall_s"]["value"] for s in order}
        raws = {s: statistics.median(json.loads(pair[s][0])["details"]["raw_passes"]) for s in order}
        print(f"seed {seed}: wall_s parent {walls['parent']:.4g} s, change {walls['change']:.4g} s;"
              f" raw {raws['parent']:.4g} s, {raws['change']:.4g} s", file=sys.stderr)
    record = {
        "workload": args.workload,
        "command": (f"python3 perfbench/run.py --workload {args.workload}"
                    f" --seconds {seconds:g} --trace 0 --seed SEED"),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "seeds": args.seeds,
        "summary": {
            **summarize(pairs, benchmark["end_to_end"]),
            "src_lines": {side: source_lines(path) for side, path in checkouts.items()},
            "tests_lines": {side: source_lines(path, "tests") for side, path in checkouts.items()},
        },
        "pairs": pairs,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
