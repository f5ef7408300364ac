"""The paired-benchmark summary of tools/bench_pairs.py on synthetic runs.

Each run is the last two stdout lines of perfbench/run.py: a details
record, then the result with every metric's value and the failed-op count.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def run_lines(wall, cells, failed=0):
    result = {
        "metrics": {"wall_s": {"value": wall}, "cells_per_s": {"value": cells}},
        "failed": failed,
    }
    return [json.dumps({"details": {}}), json.dumps(result)]


def pairs(parent, change):
    """Pairs from (wall, cells[, failed]) tuples, one per side and seed."""
    return [
        {"seed": seed, "first": "parent", "parent": run_lines(*p), "change": run_lines(*c)}
        for seed, (p, c) in enumerate(zip(parent, change))
    ]


def test_quartiles_median_ratio_and_wins():
    summary = bench_pairs.summarize(
        pairs(
            [(1.0, 40.0), (2.0, 30.0), (3.0, 20.0), (4.0, 10.0)],
            [(0.5, 80.0), (1.0, 60.0), (1.5, 40.0), (2.0, 20.0)],
        ),
        DECLARED,
    )
    wall = summary["wall_s"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    # inclusive quartiles of 1, 2, 3, 4
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert wall["change"] == {"median": 1.25, "q1": 0.875, "q3": 1.625}
    assert wall["median_ratio"] == 0.5
    assert wall["change_better_pairs"] == "4/4"
    cells = summary["cells_per_s"]
    assert cells["median_ratio"] == 2.0
    assert cells["change_better_pairs"] == "4/4"  # higher is better here


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarize(
        pairs(
            [(1.0, 10.0), (1.0, 10.0), (1.0, 10.0)],
            [(1.0, 10.0), (0.9, 11.0), (1.1, 9.0)],
        ),
        DECLARED,
    )
    # one strict win each; the equal first pair is no win
    assert summary["wall_s"]["change_better_pairs"] == "1/3"
    assert summary["cells_per_s"]["change_better_pairs"] == "1/3"
    assert summary["wall_s"]["median_ratio"] == pytest.approx(1.0)


def test_failed_ops_are_summed_per_side():
    summary = bench_pairs.summarize(
        pairs([(1.0, 1.0, 0), (1.0, 1.0, 2), (1.0, 1.0, 1)], [(1.0, 1.0, 0), (1.0, 1.0, 0), (1.0, 1.0, 4)]),
        DECLARED,
    )
    assert (summary["failed_ops_parent"], summary["failed_ops_change"]) == (3, 4)
