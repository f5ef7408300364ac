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


def run_lines(wall, cells, failed=0, ops=None, raw_passes=None, digests=None):
    """One run; `ops` maps an op name to its times in that run and `digests`
    to its output digest (default "d0"), and the raw pass times default to
    the scaled wall time."""
    result = {
        "metrics": {"wall_s": {"value": wall}, "cells_per_s": {"value": cells}},
        "failed": failed,
    }
    details = {
        "ops": [{"name": name, "times": times, "digest": (digests or {}).get(name, "d0")}
                for name, times in (ops or {}).items()],
        "raw_passes": [wall] if raw_passes is None else raw_passes,
    }
    return [json.dumps({"details": details}), json.dumps(result)]


def pairs(parent, change):
    """Pairs from (wall, cells[, failed[, ops[, raw_passes[, digests]]]]) tuples, one
    per side and seed."""
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


def test_per_op_medians_and_ratio():
    summary = bench_pairs.summarize(
        pairs(
            [(1.0, 1.0, 0, {"a": [1.0, 2.0, 3.0], "b": [1.0]}),
             (1.0, 1.0, 0, {"a": [3.0, 4.0, 5.0], "b": [3.0]})],
            [(1.0, 1.0, 0, {"a": [1.0, 1.0, 1.0], "b": []}),
             (1.0, 1.0, 0, {"a": [2.0, 2.0], "b": []})],
        ),
        DECLARED,
    )
    # medians within each run (2, 4 vs 1, 2), then over the runs
    assert summary["ops"]["a"] == {"parent": 3.0, "change": 1.5, "ratio": 0.5,
                                   "change_better_pairs": "2/2", "digests_match": True}
    # an op that never finished on one side has no median and no ratio, and
    # no pair in which to compare its times
    assert summary["ops"]["b"] == {"parent": 2.0, "change": None, "ratio": None,
                                   "change_better_pairs": "0/0", "digests_match": True}


def test_per_op_wins_and_digests_pair_by_pair():
    # op a: the change is faster in pairs 0 and 2, tied in pair 1, and its
    # digest differs in pair 2 only; op b runs in pair 1 on the change side
    # only; op c matches everywhere and is slower every time.
    parent = [(1.0, 1.0, 0, {"a": [2.0], "c": [1.0]}),
              (1.0, 1.0, 0, {"a": [2.0], "c": [1.0]}),
              (1.0, 1.0, 0, {"a": [2.0], "c": [1.0]})]
    change = [(1.0, 1.0, 0, {"a": [1.0], "c": [3.0]}),
              (1.0, 1.0, 0, {"a": [2.0], "b": [1.0], "c": [3.0]}),
              (1.0, 1.0, 0, {"a": [1.0], "c": [3.0]}, None, {"a": "d1"})]
    ops = bench_pairs.summarize(pairs(parent, change), DECLARED)["ops"]
    assert (ops["a"]["change_better_pairs"], ops["a"]["digests_match"]) == ("2/3", False)
    assert (ops["b"]["change_better_pairs"], ops["b"]["digests_match"]) == ("0/0", False)
    assert (ops["c"]["change_better_pairs"], ops["c"]["digests_match"]) == ("0/3", True)


def test_raw_pass_times_are_compared_next_to_the_scaled_ones():
    # The change's scaled wall time halves while its raw passes do not move:
    # the calibration kernel slowed down, not the program.
    summary = bench_pairs.summarize(
        pairs(
            [(1.0, 1.0, 0, {}, [2.0, 2.1, 1.9]), (1.0, 1.0, 0, {}, [3.0, 1.0, 2.0]),
             (1.0, 1.0, 0, {}, [2.5])],
            [(0.5, 1.0, 0, {}, [2.2, 1.8, 2.0]), (0.5, 1.0, 0, {}, [2.4]),
             (0.5, 1.0, 0, {}, [2.6, 2.6])],
        ),
        DECLARED,
    )
    assert summary["wall_s"]["median_ratio"] == 0.5
    raw = summary["raw_wall_s"]
    assert (raw["unit"], raw["better"]) == ("s", "lower")
    # each run's median raw pass: 2.0, 2.0, 2.5 against 2.0, 2.4, 2.6
    assert raw["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.25}
    assert raw["change"] == {"median": 2.4, "q1": 2.2, "q3": 2.5}
    assert raw["median_ratio"] == pytest.approx(1.2)
    assert raw["change_better_pairs"] == "0/3"
    assert summary["raw_agrees"] is False


@pytest.mark.parametrize(
    "change_wall,change_raw,agrees",
    # scaled 1.0 -> 0.8 against raw 2.0 -> 1.5 (faster), 2.0 (flat), 2.5
    # (slower); then both flat
    [(0.8, 1.5, True), (0.8, 2.0, False), (0.8, 2.5, False), (1.0, 2.0, True)],
)
def test_raw_agrees_when_both_ratios_fall_on_one_side_of_one(change_wall, change_raw, agrees):
    summary = bench_pairs.summarize(
        pairs([(1.0, 1.0, 0, {}, [2.0])] * 3, [(change_wall, 1.0, 0, {}, [change_raw])] * 3),
        DECLARED,
    )
    assert summary["raw_agrees"] is agrees


def test_a_median_past_the_bound_reads_worse():
    # wall_s (lower is better, bound 0.2): +25% is worse, +20% is not;
    # cells_per_s (higher is better): -25% is worse, -20% is not.
    for change_wall, change_cells, worse in ((1.25, 75.0, True), (1.2, 80.0, False)):
        summary = bench_pairs.summarize(
            pairs([(1.0, 100.0)] * 4, [(change_wall, change_cells)] * 4), DECLARED
        )
        for name in ("wall_s", "cells_per_s"):
            metric = summary[name]
            assert metric["bound"] == 0.2
            assert metric["parent_rel_iqr"] == 0.0
            assert metric["worse"] is worse
            assert metric["unresolved"] is False
    # a better change is never worse, however far it moves
    summary = bench_pairs.summarize(pairs([(1.0, 100.0)] * 4, [(0.1, 1000.0)] * 4), DECLARED)
    assert summary["wall_s"]["worse"] is summary["cells_per_s"]["worse"] is False


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_separated():
    # Parent walls 1.0..2.5: inclusive quartiles 1.375, 1.75, 2.125, so a
    # relative IQR of 0.75 / 1.75, past the 0.2 bound.
    parent = [(1.0, 4.0), (1.5, 3.0), (2.0, 2.0), (2.5, 1.0)]
    overlapping = [(1.1, 4.5), (1.4, 3.5), (1.9, 2.5), (2.4, 1.5)]
    summary = bench_pairs.summarize(pairs(parent, overlapping), DECLARED)
    wall = summary["wall_s"]
    assert wall["parent_rel_iqr"] == pytest.approx(0.75 / 1.75)
    assert (wall["worse"], wall["unresolved"]) == (False, True)
    # cells 1..4: relative IQR 1.5 / 2.5; every change run beats every
    # parent run, so the spread does not hide the direction
    separated = [(0.5, 5.0), (0.6, 6.0), (0.7, 7.0), (0.8, 8.0)]
    summary = bench_pairs.summarize(pairs(parent, separated), DECLARED)
    for name in ("wall_s", "cells_per_s"):
        assert summary[name]["parent_rel_iqr"] > 0.2
        assert summary[name]["unresolved"] is False
    # the raw pass time has no declared bound, so no verdict either
    assert "bound" not in summary["raw_wall_s"] and "worse" not in summary["raw_wall_s"]


def test_source_lines_counts_python_files_under_src_runslab(tmp_path):
    package = tmp_path / "src" / "runslab"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "sub" / "b.py").write_text("z = 3\n\n# end")  # no final newline
    (package / "notes.txt").write_text("not counted\n")
    (tmp_path / "tools.py").write_text("outside the package\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("def test_a():\n    pass\n\n")
    (tmp_path / "tests" / "data.txt").write_text("not counted\n")
    assert bench_pairs.source_lines(tmp_path) == 5
    assert bench_pairs.source_lines(tmp_path, "tests") == 3


def test_record_holds_both_sides_source_and_test_lines(tmp_path, monkeypatch):
    # Two checkouts whose runs are stubbed: the record counts each side's
    # package and test lines, so code moved into the tests shows up.
    sides = {}
    for side, src, tests in (("parent", "a\nb\nc\n", "t\n"), ("change", "a\n", "t\nu\nv\n")):
        root = tmp_path / side
        (root / "src" / "runslab").mkdir(parents=True)
        (root / "tests").mkdir()
        (root / "src" / "runslab" / "m.py").write_text(src)
        (root / "tests" / "test_m.py").write_text(tests)
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": DECLARED}))
        sides[side] = root
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: run_lines(1.0, 2.0))
    monkeypatch.setattr(bench_pairs, "describe", lambda checkout: checkout.name + "-commit")
    argv = ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "w", "--seeds", "1-2", "--label", "x", "--out-dir", str(tmp_path)]
    assert bench_pairs.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (record["parent_commit"], record["change_commit"]) == ("parent-commit", "change-commit")
    summary = record["summary"]
    assert summary["src_lines"] == {"parent": 3, "change": 1}
    assert summary["tests_lines"] == {"parent": 1, "change": 3}


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_side_git_cannot_describe_is_refused_before_any_run(tmp_path, monkeypatch, capsys, side):
    # `side` is a plain directory, as an unpacked archive would be; git
    # describes the other one.
    plain = (tmp_path / "plain").resolve()
    other = tmp_path / "other"
    for path in (plain, other):
        path.mkdir()
    describe = bench_pairs.describe
    monkeypatch.setattr(bench_pairs, "describe", lambda c: describe(c) if c == plain else "abc1234")
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: runs.append(a) or run_lines(1.0, 2.0))
    paths = {"parent": other, "change": other, side: plain}
    argv = ["--parent", str(paths["parent"]), "--change", str(paths["change"]),
            "--workload", "w", "--seeds", "1-2", "--label", "x", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert f"--{side} {plain} is not a git checkout" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "BENCH_x.json").exists()
