"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import runslab  # noqa: E402
import runslab.cli  # noqa: E402
from runslab import _rng, evolve, stats  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self-time arithmetic ----------------------------------------------------------


def test_self_times_subtract_children():
    tree = [
        Span("cli", "main", 0.0, 10.0, -1),
        Span("evolve", "run_sweep", 1.0, 7.0, 0, reps=5, cells=50),
        Span("_rng", "get", 2.0, 3.0, 1),
        Span("_rng", "get", 4.0, 5.0, 1),
        Span("stats", "add_batch", 6.0, 6.5, 1),
        Span("evolve", "simulate_runs", 8.0, 9.5, 0, reps=1, cells=9),
        Span("evolve", "runs_from_order", 8.5, 9.0, 5, reps=1, cells=9),
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 3.5, 1.0, 1.0, 0.5, 1.0, 0.5])

    m = spans.layer_metrics(tree)
    assert m["cli.calls"] == 1 and m["cli.self_s"] == pytest.approx(2.5)
    assert m["evolve.calls"] == 3 and m["evolve.self_s"] == pytest.approx(5.0)
    # The nested runs_from_order call is not a second repetition.
    assert (m["evolve.reps"], m["evolve.cells"]) == (6, 59)
    assert m["evolve.us_per_rep"] == pytest.approx(5.0 / 6 * 1e6)
    assert m["evolve.ns_per_cell"] == pytest.approx(5.0 / 59 * 1e9)
    assert m["rng.calls"] == 2 and m["rng.us_per_call"] == pytest.approx(1e6)
    assert m["stats.self_s"] == pytest.approx(0.5)
    assert m["combinatorics.calls"] == 0 and m["asymptotics.us_per_path"] == 0.0


def test_written_spans_read_back(tmp_path):
    tree = [Span("cli", "main", 5.0, 9.0, -1), Span("evolve", "run_sweep", 6.0, 8.0, 0, 2, 26)]
    path = spans.write_spans(tmp_path / "out" / "w.jsonl", tree)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [Span(**line) for line in lines] == [
        Span("cli", "main", 0.0, 4.0, -1), Span("evolve", "run_sweep", 1.0, 3.0, 0, 2, 26)]


def test_overlapping_children_count_once():
    tree = [
        Span("verify", "run_checks", 0.0, 10.0, -1),
        Span("patterns", "summarize", 1.0, 3.0, 0),
        Span("patterns", "mean_rate", 2.0, 4.0, 0),
        Span("polys", "refine_root", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 3.0 - 1.0)


# -- patching and restoring ----------------------------------------------------------


def _namespace_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "runslab" or name.startswith("runslab."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    for cls in (_rng.StreamPool, stats.MomentAccumulator, stats.CoMomentAccumulator):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def test_restore_puts_back_every_original():
    before = _namespace_snapshot()
    original_get = _rng.StreamPool.get
    tracer = spans.Tracer()
    with tracer:
        patched = tracer.patched()
        assert runslab.cli.run_sweep is not before[("runslab.cli", "run_sweep")]
        assert runslab.verify.run_sweep is not before[("runslab.verify", "run_sweep")]
        assert evolve.stream is not before[("runslab.evolve", "stream")]
        assert _rng.StreamPool.get is not original_get
        evolve.simulate_runs(20, seed=3)
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_calls_through_cli_reach_the_layers_and_keep_outputs():
    argv = ["simulate", "--model", "runs", "--n", "13", "--reps", "50", "--seed", "4"]
    spec = workloads.OpSpec("t", "cli", tuple(argv), 13 * 50, ("mean-4se", 4.239))
    plain = workloads.digest_output(spec, workloads.run_op(spec)).digest
    tracer = spans.Tracer()
    with tracer:
        traced = workloads.digest_output(spec, workloads.run_op(spec)).digest
    recorded = tracer.take_spans()
    assert traced == plain
    m = spans.layer_metrics(recorded)
    assert m["cli.calls"] == 1
    assert m["rng.calls"] == 50
    assert (m["evolve.reps"], m["evolve.cells"]) == (50, 650)
    run_sweep = next(s for s in recorded if s.name == "run_sweep")
    assert recorded[run_sweep.parent].name == "main"


# -- inputs and checks -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first = workloads.make_inputs(workload, 5)
    assert workloads.make_inputs(workload, 5) == first
    assert workloads.make_inputs(workload, 6) != first


def test_checks_reject_a_wrong_rational():
    (spec,) = [s for s in workloads.make_inputs("exact", 1) if s.name == "exact-max-pmf-n12"]
    code, text, _ = workloads.run_op(spec)
    assert workloads.check_output(spec, (code, text)) == []
    row = next(line for line in text.splitlines() if ",max-pmf-6," in line)
    wrong = text.replace(row, row.replace("1/77", "2/77"))
    assert workloads.check_output(spec, (code, wrong))


def test_checks_reject_a_mean_outside_four_se():
    spec = workloads.OpSpec("t", "cli", (), 0, ("mean-4se", 10.0))
    header = "model,n,reps,seed,quantity,value,se,reference,band,pass\n"
    assert workloads.check_output(spec, (0, header + ",,,,max-mean,10.3,0.1,,,\n")) == []
    assert workloads.check_output(spec, (0, header + ",,,,max-mean,10.5,0.1,,,\n"))


# -- the command itself ----------------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_of_each_workload_passes_its_checks(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, zero", [
    ("sweep-small", ("combinatorics.calls", "patterns.calls", "polys.calls")),
    ("exact", ("evolve.calls",)),
])
def test_traced_pass_reports_every_layer(workload, zero):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for name in zero:
        assert result["metrics"][name]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench("--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
