"""End-to-end command-line behaviour through main(argv).

Everything runs in-process: stdout/stderr via capsys, files via tmp_path,
environment via monkeypatch.  The byte-determinism tests are deliberately
strict -- the documented contract is that row bytes depend only on the
command line and the seed.
"""

import csv
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

import runslab
from runslab import cli
from runslab.cli import COLUMNS, main
from runslab.combinatorics import MAX_DP_CELLS, MAX_PMF_CELLS
from runslab.patterns import PatternFunctional, run_length_pattern

from conftest import constant_pattern, save_pattern


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == ",".join(COLUMNS)
    return {row["quantity"]: row for row in rows}


# -- exact tables ------------------------------------------------------------


def test_exact_moments_and_pmf(capsys):
    code, out, _ = run_cli(capsys, ["exact", "--n", "4", "--m", "2", "--pmf"])
    assert code == 0
    rows = parse_csv(out)
    assert rows["pmf-1"]["value"] == "1/2"
    assert rows["pmf-2"]["value"] == "1/2"
    assert rows["mean"]["value"] == "3/2"
    assert rows["mean-decimal"]["value"] == "1.5"
    assert rows["variance"]["value"] == "1/4"
    assert rows["variance-decimal"]["value"] == "0.25"
    assert rows["mean"]["n"] == "4"


def test_exact_running_max_table(capsys):
    code, out, _ = run_cli(capsys, ["exact", "--n", "3", "--max-pmf"])
    assert code == 0
    rows = parse_csv(out)
    assert rows["max-pmf-1"]["value"] == "2/3"
    assert rows["max-pmf-2"]["value"] == "1/3"
    assert rows["max-mean"]["value"] == "4/3"


def test_exact_empty_sequence_has_no_runs(capsys):
    code, out, _ = run_cli(capsys, ["exact", "--n", "5", "--m", "0"])
    assert code == 0
    rows = parse_csv(out)
    assert rows["mean"]["value"] == "0"
    assert rows["variance"]["value"] == "0"


# -- simulate ----------------------------------------------------------------


# SHA-256 of stdout, recorded from the per-rep sweep implementation: the
# block kernels must reproduce its rows byte for byte.  Rep counts are not
# multiples of any block's row count; the seeds include a negative and a
# wider-than-64-bit one, which the stream keys reduce modulo 2^64.  The
# runs and pattern entries at n <= 31 (n = 9, 12, 13 and 31) were
# re-recorded when a rep's order of up to 31 cells became the stable
# argsort of its uniforms; n = 2 and cyclic n = 3 give one path whatever
# the order, and n >= 32 kept its bytes.
GOLDEN_STDOUT = {
    "simulate --model runs --n 9 --reps 1500 --seed 5":
        "184880a0a0c9a4fc6140dc79bc55d2161fa57ae788e4a2df825234a624a8cee7",
    "simulate --model runs --n 13 --reps 1300 --seed -3 --grid 0.5":
        "22ffbbfbb34da1dd56ad1e9e771e9d87a2959e2e6c7a4e4685694e677614d5e9",
    "simulate --model runs --n 52 --reps 700 --seed 18446744073709551621":
        "60511c6d9f8778cb63b82da729dca719301b7735cdfd25ec8c9e948c091c5ff9",
    "simulate --model runs-cyclic --n 40 --reps 900 --seed 2 --grid 0.25,0.5,0.75":
        "c481be823acb6c4ba117357968a1b993d201426f8528099c369cff82a33abbc6",
    "simulate --model pattern --run-length 1 --n 12 --reps 800 --seed 4":
        "7a6c1a0e5cfee9731acc97e504d80749f555642a08168227e5e6625a5de37f0c",
    "simulate --model pattern --run-length 1 --n 200 --reps 300 --seed 6 --grid 0.5":
        "00b16b5e2572e20e32948cde3356b17464df778f01e0ada44b3eb58fac197e31",
    # The time-ordered models, recorded while each row was still ordered by
    # a stable (timsort) argsort: the tie-checked default sort must give
    # the same rows.  n = 10^4 gives 3-row blocks, n = 100 327-row blocks.
    "simulate --model runs-time --n 100 --reps 1000 --seed 7":
        "ddefa02b5fe84aa14e4aa9de609590352953c9845146d1687552e3a7ead93362",
    "simulate --model runs-time --n 333 --reps 250 --seed -11 --grid 0.1,0.5,0.9":
        "a1f7900a1d358df398582f6ed640e02c88705fbaa485d397694c14a0631dae75",
    "simulate --model runs-time --n 1 --reps 41 --seed 3 --grid 0.5":
        "7e6895241890b83129b523fc36140284a9373e78b80baa6dc106b715bca72c53",
    "simulate --model runs-time --n 10000 --reps 7 --seed 4 --grid 0.25,0.5":
        "67740bd85de19aee695f929912591ae545075c9461898b3dfc5cfba36d223fa5",
    "simulate --model pq --n 1 --reps 37 --seed 1":
        "994979ecc0a3de61147d206d657e7441875ab68194b73992dbbc43e395e69d1e",
    "simulate --model pq --n 100 --reps 1000 --seed -2 --grid 0.25,0.5,0.75":
        "8fb7a0cf9af14ed390e034a202d343746f61df9f5c086e34fe408c684f9dfe62",
    "simulate --model pq --n 10000 --reps 20 --seed 9 --grid 0.5":
        "2317d91595b491ac87f542388fa124164a06f1a0ca7a507fdf7c44f906d33c10",
    "simulate --model lazy-hash --n 1 --reps 37 --seed -1 --grid 0.5":
        "9969dadf47a2b80dd219752640a7c97a579d1d31e5707e74516fe982a847626b",
    "simulate --model lazy-hash --n 100 --reps 700 --seed 12":
        "cf96d36da8f8cdc01211c01677fe8a6c7161dbc7ae18be8ec5f4c4efbca79a33",
    "simulate --model lazy-hash --n 10000 --reps 20 --seed -5 --grid 0.3,0.7":
        "26479f26fde43494f4f808cfc00bd40c1bdaa76c2dd9f2dadbffaa320838ac89",
    # Window reports, the exact max table and the quick verify rows,
    # recorded before the window summary's route checks, the drift model
    # and the limit constants each moved to a single home.  {psi} is a
    # window file whose mean-rate peak, 1/sqrt(3), is irrational.
    "pattern --run-length 1 --report":
        "5a80a5c9bb1b4c10caf7d2a5a2ebe90d696e1935115d1d6594b73141a6ea8b58",
    "pattern --run-length 2 --report":
        "ea5e030e8687a04c0e59100f0589db13736d52da46ea37ad48f394bd4ead292a",
    "pattern --run-length 3 --report":
        "ffccd351a64771b927db6056ce95c791da847ace9f29753cfb51d3c7b208844e",
    "pattern --psi-file {psi} --report":
        "c29e57b153525015e6bb1ddebc57a12a5b79246016d930726f4ab53123b951b1",
    "exact --n 12 --max-pmf":
        "e4746c90a949131a9c87a515d7a42842f20e75c17f279b92eb866ebb336a35b3",
    "verify --scale quick --seed 0":
        "481130fa92b1dd467f16620c3fa162d3d8a4897022d7924d411dc75e41f2e100",
    # The rest of the exact tables and window reports, recorded while the
    # max-pmf DP was a dict walk and every Fraction was evaluated, bisected
    # and multiplied in Fraction arithmetic: the integer kernels must give
    # the same rows.
    "exact --n 13 --max-pmf":
        "4d05cdbe376eb91f5e572f138fb7e4115d7700f77d3fdae534f802dc09c12880",
    "exact --n 14 --max-pmf":
        "1015cbda0580bea54719c7d40e6fe87e0e78ad534a7e89f932178acd576524c4",
    "exact --n 15 --max-pmf":
        "53e2d893d961f754c012cc593de3534f27b176218fb98051958ee11cd992d934",
    "exact --n 16 --max-pmf":
        "3bf8fb676811abf14bbb1d3b6a74493cd1480564e931a6e1b7782ed3943499a6",
    # The gap DP past the subset-DP oracle's reach, recorded while it made
    # every move of every state afresh: per-interior move tables must give
    # the same tables.
    "exact --n 17 --max-pmf":
        "b96e73e68b815a4cd3c11fec79b716e95455dcf7be63252b81140cbd87ec8baf",
    "exact --n 18 --max-pmf":
        "5d79e31ce8d6d6283f7000992a1715641b30c2008a8b4eb6c483eefbb950bc7d",
    "exact --n 19 --max-pmf":
        "c97e33b629ccb47c08b9bd8bf440c3e3bbf768a02e5820329a151500f3782d00",
    "exact --n 20 --max-pmf":
        "ff836cd85cee565105af1c9ac00aeba73a93e97d9b8c4d5ef4ded08ba5020e48",
    "pattern --run-length 4 --report":
        "9db48ef1972876d6055c518255f2ad859e29337cc874fb923fca87e2a0ce8e30",
    "pattern --run-length 5 --report":
        "252cdd6cd505b78156454db08668cb100ad7cca0031e9c60bef2e0a5c1de26e9",
    "pattern --run-length 6 --report":
        "1c1e42908af69919af87726587b7c9e17f70c7ba31fc5c02657d31d8b16eac11",
    # A dense 9-cell window ({dense9}: every value nonzero, none dyadic),
    # recorded while the pattern kernel built its masks in int64 and looked
    # the table up twice per offset: the 16-bit masks and per-offset jump
    # tables must give the same rows.
    "simulate --model pattern --psi-file {dense9} --n 40 --reps 300 --seed 8 --grid 0.25,0.5,0.75":
        "4f955b6a89dd5b665f1af48f1093054498fc0df4c0e821c1e163890b31e5554f",
    "simulate --model pattern --psi-file {dense9} --n 40 --reps 300 --seed 8 --grid 0.25,0.5,0.75 --linear":
        "5d8ac49c92496dfaba2bd1437056408a61b6195ef923e610a2507e24b51c2275",
    # Small-n insertion orders: the batch words over a block's rows must
    # give the per-row re-keys' rows.  n = 2 takes three blocks; n = 9 with
    # 7300 reps two full blocks and a 20-row one; n = 31 and 32 sit on
    # either side of the sorted-order protocol's size limit.
    "simulate --model runs --n 2 --reps 40000":
        "535b2ae3437fef6deafe0e61e0a12f4cee827b0ff9b35e016466839183fad334",
    "simulate --model runs-cyclic --n 3 --reps 5000 --seed 11":
        "cda4994aefda858e8a984e72c7310704d7a1e97af36837ea51442f4a56bc0ed3",
    "simulate --model runs --n 9 --reps 7300 --seed -4":
        "049864d5c8c59c98c945127a1bb3e8ce599f8426b255e7f3eaeeefff557e7244",
    "simulate --model runs --n 31 --reps 2000 --seed 13":
        "9b70047ad5f840734effd9021064566e26a00ee6679a530ca9347f63bbed69d2",
    "simulate --model runs --n 32 --reps 2000 --seed 13":
        "31760d8776e846f5e7b30a84b624f463dc3327ac7da05d61f1da1c03bc4cf9ad",
    "simulate --model pattern --run-length 1 --n 12 --reps 5000":
        "563e222137f4f8d05e6d9eeeb2757d72419775e2a044e11c0207f20b5aef27e3",
    # More quick verify seeds, each with its own random windows, recorded
    # while each window's values were made one Fraction at a time.
    "verify --scale quick --seed 1":
        "5c30b2e6124846cae64737df4fbe3d279894a10e777ba53b0bc21fe8bb8547ce",
    "verify --scale quick --seed 2":
        "b23dbc03287a8197c4e90551d6034bb3bc479ef3d4ff11324c6b293137d355b4",
    "verify --scale quick --seed 3":
        "2c7bf09252fa3128a8f9ba631a87772c9f9e97a2f7df72f0403a62c2a40947cc",
}

# Rows that report wall time, the one kind of cell that changes from run to
# run; digests are taken without them.
RUNTIME_QUANTITIES = ("exact-moments-runtime-seconds",)


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_simulate_stdout_matches_golden_digest(capsys, tmp_path, command):
    psi = tmp_path / "peak.psi"
    values = [0] * 8
    values[0b010], values[0b110] = 1, 2  # mean rate t - t^3
    save_pattern(PatternFunctional(3, tuple(values)), psi)
    dense9 = tmp_path / "dense9.psi"
    rng = np.random.default_rng(9)
    dense = [Fraction(int(k), 997) for k in rng.integers(-1000, 1000, 1 << 9)]
    save_pattern(PatternFunctional(9, tuple(dense)), dense9)
    code, out, _ = run_cli(capsys, command.format(psi=psi, dense9=dense9).split())
    assert code == 0
    assert hashlib.sha256(without_runtime(out).encode()).hexdigest() == GOLDEN_STDOUT[command]


def without_runtime(out):
    return "".join(
        line for line in out.splitlines(keepends=True)
        if not any(f",{q}," in line for q in RUNTIME_QUANTITIES)
    )


def random_psi_windows(seed):
    """Seeded windows of 2-4 cells, values k/d with |k| <= 9, 1 <= d <= 12."""
    rng = np.random.default_rng(seed)
    while True:
        size = 1 << int(rng.integers(2, 5))
        nums = rng.integers(-9, 10, size)
        dens = rng.integers(1, 13, size)
        yield PatternFunctional(size.bit_length() - 1, tuple(
            Fraction(int(k), int(d)) for k, d in zip(nums, dens)
        ))


# SHA-256 of `pattern --psi-file F --report` stdout for the first twelve
# windows of `random_psi_windows(13)` with an admissible peak, and of the
# stderr of the draws before them that have none.  Recorded while roots
# were isolated on Fraction Sturm chains and every window was decomposed
# before its peak was tested.
RANDOM_WINDOW_REPORTS = (
    "8d0b35e3cff8eacb853788ff8301d6ab9a4a9f876fb124e65087d53e11738e93",
    "8b94b748962b66e1c490c9e36ae1a895fb06797a6f671d0362cd0fdb4ab48912",
    "fe2ef2068192e11a33e09aebcd6afe5dfd4a5293df55079abe110afa9a10350f",
    "04cddb9952d085f9e7b1c40e8f07f7227cd340edd76d476e091b74cb40493399",
    "f9fb6824c48ce44690239e249e89c48096c81d24aa5e615f501664c31e99ae46",
    "48235dd14fadd3e60170def89abe74a02672a1d3cf43aca77048cb7cba4f211d",
    "63e62a80fedb207c2be4f5232e90ebceae9caa19fb645824ea74f21850184b23",
    "a5b287f218cb6363f3881fedca0af92603b8f4e3776c2ab972b0d780ee35b11e",
    "f4dcc6c2dbb6dac7238ee692514bf0603f1e99cba9686c7a87c5322b392657bd",
    "9a7933bcd3cb141cd1a390543d9919b474b1b4c585fe3377ca6c2f9684f6d8f6",
    "7893f250783b62a3cde6a07797bbb6ce36f44932f94fa453f10bfd00e0f85762",
    "e5a9a903381713fb2647ac21c21a2e4f3c8ae5892b41a1d0aa4ce0225338d23a",
)
RANDOM_WINDOW_REJECTIONS = (
    "702d9e8bf703ff13af714a5f3a7c50992887cd98ba7dbc8cb3faf4230c1cbc21"
)


def test_random_window_reports_match_golden_digests(capsys, tmp_path):
    reports, rejections = [], hashlib.sha256()
    for i, pattern in enumerate(random_psi_windows(13)):
        psi = tmp_path / f"w{i}.psi"
        save_pattern(pattern, psi)
        code, out, err = run_cli(capsys, ["pattern", "--psi-file", str(psi), "--report"])
        if code == 1:
            assert err.startswith("no admissible t0: ")
            rejections.update(err.encode())
            continue
        assert code == 0
        reports.append(hashlib.sha256(out.encode()).hexdigest())
        if len(reports) == 12:
            break
    assert tuple(reports) == RANDOM_WINDOW_REPORTS
    assert rejections.hexdigest() == RANDOM_WINDOW_REJECTIONS


def test_simulate_rows_are_byte_deterministic(capsys):
    argv = [
        "simulate", "--model", "runs", "--n", "50", "--reps", "40",
        "--seed", "3", "--grid", "0.25,0.5",
    ]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = parse_csv(out1)
    assert {"max-mean", "max-variance", "argmax-mean", "mid-mean"} <= set(rows)
    assert "grid-mean-0.25" in rows and "grid-mean-0.5" in rows
    assert rows["max-mean"]["model"] == "runs-linear"  # alias resolved
    assert rows["max-mean"]["seed"] == "3"
    assert float(rows["max-mean"]["se"]) > 0


def test_single_job_queue_is_degenerate(capsys):
    code, out, _ = run_cli(
        capsys, ["simulate", "--model", "pq", "--n", "1", "--reps", "5", "--seed", "0"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows["max-mean"]["value"] == "1"
    assert rows["max-variance"]["value"] == "0"
    assert rows["max-mean"]["model"] == "priority-queue"


def test_single_rep_variance_prints_nan(capsys):
    code, out, _ = run_cli(
        capsys, ["simulate", "--model", "runs", "--n", "20", "--reps", "1", "--seed", "0"]
    )
    assert code == 0
    assert parse_csv(out)["max-variance"]["value"] == "nan"


def test_single_rep_grid_prints_nan_se(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--model", "runs", "--n", "10", "--reps", "1", "--seed", "0", "--grid", "0.5"],
    )
    assert code == 0
    row = parse_csv(out)["grid-mean-0.5"]
    assert row["se"] == "nan"
    assert float(row["value"]) >= 0


def test_seed_env_fallback(capsys, monkeypatch):
    argv = ["simulate", "--model", "runs", "--n", "30", "--reps", "20"]
    monkeypatch.setenv("RUNSLAB_SEED", "9")
    _, from_env, _ = run_cli(capsys, argv)
    monkeypatch.delenv("RUNSLAB_SEED")
    _, explicit, _ = run_cli(capsys, argv + ["--seed", "9"])
    assert from_env == explicit
    assert parse_csv(from_env)["max-mean"]["seed"] == "9"
    monkeypatch.setenv("RUNSLAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "RUNSLAB_SEED" in err


def test_json_mirrors_csv_cell_for_cell(capsys):
    argv = ["simulate", "--model", "runs", "--n", "40", "--reps", "25", "--seed", "5"]
    _, csv_text, _ = run_cli(capsys, argv + ["--format", "csv"])
    _, json_text, _ = run_cli(capsys, argv + ["--format", "json"])
    payload = json.loads(json_text)
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert payload["rows"] == csv_rows
    manifest = payload["manifest"]
    assert manifest["command"] == "runslab " + " ".join(argv + ["--format", "json"])
    assert manifest["base_seed"] == 5
    assert manifest["wall_time_seconds"] > 0
    assert "artifact_version" in manifest


def test_verify_json_manifest(capsys, monkeypatch):
    # every manifest key and value but the wall time
    monkeypatch.delenv("RUNSLAB_SEED", raising=False)
    argv = ["verify", "--scale", "quick", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest.pop("wall_time_seconds") > 0
    assert manifest == {
        "command": "runslab verify --scale quick --format json",
        "base_seed": 0,
        "artifact_version": "0.1.0",
        "outputs": {"scale": "quick", "checks_passed": "true"},
    }
    assert manifest["artifact_version"] == runslab.__version__


def test_out_flag_writes_file_not_stdout(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        ["exact", "--n", "3", "--max-pmf", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    rows = parse_csv(target.read_text())
    assert rows["max-mean"]["value"] == "4/3"


@pytest.mark.parametrize("where", ["missing/rows.csv", "."])
def test_unwritable_out_is_refused_before_the_work(capsys, tmp_path, monkeypatch, where):
    # A missing directory or a directory itself: exit 2 with a message, and
    # the subcommand never starts (it used to fail with a traceback after it).
    def refuse(*args):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli, "cmd_exact", refuse)
    target = tmp_path / where
    code, out, err = run_cli(capsys, ["exact", "--n", "5", "--m", "2", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}\n"



def test_a_patched_command_is_run_after_an_earlier_call(capsys, monkeypatch):
    # main() looks the subcommand's function up on every call, so a parser
    # built by an earlier call neither misses a patch nor keeps one.
    argv = ["exact", "--n", "5", "--m", "2"]
    before = run_cli(capsys, argv)
    assert before[0] == 0
    monkeypatch.setattr(cli, "cmd_exact", lambda args, manifest: print("patched") or 7)
    assert run_cli(capsys, argv)[:2] == (7, "patched\n")
    monkeypatch.undo()
    assert run_cli(capsys, argv) == before

# -- pattern reports ---------------------------------------------------------


def test_pattern_report_for_isolated_runs(capsys):
    code, out, _ = run_cli(capsys, ["pattern", "--run-length", "1", "--report"])
    assert code == 0
    rows = parse_csv(out)
    assert float(rows["peak-time"]["value"]) == pytest.approx(1 / 3)
    assert float(rows["variance-rate"]["value"]) == pytest.approx(76 / 729)
    assert float(rows["jump-variance"]["value"]) == pytest.approx(80 / 81)
    shares = [
        float(row["value"])
        for quantity, row in rows.items()
        if quantity.startswith("variance-share-")
    ]
    assert shares  # --report added the decomposition
    assert sum(shares) == pytest.approx(76 / 729, abs=1e-9)


def test_psi_file_agrees_with_builtin_window(capsys, tmp_path):
    path = tmp_path / "window.psi"
    save_pattern(run_length_pattern(1), path)
    _, via_file, _ = run_cli(capsys, ["pattern", "--psi-file", str(path)])
    _, via_flag, _ = run_cli(capsys, ["pattern", "--run-length", "1"])
    assert via_file == via_flag


def test_flat_window_has_no_admissible_peak(capsys, tmp_path):
    path = tmp_path / "flat.psi"
    save_pattern(constant_pattern(2), path)
    code, out, err = run_cli(capsys, ["pattern", "--psi-file", str(path)])
    assert code == 1
    assert out == ""
    assert "no admissible t0" in err


@pytest.mark.parametrize("source", ["run-length", "psi-file"])
def test_window_past_analysis_cap_is_a_usage_error(capsys, tmp_path, source):
    # run length 9 is a window of 11 cells; the file window has 11 cells too
    if source == "run-length":
        argv = ["pattern", "--run-length", "9"]
    else:
        path = tmp_path / "wide.psi"
        save_pattern(run_length_pattern(9), path)
        argv = ["pattern", "--psi-file", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: exact analysis capped at window length 10, got 11\n"


def test_simulate_pattern_via_psi_file(capsys, tmp_path):
    path = tmp_path / "window.psi"
    save_pattern(run_length_pattern(1), path)
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", "--model", "pattern", "--psi-file", str(path),
            "--n", "40", "--reps", "10", "--seed", "1",
        ],
    )
    assert code == 0
    assert parse_csv(out)["max-mean"]["model"] == "pattern"


# -- vconst ------------------------------------------------------------------


def test_vconst_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        ["vconst", "--paths", "60", "--step", "0.01", "--horizon", "3", "--seed", "2"],
    )
    assert code == 0
    rows = parse_csv(out)
    mean = float(rows["parabola-max-mean"]["value"])
    assert float(rows["ci-low"]["value"]) < mean < float(rows["ci-high"]["value"])
    assert rows["parabola-max-mean"]["reps"] == "60"


# -- verify ------------------------------------------------------------------


def test_verify_quick_through_cli(capsys):
    code, out, err = run_cli(capsys, ["verify", "--scale", "quick", "--seed", "0"])
    assert code == 0
    rows = parse_csv(out)
    assert all(row["pass"] == "true" for row in rows.values())
    assert "[pass] exact-moments" in err


def test_verify_override_fails_loudly(capsys):
    code, out, err = run_cli(
        capsys,
        ["verify", "--scale", "quick", "--override-constant", "runs-variance-rate=0.125"],
    )
    assert code == 1
    rows = parse_csv(out)
    assert rows["runs-variance-rate"]["pass"] == "false"
    assert "FAIL" in err


@pytest.mark.parametrize("scale", ["quick", "full"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, scale, jobs):
    code, out, err = run_cli(capsys, ["verify", "--scale", scale, "--jobs", jobs])
    assert code == 2
    assert out == ""
    assert err == f"error: need jobs >= 1, got {jobs}\n"  # no check ran


# -- exit codes and usage errors ---------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "no-such-model", "--n", "10", "--reps", "5"],
        ["exact", "--n", "4"],  # neither --m nor --max-pmf
        ["exact", "--n", "21", "--max-pmf"],  # beyond the exact-table cap
        ["exact", "--n", "4", "--m", "9"],
        ["simulate", "--model", "runs", "--n", "10", "--reps", "5", "--grid", "a,b"],
        ["simulate", "--model", "runs", "--n", "10", "--reps", "5", "--run-length", "1"],
        ["simulate", "--model", "pattern", "--n", "40", "--reps", "5"],
        ["pattern"],  # no window given
        ["pattern", "--run-length", "1", "--psi-file", "x"],  # both given
        ["vconst", "--step", "0.5", "--paths", "10"],
        ["verify", "--override-constant", "runs-variance-rate"],  # missing =VALUE
        ["verify", "--override-constant", "nope=1.0"],
        ["verify", "--override-constant", "runs-variance-rate=abc"],
        ["vconst", "--horizon", "nan", "--paths", "10"],  # not refused by >= 3 alone
        ["vconst", "--horizon", "inf", "--paths", "10"],
        ["vconst", "--step", "1e-9"],  # 4e9 steps a path
        ["vconst", "--horizon", "1e9"],  # 1e12 steps a path
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "argv,message",
    [
        # a given flag is refused whatever its value, falsy ones too
        (["simulate", "--model", "runs", "--n", "10", "--reps", "5", "--run-length", "0"],
         "--psi-file/--run-length only apply to --model pattern"),
        (["simulate", "--model", "runs", "--n", "10", "--reps", "5", "--psi-file", ""],
         "--psi-file/--run-length only apply to --model pattern"),
        (["exact", "--n", "5", "--max-pmf", "--m", "2"], "--max-pmf takes neither --m nor --pmf"),
        (["exact", "--n", "5", "--max-pmf", "--pmf"], "--max-pmf takes neither --m nor --pmf"),
    ],
)
def test_flags_the_command_would_ignore_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("model", ["runs", "runs-cyclic", "pq", "runs-time"])
def test_linear_outside_pattern_model_is_a_usage_error(capsys, model):
    argv = ["simulate", "--model", model, "--n", "20", "--reps", "5", "--seed", "1", "--linear"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: --linear only applies to --model pattern (use runs or runs-cyclic)\n"


def test_unknown_model_lists_every_accepted_name(capsys):
    argv = ["simulate", "--model", "no-such-model", "--n", "10", "--reps", "5"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err == (
        "error: unknown model 'no-such-model'; choose from lazy-hash, pattern, pq, "
        "priority-queue, queue, runs, runs-cyclic, runs-linear, runs-time\n"
    )


def test_max_pmf_cap_message_follows_the_dp_cap(capsys):
    code, _, err = run_cli(capsys, ["exact", "--n", str(MAX_DP_CELLS + 1), "--max-pmf"])
    assert code == 2
    assert err == f"error: --max-pmf supports n <= {MAX_DP_CELLS}\n" == "error: --max-pmf supports n <= 20\n"


def test_pmf_cap_refuses_before_the_work(capsys):
    code, out, _ = run_cli(capsys, ["exact", "--n", str(MAX_PMF_CELLS), "--m", "2", "--pmf"])
    assert code == 0
    assert parse_csv(out)["pmf-1"]["value"] == f"1/{MAX_PMF_CELLS // 2}"
    # past the cap, and where printing the table would fail after the work
    for n, m in ((MAX_PMF_CELLS + 1, 2), (14400, 7200)):
        code, out, err = run_cli(capsys, ["exact", "--n", str(n), "--m", str(m), "--pmf"])
        assert (code, out) == (2, "")
        assert err == f"error: --pmf supports n <= {MAX_PMF_CELLS}\n" == "error: --pmf supports n <= 10000\n"


def test_argparse_exits_are_propagated(capsys):
    assert run_cli(capsys, ["--version"])[0] == 0
    assert run_cli(capsys, ["no-such-command"])[0] == 2
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "runslab" in out


# SHA-256 of the help text at 80 columns, recorded while main() built a
# fresh parser on every call.
HELP_DIGESTS = {
    "": "7eb43e83fc57c29fdef8406a7da88f97da2f3bc38b6c001c84215f7f2851827e",
    "exact": "d07b5f3b87f39100526a598c8454892c4f89e41e23008865f4254f70c8fba8ac",
    "simulate": "cefaed9854be9cf6a47374a7713409e7d0afe84023fd9c8f5eb27021a88684f5",
    "pattern": "a1f7594a408d73119a60de2708f62b2c97890429d56d5992bd6783b33d34f3f5",
    "vconst": "35b167264e475b4a6c7f27b3b295f157130dd46447f4902f2791b4f6246fa33a",
    "verify": "704fee6a7db3a004dfa34b5eed75e69f9faa51b0765eb1235e07af26c81462c8",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_matches_golden_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):  # and again from the same process's parser
        code, out, _ = run_cli(capsys, [*command.split(), "--help"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


# One parser serves every call in a process: no call may leave anything in
# it for the next.
SESSION = (
    ["exact", "--n", "6", "--m", "3", "--pmf"],
    ["simulate", "--model", "pattern", "--run-length", "1", "--n", "20", "--reps", "30",
     "--linear", "--seed", "4", "--grid", "0.5"],
    ["simulate", "--model", "runs", "--n", "20", "--reps", "30", "--seed", "4"],
    ["pattern", "--run-length", "2", "--report"],
    ["vconst", "--paths", "20", "--step", "0.01", "--horizon", "3", "--seed", "1"],
)


def test_repeated_calls_in_one_process_give_the_same_bytes(capsys):
    first = [run_cli(capsys, argv)[:2] for argv in SESSION]
    again = [run_cli(capsys, argv)[:2] for argv in reversed(SESSION)]
    assert all(code == 0 for code, _ in first)
    assert again[::-1] == first


def test_an_override_reaches_only_its_own_call(capsys):
    argv = ["verify", "--scale", "quick", "--seed", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    override = argv + ["--override-constant", "runs-variance-rate=0.125"]
    assert run_cli(capsys, override)[0] == 1
    code, again, _ = run_cli(capsys, argv)
    assert code == 0
    assert without_runtime(again) == without_runtime(out)
    assert cli._build_parser().parse_args(["verify"]).override_constant == []


@pytest.mark.parametrize("interrupt", [["--version"], ["exact", "--n", "x"], ["verify", "--bad"],
                                       ["simulate", "--help"]])
def test_argparse_exits_leave_the_next_call_unchanged(capsys, interrupt):
    argv = ["exact", "--n", "5", "--m", "2", "--pmf"]
    before = run_cli(capsys, argv)
    code = run_cli(capsys, interrupt)[0]
    assert code == (0 if interrupt[-1] in ("--version", "--help") else 2)
    assert run_cli(capsys, argv) == before
