"""Verification harness plumbing at the quick scale.

The full scale is exercised (and timed) by the acceptance suite; here we
only need the quick tier green, the override hook live, and the check
registry stable.
"""

import hashlib
from dataclasses import astuple, replace

import pytest

from runslab import cli, patterns, verify
from runslab.evolve import run_sweep
from runslab.patterns import run_length_pattern
from runslab.verify import REFERENCES, run_checks

QUICK_NAMES = [
    "exact-moments",
    "small-max-exact",
    "pattern-closed-forms",
    "random-route-agreement",
    "limit-model-identities",
]


def test_check_registry_names():
    full = [name for name, _, _ in verify.CHECKS]
    assert [name for name, tier, _ in verify.CHECKS if tier == "quick"] == QUICK_NAMES
    assert full[: len(QUICK_NAMES)] == QUICK_NAMES
    assert set(full) - set(QUICK_NAMES) == {
        "small-max-mc",
        "reference-maxima",
        "desk-scale-max",
        "parabola-mean",
        "covariance-grids",
        "queues",
        "pattern-max-mc",
    }


def test_quick_scale_passes():
    result = run_checks("quick")
    assert result.passed, [r.describe() for r in result.failures]
    assert result.scale == "quick"
    assert result.base_seed == 0
    assert result.elapsed > 0
    assert {r.quantity for r in result.reports} >= {
        "exact-pmf-enumeration-failures",
        "small-max-enumeration-vs-dp-failures",
        "runs-peak-mean",
        "random-window-route-failures",
        "exact-moments-runtime-seconds",
    }


def test_progress_callback_sees_every_check():
    seen = []
    run_checks("quick", progress=lambda name, reports: seen.append(name))
    assert seen == QUICK_NAMES


def test_override_injects_a_failure():
    # Shifting a closed-form reference must break the comparison: the
    # harness is not allowed to pass vacuously.
    result = run_checks("quick", overrides={"runs-variance-rate": 1 / 8})
    assert not result.passed
    failing = {r.quantity for r in result.failures}
    assert "runs-variance-rate" in failing


def test_unknown_override_and_scale_rejected():
    with pytest.raises(ValueError):
        run_checks("quick", overrides={"no-such-reference": 1.0})
    with pytest.raises(ValueError):
        run_checks("medium")


@pytest.mark.parametrize("scale", ["quick", "full"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_run_checks_refuses_jobs_below_one_before_any_check(scale, jobs):
    seen = []
    with pytest.raises(ValueError, match=f"need jobs >= 1, got {jobs}"):
        run_checks(scale, jobs=jobs, progress=lambda name, reports: seen.append(name))
    assert seen == []


def test_references_table_spot_values():
    assert REFERENCES["brownian-parabola-mean"] == pytest.approx(0.996193)
    assert REFERENCES["runs-variance-rate"] == pytest.approx(1 / 16)
    assert REFERENCES["run-length-1-variance-rate"] == pytest.approx(76 / 729)
    assert REFERENCES["run-length-1-jump-variance"] == pytest.approx(80 / 81)


# -- row pins ----------------------------------------------------------------
#
# The Monte Carlo checks are too slow for this tier at their agreed sizes,
# so their row assembly is pinned on the same sweeps shrunk to n <= 60 and
# reps <= 40: each row keeps the full-scale model, n, reps and seed it
# names, and only the sampled values come from the small sweep.

MC_CHECKS = (
    verify._check_small_max_mc,
    verify._check_reference_maxima,
    verify._check_desk_scale,
    verify._check_queues,
    verify._check_pattern_max_mc,
)

# SHA-256 over the rows of MC_CHECKS (wall-time rows dropped), recorded
# while each check still built its sweep and its cube-root term inline.
MC_ROWS_DIGEST = "c41ffb5207b8463e469aa726f10f14e6cebc658673f2b73e0fbdc3ad7ded5aa0"


def _shrunk_sweep(config):
    return run_sweep(replace(config, n=min(config.n, 60), reps=min(config.reps, 40)))


def test_monte_carlo_rows_match_golden_digest(monkeypatch):
    monkeypatch.setattr(verify, "run_sweep", _shrunk_sweep)
    ctx = verify.VerifyContext(base_seed=0)
    rows = [
        repr(astuple(report))
        for check in MC_CHECKS
        for report in check(ctx)
        if not report.quantity.endswith("-runtime-seconds")
    ]
    assert len(rows) == 15
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == MC_ROWS_DIGEST


def _count_calls(monkeypatch, name):
    """Count every call of patterns.<name>, under each name it has."""
    calls = []
    exact = getattr(patterns, name)

    def counted(pattern):
        calls.append(pattern)
        return exact(pattern)

    for module in (patterns, cli, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_pattern_report_decomposes_once(monkeypatch, capsys):
    decompositions = _count_calls(monkeypatch, "decompose_fluctuations")
    assert cli.main(["pattern", "--run-length", "2", "--report"]) == 0
    assert "variance-share-" in capsys.readouterr().out
    assert len(decompositions) == 1


@pytest.mark.parametrize(
    "check,extra", [(verify._check_random_routes, 0), (verify._check_limit_models, 1)]
)
def test_checks_decompose_once_per_summary(monkeypatch, check, extra):
    # random routes: one decomposition per summarize call (admissible or
    # not); limit models: those, plus one for the runs covariance points.
    decompositions = _count_calls(monkeypatch, "decompose_fluctuations")
    summaries = _count_calls(monkeypatch, "summarize")
    check(verify.VerifyContext(base_seed=0))
    assert summaries
    assert len(decompositions) == len(summaries) + extra


def test_quick_scale_summarizes_run_length_1_once(monkeypatch):
    # the closed-form constants, d = 1 of the closed-form loop and the drift
    # row all read one summary
    summaries = _count_calls(monkeypatch, "summarize")
    assert run_checks("quick").passed
    assert summaries.count(run_length_pattern(1)) == 1
