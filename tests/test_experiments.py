"""Experiment registry: every runner produces a well-formed result.

E1/E5 are exercised for real (their findings are the headline claims);
the rest run in fast mode and are checked structurally.  Heavy runners
are marked slow-ish but still bounded to keep CI reasonable.
"""

import pytest

from repro.errors import ParameterError
from repro.experiments import EXPERIMENTS, run_experiment

ALL_IDS = list(EXPERIMENTS)


def test_registry_complete():
    assert ALL_IDS == [f"E{i}" for i in range(1, 27)]
    for eid, (title, runner) in EXPERIMENTS.items():
        assert callable(runner) and title


def test_unknown_experiment():
    with pytest.raises(ParameterError):
        run_experiment("E99")


def test_case_insensitive_lookup():
    result = run_experiment("e11", fast=True)
    assert result.experiment_id == "E11"


@pytest.mark.parametrize("eid", ALL_IDS)
def test_runner_produces_wellformed_result(eid):
    result = run_experiment(eid, fast=True, seed=0)
    assert result.experiment_id == eid
    assert result.rows, f"{eid} produced no rows"
    assert result.claim and result.title and result.finding
    assert isinstance(result.render(), str)
    assert all(isinstance(r, dict) for r in result.rows)


def test_e1_contention_is_near_optimal():
    result = run_experiment("E1", fast=True, seed=0)
    for row in result.rows:
        assert row["s*phi (bounded?)"] < 4.0
        # The table rounds predicted_bound*s to 3 decimals; for pure
        # positives the bound is tight, so allow the rounding slack.
        assert row["max_step_phi"] <= (row["predicted_bound*s"] + 5e-4) / row["s"]


def test_e4_trials_stay_constant():
    """Section 2.2: P(S) holds with probability >= 1/2 - o(1) per draw,
    so the mean number of trials stays a small constant at every n."""
    result = run_experiment("E4", fast=True, seed=0)
    assert max(row["mean_trials"] for row in result.rows) < 4


def test_e5_ranking_matches_paper():
    result = run_experiment("E5", fast=True, seed=0)
    by_scheme = {}
    for row in result.rows:
        by_scheme.setdefault(row["scheme"], []).append(row["ratio_vs_optimal"])
    # The paper's ordering at every n: new scheme < cuckoo/fks << binary.
    for i in range(len(by_scheme["low-contention"])):
        lcd = by_scheme["low-contention"][i]
        assert lcd < by_scheme["fks"][i]
        assert lcd < by_scheme["dm"][i]
        assert lcd < by_scheme["cuckoo"][i]
        assert by_scheme["binary-search"][i] > 10 * lcd


def test_e9_tstar_monotone():
    result = run_experiment("E9", fast=True, seed=0)
    ts = [r["t*(n)"] for r in result.rows if r.get("series") == "recursion"]
    assert ts == sorted(ts) and ts[-1] > ts[0]


def test_determinism_same_seed():
    a = run_experiment("E3", fast=True, seed=3)
    b = run_experiment("E3", fast=True, seed=3)
    assert a.rows == b.rows
