"""The E1–E26 experiment suite (see DESIGN.md section 3).

The paper has no tables or figures; each experiment here reifies one of
its quantitative claims as a regenerable table.  Use::

    from repro.experiments import run_experiment, EXPERIMENTS
    result = run_experiment("E1", fast=True, seed=0)
    print(result.render())

Each runner returns an :class:`repro.io.results.ExperimentResult`; the
``fast`` flag shrinks size ladders for CI use, every runner is
deterministic given ``seed``, and each decides its own acceptance check
(``result.passed``), on which ``repro run`` exits 1 when it fails.
"""

from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment

__all__ = ["EXPERIMENTS", "run_all", "run_experiment"]
