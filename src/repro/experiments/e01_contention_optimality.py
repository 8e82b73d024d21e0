"""E1 — Theorem 3: the scheme's contention is O(1/n) ~ O(1/s).

For each n we build the low-contention dictionary and compute the
*exact* contention matrix under three uniform-within-class
distributions (pure positive, pure negative, balanced).  The paper
predicts ``max_{t,j} Phi_t(j) = O(1/n)``; since s = Theta(n), the
normalized quantity ``s * max Phi_t`` should stay bounded by a small
constant as n grows — that is the table's rightmost column.
"""

from __future__ import annotations

from repro.contention import exact_contention
from repro.core.analysis import predicted_step_bounds
from repro.experiments.common import (
    build_scheme,
    make_instance,
    size_ladder,
    uniform_distribution,
)
from repro.io.results import ExperimentResult

CLAIM = (
    "Theorem 3: an (O(n), b, O(1), O(1/n))-balanced scheme exists for "
    "uniform positive/negative membership queries; max step contention "
    "times s stays O(1)."
)


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    sizes = size_ladder(fast, [128, 256, 512, 1024, 2048], [128, 256])
    rows = []
    worst_norm = 0.0
    for n in sizes:
        keys, N = make_instance(n, seed)
        d = build_scheme("low-contention", keys, N, seed + 1)
        for label, p in (("positive", 1.0), ("negative", 0.0), ("mixed", 0.5)):
            predicted = predicted_step_bounds(d.construction, N, p)
            dist = uniform_distribution(keys, N, p)
            matrix = exact_contention(d, dist)
            phi = matrix.max_step_contention()
            worst_norm = max(worst_norm, phi * d.params.s)
            rows.append(
                {
                    "n": n,
                    "s": d.params.s,
                    "queries": label,
                    "max_step_phi": phi,
                    "n*phi": round(phi * n, 3),
                    "s*phi (bounded?)": round(phi * d.params.s, 3),
                    "predicted_bound*s": round(predicted.overall * d.params.s, 3),
                }
            )
    if not fast:
        # Larger n via the Rao-Blackwellized estimator (exact
        # enumeration of all N = n**2 queries would be O(n**2); the
        # estimator samples queries but integrates probe randomness
        # analytically, so only the query draw is noisy).  Taking the
        # max over ~10^4 noisy cells inflates the estimate (max-of-
        # noise selection bias), so the sample budget is split into two
        # independent halves: each half *selects* its hottest cell and
        # the other half *evaluates* it — an estimate of Phi at a real
        # cell with no selection on its own noise.  The gap between the
        # plain max and the cross-fitted value is the bias estimate
        # reported alongside.
        import numpy as np

        from repro.contention import sampled_contention
        from repro.utils.rng import as_generator

        for n in (4096, 8192, 16384):
            keys, N = make_instance(n, seed)
            d = build_scheme("low-contention", keys, N, seed + 1)
            dist = uniform_distribution(keys, N, 0.5)
            half_a = sampled_contention(
                d, dist, num_samples=200_000, rng=as_generator(seed + 5)
            ).phi
            half_b = sampled_contention(
                d, dist, num_samples=200_000, rng=as_generator(seed + 6)
            ).phi
            steps = max(half_a.shape[0], half_b.shape[0])
            a = np.zeros((steps, half_a.shape[1]))
            b = np.zeros((steps, half_b.shape[1]))
            a[: half_a.shape[0]] = half_a
            b[: half_b.shape[0]] = half_b
            phi = float(((a + b) / 2.0).max())
            hot_a = np.unravel_index(np.argmax(a), a.shape)
            hot_b = np.unravel_index(np.argmax(b), b.shape)
            holdout = float((b[hot_a] + a[hot_b]) / 2.0)
            worst_norm = max(worst_norm, phi * d.params.s)
            rows.append(
                {
                    "n": n,
                    "s": d.params.s,
                    "queries": "mixed (RB-sampled)",
                    "max_step_phi": phi,
                    "n*phi": round(phi * n, 3),
                    "s*phi (bounded?)": round(phi * d.params.s, 3),
                    "s*phi (holdout)": round(holdout * d.params.s, 3),
                    "max_bias_est": round((phi - holdout) * d.params.s, 3),
                }
            )
    # Gate: s * phi stays under 4 on every row, and each exactly
    # enumerated row sits under core.analysis's closed-form bound (the
    # table rounds predicted_bound*s to 3 decimals; for pure positives
    # the bound is tight, so the rounding slack is allowed).
    passed = all(
        row["s*phi (bounded?)"] < 4.0
        and (
            "predicted_bound*s" not in row
            or row["max_step_phi"]
            <= (row["predicted_bound*s"] + 5e-4) / row["s"]
        )
        for row in rows
    )
    return ExperimentResult(
        experiment_id="E1",
        title="Low-contention dictionary: contention optimality",
        claim=CLAIM,
        rows=rows,
        finding=(
            f"s * max-step-contention stays <= {worst_norm:.2f} across the "
            "sweep (a constant, as Theorem 3 predicts); the closed-form "
            "per-step bounds of core.analysis dominate every measurement."
        ),
        notes=(
            "RB-sampled rows (large n) estimate a maximum over ~10^4 "
            "cells from 4*10^5 samples, so their max_step_phi carries an "
            "upward max-of-noise selection bias relative to the exact "
            "rows; the 's*phi (holdout)' column cross-fits the estimate "
            "(each half-sample evaluates the other half's hottest cell) "
            "to remove it, and 'max_bias_est' is the measured inflation "
            "(plain minus holdout, in s*phi units)."
        ),
        passed=passed,
    )
