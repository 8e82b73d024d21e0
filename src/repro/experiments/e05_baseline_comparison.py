"""E5 — Section 1.3: the baseline comparison table.

The paper: with redundantly stored hash functions, FKS achieves maximum
contention Theta(sqrt(n)) x optimal, DM and cuckoo hashing
Theta(ln n / ln ln n) x optimal, while the new scheme is O(1) x optimal
(and binary search is Theta(n) x optimal — the middle cell).

All baselines here run with full parameter-row replication (the §1.3
"storing the hash function redundantly" setting) so the measured blowup
comes from the *structural* hot spots: bucket-header cells (FKS/DM),
table-cell multiplicity (cuckoo), the root probe (binary search).  We
report the ratio max_step_phi / (1/s) per scheme per n and fit each
scheme's series against the paper's growth laws.

Calibration note: the paper's Theta(sqrt n) for FKS is the *worst-case*
guarantee of a 2-universal family; random polynomial instances on
random key sets typically show the fully-random log n / log log n
profile instead, so the fitted law distinguishes "grows like a log
power" from "stays constant" rather than certifying the exact exponent
— EXPERIMENTS.md discusses this.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import best_growth_law
from repro.contention import exact_contention
from repro.experiments.common import (
    build_scheme,
    make_instance,
    size_ladder,
    uniform_distribution,
)
from repro.io.results import ExperimentResult

CLAIM = (
    "Section 1.3: replicated-hash FKS is Theta(sqrt n) x optimal, DM and "
    "cuckoo Theta(ln n / ln ln n) x optimal; the new scheme (Theorem 3) "
    "is O(1) x optimal; binary search's middle cell is Theta(n) x optimal."
)

_SCHEMES = ("low-contention", "fks", "dm", "cuckoo", "binary-search")
_CANDIDATE_LAWS = ["const", "loglog(n)", "log(n)/loglog(n)", "log(n)", "sqrt(n)", "n"]


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    sizes = size_ladder(fast, [128, 256, 512, 1024, 2048], [128, 256, 512])
    rows = []
    series: dict[str, list[float]] = {name: [] for name in _SCHEMES}
    for n in sizes:
        keys, N = make_instance(n, seed)
        dist = uniform_distribution(keys, N, 0.5)
        for name in _SCHEMES:
            d = build_scheme(name, keys, N, seed + 1)
            matrix = exact_contention(d, dist)
            phi = matrix.max_step_contention()
            ratio = phi * d.table.s
            series[name].append(ratio)
            rows.append(
                {
                    "n": n,
                    "scheme": name,
                    "max_step_phi": phi,
                    "ratio_vs_optimal": round(ratio, 2),
                    "E[probes]": round(matrix.expected_probes(), 2),
                }
            )
    # The paper's ordering at every n: the new scheme below FKS, DM and
    # cuckoo, and binary search more than 10x above it; the scheme's
    # own ratio fits a constant.
    by_scheme = {name: [] for name in _SCHEMES}
    for row in rows:
        by_scheme[row["scheme"]].append(row["ratio_vs_optimal"])
    lcd = by_scheme["low-contention"]
    ranked = all(
        lcd[i] < min(by_scheme[name][i] for name in ("fks", "dm", "cuckoo"))
        and by_scheme["binary-search"][i] > 10 * lcd[i]
        for i in range(len(sizes))
    )
    fits = []
    for name in _SCHEMES:
        best, _ = best_growth_law(
            np.array(sizes, dtype=float), np.array(series[name]), _CANDIDATE_LAWS
        )
        fits.append(f"{name}: best fit {best.law} (err {best.mean_relative_error:.2f})")
    passed = ranked and "low-contention: best fit const" in "; ".join(fits)
    return ExperimentResult(
        experiment_id="E5",
        title="Contention ratio vs optimal across schemes",
        claim=CLAIM,
        rows=rows,
        finding="; ".join(fits),
        notes=(
            "Baselines use full parameter replication; their residual "
            "blowup is structural (headers / cell multiplicity / root)."
        ),
        passed=passed,
    )
