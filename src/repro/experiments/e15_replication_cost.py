"""E15 — the space cost of reaching O(1/n) contention by replication.

Section 1.3 notes contention "can be decreased by storing the hash
function redundantly"; the degenerate endpoint is replicating the whole
structure R times (contention divides exactly by R — verified by the
engine).  This experiment asks: *how much space does each baseline need
to match Theorem 3's contention target* phi <= c/n (we use the measured
low-contention value as c)?

Since replication divides contention exactly by R, the required R is
ceil(phi_1 / target) and the required space is R * inner_space — an
analytic consequence we also spot-check by building one replicated
instance per scheme.  Expected shape: binary search needs R = Theta(n)
(Theta(n^2) total words), FKS/cuckoo R = Theta(hot-cell mass * n)
(superlinear), while the paper's construction hits the target in O(n)
words — replication *of the right cells, sized by the load structure*,
is the whole design.
"""

from __future__ import annotations

import math

import numpy as np

from repro.contention import exact_contention
from repro.dictionaries.replicated import ReplicatedDictionary
from repro.experiments.common import (
    build_scheme,
    make_instance,
    size_ladder,
    uniform_distribution,
)
from repro.io.results import ExperimentResult

CLAIM = (
    "Section 1.3 / Theorem 3: redundant storage lowers contention, but "
    "matching O(1/n) by whole-structure replication costs the baselines "
    "superlinear space; the paper's scheme does it in O(n) words."
)

_SCHEMES = ("low-contention", "fks", "cuckoo", "binary-search")


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    sizes = size_ladder(fast, [256, 1024], [256])
    rows = []
    for n in sizes:
        keys, N = make_instance(n, seed)
        dist = uniform_distribution(keys, N, 0.5)
        lcd = build_scheme("low-contention", keys, N, seed + 1)
        target = exact_contention(lcd, dist).max_step_contention()
        for name in _SCHEMES:
            d = build_scheme(name, keys, N, seed + 1)
            phi1 = exact_contention(d, dist).max_step_contention()
            r_needed = max(1, math.ceil(phi1 / target))
            space = r_needed * d.space_words
            entry = {
                "n": n,
                "scheme": name,
                "phi (R=1)": phi1,
                "target=lcd phi": target,
                "R needed": r_needed,
                "space to target": space,
                "space/n": round(space / n, 1),
            }
            # Spot-check the analytic R on a measurable size (the exact
            # 1/R law is property-tested separately; huge R would only
            # cost time here).
            if 1 < r_needed <= 64:
                rep = ReplicatedDictionary(d, r_needed)
                measured = exact_contention(rep, dist).max_step_contention()
                entry["replicated phi (measured)"] = measured
                assert measured <= target * 1.0000001
            rows.append(entry)
    lcd_rows = [r for r in rows if r["scheme"] == "low-contention"]
    bin_rows = [r for r in rows if r["scheme"] == "binary-search"]
    # At the largest n, replicated binary search needs over 10x the
    # low-contention scheme's space to reach the same contention.
    passed = (
        bin_rows[-1]["space to target"] > 10 * lcd_rows[-1]["space to target"]
    )
    return ExperimentResult(
        experiment_id="E15",
        title="Space needed to reach the O(1/n) contention target",
        claim=CLAIM,
        rows=rows,
        finding=(
            f"Binary search needs R ~ n replicas (space/n = "
            f"{bin_rows[-1]['space/n']} at n={bin_rows[-1]['n']}, i.e. "
            "Theta(n^2) words); FKS/cuckoo need small R whose growth "
            "follows their hot-cell blowup (log-like), so at these n "
            "replicated cuckoo is actually space-competitive — the "
            "low-contention scheme's advantage (already at target with "
            f"{lcd_rows[-1]['space/n']} words/key, R growing not at all) "
            "is asymptotic, exactly as §1.3's Theta-comparisons state."
        ),
        passed=passed,
    )
