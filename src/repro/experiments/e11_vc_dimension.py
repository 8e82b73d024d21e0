"""E11 — Definition 11: VC-dimensions that instantiate Theorem 13.

The lower bound applies to "any problem which has a non-degenerate
subproblem of size n" — formally, VC-dimension n.  We verify each
problem's closed-form VC-dimension against exhaustive shatter search on
small instances, report Sauer–Shelah shatter coefficients, and list the
implied Omega(log log VC-dim) probe floor.  Membership (VC-dim = n) is
the paper's target; threshold (VC-dim 1) and intervals (VC-dim 2) are
the degenerate controls the theorem does *not* constrain.
"""

from __future__ import annotations

import math

from repro.io.results import ExperimentResult
from repro.lowerbound.recursion import information_deficit_tstar
from repro.problems import (
    IntervalStabbingProblem,
    MembershipProblem,
    ParityProblem,
    ThresholdProblem,
    vc_dimension_exact,
)
from repro.problems.vc import sauer_shelah_bound, shatter_coefficient

CLAIM = (
    "Definition 11 / Theorem 13: VC-dim(membership of n elements) = n, "
    "so membership inherits the Omega(log log n) bound; constant-VC "
    "problems are exempt."
)


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    instances = [
        ("membership N=6,n=3", MembershipProblem(6, 3), 3),
        ("membership N=8,n=2", MembershipProblem(8, 2), 2),
        ("membership N=8,n=6", MembershipProblem(8, 6), 2),  # min(n, N-n)
        ("threshold N=10", ThresholdProblem(10), 1),
        ("intervals N=10", IntervalStabbingProblem(10), 2),
        ("parity w=4", ParityProblem(4), 4),
    ]
    rows = []
    for label, problem, closed_form in instances:
        exact = vc_dimension_exact(problem, max_k=6)
        k = min(5, problem.query_count)
        coeff = shatter_coefficient(problem, k)
        rows.append(
            {
                "problem": label,
                "VC exact": exact,
                "VC closed form": closed_form,
                "agree": exact == closed_form,
                f"shatter coeff (k={k})": coeff,
                "Sauer-Shelah cap": sauer_shelah_bound(k, exact),
                "implied t* floor": information_deficit_tstar(max(exact, 4))
                if exact >= 4
                else "(degenerate)",
            }
        )
    passed = all(r["agree"] for r in rows)
    return ExperimentResult(
        experiment_id="E11",
        title="VC-dimension of data-structure problems",
        claim=CLAIM,
        rows=rows,
        finding=(
            "Exhaustive shatter search matches every closed form "
            "(membership's min(n, N-n) included) and shatter "
            "coefficients respect Sauer-Shelah; only problems with "
            "growing VC-dimension inherit the log log floor."
        ),
        passed=passed,
    )
