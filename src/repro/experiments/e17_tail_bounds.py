"""E17 — sharpness of the paper's tail bounds (Theorems 6-8).

Lemma 9 is powered by three probability tools: the d-wise-independence
moment bound (Theorem 6), Hoeffding for bounded independent summands
(Theorem 7), and DM's Fact 2.2 (Theorem 8).  This experiment measures
the *actual* tail probabilities of the corresponding events over many
hash draws and sets them against the bounds — quantifying how much
slack Lemma 9 (and hence the acceptance rates of E7) inherits.

Events measured, matching each theorem's setting:

- T6: a fixed g-bucket's load deviating by t over its mean, g from the
  degree-d polynomial family (d-wise independent indicators);
- T7: a group load reaching c * mean under the DM family's shifted
  sums (the Lemma 9(2) application, c = 2e);
- T8: any bucket of an H^d_m draw exceeding load d, with m <= 2n/d.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.tailbounds import (
    dwise_tail_bound,
    fact22_bound,
    hoeffding_tail_bound,
)
from repro.experiments.common import make_instance, size_ladder
from repro.hashing import DMFamily, PolynomialFamily
from repro.io.results import ExperimentResult
from repro.utils.primes import field_prime_for_universe
from repro.utils.rng import as_generator

CLAIM = (
    "Theorems 6-8 (the paper's probability toolkit) upper-bound the "
    "load-deviation tails used in Lemma 9; bounds must dominate the "
    "measured frequencies."
)


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    rng = as_generator(seed)
    n = 256 if fast else 1024
    trials = 400 if fast else 2000
    keys, N = make_instance(n, seed)
    prime = field_prime_for_universe(N)
    rows = []

    # Theorem 6: fixed-bucket deviation under a d-wise family.
    d = 4
    r = max(2, round(n**0.5))
    g_family = PolynomialFamily(prime, r, d)
    mean = n / r
    for t_mult in (1.0, 2.0):
        t = t_mult * mean
        exceed = 0
        for _ in range(trials):
            g = g_family.sample(rng)
            if int(g.loads(keys)[0]) - mean > t:
                exceed += 1
        bound = dwise_tail_bound(mean, t, d)
        rows.append(
            {
                "theorem": "T6 (d-wise moments)",
                "event": f"load - mean > {t_mult:.0f}*mean (one bucket)",
                "measured": exceed / trials,
                "bound": round(bound, 5),
                "bound holds": exceed / trials <= bound + 3 / trials,
            }
        )

    # Theorem 7 via Lemma 9(2): group load >= c * mean under DM.
    c = 2 * math.e
    m = max(2, round(n / (1.25 * math.log(n))))
    dm = DMFamily(prime, m, r, 3)
    mean_group = n / m
    exceed = 0
    for _ in range(trials):
        h = dm.sample(rng)
        if int(h.loads(keys).max()) >= c * mean_group:
            exceed += 1
    # Union bound over m groups of the Hoeffding tail with range d=3+.
    bound = min(1.0, m * hoeffding_tail_bound(mean_group, c, 4.0))
    rows.append(
        {
            "theorem": "T7 (Hoeffding, L9(2))",
            "event": f"any group load >= {c:.2f}*mean",
            "measured": exceed / trials,
            "bound": round(bound, 5),
            "bound holds": exceed / trials <= bound + 3 / trials,
        }
    )

    # Theorem 8 / Fact 2.2 in the regime Lemma 9's proof uses it: a
    # coarse g-bucket of k ~ c*alpha*ln n elements hashed into m groups
    # with m >> k, where the n(2n/m)^d form is non-vacuous.  (As quoted,
    # the theorem's "m <= 2n/d" precondition makes its own bound >= 1 —
    # see the errata notes in EXPERIMENTS.md.)
    d8 = 3
    k8 = max(4, round(c * 1.25 * math.log(n)))
    bucket = keys[:k8]
    # The bound n(2n/m)^d is informative only once m > 2 k^(1+1/d) —
    # asymptotically true for Lemma 9's m = n/(alpha ln n) vs bucket
    # size Theta(log n), but not yet at feasible n, so we evaluate at a
    # range size in the informative regime.
    m8 = max(m, int(4 * k8 ** (1.0 + 1.0 / d8)))
    f_family = PolynomialFamily(prime, m8, d8)
    exceed = 0
    for _ in range(trials):
        f = f_family.sample(rng)
        if int(f.loads(bucket).max()) > d8:
            exceed += 1
    bound8 = fact22_bound(k8, m8, d8)
    rows.append(
        {
            "theorem": "T8 (Fact 2.2)",
            "event": f"any load > {d8}: {k8} keys into m = {m8}",
            "measured": exceed / trials,
            "bound": round(bound8, 5),
            "bound holds": exceed / trials <= bound8 + 3 / trials,
        }
    )
    slack = [
        (r_["bound"] / r_["measured"]) if r_["measured"] > 0 else float("inf")
        for r_ in rows
    ]
    finite = [v for v in slack if np.isfinite(v)]
    passed = all(r["bound holds"] for r in rows)
    return ExperimentResult(
        experiment_id="E17",
        title="Tail-bound sharpness (Theorems 6-8)",
        claim=CLAIM,
        rows=rows,
        finding=(
            "Every bound dominates its measured tail (as it must); the "
            "slack ranges from ~"
            + (f"{min(finite):.0f}x" if finite else "inf")
            + " up to events the bounds allow but that never occur in "
            f"{trials} draws — the conservatism that makes E7's "
            "acceptance rates ~1.0 against Lemma 9's 1/2 guarantee."
        ),
        passed=passed,
    )
