"""E3 — Theorem 3: linear space.

The table is (2d + rho + 4) rows of s = beta*n (rounded to a multiple
of m) cells: O(n) words total.  The table reports words-per-key across
the sweep — it should approach the constant rows * beta — alongside the
space of the baselines for context (binary search is the 1-word/key
floor; FKS pays the sum-of-squares data region).
"""

from __future__ import annotations

from repro.experiments.common import (
    CORE_SCHEMES,
    build_scheme,
    make_instance,
    size_ladder,
)
from repro.io.results import ExperimentResult

CLAIM = (
    "Theorem 3: the scheme uses linear space — (2d + rho + 2) rows of "
    "s = O(n) words in the paper's accounting (2d + rho + 4 in ours; "
    "see EXPERIMENTS.md on the paper's row-count off-by-ones)."
)


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Run the experiment; ``fast`` shrinks ladders, ``seed`` fixes RNG."""
    sizes = size_ladder(fast, [128, 256, 512, 1024, 2048, 4096], [128, 512])
    rows = []
    for n in sizes:
        keys, N = make_instance(n, seed)
        for name in ("low-contention", "fks", "cuckoo", "binary-search"):
            d = build_scheme(name, keys, N, seed + 1)
            entry = {
                "n": n,
                "scheme": name,
                "space_words": d.space_words,
                "words_per_key": round(d.space_words / n, 2),
            }
            if name == "low-contention":
                entry["rows*beta"] = round(
                    d.params.num_rows * d.params.s / n, 2
                )
            rows.append(entry)
    lcd = [r for r in rows if r["scheme"] == "low-contention"]
    # Linear space: words/key varies by under 30% across the sweep.
    per_key = [r["words_per_key"] for r in lcd]
    passed = max(per_key) / min(per_key) < 1.3
    return ExperimentResult(
        experiment_id="E3",
        title="Space usage: words per key",
        claim=CLAIM,
        rows=rows,
        finding=(
            "Low-contention words/key stays flat at "
            f"{min(r['words_per_key'] for r in lcd)}-"
            f"{max(r['words_per_key'] for r in lcd)} across the sweep — "
            "linear space with a moderate constant (rows * beta), "
            "1-2 orders above binary search's 1 word/key floor but "
            "within a small factor of FKS."
        ),
        passed=passed,
    )
