"""The paper's contribution: the low-contention static dictionary.

Section 2 of the paper constructs, for the membership problem under
query distributions uniform within the positive and within the negative
queries, an ``(O(n), b, O(1), O(1/n))``-balanced-cell-probing scheme:
linear space, constant probes, and contention O(1/n) on *every* cell at
*every* step — all three asymptotically optimal.

- :class:`~repro.core.params.SchemeParameters` — the constants
  (c = 2e, d, delta, alpha, beta) with Lemma 9's validity constraints
  and the derived sizes (r, m, s, group size, rho).
- :mod:`~repro.core.construction` — sampling (f, g, z) until property
  P(S) holds, the row layout, GBAS, group histograms, and per-bucket
  perfect hashing (Section 2.2).
- :class:`~repro.core.dictionary.LowContentionDictionary` — the facade:
  honest 4-phase randomized queries (Section 2.3) plus the analytic
  probe plans used by the contention engine.
- :mod:`~repro.core.analysis` — closed-form per-step contention bounds
  to compare measured against predicted.
"""

from repro.core.construction import (
    ConstructionResult,
    construct,
    construct_lockstep,
)
from repro.core.dictionary import LowContentionDictionary
from repro.core.params import SchemeParameters
from repro.core.verification import verify_dictionary, verify_table

__all__ = [
    "SchemeParameters",
    "construct",
    "construct_lockstep",
    "ConstructionResult",
    "LowContentionDictionary",
    "verify_table",
    "verify_dictionary",
]
