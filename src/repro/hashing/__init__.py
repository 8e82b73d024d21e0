"""Hash families built from scratch (paper Section 2.1).

- :mod:`~repro.hashing.polynomial` — Carter–Wegman degree-(d−1)
  polynomials over GF(p): the d-wise independent family ``H^d_m`` [1].
- :mod:`~repro.hashing.dm` — the Dietzfelbinger–Meyer auf der Heide
  family ``R^d_{r,m}`` of Definition 4:
  ``h_{f,g,z}(x) = (f(x) + z_{g(x)}) mod m``.
- :mod:`~repro.hashing.perfect` — FKS-style quadratic-space perfect
  hashing of a single bucket, with single-word packed parameters.
- :mod:`~repro.hashing.multiply_shift` — 2-universal multiply-shift
  (speed/quality comparison baseline).
- :mod:`~repro.hashing.tabulation` — simple tabulation hashing
  (3-independent; extension).

All functions evaluate both scalar (``h(x)``) and vectorized
(``h.eval_batch(xs)``) with exact agreement; the vectorized path is pure
uint64 Horner (primes are capped at ``2**31 - 1`` so products never
overflow — see :mod:`repro.utils.primes`).
"""

from repro.hashing.base import HashFamily, HashFunction
from repro.hashing.dm import DMFamily, DMHashFunction
from repro.hashing.multiply_shift import MultiplyShiftFamily
from repro.hashing.perfect import (
    PerfectHashFunction,
    find_perfect_hash,
    find_perfect_hashes,
)
from repro.hashing.planted import PlantedBlockFamily, PlantedBlockFunction
from repro.hashing.polynomial import PolynomialFamily, PolynomialHashFunction
from repro.hashing.tabulation import TabulationFamily

__all__ = [
    "HashFamily",
    "HashFunction",
    "PolynomialFamily",
    "PolynomialHashFunction",
    "DMFamily",
    "DMHashFunction",
    "PerfectHashFunction",
    "find_perfect_hash",
    "find_perfect_hashes",
    "MultiplyShiftFamily",
    "TabulationFamily",
    "PlantedBlockFamily",
    "PlantedBlockFunction",
]
