"""FKS-style per-bucket perfect hashing with single-word parameters.

A bucket of load ``l`` owns ``l**2`` cells (Section 2.2 / FKS [8]); a
random 2-universal function ``h*(x) = ((a*x + c) mod p) mod l**2`` is
injective on the bucket with probability at least 1/2 (birthday bound:
``C(l,2)/l**2 <= 1/2``), so rejection sampling finds a perfect hash in
expected <= 2 trials.  Both parameters are residues mod ``p < 2**31``, so
``(a, c)`` packs into one 64-bit table cell (:func:`repro.utils.bits.pack_pair`)
— the paper stores "the perfect hash function h*_i ... repeatedly in the
space owned by the bucket", one word per cell.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConstructionError, ParameterError
from repro.hashing.base import HashFunction
from repro.utils.bits import pack_pair, unpack_pair
from repro.utils.primes import MAX_VECTOR_PRIME, is_prime


def perfect_hash_eval(prime: int, a, c, range_size, xs) -> np.ndarray:
    """``((a*(x mod p) + c) mod p) mod range_size`` for each ``x`` in ``xs``.

    ``a``, ``c`` and ``range_size`` are uint64 scalars or arrays that
    broadcast against ``xs``, so many perfect hashes (one per key) are
    evaluated in one pass.  With ``a, c < p < 2**31`` the uint64
    products cannot overflow.
    """
    p = np.uint64(prime)
    x = np.asarray(xs).astype(np.uint64) % p
    v = (a * x + c) % p
    return (v % range_size).astype(np.int64)


class PerfectHashFunction(HashFunction):
    """``h*(x) = ((a*x + c) mod p) mod range_size`` packed into one word."""

    __slots__ = ("prime", "a", "c", "range_size")

    def __init__(self, prime: int, a: int, c: int, range_size: int):
        if not is_prime(prime) or prime > MAX_VECTOR_PRIME:
            raise ParameterError(f"invalid prime {prime}")
        if not (0 <= a < prime and 0 <= c < prime):
            raise ParameterError("parameters must lie in [0, prime)")
        if range_size < 1:
            raise ParameterError("range_size must be positive")
        self.prime = prime
        self.a = a
        self.c = c
        self.range_size = range_size

    def __call__(self, x: int) -> int:
        return ((self.a * (int(x) % self.prime) + self.c) % self.prime) % self.range_size

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return perfect_hash_eval(
            self.prime,
            np.uint64(self.a),
            np.uint64(self.c),
            np.uint64(self.range_size),
            xs,
        )

    def parameter_words(self) -> list[int]:
        return [self.packed_word()]

    def packed_word(self) -> int:
        """Both parameters packed into a single 64-bit cell value."""
        return pack_pair(self.a, self.c)

    @classmethod
    def from_packed_word(
        cls, word: int, prime: int, range_size: int
    ) -> "PerfectHashFunction":
        """Rebuild from a table cell; the query knows ``prime``/``range_size``
        (the former is a scheme constant, the latter comes from the decoded
        group histogram).  Parameters are reduced mod ``prime``: words
        written by construction are always in range, but a corrupted cell
        (:mod:`repro.faults`) may decode out of range, and a query must
        degrade to a wrong answer — never a crash — matching the batch
        path, which reduces implicitly."""
        a, c = unpack_pair(int(word))
        return cls(prime, a % prime, c % prime, range_size)

    def is_perfect_on(self, keys: np.ndarray) -> bool:
        """Whether this function is injective on ``keys``."""
        keys = np.asarray(keys)
        if keys.size <= 1:
            return True
        values = self.eval_batch(keys)
        return np.unique(values).size == values.size


def find_perfect_hash(
    keys: np.ndarray,
    prime: int,
    range_size: int,
    rng: np.random.Generator,
    max_trials: int = 1000,
) -> tuple[PerfectHashFunction, int]:
    """Rejection-sample a perfect hash of ``keys`` into ``[range_size]``.

    Returns ``(function, trials_used)``.  With ``range_size >= len(keys)**2``
    the expected number of trials is <= 2; ``max_trials`` is a safety net
    whose exhaustion (probability <= 2**-max_trials under correct sizing)
    raises :class:`ConstructionError`.
    """
    keys = np.asarray(keys)
    if range_size < max(1, keys.size):
        raise ParameterError(
            f"range_size={range_size} cannot perfectly hash {keys.size} keys"
        )
    for trial in range(1, max_trials + 1):
        a = int(rng.integers(0, prime))
        c = int(rng.integers(0, prime))
        h = PerfectHashFunction(prime, a, c, range_size)
        if h.is_perfect_on(keys):
            return h, trial
    raise ConstructionError(
        f"no perfect hash found for {keys.size} keys into [{range_size}] "
        f"after {max_trials} trials"
    )
