"""Carter–Wegman polynomial hashing: the d-wise independent family H^d_m.

A uniformly random polynomial of degree ``d-1`` over GF(p),

    h(x) = ((a_{d-1} x^{d-1} + ... + a_1 x + a_0) mod p) mod m,

is exactly d-wise independent as a map ``[p] -> [p]``; the final ``mod m``
reduction introduces the usual O(m/p) deviation from uniformity, which is
negligible for our parameter ranges (p >= N >= n**2 while m <= O(n)) and
is quantified empirically in the test suite.

The vectorized evaluation is uint64 Horner with reduction after every
multiply-add; since ``p <= MAX_VECTOR_PRIME < 2**31``, all intermediates
fit in 63 bits (guide: vectorize the loop over *keys*, not the loop over
the d coefficients, which is O(1)).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.hashing.base import HashFamily, HashFunction
from repro.utils.primes import MAX_VECTOR_PRIME, is_prime
from repro.utils.validation import check_positive_integer


class PolynomialHashFunction(HashFunction):
    """A fixed degree-(d−1) polynomial over GF(p), reduced mod m."""

    __slots__ = ("prime", "range_size", "coefficients")

    def __init__(self, prime: int, range_size: int, coefficients):
        if not is_prime(prime):
            raise ParameterError(f"{prime} is not prime")
        if prime > MAX_VECTOR_PRIME:
            raise ParameterError(
                f"prime {prime} exceeds MAX_VECTOR_PRIME={MAX_VECTOR_PRIME}"
            )
        self.prime = prime
        self.range_size = check_positive_integer("range_size", range_size)
        coeffs = [int(c) for c in coefficients]
        if not coeffs:
            raise ParameterError("at least one coefficient required")
        if any(not 0 <= c < prime for c in coeffs):
            raise ParameterError("coefficients must lie in [0, prime)")
        # Stored lowest-degree first: coefficients[i] multiplies x**i.
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Independence degree d (= number of coefficients)."""
        return len(self.coefficients)

    def __call__(self, x: int) -> int:
        x = int(x) % self.prime
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % self.prime
        return acc % self.range_size

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if xs.size and int(xs.min(initial=0)) < 0:
            raise ParameterError("keys must be non-negative")
        x = xs.astype(np.uint64) % np.uint64(self.prime)
        acc = np.zeros(x.shape, dtype=np.uint64)
        p = np.uint64(self.prime)
        for c in reversed(self.coefficients):
            acc = (acc * x + np.uint64(c)) % p
        return (acc % np.uint64(self.range_size)).astype(np.int64)

    def parameter_words(self) -> list[int]:
        return list(self.coefficients)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolynomialHashFunction(p={self.prime}, m={self.range_size}, "
            f"d={self.degree})"
        )


def horner_eval_batch(
    word_arrays: list[np.ndarray],
    xs: np.ndarray,
    prime: int,
    range_size: int,
) -> np.ndarray:
    """Evaluate per-query polynomials whose coefficients come from probes.

    ``word_arrays[i]`` holds, for every query in the batch, the coefficient
    of ``x**i`` as read back from the table (lowest-degree first, matching
    :meth:`PolynomialHashFunction.parameter_words`).  All words must already
    lie in ``[0, prime)``; with ``prime < 2**31`` the uint64 Horner
    intermediates cannot overflow.  Returns int64 values in
    ``[0, range_size)``.

    Several polynomials of the same degree evaluate in one pass: give
    each ``word_arrays[i]`` shape ``(polys, batch)`` and ``range_size``
    shape ``(polys, 1)``; row ``j`` of the result is polynomial ``j``.
    """
    p = np.uint64(prime)
    x = np.asarray(xs, dtype=np.uint64) % p
    acc = np.asarray(word_arrays[-1], dtype=np.uint64) % p
    for words in reversed(word_arrays[:-1]):
        acc = (acc * x + np.asarray(words, dtype=np.uint64) % p) % p
    return (acc % np.asarray(range_size, dtype=np.uint64)).astype(np.int64)


class PolynomialFamily(HashFamily):
    """The family H^d_m: uniformly random degree-(d−1) polynomials.

    Parameters
    ----------
    prime:
        Field size; must satisfy ``prime >= universe size`` for genuine
        d-wise independence on the universe.
    range_size:
        The target range ``[m]``.
    degree:
        Independence degree ``d >= 1`` (number of coefficients).
    """

    def __init__(self, prime: int, range_size: int, degree: int):
        if not is_prime(prime):
            raise ParameterError(f"{prime} is not prime")
        if prime > MAX_VECTOR_PRIME:
            raise ParameterError(
                f"prime {prime} exceeds MAX_VECTOR_PRIME={MAX_VECTOR_PRIME}"
            )
        self.prime = prime
        self.range_size = check_positive_integer("range_size", range_size)
        self.degree = check_positive_integer("degree", degree)

    def sample(self, rng: np.random.Generator) -> PolynomialHashFunction:
        coeffs = rng.integers(0, self.prime, size=self.degree)
        return PolynomialHashFunction(self.prime, self.range_size, coeffs.tolist())

    def from_parameter_words(self, words: list[int]) -> PolynomialHashFunction:
        if len(words) != self.degree:
            raise ParameterError(
                f"expected {self.degree} parameter words, got {len(words)}"
            )
        return PolynomialHashFunction(self.prime, self.range_size, words)

    @property
    def words_per_function(self) -> int:
        return self.degree

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolynomialFamily(p={self.prime}, m={self.range_size}, "
            f"d={self.degree})"
        )
