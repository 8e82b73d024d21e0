"""FKS-style per-bucket perfect hashing with single-word parameters.

A bucket of load ``l`` owns ``l**2`` cells (Section 2.2 / FKS [8]); a
random 2-universal function ``h*(x) = ((a*x + c) mod p) mod l**2`` is
injective on the bucket with probability at least 1/2 (birthday bound:
``C(l,2)/l**2 <= 1/2``), so rejection sampling finds a perfect hash in
expected <= 2 trials.  Both parameters are residues mod ``p < 2**31``, so
``(a, c)`` packs into one 64-bit table cell (:func:`repro.utils.bits.pack_pair`)
— the paper stores "the perfect hash function h*_i ... repeatedly in the
space owned by the bucket", one word per cell.

A build searches all its buckets with one :func:`find_perfect_hashes`
call, which draws in bulk but consumes exactly the random values of a
bucket-by-bucket search (:func:`find_perfect_hash` is its one-bucket
case).
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


def perfect_hash_functions(
    prime: int, a, c, range_sizes
) -> list[PerfectHashFunction]:
    """One :class:`PerfectHashFunction` per ``(a[i], c[i], range_sizes[i])``.

    The constructor's checks run once for the whole batch and the
    functions are then made without re-checking, so a build's tens of
    thousands of bucket functions cost no per-bucket primality test.
    The parameters are stored as Python ints.
    """
    a = np.asarray(a).tolist()
    c = np.asarray(c).tolist()
    sizes = np.asarray(range_sizes).tolist()
    if not is_prime(prime) or prime > MAX_VECTOR_PRIME:
        raise ParameterError(f"invalid prime {prime}")
    if a and not (0 <= min(min(a), min(c)) and max(max(a), max(c)) < prime):
        raise ParameterError("parameters must lie in [0, prime)")
    if sizes and min(sizes) < 1:
        raise ParameterError("range_size must be positive")
    out = []
    new = object.__new__
    cls = PerfectHashFunction
    for ai, ci, size in zip(a, c, sizes):
        h = new(cls)
        h.prime, h.a, h.c, h.range_size = prime, ai, ci, size
        out.append(h)
    return out


def find_perfect_hashes(
    keys,
    loads,
    prime: int,
    rng: np.random.Generator,
    max_trials: int = 1000,
    range_sizes=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection-sample a perfect hash for every bucket, in bucket order.

    ``keys`` holds the non-negative keys grouped by bucket: bucket ``i``
    is the ``loads[i]`` keys after those of the buckets before it, and
    loads that are negative or do not sum to ``len(keys)`` raise
    :class:`ParameterError` before any draw.  The
    search reads each bucket of two or more keys by its index range, so
    no per-bucket list is made.  Bucket ``i`` is hashed into
    ``[range_sizes[i]]``, by default its load squared (at least 1).
    Returns ``(a, c, trials)``, int64 arrays of each bucket's parameters
    and the trials it took.

    The values drawn are exactly those of a bucket-by-bucket search that
    makes one scalar ``rng.integers(0, prime)`` draw for ``a`` and one
    for ``c`` per trial:

    - every bucket takes at least one trial, so the first trial of every
      bucket is drawn in one ``rng.integers(0, prime, size=2 * buckets)``
      call without drawing past that search;
    - a bucket that retries takes the next pair of the drawn stream; when
      the stream runs out, one more call draws a pair per bucket still to
      finish, and a last call draws the pairs the buckets after the last
      retry still lack;
    - an int64 ``integers`` draw of size k gives the same values and the
      same generator state as k scalar draws, however the k are split;
    - when a bucket exhausts ``max_trials``, the generator is rewound to
      where the search began and exactly the values the bucket-by-bucket
      search would have consumed are redrawn, so the generator state
      after the :class:`ConstructionError` matches too.

    A bucket of at most one key takes its first pair.  Injectivity on a
    larger bucket is checked with Python ints on its keys (O(log n) of
    them in the schemes that call this).
    """
    if not is_prime(prime) or prime > MAX_VECTOR_PRIME:
        raise ParameterError(f"invalid prime {prime}")
    loads = np.asarray(loads, dtype=np.int64).tolist()
    key_list = np.asarray(keys, dtype=np.int64).tolist()
    count = len(loads)
    if min(loads, default=0) < 0 or sum(loads) != len(key_list):
        raise ParameterError(
            f"{count} bucket loads do not split {len(key_list)} keys"
        )
    if range_sizes is not None:
        range_sizes = [int(r) for r in range_sizes]
        for load, size in zip(loads, range_sizes):
            if size < max(1, load):
                raise ParameterError(
                    f"range_size={size} cannot perfectly hash {load} keys"
                )
    trials = np.ones(count, dtype=np.int64)
    if count == 0:
        return trials[:0], trials[:0], trials
    start_state = rng.bit_generator.state
    chunks = [rng.integers(0, prime, size=2 * count)]
    stream = chunks[0].tolist()
    failed = []  # stream pairs of failed trials, in stream order
    hi = 0  # bucket i's keys are key_list[hi - load : hi]
    for i, load in enumerate(loads):
        hi += load
        if load <= 1:
            continue
        bucket = key_list[hi - load : hi]
        size = load * load if range_sizes is None else range_sizes[i]
        pair = i + len(failed)  # bucket i's first trial
        for trial in range(1, max_trials + 1):
            while 2 * pair >= len(stream):
                chunks.append(rng.integers(0, prime, size=2 * (count - i)))
                stream.extend(chunks[-1].tolist())
            a, c = stream[2 * pair], stream[2 * pair + 1]
            # (a*x + c) mod p equals (a*(x mod p) + c) mod p for Python ints.
            if len({(a * x + c) % prime % size for x in bucket}) == load:
                break
            failed.append(pair)
            pair += 1
        else:
            rng.bit_generator.state = start_state
            rng.integers(0, prime, size=2 * pair)
            raise ConstructionError(
                f"no perfect hash found for {load} keys into [{size}] "
                f"after {max_trials} trials"
            )
        if trial > 1:
            trials[i] = trial
    short = 2 * (count + len(failed)) - len(stream)
    if short > 0:  # the buckets after the last retry still need their pairs
        chunks.append(rng.integers(0, prime, size=short))
    pairs = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    pairs = pairs.reshape(-1, 2)
    if failed:
        pairs = np.delete(pairs, failed, axis=0)
    return pairs[:, 0], pairs[:, 1], trials


def perfect_hash_buckets(
    sorted_keys: np.ndarray, loads: np.ndarray, prime: int, rng
) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Perfect-hash every bucket of keys grouped by bucket.

    ``sorted_keys`` holds bucket 0's ``loads[0]`` keys, then bucket 1's,
    and so on; the non-empty buckets are searched in bucket order by one
    :func:`find_perfect_hashes` call, each into ``load**2`` cells.
    Returns ``(inner, a, c, slots)``: ``inner[i]`` is bucket ``i``'s
    function (None when empty), ``a`` and ``c`` the int64 parameters of
    the non-empty buckets, and ``slots[k]`` the cell of ``sorted_keys[k]``
    within its bucket's span, all evaluated in one pass.
    """
    loads = np.asarray(loads, dtype=np.int64)
    nonempty = np.flatnonzero(loads)
    counts = loads[nonempty]
    a, c, _ = find_perfect_hashes(sorted_keys, counts, prime, rng)
    spans = counts * counts
    inner: list = [None] * len(loads)
    functions = perfect_hash_functions(prime, a, c, spans)
    for i, h in zip(nonempty.tolist(), functions):
        inner[i] = h
    per_key = np.repeat(
        np.array((a, c, spans), dtype=np.uint64), counts, axis=1
    )
    slots = perfect_hash_eval(
        prime, per_key[0], per_key[1], per_key[2], sorted_keys
    )
    return inner, a, c, slots


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
    raises :class:`ConstructionError`.  The one-bucket case of
    :func:`find_perfect_hashes`.
    """
    keys = np.asarray(keys, dtype=np.int64)
    a, c, trials = find_perfect_hashes(
        keys, [keys.size], prime, rng, max_trials, [range_size]
    )
    (h,) = perfect_hash_functions(prime, a, c, [range_size])
    return h, int(trials[0])
