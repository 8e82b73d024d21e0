"""The ``StaticDictionary`` protocol and shared layout helpers.

Every dictionary in this library satisfies the same contract:

- ``query(x, rng)`` — the honest uniform query algorithm: computes its
  probe addresses *only* from the query, its own randomness, and values
  already read from the table (the paper's model: A may depend on f but
  not on S or q).
- ``probe_plan(x)`` — the analytic per-step probe distributions for
  query ``x``, computed from the builder's private state; used by the
  exact contention engine and validated against executions by
  :class:`~repro.cellprobe.machine.CellProbeMachine`.
- ``probe_plan_batch(xs)`` — the vectorized plan for a query batch.

Parameter words are laid out *interleaved* in a parameter row: word ``j``
of ``W`` is replicated at columns ``{j + k*W}``; a query reads each word
once at a uniformly random replica, giving per-word contention
``~W/s`` — the §1.3 "store the hash function redundantly" scheme.  With
``param_replication=1`` each word is stored once (columns ``j`` only),
recovering the classic high-contention layout.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.cellprobe.steps import BatchStridedStep, ProbeStep, UniformStrided
from repro.cellprobe.table import Table
from repro.errors import ParameterError, QueryError
from repro.hashing.perfect import perfect_hash_buckets
from repro.utils.bits import pack_pair_batch
from repro.utils.rng import as_generator


def resolve_replication(param_replication, s: int, words: int) -> int:
    """Number of replicas of each parameter word.

    ``"row"`` (default) spreads copies over the whole row: ``floor(s/W)``
    replicas of each of the ``W`` interleaved words.  An integer requests
    that many replicas (clipped to the row capacity).
    """
    capacity = s // words
    if capacity < 1:
        raise ParameterError(
            f"table width {s} cannot hold {words} interleaved parameter words"
        )
    if param_replication == "row":
        return capacity
    replication = int(param_replication)
    if replication < 1:
        raise ParameterError("param_replication must be >= 1 or 'row'")
    return min(replication, capacity)


def write_interleaved_params(
    table: Table, row: int, words: Sequence[int], replication: int
) -> None:
    """Store ``words[j]`` at columns ``j + k*W`` for ``k < replication``.

    The columns ``j + k*W`` are ``0 .. W*replication - 1`` in order, so
    the row is written with one scatter: the cells and ``writes`` of one
    :meth:`~repro.cellprobe.table.Table.write` per column.
    """
    words = [int(w) for w in words]
    table.write_cells(
        row, np.arange(len(words) * replication), words * replication
    )


def write_perfect_hash_buckets(
    table: Table,
    rows: tuple[int, int, int],
    bucket_of: np.ndarray,
    keys: np.ndarray,
    loads: np.ndarray,
    offsets: np.ndarray,
    prime: int,
    rng,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Level 2 of an FKS-style table: a perfect hash per non-empty bucket.

    ``bucket_of[k]`` is the level-1 bucket of ``keys[k]``; bucket ``i``
    owns ``loads[i]**2`` data cells from ``offsets[i]``.  One bulk search
    (:func:`~repro.hashing.perfect.find_perfect_hashes`) draws every
    non-empty bucket's perfect hash, in bucket order.  Then each of the
    three ``rows`` is written with one scatter: header A holds every
    bucket's ``(offset, load)``, header B each non-empty bucket's packed
    ``(a, c)``, and the data row key ``x`` of bucket ``i`` at
    ``offsets[i] + h*_i(x)``.

    Returns ``(inner, inner_a, inner_c)``: each bucket's function (None
    when empty) and the uint64 parameter arrays (0 when empty).
    """
    header_a, header_b, data_row = rows
    num_buckets = loads.size
    sorted_keys = np.asarray(keys)[np.argsort(bucket_of, kind="stable")]
    inner, a, c, slots = perfect_hash_buckets(sorted_keys, loads, prime, rng)
    nonempty = np.flatnonzero(loads)
    table.write_cells(
        header_a, np.arange(num_buckets), pack_pair_batch(offsets, loads)
    )
    table.write_cells(header_b, nonempty, pack_pair_batch(a, c))
    columns = np.repeat(offsets[nonempty], loads[nonempty]) + slots
    table.write_cells(data_row, columns, sorted_keys)
    inner_a = np.zeros(num_buckets, dtype=np.uint64)
    inner_c = np.zeros(num_buckets, dtype=np.uint64)
    inner_a[nonempty] = a
    inner_c[nonempty] = c
    return inner, inner_a, inner_c


def param_read_step(row: int, j: int, words: int, replication: int) -> UniformStrided:
    """The probe step reading parameter word ``j`` of ``words``."""
    return UniformStrided(row=row, start=j, stride=words, count=replication)


def param_read_steps(
    row: int, words: int, replication: int
) -> list[UniformStrided]:
    """One probe step per parameter word (each a uniform replica choice)."""
    return [param_read_step(row, j, words, replication) for j in range(words)]


def batch_from_step(step: ProbeStep, batch: int) -> BatchStridedStep:
    """Broadcast a single shared step over a batch (``shared=True``)."""
    if isinstance(step, UniformStrided):
        start, stride, count = step.start, step.stride, step.count
    else:
        support = step.support()
        if support.size != 1:
            raise ParameterError("only strided/fixed steps can be broadcast")
        start, stride, count = int(support[0]), 1, 1
    return BatchStridedStep(
        row=step.row,
        starts=np.full(batch, start, dtype=np.int64),
        strides=np.full(batch, stride, dtype=np.int64),
        counts=np.full(batch, count, dtype=np.int64),
        shared=True,
    )


def read_interleaved_params_batch(
    table: Table,
    row: int,
    words: int,
    replication: int,
    batch: int,
    rng: np.random.Generator,
    first_step: int = 0,
) -> list[np.ndarray]:
    """Read each interleaved parameter word once per query in a batch.

    Word ``j`` is probed at a uniformly random replica column
    ``j + k*words`` for every query (step ``first_step + j``), exactly as
    the scalar query algorithms do.  Returns one uint64 value array per
    word.
    """
    values = []
    for j in range(words):
        k = rng.integers(0, replication, size=batch)
        values.append(table.read_batch(row, j + k * words, first_step + j))
    return values


class StaticDictionary(abc.ABC):
    """A static membership dictionary over ``[universe_size]``.

    Subclasses set ``table``, ``keys`` (sorted int64 array) and
    ``universe_size`` during construction.
    """

    table: Table
    keys: np.ndarray
    universe_size: int

    #: Human-readable scheme name (used in experiment tables).
    name: str = "static"

    # -- queries -----------------------------------------------------------------

    @abc.abstractmethod
    def query(self, x: int, rng=None) -> bool:
        """Honest membership query; every table read is a charged probe."""

    @abc.abstractmethod
    def probe_plan(self, x: int) -> list[ProbeStep]:
        """Exact per-step probe distributions for query ``x``."""

    @abc.abstractmethod
    def probe_plan_batch(self, xs: np.ndarray) -> list[BatchStridedStep]:
        """Vectorized probe plans for a batch of queries."""

    def query_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        """Honest membership queries for a whole batch.

        Semantically equivalent to ``[self.query(x, rng) for x in xs]``
        (same probes charged, same per-step accounting); subclasses
        override with vectorized implementations.  This base fallback
        runs the scalar algorithm per key.
        """
        rng = as_generator(rng)
        xs = np.asarray(xs, dtype=np.int64)
        out = np.empty(xs.shape, dtype=bool)
        for i, x in enumerate(xs.ravel()):
            out.ravel()[i] = self.query(int(x), rng)
        return out

    # -- shared helpers -------------------------------------------------------------

    def check_keys_batch(self, xs: np.ndarray) -> np.ndarray:
        """Validate a batch of queries against the universe; returns int64."""
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and (
            int(xs.min()) < 0 or int(xs.max()) >= self.universe_size
        ):
            bad = xs[(xs < 0) | (xs >= self.universe_size)][0]
            raise QueryError(
                f"query {int(bad)} outside universe [0, {self.universe_size})"
            )
        return xs

    def contains(self, x: int) -> bool:
        """Ground-truth membership (no probes; used for verification)."""
        x = int(x)
        i = int(np.searchsorted(self.keys, x))
        return i < self.keys.size and int(self.keys[i]) == x

    def contains_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized ground-truth membership."""
        xs = np.asarray(xs, dtype=np.int64)
        idx = np.searchsorted(self.keys, xs)
        idx_c = np.minimum(idx, self.keys.size - 1)
        return (idx < self.keys.size) & (self.keys[idx_c] == xs)

    @property
    def n(self) -> int:
        """Number of stored keys."""
        return int(self.keys.size)

    @property
    def space_words(self) -> int:
        """Total space in b-bit words (the paper's s, times rows)."""
        return self.table.num_cells

    @property
    @abc.abstractmethod
    def max_probes(self) -> int:
        """Worst-case probes per query (the paper's t)."""

    def row_labels(self) -> list[str]:
        """Semantic name of each table row (for contention breakdowns)."""
        return [f"row{r}" for r in range(self.table.rows)]

    def check_key(self, x: int) -> int:
        """Validate that a query lies in the universe; returns it as int."""
        x = int(x)
        if not 0 <= x < self.universe_size:
            raise QueryError(
                f"query {x} outside universe [0, {self.universe_size})"
            )
        return x

    @staticmethod
    def _sorted_keys(keys, universe_size: int) -> np.ndarray:
        """``keys`` as a sorted, checked int64 array (a new array).

        A 1-D integer array is converted and sorted by NumPy; anything
        else goes through ``int()`` key by key, as any iterable of
        integer-likes may.  Keys beyond int64 raise OverflowError.
        """
        if (
            isinstance(keys, np.ndarray)
            and keys.ndim == 1
            and keys.dtype.kind in "iu"
            and (keys.dtype.kind == "i" or keys.size == 0
                 or int(keys.max()) <= np.iinfo(np.int64).max)
        ):
            arr = keys.astype(np.int64)
        else:
            arr = np.array([int(k) for k in keys], dtype=np.int64)
        arr.sort()
        if arr.size == 0:
            raise ParameterError("key set must be non-empty")
        if np.any(arr[1:] == arr[:-1]):
            raise ParameterError("keys must be distinct")
        if int(arr[0]) < 0 or int(arr[-1]) >= universe_size:
            raise ParameterError("keys must lie in [0, universe_size)")
        return arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, N={self.universe_size}, "
            f"space={self.space_words}w, t<={self.max_probes})"
        )
