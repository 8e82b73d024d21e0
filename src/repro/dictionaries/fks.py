"""FKS two-level perfect hashing [Fredman–Komlós–Szemerédi 1984].

Layout (rows × s cells, s = max(n, sum of squared bucket loads)):

- row 0 — level-1 parameters: the 2-universal ``(a, c)`` packed into one
  word, replicated (``param_replication``);
- row 1 — bucket header A: ``(offset_i, load_i)`` packed, one cell per
  bucket at column i;
- row 2 — bucket header B: the bucket's perfect-hash parameters packed,
  one cell per bucket;
- row 3 — data: bucket i owns ``load_i**2`` cells starting at
  ``offset_i``; key x sits at ``offset_i + h*_i(x)``.

Queries make at most 4 probes (params, header A, header B, data); empty
buckets stop after header A.  The header cells are the contention hot
spots the paper discusses: header cell i is probed by every query
hashing to bucket i, so its contention is the bucket's query mass —
up to Θ(√n)·(1/n) for a 2-universal level-1 family under uniform
positive queries (§1.3), no matter how much the *parameters* are
replicated.

Construction retries the level-1 hash until the FKS condition
``sum_i load_i**2 <= space_factor * n`` holds (expected O(1) trials by
Markov; Lemma 9(3) is the analogous statement for the DM family).
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.steps import BatchStridedStep, FixedCell, ProbeStep
from repro.cellprobe.table import EMPTY_CELL, Table
from repro.dictionaries.base import (
    StaticDictionary,
    batch_from_step,
    param_read_steps,
    read_interleaved_params_batch,
    resolve_replication,
    write_interleaved_params,
    write_perfect_hash_buckets,
)
from repro.errors import ConstructionError
from repro.hashing.perfect import PerfectHashFunction
from repro.hashing.polynomial import horner_eval_batch
from repro.utils.bits import unpack_pair, unpack_pair_batch
from repro.utils.primes import field_prime_for_universe
from repro.utils.rng import as_generator

_PARAM_ROW, _HEADER_A_ROW, _HEADER_B_ROW, _DATA_ROW = 0, 1, 2, 3


class FKSDictionary(StaticDictionary):
    """Static FKS dictionary: O(n) space, <= 4 probes."""

    name = "fks"

    def __init__(
        self,
        keys,
        universe_size: int,
        rng=None,
        space_factor: float = 4.0,
        param_replication="row",
        max_level1_trials: int = 200,
        level1=None,
    ):
        if space_factor < 2.0:
            raise ConstructionError("space_factor must be >= 2")
        rng = as_generator(rng)
        self.universe_size = int(universe_size)
        self.keys = self._sorted_keys(keys, self.universe_size)
        self.prime = field_prime_for_universe(self.universe_size)
        n = self.n
        self.num_buckets = n

        # Level-1: retry a 2-universal hash until the FKS condition holds.
        # An explicit `level1` (any HashFunction into [n]) bypasses the
        # sampling — used by E16 to study adversarial/planted families —
        # but the FKS acceptance condition is still enforced.
        budget = int(space_factor * n)
        self.level1_trials = 0
        if level1 is not None:
            if level1.range_size != self.num_buckets:
                raise ConstructionError(
                    f"level1 range {level1.range_size} != n = {self.num_buckets}"
                )
            loads = level1.loads(self.keys)
            if int(np.sum(loads.astype(np.int64) ** 2)) > budget:
                raise ConstructionError(
                    "provided level1 hash violates the FKS condition"
                )
            self.level1_trials = 1
        else:
            for _ in range(max_level1_trials):
                self.level1_trials += 1
                a = int(rng.integers(0, self.prime))
                c = int(rng.integers(0, self.prime))
                level1 = PerfectHashFunction(self.prime, a, c, self.num_buckets)
                loads = level1.loads(self.keys)
                if int(np.sum(loads**2)) <= budget:
                    break
            else:
                raise ConstructionError(
                    f"FKS condition failed in {max_level1_trials} trials"
                )
        self.level1 = level1
        self._custom_level1 = level1 is not None and not isinstance(
            level1, PerfectHashFunction
        )
        self.param_words = [int(w) for w in level1.parameter_words()]
        self.loads = loads
        self.offsets = np.concatenate(
            [[0], np.cumsum(loads.astype(np.int64) ** 2)[:-1]]
        )
        data_width = int(np.sum(loads.astype(np.int64) ** 2))

        s = max(self.num_buckets, data_width, len(self.param_words))
        self.replication = resolve_replication(
            param_replication, s, len(self.param_words)
        )
        self.table = Table(rows=4, s=s)
        write_interleaved_params(
            self.table, _PARAM_ROW, self.param_words, self.replication
        )

        # Level 2: a perfect hash per non-empty bucket; headers and data.
        self.inner: list[PerfectHashFunction | None]
        self.inner, self._inner_a, self._inner_c = write_perfect_hash_buckets(
            self.table,
            (_HEADER_A_ROW, _HEADER_B_ROW, _DATA_ROW),
            self.level1.eval_batch(self.keys),
            self.keys,
            self.loads,
            self.offsets,
            self.prime,
            rng,
        )

    # -- queries -----------------------------------------------------------------

    def query(self, x: int, rng=None) -> bool:
        x = self.check_key(x)
        rng = as_generator(rng)
        W = len(self.param_words)
        words = []
        for j in range(W):
            replica = int(rng.integers(0, self.replication))
            words.append(self.table.read(_PARAM_ROW, j + replica * W, j))
        if self._custom_level1:
            # Custom families (e.g. the planted adversarial family of
            # E16) are not reconstructible from their stored words alone;
            # the probes are charged identically, and the extra state a
            # real deployment would have to store-and-read would only
            # RAISE contention, so measurements stay conservative.
            level1 = self.level1
        else:
            level1 = PerfectHashFunction.from_packed_word(
                words[0], self.prime, self.num_buckets
            )
        i = level1(x)
        offset, load = unpack_pair(self.table.read(_HEADER_A_ROW, i, W))
        if load == 0:
            return False
        inner_word = self.table.read(_HEADER_B_ROW, i, W + 1)
        h_star = PerfectHashFunction.from_packed_word(
            inner_word, self.prime, load * load
        )
        return self.table.read(_DATA_ROW, offset + h_star(x), W + 2) == x

    def query_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        xs = self.check_keys_batch(xs)
        rng = as_generator(rng)
        batch = xs.shape[0]
        W = len(self.param_words)
        words = read_interleaved_params_batch(
            self.table, _PARAM_ROW, W, self.replication, batch, rng
        )
        if self._custom_level1:
            # Same conservative convention as the scalar path: custom
            # families evaluate directly, probes charged identically.
            i = self.level1.eval_batch(xs)
        else:
            a, c = unpack_pair_batch(words[0])
            i = horner_eval_batch([c, a], xs, self.prime, self.num_buckets)
        offset, load = unpack_pair_batch(
            self.table.read_batch(_HEADER_A_ROW, i, W)
        )
        nonempty = load > 0
        ia, ic = unpack_pair_batch(
            self.table.read_batch(_HEADER_B_ROW, np.where(nonempty, i, -1), W + 1)
        )
        # Unpacked halves are < 2**31, so the inner-hash products fit
        # uint64 even for the garbage halves of skipped (empty) buckets.
        p = np.uint64(self.prime)
        v = (ia * (xs.astype(np.uint64) % p) + ic) % p
        pos = (offset + v % np.maximum(load * load, np.uint64(1))).astype(
            np.int64
        )
        data = self.table.read_batch(
            _DATA_ROW, np.where(nonempty, pos, -1), W + 2
        )
        return nonempty & (data == xs.astype(np.uint64))

    def probe_plan(self, x: int) -> list[ProbeStep]:
        x = self.check_key(x)
        plan: list[ProbeStep] = list(
            param_read_steps(
                _PARAM_ROW, len(self.param_words), self.replication
            )
        )
        i = self.level1(x)
        plan.append(FixedCell(_HEADER_A_ROW, i))
        load = int(self.loads[i])
        if load == 0:
            return plan
        plan.append(FixedCell(_HEADER_B_ROW, i))
        pos = int(self.offsets[i]) + self.inner[i](x)
        plan.append(FixedCell(_DATA_ROW, pos))
        return plan

    def probe_plan_batch(self, xs: np.ndarray) -> list[BatchStridedStep]:
        xs = np.asarray(xs, dtype=np.int64)
        batch = xs.shape[0]
        steps = [
            batch_from_step(step, batch)
            for step in param_read_steps(
                _PARAM_ROW, len(self.param_words), self.replication
            )
        ]
        i = self.level1.eval_batch(xs)
        ones = np.ones(batch, dtype=np.int64)
        steps.append(
            BatchStridedStep(
                row=_HEADER_A_ROW, starts=i, strides=ones, counts=ones
            )
        )
        load = self.loads[i]
        nonempty = load > 0
        steps.append(
            BatchStridedStep(
                row=_HEADER_B_ROW,
                starts=np.where(nonempty, i, 0),
                strides=ones,
                counts=nonempty.astype(np.int64),
            )
        )
        # Vectorized per-bucket perfect hash: ((a*x + c) mod p) mod load**2.
        p = np.uint64(self.prime)
        xv = xs.astype(np.uint64) % p
        v = (self._inner_a[i] * xv + self._inner_c[i]) % p
        range_sq = np.maximum(load.astype(np.uint64) ** 2, 1)
        inner_pos = (v % range_sq).astype(np.int64)
        steps.append(
            BatchStridedStep(
                row=_DATA_ROW,
                starts=np.where(nonempty, self.offsets[i] + inner_pos, 0),
                strides=ones,
                counts=nonempty.astype(np.int64),
            )
        )
        return steps

    def row_labels(self) -> list[str]:
        """Semantic name of each table row (for contention breakdowns)."""
        return ["hash-params", "bucket-header-A", "bucket-header-B", "data"]

    @property
    def max_probes(self) -> int:
        return len(self.param_words) + 3
