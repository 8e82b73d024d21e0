"""FKS with the Dietzfelbinger–Meyer auf der Heide level-1 family (DM).

Identical two-level structure to :class:`~repro.dictionaries.fks.FKSDictionary`
but the level-1 function is drawn from R^d_{r,n} (Definition 4), giving
much tighter bucket loads (Lemma 9(2): max load O(log n) buckets —
and for fully random behaviour, Θ(ln n / ln ln n)); §1.3 credits the
replicated variant with contention Θ(ln n / ln ln n) × optimal versus
FKS's Θ(√n) × optimal.

Layout:

- row 0 — f and g coefficients (2d words) interleaved, replicated;
- row 1 — z vector: T(1, j) = z[j mod r] (the paper's replication scheme
  for z inside the Section 2 construction);
- row 2 / row 3 — bucket headers A (offset, load) and B (perfect hash);
- row 4 — data.

Probes: 2d parameter reads + 1 z read + headers + data = 2d + 4.
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.steps import BatchStridedStep, FixedCell, ProbeStep, UniformStrided
from repro.cellprobe.table import Table
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
from repro.hashing.dm import DMFamily, DMHashFunction
from repro.hashing.perfect import PerfectHashFunction
from repro.hashing.polynomial import horner_eval_batch
from repro.utils.bits import unpack_pair, unpack_pair_batch
from repro.utils.primes import field_prime_for_universe
from repro.utils.rng import as_generator

_PARAM_ROW, _Z_ROW, _HEADER_A_ROW, _HEADER_B_ROW, _DATA_ROW = 0, 1, 2, 3, 4


def default_r(n: int, degree: int) -> int:
    """The paper's r = n^(1-delta) with delta in (2/(d+2), 1-1/d).

    We take delta at the midpoint of its legal interval for the given
    degree, so r is valid for any d > 2.
    """
    lo, hi = 2.0 / (degree + 2.0), 1.0 - 1.0 / degree
    delta = (lo + hi) / 2.0
    return max(2, int(round(n ** (1.0 - delta))))


class DMDictionary(StaticDictionary):
    """Two-level dictionary with a DM-family level-1 hash."""

    name = "dm"

    def __init__(
        self,
        keys,
        universe_size: int,
        rng=None,
        degree: int = 3,
        r: int | None = None,
        space_factor: float = 4.0,
        param_replication="row",
        max_level1_trials: int = 200,
    ):
        if degree < 2:
            raise ConstructionError("degree must be >= 2")
        if space_factor < 2.0:
            raise ConstructionError("space_factor must be >= 2")
        rng = as_generator(rng)
        self.universe_size = int(universe_size)
        self.keys = self._sorted_keys(keys, self.universe_size)
        self.prime = field_prime_for_universe(self.universe_size)
        n = self.n
        self.num_buckets = n
        self.degree = degree
        self.r = default_r(n, degree) if r is None else int(r)
        if self.r < 1:
            raise ConstructionError("r must be >= 1")
        self.family = DMFamily(self.prime, self.num_buckets, self.r, degree)

        budget = int(space_factor * n)
        self.level1_trials = 0
        for _ in range(max_level1_trials):
            self.level1_trials += 1
            level1 = self.family.sample(rng)
            loads = level1.loads(self.keys)
            if int(np.sum(loads.astype(np.int64) ** 2)) <= budget:
                break
        else:
            raise ConstructionError(
                f"FKS condition failed in {max_level1_trials} trials"
            )
        self.level1: DMHashFunction = level1
        self.loads = loads
        self.offsets = np.concatenate(
            [[0], np.cumsum(loads.astype(np.int64) ** 2)[:-1]]
        )
        data_width = int(np.sum(loads.astype(np.int64) ** 2))

        self.param_words = (
            level1.f.parameter_words() + level1.g.parameter_words()
        )
        W = len(self.param_words)  # 2d coefficient words
        s = max(self.num_buckets, data_width, self.r, W)
        self.replication = resolve_replication(param_replication, s, W)
        self.table = Table(rows=5, s=s)
        write_interleaved_params(
            self.table, _PARAM_ROW, self.param_words, self.replication
        )
        # z row: T(1, j) = z[j mod r] over the whole row.
        cols = np.arange(s, dtype=np.int64)
        self.table.write_row(_Z_ROW, level1.z[cols % self.r].astype(np.uint64))

        # Level 2: a perfect hash per non-empty bucket; headers and data.
        self.inner: list[PerfectHashFunction | None]
        self.inner, self._inner_a, self._inner_c = write_perfect_hash_buckets(
            self.table,
            (_HEADER_A_ROW, _HEADER_B_ROW, _DATA_ROW),
            level1.eval_batch(self.keys),
            self.keys,
            self.loads,
            self.offsets,
            self.prime,
            rng,
        )

    # -- z replication geometry ---------------------------------------------------

    def _z_copies(self, g_value: int) -> int:
        """Number of columns j < s with j ≡ g_value (mod r)."""
        s = self.table.s
        return (s - g_value + self.r - 1) // self.r

    def _z_step(self, g_value: int) -> UniformStrided:
        return UniformStrided(
            row=_Z_ROW, start=g_value, stride=self.r, count=self._z_copies(g_value)
        )

    # -- queries ---------------------------------------------------------------------

    def query(self, x: int, rng=None) -> bool:
        x = self.check_key(x)
        rng = as_generator(rng)
        W = len(self.param_words)
        words = []
        for j in range(W):
            replica = int(rng.integers(0, self.replication))
            words.append(self.table.read(_PARAM_ROW, j + replica * W, j))
        d = self.degree
        f = self.family.f_family.from_parameter_words(words[:d])
        g = self.family.g_family.from_parameter_words(words[d:])
        gx = g(x)
        z_step = self._z_step(gx)
        z_col = z_step.sample(rng)
        z_val = self.table.read(_Z_ROW, z_col, W)
        i = (f(x) + z_val) % self.num_buckets
        offset, load = unpack_pair(self.table.read(_HEADER_A_ROW, i, W + 1))
        if load == 0:
            return False
        inner_word = self.table.read(_HEADER_B_ROW, i, W + 2)
        h_star = PerfectHashFunction.from_packed_word(
            inner_word, self.prime, load * load
        )
        return self.table.read(_DATA_ROW, offset + h_star(x), W + 3) == x

    def query_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        xs = self.check_keys_batch(xs)
        rng = as_generator(rng)
        batch = xs.shape[0]
        W = len(self.param_words)
        d = self.degree
        words = read_interleaved_params_batch(
            self.table, _PARAM_ROW, W, self.replication, batch, rng
        )
        fx = horner_eval_batch(words[:d], xs, self.prime, self.num_buckets)
        gx = horner_eval_batch(words[d:], xs, self.prime, self.r)
        # One uniformly random replica of z[gx] (columns ≡ gx mod r).
        copies = (self.table.s - gx + self.r - 1) // self.r
        k = np.minimum(
            (rng.random(batch) * copies).astype(np.int64), copies - 1
        )
        z_val = self.table.read_batch(_Z_ROW, gx + self.r * k, W)
        i = ((fx.astype(np.uint64) + z_val) % np.uint64(self.num_buckets)).astype(
            np.int64
        )
        offset, load = unpack_pair_batch(
            self.table.read_batch(_HEADER_A_ROW, i, W + 1)
        )
        nonempty = load > 0
        ia, ic = unpack_pair_batch(
            self.table.read_batch(
                _HEADER_B_ROW, np.where(nonempty, i, -1), W + 2
            )
        )
        p = np.uint64(self.prime)
        v = (ia * (xs.astype(np.uint64) % p) + ic) % p
        pos = (offset + v % np.maximum(load * load, np.uint64(1))).astype(
            np.int64
        )
        data = self.table.read_batch(
            _DATA_ROW, np.where(nonempty, pos, -1), W + 3
        )
        return nonempty & (data == xs.astype(np.uint64))

    def probe_plan(self, x: int) -> list[ProbeStep]:
        x = self.check_key(x)
        W = len(self.param_words)
        plan: list[ProbeStep] = list(
            param_read_steps(_PARAM_ROW, W, self.replication)
        )
        plan.append(self._z_step(self.level1.g(x)))
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
        W = len(self.param_words)
        steps = [
            batch_from_step(step, batch)
            for step in param_read_steps(_PARAM_ROW, W, self.replication)
        ]
        gx = self.level1.g.eval_batch(xs)
        s = self.table.s
        counts = (s - gx + self.r - 1) // self.r
        steps.append(
            BatchStridedStep(
                row=_Z_ROW,
                starts=gx,
                strides=np.full(batch, self.r, dtype=np.int64),
                counts=counts,
            )
        )
        i = self.level1.eval_batch(xs)
        ones = np.ones(batch, dtype=np.int64)
        steps.append(
            BatchStridedStep(row=_HEADER_A_ROW, starts=i, strides=ones, counts=ones)
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
        return [
            "hash-params", "z-vector", "bucket-header-A",
            "bucket-header-B", "data",
        ]

    @property
    def max_probes(self) -> int:
        return 2 * self.degree + 4
