"""The low-contention dictionary facade and its query algorithm (§2.3).

The query for x proceeds in four phases, every random choice uniform
over its replica range:

1. **Hash recovery** — for each of the 2d coefficient rows, read one
   uniformly random cell (the whole row stores the same word); then read
   one random replica of z[g(x)] from the z row (columns ≡ g(x) mod r).
   Now h(x) = (f(x) + z_{g(x)}) mod s and h'(x) = h(x) mod m are known.
2. **Group metadata** — read one random replica of GBAS(h'(x)) (columns
   ≡ h'(x) mod m of the GBAS row) and one random replica of each of the
   rho histogram words of group h'(x); decode all bucket loads of the
   group.
3. **Bucket location** — the span of bucket h(x) starts at
   GBAS(h'(x)) + sum of squared loads of the group's earlier members
   and has length load**2; an empty bucket answers 0 immediately.
4. **Perfect hashing** — read the perfect-hash word at a uniformly
   random cell of the span, evaluate h*(x), and compare the key at
   span_start + h*(x).

Probes: one per row = 2d + rho + 4 total (2 fewer for empty buckets);
every step's distribution is uniform over a replica set of size
Ω(s / log n) or over a perfect-hash span, which is what drives the
O(1/n) contention of Theorem 3.
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.steps import BatchStridedStep, FixedCell, ProbeStep, UniformStrided
from repro.cellprobe.table import EMPTY_CELL
from repro.core.construction import (
    ConstructionResult,
    construct,
    construct_lockstep,
)
from repro.core.params import SchemeParameters
from repro.dictionaries.base import StaticDictionary
from repro.errors import QueryError
from repro.hashing.perfect import PerfectHashFunction
from repro.hashing.polynomial import PolynomialHashFunction, horner_eval_batch
from repro.utils.bits import (
    decode_unary_histogram,
    decode_unary_histogram_batch,
    unpack_pair_batch,
)
from repro.utils.rng import as_generator


class LowContentionDictionary(StaticDictionary):
    """Theorem 3's (O(n), b, O(1), O(1/n))-balanced cell-probing scheme."""

    name = "low-contention"
    #: Whether the data row holds the keys, so that membership queries
    #: answer; False for a build given other data words.
    keyed = True

    def __init__(
        self,
        keys,
        universe_size: int,
        rng=None,
        params: SchemeParameters | None = None,
        max_trials: int = 500,
    ):
        rng = as_generator(rng)
        self.universe_size = int(universe_size)
        self.keys = self._sorted_keys(keys, self.universe_size)
        if params is None:
            params = SchemeParameters(n=self.n)
        self._adopt(
            construct(self.keys, self.universe_size, params, rng, max_trials)
        )

    @classmethod
    def build_lockstep(
        cls,
        keys,
        universe_size: int,
        rngs,
        params: SchemeParameters | None = None,
        max_trials: int = 500,
        data=None,
    ) -> list["LowContentionDictionary"]:
        """One dictionary over ``keys`` per generator, built in one pass.

        Dictionary ``i`` is the one ``LowContentionDictionary(keys,
        universe_size, rngs[i], params, max_trials)`` builds, and shares
        no object with the others (see :func:`construct_lockstep`).

        Given ``data``, the data row holds those words instead of the keys
        (the draws and every other cell are unchanged).  Such a dictionary
        is not ``keyed``: only :meth:`lookup_batch` answers, and the
        membership queries raise :class:`QueryError`.
        """
        universe_size = int(universe_size)
        keys = cls._sorted_keys(keys, universe_size)
        if params is None:
            params = SchemeParameters(n=int(keys.size))
        built = []
        for i, con in enumerate(
            construct_lockstep(
                keys, universe_size, params, rngs, max_trials, data
            )
        ):
            d = cls.__new__(cls)
            d.universe_size = universe_size
            d.keys = keys if i == 0 else keys.copy()
            if data is not None:
                d.keyed = False
            d._adopt(con)
            built.append(d)
        return built

    def _adopt(self, construction: ConstructionResult) -> None:
        """Take a built table and its private state."""
        self.construction = construction
        self.params = construction.params
        self.table = construction.table
        self.prime = construction.prime
        # Vectorized per-bucket inner-hash parameters for batch plans: the
        # search's (a, c), unpacked from the perfect-hash row that holds
        # them at each occupied bucket's span start (0 for empty buckets).
        nonempty = np.flatnonzero(construction.loads)
        self._inner_a = np.zeros(self.params.s, dtype=np.uint64)
        self._inner_c = np.zeros(self.params.s, dtype=np.uint64)
        self._inner_a[nonempty], self._inner_c[nonempty] = unpack_pair_batch(
            self.table._cells[
                self.params.phf_row, construction.span_starts[nonempty]
            ]
        )

    # -- honest query (reads only) -----------------------------------------------

    def _check_keyed(self) -> None:
        if not self.keyed:
            raise QueryError(
                "the data row holds other words than the keys; "
                "read it with lookup_batch"
            )

    def query(self, x: int, rng=None) -> bool:
        self._check_keyed()
        x = self.check_key(x)
        rng = as_generator(rng)
        p = self.params
        table = self.table
        d = p.degree

        # Phase 1: recover f, g from random cells of the coefficient rows.
        words = [
            table.read(i, int(rng.integers(0, p.s)), i)
            for i in range(2 * d)
        ]
        f = PolynomialHashFunction(self.prime, p.s, words[:d])
        g = PolynomialHashFunction(self.prime, p.r, words[d:])
        gx = g(x)
        k = int(rng.integers(0, p.z_copies(gx)))
        z_val = table.read(p.z_row, gx + k * p.r, 2 * d)
        hx = (f(x) + z_val) % p.s
        group = hx % p.m
        member = hx // p.m

        # Phase 2: GBAS and the group histogram.
        k = int(rng.integers(0, p.group_size))
        gbas = table.read(p.gbas_row, group + k * p.m, 2 * d + 1)
        hist_words = []
        for i, row in enumerate(p.histogram_rows):
            k = int(rng.integers(0, p.group_size))
            hist_words.append(table.read(row, group + k * p.m, 2 * d + 2 + i))
        member_loads = decode_unary_histogram(
            hist_words, p.group_size, p.word_bits
        )

        # Phase 3: locate the bucket's span.
        load = member_loads[member]
        if load == 0:
            return False
        span_start = gbas + sum(v * v for v in member_loads[:member])
        span_len = load * load

        # Phase 4: perfect hash and the final comparison.
        j = int(rng.integers(0, span_len))
        phf_word = table.read(p.phf_row, span_start + j, 2 * d + 2 + p.rho)
        h_star = PerfectHashFunction.from_packed_word(
            phf_word, self.prime, span_len
        )
        probe = span_start + h_star(x)
        return table.read(p.data_row, probe, 2 * d + 3 + p.rho) == x

    def query_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        """Vectorized honest query: the data word read equals the key."""
        self._check_keyed()
        xs = np.asarray(xs, dtype=np.int64)
        return self.lookup_batch(xs, rng) == xs.astype(np.uint64)

    def lookup_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        """The data word at each key's slot: the four phases as five
        adaptive rounds.

        Each round is one :meth:`~repro.cellprobe.table.Table.read_round`
        (rows are probed at the step equal to their row index) with one
        RNG draw for all its columns:

        1. the 2d coefficient rows;
        2. z[g(x)];
        3. GBAS and the rho histogram words;
        4. the perfect-hash word (skipped for empty buckets);
        5. the data word (skipped for empty buckets, which get
           ``EMPTY_CELL``).

        A ``(k, batch)`` draw yields the same values and generator state
        as k draws of ``batch``, so the words, the probe accounting and
        the RNG stream equal those of one read per row.
        """
        xs = self.check_keys_batch(xs)
        rng = as_generator(rng)
        batch = xs.shape[0]
        p = self.params
        table = self.table
        d = p.degree
        rows = np.arange(p.num_rows, dtype=np.int64)

        # Round 1: one random cell of each coefficient row; f and g are
        # evaluated together in one stacked Horner pass.
        words = table.read_round(
            rows[: 2 * d], rng.integers(0, p.s, size=(2 * d, batch)), 0
        )
        fx, gx = horner_eval_batch(
            words.reshape(2, d, batch).swapaxes(0, 1),
            xs,
            self.prime,
            np.array([[p.s], [p.r]]),
        )

        # Round 2: one random replica of z[g(x)].
        z_copies = (p.s - gx + p.r - 1) // p.r
        k = np.minimum(
            (rng.random(batch) * z_copies).astype(np.int64), z_copies - 1
        )
        z_val = table.read_round(
            rows[p.z_row : p.z_row + 1], (gx + k * p.r)[None], p.z_row
        )[0].astype(np.int64)
        member, group = np.divmod((fx + z_val) % p.s, p.m)

        # Round 3: GBAS and the group histogram, one random replica each.
        k = rng.integers(0, p.group_size, size=(1 + p.rho, batch))
        meta = table.read_round(
            rows[p.gbas_row : p.phf_row], group + k * p.m, p.gbas_row
        )
        gbas = meta[0].astype(np.int64)
        member_loads = decode_unary_histogram_batch(
            meta[1:].T, p.group_size, p.word_bits
        )

        # Locate the bucket's span.  Keys of empty buckets take no part
        # in the last two rounds.
        rows_idx = np.arange(batch)
        load = member_loads[rows_idx, member]
        sq = member_loads * member_loads
        span_start = gbas + np.cumsum(sq, axis=1)[rows_idx, member] - sq[
            rows_idx, member
        ]
        unit = rng.random(batch)
        live = np.flatnonzero(load)
        start = span_start[live]
        span_len = load[live] * load[live]

        # Round 4: the perfect-hash word at a random cell of the span.
        j = np.minimum(
            (unit[live] * span_len).astype(np.int64), span_len - 1
        )
        phf_word = table.read_round(
            rows[p.phf_row : p.phf_row + 1], (start + j)[None], p.phf_row
        )[0]

        # Round 5: the data word at h*(x) within the span.
        a, c = unpack_pair_batch(phf_word)
        pf = np.uint64(self.prime)
        x = xs[live].astype(np.uint64)
        v = (a * (x % pf) + c) % pf
        probe = start + (v % span_len.astype(np.uint64)).astype(np.int64)
        data = np.full(batch, EMPTY_CELL, dtype=np.uint64)
        data[live] = table.read_round(
            rows[p.data_row :], probe[None], p.data_row
        )[0]
        return data

    # -- analytic probe plans ---------------------------------------------------------

    def probe_plan(self, x: int) -> list[ProbeStep]:
        x = self.check_key(x)
        p = self.params
        con = self.construction
        plan: list[ProbeStep] = [
            UniformStrided(row=i, start=0, stride=1, count=p.s)
            for i in range(2 * p.degree)
        ]
        gx = con.h.g(x)
        plan.append(
            UniformStrided(
                row=p.z_row, start=gx, stride=p.r, count=p.z_copies(gx)
            )
        )
        hx = con.h(x)
        group = hx % p.m
        plan.append(
            UniformStrided(
                row=p.gbas_row, start=group, stride=p.m, count=p.group_size
            )
        )
        for row in p.histogram_rows:
            plan.append(
                UniformStrided(
                    row=row, start=group, stride=p.m, count=p.group_size
                )
            )
        load = int(con.loads[hx])
        if load == 0:
            return plan
        start = int(con.span_starts[hx])
        plan.append(
            UniformStrided(
                row=p.phf_row, start=start, stride=1, count=load * load
            )
        )
        plan.append(FixedCell(p.data_row, start + con.inner[hx](x)))
        return plan

    def probe_plan_batch(self, xs: np.ndarray) -> list[BatchStridedStep]:
        xs = np.asarray(xs, dtype=np.int64)
        batch = xs.shape[0]
        p = self.params
        con = self.construction
        zeros = np.zeros(batch, dtype=np.int64)
        ones = np.ones(batch, dtype=np.int64)
        steps: list[BatchStridedStep] = [
            BatchStridedStep(
                row=i,
                starts=zeros,
                strides=ones,
                counts=np.full(batch, p.s, dtype=np.int64),
                shared=True,
            )
            for i in range(2 * p.degree)
        ]
        gx = con.h.g.eval_batch(xs)
        z_counts = (p.s - gx + p.r - 1) // p.r
        steps.append(
            BatchStridedStep(
                row=p.z_row,
                starts=gx,
                strides=np.full(batch, p.r, dtype=np.int64),
                counts=z_counts,
            )
        )
        hx = con.h.eval_batch(xs)
        group = hx % p.m
        group_counts = np.full(batch, p.group_size, dtype=np.int64)
        m_strides = np.full(batch, p.m, dtype=np.int64)
        steps.append(
            BatchStridedStep(
                row=p.gbas_row, starts=group, strides=m_strides,
                counts=group_counts,
            )
        )
        for row in p.histogram_rows:
            steps.append(
                BatchStridedStep(
                    row=row, starts=group, strides=m_strides,
                    counts=group_counts,
                )
            )
        load = con.loads[hx]
        nonempty = load > 0
        span_len = load.astype(np.int64) ** 2
        start = con.span_starts[hx]
        steps.append(
            BatchStridedStep(
                row=p.phf_row,
                starts=np.where(nonempty, start, 0),
                strides=ones,
                counts=np.where(nonempty, span_len, 0),
            )
        )
        pf = np.uint64(self.prime)
        xv = xs.astype(np.uint64) % pf
        v = (self._inner_a[hx] * xv + self._inner_c[hx]) % pf
        inner_pos = (v % np.maximum(span_len.astype(np.uint64), 1)).astype(np.int64)
        steps.append(
            BatchStridedStep(
                row=p.data_row,
                starts=np.where(nonempty, start + inner_pos, 0),
                strides=ones,
                counts=nonempty.astype(np.int64),
            )
        )
        return steps

    # -- metadata ---------------------------------------------------------------------

    def row_labels(self) -> list[str]:
        """Semantic name of each table row (for contention breakdowns)."""
        p = self.params
        labels = [f"f-coefficient-{i}" for i in range(p.degree)]
        labels += [f"g-coefficient-{i}" for i in range(p.degree)]
        labels += ["z-vector", "GBAS"]
        labels += [f"group-histogram-{i}" for i in range(p.rho)]
        labels += ["perfect-hash-spans", "data"]
        return labels

    @property
    def max_probes(self) -> int:
        return self.params.max_probes

    @property
    def construction_trials(self) -> int:
        """Rejection-sampling trials used to satisfy property P(S)."""
        return self.construction.trials
