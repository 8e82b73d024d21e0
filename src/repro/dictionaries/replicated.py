"""Whole-structure replication: the naive low-contention construction.

Section 1.3 observes that contention "can be decreased by storing the
hash function redundantly"; the limiting case is replicating the
*entire* data structure R times and sending each query to a uniformly
random replica — every cell's contention divides by R, at R times the
space.  This wrapper applies that transformation to any
:class:`~repro.dictionaries.base.StaticDictionary`:

- a *replica-oblivious* inner structure is built once;
- its table rows are copied R times (replica r occupies rows
  [r * inner_rows, (r+1) * inner_rows));
- a query samples a replica and runs the inner algorithm against that
  replica's rows (honestly: the inner algorithm's reads are redirected
  to the replica, every probe charged).

The point of experiment E15: to force max contention down to c/n this
way, binary search needs R = Theta(n) replicas (Theta(n**2) space) and
FKS R = Theta(max bucket load) (superlinear space), whereas Theorem 3's
construction does it in O(n) space — replication of *critical cells
only*, sized by the load structure, is what the paper's design buys.
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.steps import BatchStridedStep, FixedCell, ProbeStep, UniformSet, UniformStrided
from repro.cellprobe.table import Table
from repro.dictionaries.base import StaticDictionary
from repro.errors import (
    CorruptQueryError,
    FaultExhaustedError,
    HealError,
    ParameterError,
    ReplicaUnavailableError,
    ReproError,
)
from repro.faults import FaultConfig, FaultInjector, FaultStats, FaultyTable
from repro.utils.rng import as_generator

#: Exceptions treated as a *detected* per-replica failure by the
#: fault-tolerant query paths: corrupted words can drive an honest query
#: algorithm to an out-of-range probe (``TableError``), an impossible
#: decode (``ValueError``/``OverflowError``/``IndexError``), or an
#: explicit crash (``ReplicaUnavailableError`` is a ``ReproError``).
#: The replicated dynamic dictionary's voted reads abstain on the same set.
_REPLICA_FAILURES = (ReproError, OverflowError, IndexError, ValueError)

#: Query-routing modes of :class:`ReplicatedDictionary`.
QUERY_MODES = ("random", "majority", "failover")


class _ReplicaView:
    """A Table facade redirecting an inner dictionary's accesses.

    Reads/writes at (row, col) go to (offset + row, col) of the outer
    table, so the inner query algorithm runs unchanged against one
    replica with honest probe accounting on the outer counter.
    """

    def __init__(self, outer: Table, inner_rows: int, replica: int):
        self._outer = outer
        self._offset = replica * inner_rows
        self.rows = inner_rows
        self.s = outer.s
        self.counter = outer.counter

    def read(self, row: int, column: int, step: int) -> int:
        return self._outer.read(self._offset + row, column, step)

    def read_batch(self, rows, columns, step: int):
        rows = np.asarray(rows, dtype=np.int64) + self._offset
        return self._outer.read_batch(rows, columns, step)

    def read_round(self, rows, columns, step: int):
        rows = np.asarray(rows, dtype=np.int64) + self._offset
        return self._outer.read_round(rows, columns, step)

    def peek(self, row: int, column: int) -> int:
        return self._outer.peek(self._offset + row, column)

    @property
    def num_cells(self) -> int:
        return self.rows * self.s


class ReplicatedDictionary(StaticDictionary):
    """R copies of an inner static dictionary; queries pick one uniformly.

    Fault tolerance (opt-in, zero overhead by default): attach a
    :class:`~repro.faults.FaultConfig` and pick a query-routing ``mode``:

    - ``"random"`` (default) — the paper's scheme: one uniformly random
      replica per query.  Under faults it is the fragile baseline:
      corrupt cells silently flip answers and a crashed replica raises
      :class:`~repro.errors.ReplicaUnavailableError`.
    - ``"majority"`` — query every live replica (all probes charged) and
      return the majority vote; replicas whose execution detectably
      fails (crash, out-of-range probe from a corrupt word) abstain.
      Correct whenever a strict majority of replicas is healthy.
    - ``"failover"`` — one replica at a time with bounded retries: a
      *detected* failure triggers failover to a fresh random replica
      after exponential backoff (``2**attempt`` probe-equivalents,
      recorded in :attr:`fault_stats`); retries exhausted raises
      :class:`~repro.errors.FaultExhaustedError`.  Silent corruption is
      not detected — failover buys availability, not integrity.

    With ``faults=None`` (or a config with every rate zero) and
    ``mode="random"`` every RNG draw, probe, and answer is byte-identical
    to the pre-fault-layer implementation (property-tested).
    """

    def __init__(
        self,
        inner: StaticDictionary,
        replicas: int,
        rng=None,
        mode: str = "random",
        faults: FaultConfig | None = None,
        max_retries: int = 3,
    ):
        if replicas < 1:
            raise ParameterError("replicas must be >= 1")
        if mode not in QUERY_MODES:
            raise ParameterError(
                f"unknown query mode {mode!r}; options: {QUERY_MODES}"
            )
        if max_retries < 0:
            raise ParameterError("max_retries must be >= 0")
        self.inner = inner
        self.replicas = int(replicas)
        self.mode = mode
        self.max_retries = int(max_retries)
        self.universe_size = inner.universe_size
        self.keys = inner.keys
        self.name = f"replicated({inner.name}, R={replicas})"
        if mode != "random":
            self.name += f"[{mode}]"
        inner_table = inner.table
        self._inner_rows = inner_table.rows
        self.table = Table(
            rows=self._inner_rows * self.replicas, s=inner_table.s
        )
        for r in range(self.replicas):
            for row in range(self._inner_rows):
                self.table.write_row(
                    r * self._inner_rows + row, inner_table._cells[row]
                )
        self.fault_stats = FaultStats()
        if faults is not None and faults.enabled:
            self.faults = faults
            self._injector = FaultInjector(
                faults, self.table.rows, self.table.s, self.replicas
            )
            self._read_table = FaultyTable(self.table, self._injector)
        else:
            self.faults = None
            self._injector = None
            self._read_table = self.table

    # -- geometry ----------------------------------------------------------------

    @property
    def inner_rows(self) -> int:
        """Rows per replica (the inner structure's table height)."""
        return self._inner_rows

    def replica_row(self, replica: int, inner_row: int) -> int:
        """The outer table row holding ``inner_row`` of ``replica``."""
        return int(replica) * self._inner_rows + int(inner_row)

    # -- dynamic faults (chaos schedules / healing) ------------------------------

    def _require_injector(self) -> FaultInjector:
        if self._injector is None:
            raise HealError(
                f"{self.name} carries no fault layer; build it with an "
                "armed FaultConfig to crash/corrupt replicas dynamically"
            )
        return self._injector

    def crash_replica(self, replica: int) -> None:
        """Crash ``replica`` now, losing its memory (chaos event).

        The replica's rows are wiped to :data:`~repro.cellprobe.table.EMPTY_CELL`
        (a crash loses state — rebuild must reconstruct it from the
        survivors) and queries routed to it raise
        :class:`~repro.errors.ReplicaUnavailableError` until a rebuild
        revives it.
        """
        from repro.cellprobe.table import EMPTY_CELL

        injector = self._require_injector()
        r = int(replica)
        if not 0 <= r < self.replicas:
            raise ParameterError(
                f"replica {r} out of range [0, {self.replicas})"
            )
        injector.crash(r)
        lo = r * self._inner_rows
        self.table._cells[lo:lo + self._inner_rows, :] = EMPTY_CELL

    def revive_replica(self, replica: int) -> None:
        """Mark a rebuilt ``replica`` available again."""
        self._require_injector().revive(int(replica))

    def corrupt_cell(self, replica: int, inner_flat: int, mask: int) -> None:
        """XOR ``mask`` into one physical cell of ``replica`` (bit flip).

        Chaos-level silent corruption: the damage is persistent and
        physical (visible to ``peek``/scrub), but it is *not* a
        construction write — ``table.writes`` stays untouched, exactly
        as a radiation upset would leave it.
        """
        self._require_injector()
        row, col = divmod(int(inner_flat), self.table.s)
        if not (0 <= int(replica) < self.replicas
                and 0 <= row < self._inner_rows):
            raise ParameterError(
                f"cell {inner_flat} of replica {replica} out of range"
            )
        outer = self.replica_row(replica, row)
        self.table._cells[outer, col] ^= np.uint64(mask)

    def stick_cells(
        self, replica: int, inner_flats: np.ndarray, values: np.ndarray
    ) -> None:
        """Make cells of ``replica`` stuck-at ``values`` (chaos event)."""
        injector = self._require_injector()
        inner_flats = np.asarray(inner_flats, dtype=np.int64)
        outer_flats = (
            int(replica) * self._inner_rows * self.table.s + inner_flats
        )
        injector.stick(outer_flats, np.asarray(values, dtype=np.uint64))

    # -- queries -----------------------------------------------------------------

    def live_replicas(self) -> list[int]:
        """Replica indices that are not crashed."""
        if self._injector is None:
            return list(range(self.replicas))
        return [
            r for r in range(self.replicas) if self._injector.available(r)
        ]

    def _query_on(self, x: int, replica: int, rng) -> bool:
        """Run the inner query against one replica's rows (probes charged)."""
        view = _ReplicaView(self._read_table, self._inner_rows, replica)
        original = self.inner.table
        self.inner.table = view
        try:
            return self.inner.query(x, rng)
        finally:
            self.inner.table = original

    def query(self, x: int, rng=None) -> bool:
        x = self.check_key(x)
        rng = as_generator(rng)
        if self.mode == "majority":
            return self._query_majority(x, rng)
        if self.mode == "failover":
            return self._query_failover(x, rng)
        replica = int(rng.integers(0, self.replicas))
        if self._injector is None:
            return self._query_on(x, replica, rng)
        if not self._injector.available(replica):
            self.fault_stats.crash_hits += 1
            raise ReplicaUnavailableError(replica)
        try:
            return self._query_on(x, replica, rng)
        except _REPLICA_FAILURES as exc:
            self.fault_stats.corrupted_reads += 1
            raise CorruptQueryError(
                f"query({x}) on replica {replica} detectably corrupted"
            ) from exc

    def _query_majority(self, x: int, rng) -> bool:
        """All live replicas vote; detected failures abstain.

        Ties (possible only when at least half the voting replicas
        answered corruptly, i.e. outside the strict-majority-healthy
        guarantee) resolve to ``False``.
        """
        votes_true = votes_false = 0
        for replica in range(self.replicas):
            if self._injector is not None and not self._injector.available(
                replica
            ):
                self.fault_stats.crash_hits += 1
                continue
            try:
                answer = self._query_on(x, replica, rng)
            except _REPLICA_FAILURES:
                self.fault_stats.corrupted_reads += 1
                continue
            if answer:
                votes_true += 1
            else:
                votes_false += 1
        if votes_true == 0 and votes_false == 0:
            self.fault_stats.exhausted += 1
            raise FaultExhaustedError(self.replicas)
        return votes_true > votes_false

    def _query_failover(self, x: int, rng) -> bool:
        """Random replica with bounded retry-on-detected-failure."""
        attempts = 0
        backoff_spent = 0
        while True:
            replica = int(rng.integers(0, self.replicas))
            if self._injector is None or self._injector.available(replica):
                try:
                    return self._query_on(x, replica, rng)
                except _REPLICA_FAILURES:
                    self.fault_stats.corrupted_reads += 1
            else:
                self.fault_stats.crash_hits += 1
            if attempts >= self.max_retries:
                self.fault_stats.exhausted += 1
                raise FaultExhaustedError(attempts + 1, backoff_spent)
            # Exponential backoff, denominated in probe-equivalents: the
            # model has no wall clock, so waiting 2**k "slots" is charged
            # as 2**k probes a real system would have had time to make.
            cost = 2**attempts
            self.fault_stats.retries += 1
            self.fault_stats.backoff_probes += cost
            backoff_spent += cost
            attempts += 1

    def query_batch_on(
        self, xs: np.ndarray, replica: int, rng=None
    ) -> np.ndarray:
        """Run the inner batch algorithm against one *chosen* replica.

        The replica-addressed dispatch primitive of :mod:`repro.serve`:
        a router picks ``replica`` and the whole batch executes against
        that replica's rows — every probe charged to the shared counter
        at the replica's cells, and reads passing through the fault
        layer when one is attached.  Raises
        :class:`~repro.errors.ReplicaUnavailableError` when the chosen
        replica is crashed, so dispatchers can fail over and reweight.
        """
        xs = self.check_keys_batch(xs)
        rng = as_generator(rng)
        replica = int(replica)
        if not 0 <= replica < self.replicas:
            raise ParameterError(
                f"replica {replica} out of range [0, {self.replicas})"
            )
        if self._injector is not None and not self._injector.available(
            replica
        ):
            self.fault_stats.crash_hits += 1
            raise ReplicaUnavailableError(replica)
        original = self.inner.table
        self.inner.table = _ReplicaView(
            self._read_table, self._inner_rows, replica
        )
        try:
            return self.inner.query_batch(xs, rng)
        finally:
            self.inner.table = original

    def replica_probe_loads(self) -> np.ndarray:
        """Probes charged so far to each replica's rows, shape ``(R,)``.

        The live per-replica load signal contention-aware routers
        balance on; derived from the shared per-cell probe counter, so
        it reflects every probe ever charged (including failed or
        fault-corrupted executions).
        """
        totals = self.table.counter.total_counts()
        return totals.reshape(
            self.replicas, self._inner_rows * self.table.s
        ).sum(axis=1)

    def probe_total(self) -> int:
        """Probes charged so far across all replicas, in O(1).

        Equals ``replica_probe_loads().sum()`` without the per-cell
        pass: the shared counter keeps a running total.
        """
        return int(self.table.counter.total_probes())

    def query_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        """Batch queries grouped by sampled replica.

        Each query draws its replica uniformly (as in the scalar path),
        then the inner batch algorithm runs once per distinct replica on
        that replica's rows — probes are charged identically, only the
        order of RNG draws differs.  Fault-tolerant modes fall back to
        the scalar path per key (their control flow is data-dependent).
        """
        if self.mode != "random" or self._injector is not None:
            return super().query_batch(xs, rng)
        xs = self.check_keys_batch(xs)
        rng = as_generator(rng)
        replica = rng.integers(0, self.replicas, size=xs.shape[0])
        out = np.empty(xs.shape[0], dtype=bool)
        original = self.inner.table
        try:
            for r in np.unique(replica):
                sel = replica == r
                self.inner.table = _ReplicaView(
                    self.table, self._inner_rows, int(r)
                )
                out[sel] = self.inner.query_batch(xs[sel], rng)
        finally:
            self.inner.table = original
        return out

    def _lift_step(self, step: ProbeStep) -> ProbeStep:
        """Spread an inner step's support across all replicas.

        For the *marginal* probe distribution (replica chosen uniformly),
        each inner support cell appears once per replica with its
        probability divided by R; since inner rows repeat every
        ``inner_rows`` rows, the replicated support of a strided step is
        expressible per replica — we return a UniformSet over the union.
        """
        columns_rows = []
        for r in range(self.replicas):
            row = r * self._inner_rows + step.row
            columns_rows.append((row, step.support()))
        return _MultiRowUniform(columns_rows)

    def probe_plan(self, x: int) -> list[ProbeStep]:
        return [self._lift_step(s) for s in self.inner.probe_plan(x)]

    def probe_plan_batch(self, xs: np.ndarray) -> list[BatchStridedStep]:
        # The exact engine accumulates per (row, strided set); replicas
        # multiply rows.  We return one BatchStridedStep per (inner step,
        # replica) pair with counts scaled so each query's total step mass
        # stays 1: probability 1/(R * inner_count) per support cell is
        # encoded by repeating the step per replica with weight 1/R — the
        # engine's accumulate() divides by count, so we inflate counts by
        # handling the 1/R factor via `scaled_counts` trick: we cannot
        # scale weights per-step, so instead we expose R separate steps
        # each claiming count = inner_count * R.  (support per replica is
        # inner_count cells; probability per cell = 1/(inner_count * R).)
        out: list[BatchStridedStep] = []
        for t, st in enumerate(self.inner.probe_plan_batch(xs)):
            for r in range(self.replicas):
                step = _ScaledBatchStep(
                    row=r * self._inner_rows + st.row,
                    starts=st.starts,
                    strides=st.strides,
                    counts=st.counts,
                    shared=st.shared,
                    scale=self.replicas,
                )
                # All replicas realize the same logical query step; the
                # contention engine accumulates them into one Phi_t row
                # (otherwise the matrix would blow up to R*t rows).
                step.step_index = t
                out.append(step)
        return out

    def row_labels(self) -> list[str]:
        """Inner labels prefixed per replica."""
        inner = self.inner.row_labels()
        return [
            f"replica{r}/{label}"
            for r in range(self.replicas)
            for label in inner
        ]

    @property
    def max_probes(self) -> int:
        return self.inner.max_probes


class _MultiRowUniform(ProbeStep):
    """Uniform over the union of identical supports on several rows."""

    def __init__(self, columns_rows):
        self._parts = columns_rows  # list of (row, np.ndarray columns)
        self.row = columns_rows[0][0]
        self._sizes = [cols.size for _, cols in columns_rows]
        self._total = int(sum(self._sizes))

    def sample(self, rng: np.random.Generator) -> int:
        # Row choice is implicit in the replicated layout; sampling is
        # used only by generic tooling, which treats row separately —
        # return a column from a uniformly chosen part.
        part = int(rng.integers(0, len(self._parts)))
        row, cols = self._parts[part]
        self.row = row
        return int(cols[int(rng.integers(0, cols.size))])

    def support(self) -> np.ndarray:
        return np.concatenate([cols for _, cols in self._parts])

    def probability(self) -> float:
        return 1.0 / self._total

    def contains(self, column: int) -> bool:
        return any(int(column) in set(cols.tolist()) for _, cols in self._parts)

    def contains_cell(self, row: int, column: int) -> bool:
        return any(
            r == row and int(column) in set(cols.tolist())
            for r, cols in self._parts
        )

    @property
    def size(self) -> int:
        return self._total


class _ScaledBatchStep(BatchStridedStep):
    """A BatchStridedStep whose per-cell mass is divided by ``scale``.

    Encodes one replica's share (1/scale) of an inner step: support and
    sampling are per-replica, but accumulated mass per cell is
    weight / (count * scale).
    """

    def __init__(self, row, starts, strides, counts, shared, scale):
        super().__init__(
            row=row, starts=starts, strides=strides, counts=counts,
            shared=shared,
        )
        self.scale = int(scale)

    def accumulate(self, flat, weights, s):
        super().accumulate(flat, np.asarray(weights) / self.scale, s)
