"""The mutable sharded service: serving reads while applying updates.

The dynamic counterpart of :class:`~repro.serve.service.
ShardedDictionaryService`: each contiguous keyspace shard is a
:class:`~repro.dynamic.replicated.ReplicatedDynamicDictionary` (R
lockstep replicas with majority-voted reads and epoch versioning), and
the service adds a **write path** next to the read path:

- **write micro-batching** — per-shard update batchers group inserts/
  deletes into micro-batched groups; one applied group advances the
  shard's epoch once (one atomic version step);
- **write admission control** — the count of accepted-but-unapplied
  updates is bounded; beyond it :meth:`submit_update` sheds with the
  typed :class:`~repro.errors.UpdateBacklogError` (the write analogue
  of ``OverloadError``);
- **read-your-writes** — a read dispatch first drains its shard's
  pending write batch, so any update admitted before a read is applied
  before that read executes: a client that saw its write admitted will
  see it reflected;
- **pinned reads** — :meth:`read_pinned` pins every touched shard's
  epoch and answers the whole multi-key read against that consistent
  cut, regardless of concurrently applied updates;
- **telemetry** — ``UpdateEvent`` per applied group, ``RebuildEvent``
  per level rebuild (from the level layer), ``EpochEvent`` per epoch
  transition, all behind the zero-overhead ``BUS.active`` guard;
- **log compaction** — with a ``log_retention`` bound, the service
  folds each shard's replay log into a base snapshot
  (:meth:`~repro.dynamic.replicated.ReplicatedDynamicDictionary.
  compact_log`) whenever the retained total reaches the bound, so
  :meth:`update_log_entries` — and rebuild/recovery replay work — is
  bounded instead of growing with write volume;
- **durable checkpoints** — :meth:`attach_checkpoints` wires a
  :class:`~repro.persist.CheckpointStore`; :meth:`advance` then writes
  a new generation every ``checkpoint_every`` virtual-time units
  (``CheckpointEvent`` per shard), and
  :func:`~repro.persist.restore_dynamic_service` rebuilds the service
  after a crash.

Like the static service, the core is clockless (explicit ``now``,
seeded rng streams) and byte-reproducible; reads are majority votes
across each shard's live replicas, so crashed or silently corrupted
replicas are survived by construction rather than by routing policy.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from repro.dynamic.epoch import EpochPin
from repro.dynamic.replicated import ReplicatedDynamicDictionary
from repro.errors import TelemetryError, UpdateBacklogError
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.service import ShardedDictionaryService
from repro.telemetry.events import BUS, UpdateEvent
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer


#: Warn when the *retained* replayed-update log across shards crosses
#: this many entries.  Without a ``log_retention`` bound every applied
#: update stays in its shard's replay log (the log is what rebuilds
#: crashed replicas), so a long-lived write-heavy service grows memory
#: without bound; with compaction configured the retained count shrinks
#: again and the warning re-arms, so a later runaway is reported too.
#: The ``dynamic_update_log_entries`` gauge tracks the same
#: post-compaction quantity continuously when telemetry is attached.
UPDATE_LOG_WARN_THRESHOLD = 1_000_000


@dataclasses.dataclass
class UpdateTicket:
    """One update's lifecycle: arrival → write batch → applied @ epoch."""

    key: int
    is_insert: bool
    shard: int
    arrival: float
    completion: float | None = None
    epoch: int | None = None

    @property
    def done(self) -> bool:
        """Whether the update has been applied."""
        return self.completion is not None


class DynamicShardedService(ShardedDictionaryService):
    """Shards of replicated dynamic dictionaries behind read+write batching.

    Keeps :class:`~repro.serve.service.ShardedDictionaryService`'s
    request path and adds the write path.  A read batch executes as one
    majority vote across the shard's live replicas, so it neither
    routes nor queues behind a replica: the inherited routers and
    busy-until clocks stay idle, and autotune observes no backlog.
    """

    capabilities = frozenset(("capacity", "update-capacity"))

    def __init__(
        self,
        shards: list[ReplicatedDynamicDictionary],
        boundaries: list[int],
        max_batch: int = 32,
        max_delay: float = 1.0,
        capacity: int = 1024,
        update_capacity: int = 256,
        update_batch: int = 8,
        update_delay: float = 0.5,
        probe_time: float = 0.0,
        seed=0,
        log_retention: int | None = None,
    ):
        super().__init__(
            shards,
            boundaries,
            max_batch=max_batch,
            max_delay=max_delay,
            capacity=capacity,
            probe_time=probe_time,
            seed=seed,
        )
        check_positive_integer("update_capacity", update_capacity)
        for i, shard in enumerate(self.shards):
            shard.set_shard(i)
        self.write_batchers = [
            MicroBatcher(max_size=update_batch, max_delay=update_delay)
            for _ in range(self.num_shards)
        ]
        self.update_capacity = int(update_capacity)
        self._pending_updates = 0
        self._log_warned = False
        if log_retention is not None:
            check_positive_integer("log_retention", log_retention)
        #: Compact shard logs whenever the retained total reaches this
        #: bound (None = never: the pre-compaction unbounded behavior).
        self.log_retention = (
            None if log_retention is None else int(log_retention)
        )
        #: Optional :class:`~repro.persist.CheckpointStore`; every call
        #: site is guarded so ``None`` runs the seed code path.
        self.checkpoints = None
        self._checkpoint_every: float | None = None
        self._next_checkpoint: float | None = None
        #: Constructor keywords :func:`restore_dynamic_service` rebuilds
        #: the service with (checkpoint metadata).  A Generator seed is
        #: not recordable; restore then falls back to seed 0 — answers
        #: are rng-independent, only probe placement shifts.
        self.build_config: dict = {
            "max_batch": int(max_batch),
            "max_delay": float(max_delay),
            "capacity": int(capacity),
            "update_capacity": int(update_capacity),
            "update_batch": int(update_batch),
            "update_delay": float(update_delay),
            "probe_time": float(probe_time),
            "log_retention": self.log_retention,
        }
        if isinstance(seed, (int, np.integer)):
            self.build_config["seed"] = int(seed)

    def attach_telemetry(self, hub) -> None:
        """Attach a :class:`~repro.telemetry.hub.TelemetryHub` (or None).

        Refuses a hub carrying a contention monitor with
        :class:`~repro.errors.TelemetryError`: a dynamic shard's probes
        land on the tables of its levels, which come and go with every
        carry, so there is no single Φ matrix to compare against.
        """
        if hub is not None and hub.contention is not None:
            raise TelemetryError(
                f"{type(self).__name__} cannot run a contention monitor: "
                "its levels have no single per-cell load matrix"
            )
        super().attach_telemetry(hub)

    def attach_checkpoints(self, store, every: float | None = None) -> None:
        """Attach a :class:`~repro.persist.CheckpointStore` (or None).

        With ``every`` set, :meth:`advance` writes a new generation
        each time that much virtual time passes; without it,
        checkpoints happen only on explicit :meth:`checkpoint` calls.
        """
        self.checkpoints = store
        self._checkpoint_every = None if every is None else float(every)
        self._next_checkpoint = None

    def checkpoint(self, now: float) -> int:
        """Write one durable generation: base snapshots + log suffixes.

        Under a retention policy the log compacts first *only* when the
        retained entries have reached the bound (the same trigger the
        write path uses), so the saved suffix — and therefore the
        recovery replay length — is bounded by ``log_retention``
        without forcing a compaction on every save.  Returns the new
        generation number.
        """
        from repro.errors import CheckpointError

        if self.checkpoints is None:
            raise CheckpointError(
                "no checkpoint store attached; call attach_checkpoints first"
            )
        compacted = 0
        if (
            self.log_retention is not None
            and self.update_log_entries() >= self.log_retention
        ):
            compacted = self.compact_logs()
        generation = self.checkpoints.save(
            self, now=float(now), compacted=compacted
        )
        self.stats.checkpoints += 1
        return generation

    def compact_logs(self) -> int:
        """Fold every shard's retained log into its base snapshot.

        Shards with crashed replicas refuse (their log is still needed
        for rebuild) and retain their entries; returns updates folded.
        """
        folded = 0
        for shard in self.shards:
            folded += shard.compact_log()
        if folded:
            self.stats.compactions += 1
        return folded

    # -- the write path ----------------------------------------------------------

    def submit_update(
        self, key: int, is_insert: bool, now: float
    ) -> UpdateTicket:
        """Admit one insert/delete at virtual time ``now``.

        Raises :class:`~repro.errors.UpdateBacklogError` when the count
        of accepted-but-unapplied updates has reached the configured
        bound.  The returned ticket may already be ``done`` if its
        arrival flushed a full write group.
        """
        shard = self.shard_of(key)
        if self._pending_updates >= self.update_capacity:
            self.stats.shed_updates += 1
            raise UpdateBacklogError(
                self._pending_updates, self.update_capacity
            )
        ticket = UpdateTicket(
            key=int(key), is_insert=bool(is_insert),
            shard=shard, arrival=float(now),
        )
        self._pending_updates += 1
        self.stats.updates_submitted += 1
        batch = self.write_batchers[shard].add(ticket, now)
        if batch is not None:
            self._apply_group(shard, batch)
        return ticket

    def _apply_group(self, shard: int, batch: Batch) -> int:
        """Apply one flushed write group in lockstep; advance the epoch once."""
        tickets: list[UpdateTicket] = batch.requests
        ops = [(t.key, t.is_insert) for t in tickets]
        epoch = self.shards[shard].apply_batch(ops)
        for t in tickets:
            t.epoch = epoch
            t.completion = float(batch.flushed)
        self._pending_updates -= len(tickets)
        self.stats.updates_applied += len(tickets)
        self.stats.update_groups += 1
        if BUS.active:
            BUS.emit(UpdateEvent(shard=shard, size=len(tickets), epoch=epoch))
        if (
            self.log_retention is not None
            and self.update_log_entries() >= self.log_retention
        ):
            self.compact_logs()
        log_entries = self.update_log_entries()
        if self.telemetry is not None and self.telemetry.metrics is not None:
            self.telemetry.metrics.gauge(
                "dynamic_update_log_entries",
                "retained replayed-update log entries across shards",
            ).set(float(log_entries))
        if log_entries < UPDATE_LOG_WARN_THRESHOLD:
            # Compaction brought the log back under the threshold:
            # re-arm so a later runaway is reported again.
            self._log_warned = False
        elif not self._log_warned:
            self._log_warned = True
            warnings.warn(
                f"dynamic update log holds {log_entries} retained entries "
                f"(threshold {UPDATE_LOG_WARN_THRESHOLD}); configure "
                f"log_retention to compact the log into a base snapshot, "
                f"or memory grows without bound under sustained writes",
                RuntimeWarning,
                stacklevel=2,
            )
        return len(tickets)

    def _flush_writes(self, shard: int, now: float) -> int:
        """Drain a shard's pending write batch (read-your-writes barrier)."""
        batch = self.write_batchers[shard].drain(now)
        if batch is None:
            return 0
        return self._apply_group(shard, batch)

    # -- the read path -----------------------------------------------------------

    def _flush(self, now: float, drain: bool) -> int:
        """Apply due (or, draining, all) write groups, then flush reads.

        Writes go first, so a read flushed at ``now`` sees every update
        due by ``now``; a non-draining flush then writes any checkpoint
        the attached store's cadence calls for.
        """
        for shard, batcher in enumerate(self.write_batchers):
            batch = batcher.drain(now) if drain else batcher.poll(now)
            if batch is not None:
                self._apply_group(shard, batch)
        completed = super()._flush(now, drain)
        if (
            not drain
            and self.checkpoints is not None
            and self._checkpoint_every is not None
        ):
            if self._next_checkpoint is None:
                self._next_checkpoint = float(now) + self._checkpoint_every
            elif float(now) >= self._next_checkpoint:
                self.checkpoint(float(now))
                self._next_checkpoint = float(now) + self._checkpoint_every
        return completed

    def _execute_batch(self, shard, tickets, xs, now, batch_span=None) -> None:
        """Execute one flushed read batch against the shard's vote."""
        # Read-your-writes: updates admitted before this read flush are
        # applied before the read executes.
        self._flush_writes(shard, now)
        dictionary = self.shards[shard]
        before = dictionary.probe_total()
        answers = dictionary.query_batch(xs, self._rng)
        probes = dictionary.probe_total() - before
        finish = self._account(shard, -1, probes, now, batch_span)
        self._stamp(tickets, range(len(tickets)), answers, finish, None)

    # -- pinned multi-key reads ----------------------------------------------------

    def read_pinned(self, keys, now: float) -> tuple[np.ndarray, dict]:
        """Linearizable multi-key read against one consistent cut.

        Drains pending writes (so the cut includes every admitted
        update), pins each touched shard's current epoch, answers all
        keys against the pinned snapshots, and releases the pins.
        Returns ``(answers, epochs)`` where ``epochs`` maps shard index
        to the epoch the read observed.
        """
        keys = np.asarray(keys, dtype=np.int64)
        shard_ids = self._shards_of(keys)
        answers = np.zeros(keys.shape, dtype=bool)
        epochs: dict[int, int] = {}
        pins: list[tuple[int, EpochPin, np.ndarray]] = []
        for shard in np.unique(shard_ids):
            shard = int(shard)
            self._flush_writes(shard, float(now))
            pin = self.shards[shard].pin()
            epochs[shard] = pin.epoch
            pins.append((shard, pin, shard_ids == shard))
        try:
            for shard, pin, sel in pins:
                answers[sel] = self.shards[shard].query_pinned(
                    pin, keys[sel], self._rng
                )
        finally:
            for _, pin, _ in pins:
                pin.release()
        return answers, epochs

    # -- fault passthrough ---------------------------------------------------------

    def crash_replica(self, shard: int, replica: int) -> None:
        """Crash one replica of one shard (chaos hook; requires armed)."""
        self.shards[int(shard)].crash_replica(replica)

    def rebuild_replica(self, shard: int, replica: int) -> None:
        """Rebuild one crashed replica by log replay (requires armed)."""
        self.shards[int(shard)].rebuild_replica(replica)

    def corrupt_cell(
        self, shard: int, replica: int, level_index: int, flat: int, mask: int
    ) -> None:
        """Silently corrupt one level cell of one replica (requires armed)."""
        self.shards[int(shard)].corrupt_cell(replica, level_index, flat, mask)

    # -- introspection -------------------------------------------------------------

    @property
    def pending_updates(self) -> int:
        """Updates admitted but not yet applied."""
        return self._pending_updates

    def epochs_by_shard(self) -> list[int]:
        """Each shard's current epoch."""
        return [s.epoch for s in self.shards]

    def update_log_entries(self) -> int:
        """Retained replayed-update log entries across all shards.

        The quantity behind :data:`UPDATE_LOG_WARN_THRESHOLD` and the
        ``dynamic_update_log_entries`` gauge.  Without a
        ``log_retention`` bound this grows with every applied update
        (each shard keeps its whole log so crashed replicas can be
        rebuilt by replay); with compaction it is the post-compaction
        suffix length — the bound on rebuild/recovery replay work.
        Lifetime totals stay visible as ``shardN_updates`` in
        :meth:`stats_row`.
        """
        return sum(int(s.retained_log_entries) for s in self.shards)

    def stats_row(self) -> dict:
        """Service counters plus per-shard epoch/fault/space stats."""
        row = super().stats_row()
        del row["failovers"]  # a majority vote never fails over
        row["pending_updates"] = self._pending_updates
        row["update_log_entries"] = self.update_log_entries()
        for i, shard in enumerate(self.shards):
            for k, v in shard.stats().items():
                row[f"shard{i}_{k}"] = v
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicShardedService(shards={self.num_shards}, "
            f"epochs={self.epochs_by_shard()}, "
            f"completed={self.stats.completed})"
        )


def build_dynamic_service(
    universe_size: int,
    num_shards: int = 1,
    replicas: int = 3,
    max_batch: int = 32,
    max_delay: float = 1.0,
    capacity: int = 1024,
    update_capacity: int = 256,
    update_batch: int = 8,
    update_delay: float = 0.5,
    probe_time: float = 0.0,
    log_retention: int | None = None,
    min_level_width: int = 0,
    verify_rebuilds: bool = False,
    armed: bool = False,
    seed=0,
) -> DynamicShardedService:
    """Construct an (initially empty) mutable sharded service.

    The universe splits into ``num_shards`` equal contiguous ranges,
    each served by a :class:`~repro.dynamic.replicated.
    ReplicatedDynamicDictionary` with ``replicas`` lockstep replicas.
    ``armed=True`` enables the chaos fault hooks (crash / corrupt /
    rebuild), mirroring ``FaultConfig.armed`` on the static stack.
    """
    universe_size = int(universe_size)
    num_shards = check_positive_integer("num_shards", num_shards)
    rng = as_generator(seed)
    boundaries = [
        (universe_size * i) // num_shards for i in range(num_shards)
    ]
    shards = [
        ReplicatedDynamicDictionary(
            universe_size,
            replicas,
            seed=int(rng.integers(0, 2**63 - 1)),
            min_level_width=min_level_width,
            verify_rebuilds=verify_rebuilds,
            armed=armed,
        )
        for _ in range(num_shards)
    ]
    return DynamicShardedService(
        shards,
        boundaries,
        max_batch=max_batch,
        max_delay=max_delay,
        capacity=capacity,
        update_capacity=update_capacity,
        update_batch=update_batch,
        update_delay=update_delay,
        probe_time=probe_time,
        log_retention=log_retention,
        seed=rng.integers(0, 2**63 - 1),
    )
