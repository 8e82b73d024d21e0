"""Replicated dynamic dictionary: lockstep updates, voted reads, epochs.

The static :class:`~repro.dictionaries.replicated.ReplicatedDictionary`
copies one built table R times; a *dynamic* structure cannot, because
each replica owns a living level hierarchy that rebuilds as it goes.
Replication here is **state-machine replication**: R independent
:class:`~repro.dynamic.dictionary.DynamicLowContentionDictionary`
replicas (each with its own spawned rng stream, so their hash choices
differ — corruption of one replica's tables is uncorrelated with the
others') apply the same update log in deterministic lockstep.  A
crashed replica stops applying updates and loses its levels; rebuild
replays the full log against the replica's re-derived rng stream,
reconstructing *byte-identical* state to a replica that never crashed.

Reads are majority votes in the style of the static ``"majority"``
mode: every live replica executes the honest query against its own
tables (all probes charged to its own per-level counters), detected
failures abstain, ties resolve to ``False``, and an all-abstain round
raises :class:`~repro.errors.FaultExhaustedError`.  Because replicas
disagree only when damaged, a strict majority of healthy replicas
guarantees correct answers under silent cell corruption.

Every applied update (or micro-batched group via :meth:`apply_batch`)
advances an :class:`~repro.dynamic.epoch.EpochManager` epoch.  Levels
unlinked by merges/flattens are retired into the manager and reclaimed
only once no pinned reader remains; :meth:`pin` captures a consistent
snapshot (per-replica level lists + the live key set) against which
:meth:`query_pinned` serves linearizable multi-key reads.

Rebuild verification probes (``verify_rebuilds=True``) are charged via
:func:`repro.heal.charged_to` to per-level rebuild counters, so each
replica's *query*-counter digest stays byte-identical to an
unverified replay of the same stream.

**Log compaction & snapshots** (the durability substrate of
:mod:`repro.persist`): the update log is kept as *groups* (one per
applied batch — one epoch advance each, so replay is
epoch-faithful).  :meth:`compact_log` folds the retained groups into a
pickled **base snapshot** of every replica's full state (level
structures, install counter, cost account, and the shared rng stream's
``bit_generator.state``) and clears the log, so
:meth:`rebuild_replica` becomes *base restore + bounded suffix replay*
instead of unbounded full-log replay, and memory stops growing with
update volume.  :meth:`snapshot_payload` /
:meth:`from_snapshot` round-trip the whole structure through a plain
dict; restore is byte-identical (``table._cells``) to a never-crashed
twin because the snapshot carries the exact rng stream position, and
restore-time canary verification (:meth:`verify_state`) charges its
probes to throwaway recovery counters via
:func:`repro.heal.charged_to`, so query-counter digests stay
byte-identical whether or not recovery verification ran.
"""

from __future__ import annotations

import dataclasses
import pickle
from contextlib import ExitStack

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.dictionaries.replicated import _REPLICA_FAILURES
from repro.dynamic.dictionary import DynamicLowContentionDictionary
from repro.dynamic.epoch import EpochManager, EpochPin
from repro.dynamic.levels import lookup_levels
from repro.errors import (
    FaultExhaustedError,
    HealError,
    ParameterError,
    ReplicaUnavailableError,
    VerificationError,
)
from repro.heal import charged_to
from repro.utils.rng import as_generator, spawn_generators


@dataclasses.dataclass
class DynamicFaultStats:
    """Counters for the fault paths of the replicated dynamic dictionary."""

    crash_hits: int = 0
    abstentions: int = 0
    crashes: int = 0
    rebuilds: int = 0
    corruptions: int = 0


def _apply_ops(replicas, ops) -> None:
    """Apply ``ops`` in order, each to all of ``replicas`` in lockstep.

    Replicas that apply one log hold the same entries, so each op's
    rebuilds are built once for all of them, each replica drawing from
    its own stream (:meth:`DynamicLowContentionDictionary.update_lockstep`).
    A replica's state depends only on its log and its stream, so it ends
    as applying the ops to it alone would leave it; only the interleaving
    of different replicas' rebuild events and retirements differs.
    """
    for k, ins in ops:
        DynamicLowContentionDictionary.update_lockstep(replicas, k, ins)


class ReplicatedDynamicDictionary:
    """R lockstep dynamic replicas with voted reads and epoch versioning."""

    name = "replicated-dynamic"

    def __init__(
        self,
        universe_size: int,
        replicas: int,
        seed: int = 0,
        max_trials: int = 500,
        min_level_width: int = 0,
        verify_rebuilds: bool = False,
        armed: bool = False,
    ):
        if replicas < 1:
            raise ParameterError("replicas must be >= 1")
        self.universe_size = int(universe_size)
        self.replicas = int(replicas)
        self.seed = int(seed)
        self.max_trials = int(max_trials)
        self.min_level_width = int(min_level_width)
        self.verify_rebuilds = bool(verify_rebuilds)
        # Fault hooks are chaos-only: they must be armed explicitly,
        # mirroring FaultConfig.armed on the static stack.
        self.armed = bool(armed)
        self.epochs = EpochManager()
        self.fault_stats = DynamicFaultStats()
        self._crashed: set[int] = set()
        #: The retained update log: one tuple of ``(key, is_insert)``
        #: ops per applied group (one epoch advance each).
        self._log: list[tuple[tuple[int, bool], ...]] = []
        #: Updates folded into the base snapshot by compaction.
        self._log_base = 0
        #: Pickled per-replica base state (None until first compaction).
        self._base_state: bytes | None = None
        #: Epoch at the moment the base snapshot was captured.
        self._base_epoch = 0
        self.compactions = 0
        #: Probes charged to recovery counters by restore verification.
        self.recovery_probes = 0
        self._replicas = [
            self._fresh_replica(r) for r in range(self.replicas)
        ]

    def _fresh_replica(self, r: int) -> DynamicLowContentionDictionary:
        """Build replica ``r`` on its re-derivable spawned rng stream."""
        rng = spawn_generators(self.seed, self.replicas)[r]
        d = DynamicLowContentionDictionary(
            self.universe_size,
            rng=rng,
            max_trials=self.max_trials,
            min_level_width=self.min_level_width,
            verify_rebuilds=self.verify_rebuilds,
            verify_seed=r,
            on_retire=lambda level, _r=r: self.epochs.retire(
                (_r, level), words=level.structure.table.num_cells
            ),
        )
        d._levels.replica = r
        return d

    # -- updates (lockstep) ------------------------------------------------------

    def apply(self, key: int, is_insert: bool) -> int:
        """Apply one update to every live replica; advance the epoch."""
        return self.apply_batch([(key, bool(is_insert))])

    def insert(self, key: int) -> int:
        """Insert ``key`` on all live replicas (one epoch)."""
        return self.apply(key, True)

    def delete(self, key: int) -> int:
        """Delete ``key`` on all live replicas (one epoch)."""
        return self.apply(key, False)

    def apply_batch(self, ops) -> int:
        """Apply a micro-batched update group in lockstep, op by op.

        Each op is applied to every live replica before the next
        (:func:`_apply_ops`), and the epoch advances **once** after the
        whole group — the group is one atomic version step for pinned
        readers.
        """
        ops = [(int(k), bool(ins)) for k, ins in ops]
        for k, _ in ops:
            if not 0 <= k < self.universe_size:
                raise ParameterError(f"key {k} outside universe")
        _apply_ops(
            [d for r, d in enumerate(self._replicas) if r not in self._crashed],
            ops,
        )
        self._log.append(tuple(ops))
        return self.epochs.advance()

    @property
    def epoch(self) -> int:
        return self.epochs.epoch

    @property
    def update_count(self) -> int:
        """Updates applied since construction (compacted + retained)."""
        return self._log_base + self.retained_log_entries

    @property
    def retained_log_entries(self) -> int:
        """Updates still held in the replay log (the recovery replay bound)."""
        return sum(len(g) for g in self._log)

    # -- fault hooks (chaos schedules / healing) ---------------------------------

    def _require_armed(self) -> None:
        if not self.armed:
            raise HealError(
                f"{self.name} fault hooks are not armed; construct with "
                "armed=True to crash/corrupt replicas dynamically"
            )

    def _check_replica(self, replica: int) -> int:
        r = int(replica)
        if not 0 <= r < self.replicas:
            raise ParameterError(
                f"replica {r} out of range [0, {self.replicas})"
            )
        return r

    def crash_replica(self, replica: int) -> None:
        """Crash ``replica`` now: it loses its levels and stops applying."""
        self._require_armed()
        r = self._check_replica(replica)
        d = self._replicas[r]
        for i in range(len(d._levels.levels)):
            d._levels.levels[i] = None
        d._levels.recount()
        self._crashed.add(r)
        self.fault_stats.crashes += 1

    def rebuild_replica(self, replica: int) -> None:
        """Rebuild ``replica`` from the base snapshot plus the log suffix.

        Before the first compaction the base is empty and this is the
        original full-log replay; after compaction the replacement
        restores the pickled base state (exact rng stream position
        included) and replays only the retained suffix — bounded
        recovery work.  Either way the replacement re-derives the
        replica's original spawned rng stream, so its level state is
        byte-identical to a replica that never crashed.
        """
        self._require_armed()
        r = self._check_replica(replica)
        if self._base_state is not None:
            base = pickle.loads(self._base_state)
            d = self._restore_replica_state(r, base["replicas"][r])
        else:
            d = self._fresh_replica(r)
        for group in self._log:
            _apply_ops([d], group)
        self._replicas[r] = d
        self._crashed.discard(r)
        self.fault_stats.rebuilds += 1

    def corrupt_cell(
        self, replica: int, level_index: int, flat: int, mask: int
    ) -> None:
        """XOR ``mask`` into one cell of one level table of ``replica``.

        Chaos-level silent corruption: physical, persistent, and not a
        construction write (``table.writes`` untouched) — the voted
        read path is what has to survive it.
        """
        self._require_armed()
        r = self._check_replica(replica)
        levels = self._replicas[r]._levels.levels
        li = int(level_index)
        if not (0 <= li < len(levels)) or levels[li] is None:
            raise ParameterError(
                f"replica {r} has no level {li} to corrupt"
            )
        table = levels[li].structure.table
        row, col = divmod(int(flat) % table.num_cells, table.s)
        table._cells[row, col] ^= np.uint64(mask)
        self.fault_stats.corruptions += 1

    def live_replicas(self) -> list[int]:
        """Replica indices that are not crashed."""
        return [r for r in range(self.replicas) if r not in self._crashed]

    # -- log compaction & snapshots (the durability substrate) -------------------

    def _config(self) -> dict:
        """Constructor arguments, as a plain dict (snapshot metadata)."""
        return {
            "universe_size": self.universe_size,
            "replicas": self.replicas,
            "seed": self.seed,
            "max_trials": self.max_trials,
            "min_level_width": self.min_level_width,
            "verify_rebuilds": self.verify_rebuilds,
            "armed": self.armed,
        }

    @staticmethod
    def _capture_replica_state(d: DynamicLowContentionDictionary) -> dict:
        """One replica's full resumable state as plain picklable values.

        The rng state is the crux: dictionary and level structure share
        one spawned Generator, so capturing ``bit_generator.state`` once
        (and restoring it once) resumes *both* exactly where they were —
        every future level construction draws the same hash choices a
        never-crashed replica would.
        """
        return {
            "rng_state": d.rng.bit_generator.state,
            "installs": d._levels._installs,
            "levels": list(d._levels.levels),
            "account": d.account,
        }

    def _capture_base(self) -> bytes:
        """Serialize every replica's state *now* (immune to later mutation)."""
        state = {
            "replicas": [
                self._capture_replica_state(d) for d in self._replicas
            ],
            "epoch": self.epochs.epoch,
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def _restore_replica_state(
        self, r: int, state: dict
    ) -> DynamicLowContentionDictionary:
        """Rebuild replica ``r`` from a captured state dict.

        Starts from :meth:`_fresh_replica` (which rewires the
        ``on_retire`` hook into this instance's epoch manager), then
        overwrites the shared rng stream position, the level list, the
        install counter (future verify-sweep seeds must continue the
        sequence), and the cost account.  The live count is re-derived
        from the restored levels (captured states do not carry it).
        """
        d = self._fresh_replica(r)
        d.rng.bit_generator.state = state["rng_state"]
        d._levels.levels = list(state["levels"])
        d._levels.recount()
        d._levels._installs = int(state["installs"])
        d.account = state["account"]
        d._levels.account = d.account
        return d

    def compact_log(self) -> int:
        """Fold the retained log into a fresh base snapshot; clear the log.

        Returns the number of updates folded.  Refuses (returns 0)
        while any replica is crashed: a crashed replica's state cannot
        be captured, and compacting would discard the very log its
        rebuild needs.  After compaction, :meth:`rebuild_replica` and
        snapshot restore replay only updates applied since this call.
        """
        if self._crashed:
            return 0
        folded = self.retained_log_entries
        if folded == 0 and self._base_state is not None:
            return 0
        self._base_state = self._capture_base()
        self._base_epoch = self.epochs.epoch
        self._log_base += folded
        self._log = []
        self.compactions += 1
        return folded

    def snapshot_payload(self) -> dict:
        """The durable representation: base snapshot + retained suffix.

        Everything :meth:`from_snapshot` needs to rebuild this structure
        byte-identically: the constructor config, the pickled base state
        from the last compaction (``None`` before the first — the suffix
        is then the *full* log and restore degrades to full-log replay),
        the retained log suffix, and recovery-point metadata (epoch,
        applied-update count, live key set) for inspection tools.
        """
        live = (
            [int(k) for k in self.live_keys()]
            if self.live_replicas() else []
        )
        return {
            "config": self._config(),
            "base": self._base_state,
            "base_updates": self._log_base,
            "base_epoch": self._base_epoch,
            "suffix": [tuple(g) for g in self._log],
            "epoch": self.epochs.epoch,
            "update_count": self.update_count,
            "live_keys": live,
            "compactions": self.compactions,
        }

    @classmethod
    def from_snapshot(
        cls, payload: dict, armed: bool | None = None
    ) -> tuple["ReplicatedDynamicDictionary", dict]:
        """Rebuild a structure from :meth:`snapshot_payload`; report how.

        Restores the base state (exact rng stream positions included)
        and replays the retained suffix — bounded recovery work — or
        replays the full log when the snapshot predates any compaction.
        A replica crashed at snapshot time comes back healthy: replay
        applies every group to every replica, which is exactly the
        lockstep rebuild it was owed.  Returns ``(instance, report)``
        with ``report["source"]`` in ``{"checkpoint", "log"}`` and
        ``report["replayed"]`` counting replayed updates.
        """
        cfg = dict(payload["config"])
        if armed is not None:
            cfg["armed"] = bool(armed)
        inst = cls(**cfg)
        if payload.get("base") is not None:
            base = pickle.loads(payload["base"])
            inst._base_state = payload["base"]
            inst._log_base = int(payload["base_updates"])
            inst._base_epoch = int(payload["base_epoch"])
            inst.epochs.epoch = int(payload["base_epoch"])
            for r in range(inst.replicas):
                inst._replicas[r] = inst._restore_replica_state(
                    r, base["replicas"][r]
                )
            source = "checkpoint"
        else:
            source = "log"
        replayed = 0
        for group in payload.get("suffix", []):
            ops = [(int(k), bool(ins)) for k, ins in group]
            _apply_ops(inst._replicas, ops)
            inst._log.append(tuple(ops))
            inst.epochs.advance()
            replayed += len(ops)
        report = {
            "source": source,
            "replayed": replayed,
            "epoch": inst.epoch,
            "update_count": inst.update_count,
        }
        return inst, report

    def verify_state(self, seed: int = 0, sample: int = 64) -> int:
        """Canary-read live keys on every replica; returns probes charged.

        The paranoid post-restore check: a sample of the ground-truth
        live key set must answer ``True`` on every live replica.  All
        probes are rerouted to throwaway recovery counters via
        :func:`repro.heal.charged_to` and tallied in
        ``recovery_probes`` — the query-counter digest is byte-identical
        whether or not this verification ran (the same isolation
        discipline as rebuild verification).  Raises
        :class:`~repro.errors.VerificationError` on any wrong answer.
        """
        keys = self.live_keys()
        if keys.size == 0:
            return 0
        rng = np.random.default_rng((int(seed), int(keys.size)))
        if keys.size > int(sample):
            keys = np.sort(rng.choice(keys, size=int(sample), replace=False))
        probes = 0
        for r in self.live_replicas():
            d = self._replicas[r]
            levels = tuple(d._levels.levels)
            counters = []
            with ExitStack() as stack:
                for lv in d._levels.nonempty_levels:
                    c = ProbeCounter(lv.structure.table.num_cells)
                    stack.enter_context(
                        charged_to(lv.structure.table, c)
                    )
                    counters.append(c)
                answers = lookup_levels(levels, keys, rng) == 1
            if not bool(np.all(answers)):
                raise VerificationError(
                    int(keys[~answers][0]), False, True
                )
            probes += sum(int(c.total_probes()) for c in counters)
        self.recovery_probes += probes
        return probes

    # -- voted reads -------------------------------------------------------------

    def query(self, x: int, rng=None) -> bool:
        """Majority vote across live replicas: :meth:`query_batch` of one key."""
        return bool(self.query_batch(np.array([x], dtype=np.int64), rng)[0])

    def query_batch(self, xs, rng=None) -> np.ndarray:
        """Vectorized majority vote: each live replica votes on the batch."""
        rng = as_generator(rng)
        xs = np.asarray(xs, dtype=np.int64)
        votes_true = np.zeros(xs.shape, dtype=np.int64)
        voters = 0
        for r in self.live_replicas():
            try:
                answers = self._replicas[r].query_batch(xs, rng)
            except _REPLICA_FAILURES:
                self.fault_stats.abstentions += 1
                continue
            votes_true += answers
            voters += 1
        if voters == 0:
            raise FaultExhaustedError(self.replicas)
        return votes_true * 2 > voters

    def query_batch_on(self, xs, replica: int, rng=None) -> np.ndarray:
        """Run the batch against one *chosen* replica (serve dispatch).

        Raises :class:`~repro.errors.ReplicaUnavailableError` when the
        chosen replica is crashed, so dispatchers can fail over.
        """
        r = self._check_replica(replica)
        if r in self._crashed:
            self.fault_stats.crash_hits += 1
            raise ReplicaUnavailableError(r)
        return self._replicas[r].query_batch(xs, rng)

    # -- ground truth ------------------------------------------------------------

    def _reference_replica(self) -> DynamicLowContentionDictionary:
        live = self.live_replicas()
        if not live:
            raise FaultExhaustedError(self.replicas)
        return self._replicas[live[0]]

    def contains(self, x: int) -> bool:
        """Ground truth (no probes; entry dicts are corruption-immune)."""
        return self._reference_replica().contains(x)

    def live_keys(self) -> np.ndarray:
        """The current key set, sorted (ground truth; no probes)."""
        return self._reference_replica().live_keys()

    # -- epoch-pinned reads ------------------------------------------------------

    def pin(self) -> EpochPin:
        """Pin the current epoch for linearizable multi-key reads.

        The snapshot captures each live replica's level list (levels are
        immutable once installed, so the tuples stay valid forever) and
        the pinned epoch's ground-truth key set.
        """
        snapshot = {
            "levels": {
                r: tuple(self._replicas[r]._levels.levels)
                for r in self.live_replicas()
            },
            "live_keys": self.live_keys(),
        }
        return self.epochs.pin(snapshot)

    def query_pinned(self, pin: EpochPin, xs, rng=None) -> np.ndarray:
        """Majority-voted batch read against the pinned epoch's state.

        Linearizable by construction: every replica walks the level
        list captured at pin time, so updates applied after the pin are
        invisible and the answers match the pinned ground truth
        (``np.isin(xs, pin.snapshot["live_keys"])``) exactly when a
        majority of the captured replicas is healthy.
        """
        rng = as_generator(rng)
        xs = np.asarray(xs, dtype=np.int64)
        votes_true = np.zeros(xs.shape, dtype=np.int64)
        voters = 0
        for r, levels in pin.snapshot["levels"].items():
            if r in self._crashed:
                self.fault_stats.crash_hits += 1
                continue
            try:
                answers = lookup_levels(levels, xs, rng) == 1
            except _REPLICA_FAILURES:
                self.fault_stats.abstentions += 1
                continue
            votes_true += answers
            voters += 1
        if voters == 0:
            raise FaultExhaustedError(self.replicas)
        return votes_true * 2 > voters

    # -- accounting / introspection ----------------------------------------------

    def replica_probe_loads(self) -> np.ndarray:
        """Query probes charged so far to each replica, shape ``(R,)``."""
        loads = np.zeros(self.replicas, dtype=np.int64)
        for r, d in enumerate(self._replicas):
            loads[r] = sum(
                int(lv.structure.table.counter.total_probes())
                for lv in d._levels.nonempty_levels
            )
        return loads

    def probe_total(self) -> int:
        """Query probes charged so far across all replicas.

        The sum of :meth:`replica_probe_loads`: one running total per
        non-empty level, so O(R * levels) and independent of table size.
        """
        return int(self.replica_probe_loads().sum())

    def query_counter_digest(self, replica: int = 0) -> str:
        """One replica's query-counter digest (rebuild probes excluded)."""
        return self._replicas[self._check_replica(replica)].query_counter_digest()

    def rebuild_probes(self, replica: int = 0) -> int:
        """Verification probes charged to one replica's rebuild counters."""
        return self._replicas[self._check_replica(replica)].rebuild_probes

    def account(self, replica: int = 0):
        """One replica's :class:`~repro.dynamic.accounting.UpdateCostAccount`."""
        return self._replicas[self._check_replica(replica)].account

    def set_shard(self, shard: int) -> None:
        """Label every replica's telemetry events with ``shard``."""
        for d in self._replicas:
            d._levels.shard = int(shard)

    @property
    def space_words(self) -> int:
        """Total live table words across replicas (excludes retirees)."""
        return sum(d.space_words for d in self._replicas)

    def stats(self) -> dict:
        """Flat dict for experiments: epochs, faults, space, rebuild work."""
        out = {
            "replicas": self.replicas,
            "live_replicas": len(self.live_replicas()),
            "updates": self.update_count,
            "log_retained": self.retained_log_entries,
            "log_compacted": self._log_base,
            "compactions": self.compactions,
            "recovery_probes": self.recovery_probes,
            "space_words": self.space_words,
            **{f"epoch_{k}": v for k, v in self.epochs.stats().items()},
            **dataclasses.asdict(self.fault_stats),
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedDynamicDictionary(R={self.replicas}, "
            f"live={len(self.live_replicas())}, epoch={self.epoch}, "
            f"updates={self.update_count})"
        )
