"""Reconfiguration executor: applying control-plane decisions safely.

The executor is the only component that mutates a running service.  It
owns the three invariants every action must keep:

- **Probe-accounting isolation** — all reconfiguration reads (cloning
  a replica's rows from a healthy source, canary-verifying a rebuilt
  structure) are charged to a dedicated reconfiguration
  :class:`~repro.cellprobe.counters.ProbeCounter`, exactly like the
  healing layer's repair counters (:mod:`repro.heal`).  The query-path
  counters never see control-plane work, so a controller-disabled
  service digests byte-identically and verification can be toggled
  without moving a single query-path probe.
- **Epoch-boundary atomicity** — a structural action builds the new
  replica set *next to* the live one, then swaps it into
  ``service.shards[i]`` in one assignment and advances the executor's
  :class:`~repro.dynamic.epoch.EpochManager`, retiring the old table.
  In-flight batches dispatched before the swap finish against the old
  table they captured; batches flushed after see only the new one.
- **Capability honesty** — structural actions swap whole tables and
  routers, which is impossible when replica state lives elsewhere (the
  multicore fabric's workers hold shared-memory segments; the dynamic
  service's replicas advance by lockstep log replay).  Each service
  class declares what it supports in its ``capabilities`` set; those
  two declare admission tuning only, and asking for more raises
  :class:`~repro.errors.ActionUnsupportedError` instead of corrupting
  a live table.

Split cloning follows the :class:`~repro.heal.ReplicaRebuilder` idiom:
uncharged ``peek_row`` reads of the source replica with explicit
``record_batch`` charges on the reconfiguration counter, and free
construction-time ``write_row`` stores into the new outer table.
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.dictionaries.replicated import ReplicatedDictionary
from repro.dynamic.epoch import EpochManager
from repro.errors import ActionUnsupportedError, ReconfigError
from repro.heal import charged_to
from repro.serve.router import LeastLoadedRouter, make_router
from repro.telemetry.events import BUS, ReconfigEvent
from repro.utils.rng import as_generator, spawn_generators

#: Action kinds that rebuild a shard's replica set in place.
STRUCTURAL_ACTIONS = ("split", "join", "scheme-switch")

#: Action kinds that retune an admission bound.
ADMISSION_ACTIONS = ("capacity", "update-capacity")


def scheme_name(dictionary) -> str:
    """The registry name of a replicated dictionary's inner scheme."""
    inner = getattr(dictionary, "inner", None)
    if inner is None:
        return "dynamic"
    from repro.experiments.common import SCHEMES

    for name, cls in SCHEMES.items():
        if type(inner) is cls:
            return name
    return type(inner).__name__


class ReconfigExecutor:
    """Applies :class:`~repro.autotune.controller.Decision` records.

    Two private RNG streams keep verification orthogonal to structure:
    ``_rng`` seeds new routers and rebuilt inner schemes (drawn
    identically whether or not verification runs), while
    ``_verify_rng`` feeds canary sampling only — so toggling
    ``verify_clones`` cannot shift a structural draw.
    """

    def __init__(self, service, seed=0):
        self.service = service
        #: The action kinds among the service's declared capabilities.
        self.capabilities = service.capabilities & frozenset(
            STRUCTURAL_ACTIONS + ADMISSION_ACTIONS
        )
        self._rng, self._verify_rng = spawn_generators(
            as_generator(seed), 2
        )
        self.epochs = EpochManager()
        #: Cumulative reconfiguration probes (clones + canaries).
        self.reconfig_probes = 0
        #: Applied-action ledger: flat dicts for tables/inspection.
        self.actions: list[dict] = []

    # -- dispatch ----------------------------------------------------------------

    def apply(self, decision, now: float, verify: bool = True,
              verify_queries: int = 16) -> dict:
        """Apply one decision; returns ``{kind, shard, probes, epoch}``.

        Raises :class:`~repro.errors.ActionUnsupportedError` for a kind
        outside this service's capabilities and
        :class:`~repro.errors.ReconfigError` when preconditions fail
        (the controller records those as skips and moves on).
        """
        kind = decision.kind
        if kind not in self.capabilities:
            raise ActionUnsupportedError(
                f"action {kind!r} unsupported on "
                f"{type(self.service).__name__}; capabilities: "
                f"{sorted(self.capabilities)}"
            )
        now = float(now)
        if kind == "split":
            result = self._split(
                decision.shard, now, verify, verify_queries
            )
        elif kind == "join":
            result = self._join(decision.shard, now)
        elif kind == "scheme-switch":
            result = self._scheme_switch(
                decision.shard, decision.target, now, verify,
                verify_queries,
            )
        elif kind == "capacity":
            result = self._capacity(decision)
        else:  # update-capacity
            result = self._update_capacity(decision)
        self.reconfig_probes += result["probes"]
        entry = {"now": now, **result}
        self.actions.append(entry)
        if BUS.active:
            BUS.emit(ReconfigEvent(
                kind=result["kind"], shard=result["shard"],
                before=result["before"], after=result["after"],
                probes=result["probes"], epoch=result["epoch"],
                target=result.get("target", ""),
            ))
        return entry

    # -- preconditions -----------------------------------------------------------

    def _require_steady(self, shard: int, action: str) -> None:
        """Structural actions need every replica live and healthy."""
        service = self.service
        d = service.shards[shard]
        router = service.routers[shard]
        if len(router.live) != d.replicas:
            raise ReconfigError(
                f"{action} shard {shard}: "
                f"{d.replicas - len(router.live)} replica(s) down"
            )
        health = service.health
        if health is None:
            return
        for r in range(d.replicas):
            machine = health.machines.get((shard, r))
            if machine is not None and machine.state != "healthy":
                raise ReconfigError(
                    f"{action} shard {shard}: replica {r} is "
                    f"{machine.state}"
                )
        if health.rebuilders[shard].active:
            raise ReconfigError(
                f"{action} shard {shard}: rebuild in progress"
            )

    def _canary(self, dictionary, replica: int, queries: int) -> int:
        """Verify one replica against ground truth; returns probes.

        Runs a seeded positive/negative sample through the replica with
        the table's counter swapped for a throwaway reconfiguration
        counter (:func:`~repro.heal.charged_to`), so the new table's
        query-path counter starts clean.  A wrong answer aborts the
        action before the swap.
        """
        keys = np.asarray(dictionary.keys, dtype=np.int64)
        rng = self._verify_rng
        pos = keys[rng.integers(0, keys.size, size=int(queries))]
        neg = rng.integers(0, dictionary.universe_size, size=int(queries))
        sample = np.concatenate([pos, neg])
        counter = ProbeCounter(dictionary.table.num_cells)
        with charged_to(dictionary.table, counter):
            answers = dictionary.query_batch_on(sample, replica, rng)
        expected = np.isin(sample, keys)
        if bool(np.any(answers != expected)):
            raise ReconfigError(
                f"canary caught {int(np.sum(answers != expected))} wrong "
                f"answer(s) on replica {replica}; swap aborted"
            )
        return counter.total_probes()

    # -- structural actions ------------------------------------------------------

    def _rebuild_replica_set(self, old, replicas: int):
        """A fresh replica set around ``old``'s inner, same fault layer.

        Survivors keep their live outer state verbatim (free
        construction-time writes — state transfer is a memmove, not
        probe work; deliberately including any undetected corruption,
        a split must not silently heal).
        """
        new = ReplicatedDictionary(
            old.inner, replicas, mode=old.mode, faults=old.faults,
            max_retries=old.max_retries,
        )
        for row in range(min(old.table.rows, new.table.rows)):
            new.table.write_row(row, old.table._cells[row])
        return new

    def _swap(self, shard: int, new, router, busy) -> int:
        """Atomically install a rebuilt shard at an epoch boundary."""
        service = self.service
        old = service.shards[shard]
        self.epochs.retire((shard, old.table), words=old.table.num_cells)
        service.shards[shard] = new
        service.routers[shard] = router
        service._busy_until[shard] = busy
        epoch = self.epochs.advance()
        if service.health is not None:
            service.health.rebind_shard(shard)
        return epoch

    def _clone_router(self, old_router, replicas: int):
        """A same-policy router for the new geometry, state carried over.

        Survivor breakers move wholesale (they are per-replica state
        machines); a least-loaded router keeps survivor load totals so
        the policy does not restart from a blank slate.
        """
        service = self.service
        router = make_router(
            service.router_name, replicas,
            int(self._rng.integers(0, 2**63 - 1)),
        )
        carry = min(replicas, len(old_router.breakers))
        for r in range(carry):
            router.breakers[r] = old_router.breakers[r]
        if isinstance(router, LeastLoadedRouter) and isinstance(
            old_router, LeastLoadedRouter
        ):
            router.loads[:carry] = old_router.loads[:carry]
        return router

    def _split(self, shard: int, now: float, verify: bool,
               verify_queries: int) -> dict:
        """Grow one shard's replication by cloning a healthy replica."""
        self._require_steady(shard, "split")
        service = self.service
        d = service.shards[shard]
        before = d.replicas
        after = before + 1
        new = self._rebuild_replica_set(d, after)
        # The new replica clones row-by-row from the least-busy healthy
        # source, every read charged to the reconfiguration counter —
        # the ReplicaRebuilder discipline from repro.heal.
        busy = service._busy_until[shard]
        source = int(np.argmin(busy))
        counter = ProbeCounter(d.table.num_cells)
        columns = np.arange(d.table.s)
        read_table = d._read_table
        for inner_row in range(d.inner_rows):
            outer = d.replica_row(source, inner_row)
            values = read_table.peek_row(outer)
            counter.record_batch(0, outer * d.table.s + columns)
            new.table.write_row(
                new.replica_row(after - 1, inner_row), values
            )
        probes = counter.total_probes()
        if verify:
            probes += self._canary(new, after - 1, verify_queries)
        router = self._clone_router(service.routers[shard], after)
        epoch = self._swap(
            shard, new, router, np.append(busy, 0.0),
        )
        return {
            "kind": "split", "shard": int(shard), "before": before,
            "after": after, "probes": probes, "epoch": epoch,
            "source": source,
        }

    def _join(self, shard: int, now: float) -> dict:
        """Shrink one shard's replication, draining the victim first."""
        self._require_steady(shard, "join")
        service = self.service
        d = service.shards[shard]
        before = d.replicas
        if before < 2:
            raise ReconfigError(
                f"join shard {shard}: already at one replica"
            )
        after = before - 1
        victim = before - 1
        busy = service._busy_until[shard]
        if float(busy[victim]) > float(now):
            raise ReconfigError(
                f"join shard {shard}: replica {victim} busy until "
                f"{float(busy[victim]):.3f} (graceful drain pending)"
            )
        new = self._rebuild_replica_set(d, after)
        router = self._clone_router(service.routers[shard], after)
        epoch = self._swap(
            shard, new, router, busy[:after].copy(),
        )
        return {
            "kind": "join", "shard": int(shard), "before": before,
            "after": after, "probes": 0, "epoch": epoch,
            "victim": victim,
        }

    def _scheme_switch(self, shard: int, target: str, now: float,
                       verify: bool, verify_queries: int) -> dict:
        """Rebuild one shard on another scheme; swap at an epoch."""
        self._require_steady(shard, "scheme-switch")
        service = self.service
        d = service.shards[shard]
        from repro.experiments.common import SCHEMES

        if target not in SCHEMES:
            raise ReconfigError(
                f"unknown target scheme {target!r}; options: "
                f"{sorted(SCHEMES)}"
            )
        current = scheme_name(d)
        if current == target:
            raise ReconfigError(
                f"scheme-switch shard {shard}: already running "
                f"{target!r}"
            )
        # Background build: the new inner constructs on its own table
        # (construction writes, not query probes), then replicates.
        inner = SCHEMES[target](
            np.asarray(d.keys, dtype=np.int64),
            d.universe_size,
            rng=np.random.default_rng(
                self._rng.integers(0, 2**63 - 1)
            ),
        )
        new = ReplicatedDictionary(
            inner, d.replicas, mode=d.mode, faults=d.faults,
            max_retries=d.max_retries,
        )
        probes = 0
        if verify:
            probes = self._canary(new, 0, verify_queries)
        epoch = self._swap(
            shard, new, service.routers[shard],
            service._busy_until[shard],
        )
        return {
            "kind": "scheme-switch", "shard": int(shard),
            "before": d.replicas, "after": new.replicas,
            "probes": probes, "epoch": epoch, "target": target,
            "from": current,
        }

    # -- admission actions -------------------------------------------------------

    def _capacity(self, decision) -> dict:
        """Retarget the admission-control capacity bound."""
        self.service.admission.capacity = int(decision.after)
        return {
            "kind": "capacity", "shard": -1,
            "before": int(decision.before), "after": int(decision.after),
            "probes": 0, "epoch": self.epochs.epoch,
        }

    def _update_capacity(self, decision) -> dict:
        """Retarget the write-backlog bound (dynamic service only)."""
        self.service.update_capacity = int(decision.after)
        return {
            "kind": "update-capacity", "shard": -1,
            "before": int(decision.before), "after": int(decision.after),
            "probes": 0, "epoch": self.epochs.epoch,
        }
