"""The sharded dictionary service: the deterministic serving core.

Composes the whole serving stack around the library's structures:

- **keyspace sharding** — the universe ``[0, N)`` splits into
  contiguous ranges, one :class:`~repro.dictionaries.replicated.
  ReplicatedDictionary` (R replicas of an inner scheme) per range;
- **micro-batching** — per-shard :class:`~repro.serve.batcher.
  MicroBatcher` turns the request stream into ``query_batch`` calls
  (the PR 1 batch engine);
- **routing** — a per-shard :class:`~repro.serve.router.Router` assigns
  each batch to replicas; the contention-aware policy balances on the
  live per-cell probe counters;
- **admission control** — a bounded in-flight queue sheds requests with
  :class:`~repro.errors.OverloadError` beyond capacity;
- **fault composition** — a dispatch that hits a crashed replica
  (:class:`~repro.errors.ReplicaUnavailableError` from the PR 2 fault
  layer) marks the replica down in the router, reweights onto the
  survivors, and retries the batch.

The service is **clockless**: every entry point takes ``now``
explicitly and all randomness comes from seeded generators, so a run
driven by the virtual-time loadgen (:mod:`repro.serve.client`) is
byte-reproducible — the E19 determinism guarantee.  The asyncio server
(:mod:`repro.serve.asyncio_server`) drives the same object with the
wall clock.

Replica *service time* is modeled in probe-equivalents: a dispatched
batch occupies its replica for ``probes * probe_time`` time units
(the cell-probe model's only cost measure), which yields honest
queueing latency under load without inventing a second cost model.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Callable

import numpy as np

from repro.dictionaries.replicated import (
    _REPLICA_FAILURES,
    ReplicatedDictionary,
)
from repro.errors import (
    DegradedModeError,
    OverloadError,
    ParameterError,
    QueryError,
    ReplicaUnavailableError,
)
from repro.faults import FaultConfig
from repro.serve.admission import AdmissionController
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.router import Router, make_router
from repro.telemetry.events import (
    BUS,
    DispatchEvent,
    FailoverEvent,
    RouteEvent,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import check_positive_integer

#: Why a deployment without the ``heal`` capability refuses healing.
HEAL_UNSUPPORTED = (
    "healing is unsupported by {service}: it runs in-process only, on "
    "the static service; the fabric (--procs) recovers crashed workers "
    "by failover and respawn, and --dynamic replicas recover by "
    "lockstep log replay"
)


@dataclasses.dataclass
class Ticket:
    """One request's lifecycle: arrival → batch → dispatch → answer."""

    key: int
    shard: int
    arrival: float
    completion: float | None = None
    answer: bool | None = None
    replica: int | None = None
    #: Degradation class: requests with ``priority <= 0`` are shed first
    #: when the healing layer reports reduced healthy capacity.
    priority: int = 0

    @property
    def done(self) -> bool:
        """Whether the request has been served."""
        return self.completion is not None

    @property
    def latency(self) -> float:
        """Completion minus arrival (NaN while in flight)."""
        if self.completion is None:
            return float("nan")
        return self.completion - self.arrival


@dataclasses.dataclass
class ServiceStats:
    """Lifetime counters of one service instance.

    One class for every deployment: the write-path counters stay zero
    on the read-only ones, and ``failovers`` on the dynamic service.
    """

    submitted: int = 0
    completed: int = 0
    batches: int = 0
    probes: int = 0
    failovers: int = 0
    shed_reads: int = 0
    updates_submitted: int = 0
    updates_applied: int = 0
    update_groups: int = 0
    shed_updates: int = 0
    compactions: int = 0
    checkpoints: int = 0

    def row(self) -> dict:
        """Flat dict for experiment tables."""
        return dataclasses.asdict(self)


class ShardedDictionaryService:
    """Shards × replicas of a static dictionary behind batch + routing.

    This class owns the request path of every deployment: keyspace
    checks, admission, micro-batching, per-group charging and ticket
    completion.  The multicore fabric and the dynamic service subclass
    it and override only :meth:`_execute_batch` — how one flushed batch
    runs — plus what their :attr:`capabilities` leave out or add.

    Parameters
    ----------
    shards:
        One replica set per contiguous keyspace range, in range order;
        all must share a ``universe_size``.
    boundaries:
        Shard range starts (``boundaries[i]`` is the first key of shard
        ``i``; shard ``i`` covers ``[boundaries[i], boundaries[i+1])``
        with the last shard ending at ``universe_size``).
    router:
        Routing policy name (:data:`~repro.serve.router.ROUTERS`) —
        each shard gets its own router instance.
    max_batch / max_delay:
        Micro-batch flush policy, per shard.
    capacity:
        Admission-control bound on requests in flight.
    probe_time:
        Replica service time per probe, in virtual time units
        (0 = infinitely fast replicas: completion at flush time).
    seed:
        Seeds the query-execution RNG and the routers.
    """

    #: What this deployment supports beyond serving reads: the action
    #: kinds the autotune :class:`~repro.autotune.reconfig.
    #: ReconfigExecutor` may apply (``capacity``, ``update-capacity``,
    #: ``split``, ``join``, ``scheme-switch``), ``heal`` for
    #: :meth:`enable_healing`, and ``fabric-faults`` for chaos events
    #: aimed at worker processes and shared segments.
    capabilities = frozenset(
        ("capacity", "split", "join", "scheme-switch", "heal")
    )

    def __init__(
        self,
        shards: list[ReplicatedDictionary],
        boundaries: list[int],
        router: str = "least-loaded",
        max_batch: int = 32,
        max_delay: float = 1.0,
        capacity: int = 1024,
        probe_time: float = 0.0,
        seed=0,
    ):
        if not shards:
            raise ParameterError("service needs at least one shard")
        if len(boundaries) != len(shards):
            raise ParameterError(
                f"{len(shards)} shards need {len(shards)} boundaries, "
                f"got {len(boundaries)}"
            )
        if list(boundaries) != sorted(set(int(b) for b in boundaries)):
            raise ParameterError("boundaries must be strictly increasing")
        if int(boundaries[0]) != 0:
            raise ParameterError("first shard must start at key 0")
        self.universe_size = int(shards[0].universe_size)
        if any(
            int(s.universe_size) != self.universe_size for s in shards
        ):
            raise ParameterError("shards must share one universe size")
        if float(probe_time) < 0.0:
            raise ParameterError("probe_time must be >= 0")
        self.shards = list(shards)
        self.num_shards = len(self.shards)
        self._boundaries = np.asarray(
            [int(b) for b in boundaries], dtype=np.int64
        )
        # shard_of runs once per request: bisect over a plain list costs
        # a tenth of a searchsorted call on a scalar.
        self._starts = [int(b) for b in boundaries]
        self.router_name = router
        streams = spawn_generators(as_generator(seed), self.num_shards + 1)
        self._rng = streams[-1]
        self.routers: list[Router] = [
            make_router(router, self.shards[i].replicas, streams[i])
            for i in range(self.num_shards)
        ]
        self.batchers = [
            MicroBatcher(max_size=max_batch, max_delay=max_delay)
            for _ in range(self.num_shards)
        ]
        #: Per-shard write batchers (none on a read-only deployment).
        self.write_batchers: list[MicroBatcher] = []
        self.admission = AdmissionController(capacity=capacity)
        self.probe_time = float(probe_time)
        # Per-(shard, replica) virtual busy-until times: dispatched
        # batches queue behind whatever their replica is still serving.
        self._busy_until = [
            np.zeros(s.replicas, dtype=np.float64) for s in self.shards
        ]
        self.stats = ServiceStats()
        #: Optional hook called with the list of tickets each dispatch
        #: completes (the asyncio server resolves futures here).
        self.on_complete: Callable[[list[Ticket]], None] | None = None
        #: Optional :class:`~repro.telemetry.hub.TelemetryHub`; every
        #: call site is guarded so ``None`` runs the seed code path.
        self.telemetry = None
        #: Optional :class:`~repro.serve.health.HealthManager`; every
        #: call site is guarded so ``None`` runs the seed code path.
        self.health = None
        #: Optional :class:`~repro.autotune.controller.AutotuneController`;
        #: every call site is guarded so ``None`` runs the seed code path.
        self.autotune = None

    def attach_telemetry(self, hub) -> None:
        """Attach a :class:`~repro.telemetry.hub.TelemetryHub` (or None)."""
        self.telemetry = hub

    def enable_healing(self, config=None, seed=0):
        """Attach and return a :class:`~repro.serve.health.HealthManager`.

        Turns on the self-healing layer: per-replica health state
        machines, circuit-breaker canaries, background cell scrubbing,
        replica rebuild, verified dispatch, and priority-aware graceful
        degradation.  Never calling this leaves every healing call site
        behind ``self.health is None`` — the seed code path,
        byte-identical probe accounting included.  Raises
        :class:`~repro.errors.ParameterError` on a deployment without
        the ``heal`` capability.
        """
        if "heal" not in self.capabilities:
            raise ParameterError(HEAL_UNSUPPORTED.format(
                service=type(self).__name__
            ))
        # Imported here: repro.serve.health imports the dictionary layer,
        # and keeping service importable without it preserves layering.
        from repro.serve.health import HealthManager

        self.health = HealthManager(self, config=config, seed=seed)
        return self.health

    def enable_autotune(self, policy=None, seed=0, enabled=True):
        """Attach and return an :class:`~repro.autotune.controller.
        AutotuneController` driving this service's configuration.

        The controller ticks from :meth:`advance` / :meth:`drain`, paced
        by its policy's ``check_every`` in virtual time, and applies
        only the action kinds in :attr:`capabilities`.  Never calling
        this — or attaching with ``enabled=False`` — leaves every call
        site behind ``self.autotune is None`` / a no-op tick: the seed
        code path, byte-identical probe accounting included.
        """
        # Imported here: repro.autotune imports the dictionary layer,
        # and keeping service importable without it preserves layering.
        from repro.autotune.controller import AutotuneController

        self.autotune = AutotuneController(
            self, policy=policy, seed=seed, enabled=enabled
        )
        return self.autotune

    # -- keyspace ----------------------------------------------------------------

    def shard_of(self, x: int) -> int:
        """Index of the shard whose keyspace range contains ``x``."""
        x = int(x)
        if not 0 <= x < self.universe_size:
            raise QueryError(
                f"query {x} outside universe [0, {self.universe_size})"
            )
        return bisect.bisect_right(self._starts, x) - 1

    def _shards_of(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of` over an int64 key array."""
        bad = (keys < 0) | (keys >= self.universe_size)
        if bool(np.any(bad)):
            raise QueryError(
                f"query {int(keys[bad][0])} outside universe "
                f"[0, {self.universe_size})"
            )
        return np.searchsorted(self._boundaries, keys, side="right") - 1

    # -- request path ------------------------------------------------------------

    def submit(self, x: int, now: float, priority: int = 0) -> Ticket:
        """Admit one request at virtual time ``now``.

        Raises :class:`~repro.errors.OverloadError` when admission
        control sheds the request, or
        :class:`~repro.errors.DegradedModeError` when the service is
        degraded and the request's ``priority`` is non-positive.  The
        returned ticket may already be ``done`` if its arrival flushed
        a full batch.
        """
        shard = self.shard_of(x)
        hub = self.telemetry
        try:
            self.admission.admit(priority=priority)
        except (OverloadError, DegradedModeError):
            self.stats.shed_reads += 1
            if hub is not None:
                hub.on_shed(
                    float(now), self.admission.in_flight,
                    self.admission.capacity,
                )
            raise
        ticket = Ticket(
            key=int(x), shard=shard, arrival=float(now),
            priority=int(priority),
        )
        self.stats.submitted += 1
        if hub is not None:
            hub.on_request(ticket, float(now))
            hub.on_inflight(self.admission.in_flight)
        batch = self.batchers[shard].add(ticket, now)
        if batch is not None:
            self._dispatch(shard, batch)
        return ticket

    def next_deadline(self) -> float | None:
        """Earliest pending flush deadline of any batcher (None if idle)."""
        deadlines = [
            d for d in (
                b.next_deadline() for b in self.batchers + self.write_batchers
            )
            if d is not None
        ]
        return min(deadlines) if deadlines else None

    def advance(self, now: float) -> int:
        """Flush every batch whose deadline passed; returns completions."""
        return self._flush(now, drain=False)

    def drain(self, now: float) -> int:
        """Flush all pending requests regardless of deadline (shutdown)."""
        return self._flush(now, drain=True)

    def _flush(self, now: float, drain: bool) -> int:
        """Dispatch each shard's due (or, draining, pending) read batch."""
        completed = 0
        for shard, batcher in enumerate(self.batchers):
            batch = batcher.drain(now) if drain else batcher.poll(now)
            if batch is not None:
                completed += self._dispatch(shard, batch)
        if self.autotune is not None:
            self.autotune.tick(float(now))
        return completed

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, shard: int, batch: Batch) -> int:
        """Execute one flushed batch, then complete its tickets."""
        tickets: list[Ticket] = batch.requests
        hub = self.telemetry
        batch_span = (
            hub.on_batch(shard, batch, tickets) if hub is not None else None
        )
        xs = np.asarray([t.key for t in tickets], dtype=np.int64)
        self._execute_batch(
            shard, tickets, xs, float(batch.flushed), batch_span
        )
        self.stats.batches += 1
        done = [t for t in tickets if t.done]
        self.admission.release(len(done))
        self.stats.completed += len(done)
        if hub is not None:
            hub.on_batch_done(shard, done, batch_span, service=self)
        if self.health is not None:
            self.health.tick(float(batch.flushed))
        if self.on_complete is not None and done:
            self.on_complete(done)
        return len(done)

    def _execute_batch(
        self,
        shard: int,
        tickets: list[Ticket],
        xs: np.ndarray,
        now: float,
        batch_span=None,
    ) -> None:
        """Route the batch and run each replica's group in-process."""
        dictionary = self.shards[shard]
        router = self.routers[shard]
        for replica, sel in self._groups(router, xs.shape[0]):
            self._run_group(
                shard, dictionary, router, tickets, xs, sel, replica, now,
                batch_span,
            )

    @staticmethod
    def _groups(router, size: int):
        """Yield ``(replica, positions)`` for each replica ``router`` picks."""
        assignment = router.assign(size)
        order = np.arange(size)
        for replica in np.unique(assignment):
            yield int(replica), order[assignment == replica]

    def _route(self, shard, router, replica, size, now, batch_span) -> None:
        """Announce one routed group to the hub and the event bus."""
        hub = self.telemetry
        if hub is not None:
            hub.on_route(
                shard, replica, router.name, size, float(now), batch_span,
            )
        if BUS.active:
            BUS.emit(RouteEvent(
                shard=shard, replica=replica, policy=router.name,
                size=size,
            ))

    def _charge(self, shard, replica, probes, now, batch_span) -> float:
        """Charge one replica's group; returns its completion time.

        The group queues behind whatever the replica is still serving,
        and the router learns the load.
        """
        self.routers[shard].record(replica, probes)
        busy = self._busy_until[shard]
        start = max(float(now), float(busy[replica]))
        finish = self._account(shard, replica, probes, start, batch_span)
        busy[replica] = finish
        return finish

    def _account(self, shard, replica, probes, start, batch_span) -> float:
        """Count ``probes`` served from ``start``; returns the finish time."""
        self.stats.probes += probes
        finish = start + probes * self.probe_time
        if self.telemetry is not None:
            self.telemetry.on_dispatch(
                shard, replica, probes, start, finish, batch_span,
            )
        if BUS.active:
            BUS.emit(DispatchEvent(
                shard=shard, replica=replica, probes=probes,
                start=start, finish=finish,
            ))
        return finish

    @staticmethod
    def _stamp(tickets, positions, answers, finish, replica) -> None:
        """Complete the tickets at ``positions`` with their answers."""
        for pos, i in enumerate(positions):
            ticket = tickets[i]
            ticket.answer = bool(answers[pos])
            ticket.completion = finish
            ticket.replica = replica

    def _run_group(
        self,
        shard: int,
        dictionary: ReplicatedDictionary,
        router: Router,
        tickets: list[Ticket],
        xs: np.ndarray,
        sel: np.ndarray,
        replica: int,
        now: float,
        batch_span=None,
    ) -> None:
        """Run one replica's share of a batch, failing over on crashes."""
        if replica not in router.live:
            # The batch's assignment is computed once at flush time, so
            # a replica taken down *mid-batch* — e.g. quarantined after
            # a witness caught an earlier group's corruption — can still
            # hold later groups of the same batch.  Re-route instead of
            # dispatching into the quarantine (found by the PR 7
            # adversarial search; partial corruption evades the
            # detectable-failure retry path below).
            replica = int(router.assign(1)[0])
        self._route(shard, router, replica, int(sel.size), now, batch_span)
        keys = xs[sel]
        result = self._query_group_on(
            shard, dictionary, router, keys, replica, now, batch_span,
        )
        while result is None:
            replica = int(router.assign(1)[0])
            result = self._query_group_on(
                shard, dictionary, router, keys, replica, now, batch_span,
            )
        answers, finish = result
        if self.health is not None:
            self.health.note_dispatch(shard, replica, float(now))
            answers = self._verify_group(
                shard, dictionary, router, xs, sel, replica, answers,
                now, batch_span,
            )
        self._stamp(tickets, sel, answers, finish, replica)

    def _query_group_on(
        self, shard, dictionary, router, keys, replica, now, batch_span,
    ) -> tuple[np.ndarray, float] | None:
        """One charged dispatch of ``keys`` to ``replica``.

        Returns ``(answers, finish)``, or None once a failing replica
        has been quarantined and the caller should pick another.
        """
        before = dictionary.table.counter.total_probes()
        try:
            answers = dictionary.query_batch_on(keys, replica, self._rng)
        except ReplicaUnavailableError:
            # PR 2 composition: the crash marks the replica down,
            # the router reweights, and the batch retries on a
            # survivor.  No healthy replica left raises
            # FaultExhaustedError out of the service.
            self._quarantine(
                shard, router, replica, now, batch_span, crashed=True,
            )
            return None
        except _REPLICA_FAILURES:
            # Detectable corruption drove the query algorithm into
            # an impossible state.  With healing on, quarantine the
            # replica and retry elsewhere (the probes it already
            # charged stay charged — honest accounting); without
            # it, this stays the seed's hard error.
            if self.health is None:
                raise
            self._quarantine(
                shard, router, replica, now, batch_span, crashed=False,
            )
            return None
        probes = dictionary.table.counter.total_probes() - before
        return answers, self._charge(shard, replica, probes, now, batch_span)

    def _quarantine(
        self, shard, router, replica, now, batch_span, crashed: bool,
    ) -> None:
        """Mark a replica down and tell the health manager why."""
        hub = self.telemetry
        if router.breaker_state(replica) == "closed":
            router.mark_down(replica)
        self.stats.failovers += 1
        if hub is not None:
            hub.on_failover(shard, replica, float(now), batch_span)
        if BUS.active:
            BUS.emit(FailoverEvent(shard=shard, replica=replica))
        if self.health is None:
            return
        if crashed:
            self.health.on_crash(shard, replica, float(now))
        else:
            self.health.on_corruption(shard, replica, float(now))

    def _verify_group(
        self,
        shard: int,
        dictionary: ReplicatedDictionary,
        router: Router,
        xs: np.ndarray,
        sel: np.ndarray,
        primary: int,
        answers: np.ndarray,
        now: float,
        batch_span=None,
    ) -> np.ndarray:
        """Verified dispatch: a witness replica re-answers the group.

        With healing enabled every routed group is independently
        re-executed on a second uniformly random live replica (the
        witness) — marginal per-replica load 2/|live| instead of
        1/|live|, still within the Binomial envelope at the adjusted
        rate.  Agreement (the overwhelmingly common case) returns the
        primary's answers unchanged.  A disagreeing key triggers a
        cross-replica majority vote; replicas voting against the
        majority are quarantined, and the majority answers are what the
        tickets see — a silently-corrupt replica never propagates a
        wrong answer.
        """
        health = self.health
        witness = health.pick_witness(shard, primary)
        if witness is None:
            return answers
        keys = xs[sel]
        echoed = self._query_group_on(
            shard, dictionary, router, keys, witness, now, batch_span,
        )
        if echoed is None:
            return answers
        mismatch = np.nonzero(answers != echoed[0])[0]
        if mismatch.size == 0:
            return answers
        # Two replicas disagree: poll every other live replica on the
        # contested keys and let the majority decide.
        contested = keys[mismatch]
        votes: dict[int, np.ndarray] = {
            primary: answers[mismatch], witness: echoed[0][mismatch],
        }
        for r in list(router.live):
            if r in votes:
                continue
            vote = self._query_group_on(
                shard, dictionary, router, contested, r, now, batch_span,
            )
            if vote is not None:
                votes[r] = vote[0]
        stack = np.stack([votes[r] for r in sorted(votes)])
        if stack.shape[0] >= 3:
            majority = stack.sum(axis=0) * 2 > stack.shape[0]
        else:
            # Two voters cannot attribute blame by vote; the build's
            # key set is ground truth the service already holds (and
            # consulting it probes no cells), so it breaks the tie —
            # the same oracle the canary gate checks against.
            majority = np.isin(contested, dictionary.keys)
        for r in sorted(votes):
            if bool(np.any(votes[r] != majority)):
                self._quarantine(
                    shard, router, r, now, batch_span, crashed=False,
                )
        corrected = np.array(answers, copy=True)
        corrected[mismatch] = majority
        return corrected

    # -- introspection -----------------------------------------------------------

    def replica_loads(self) -> list[np.ndarray]:
        """Per-shard arrays of probes charged to each replica so far."""
        return [s.replica_probe_loads() for s in self.shards]

    def cell_load_matrix(self, shard: int = 0) -> np.ndarray:
        """One shard's raw per-step per-cell probe counts (copy)."""
        return self.shards[shard].table.counter.counts_per_step()

    def stats_row(self) -> dict:
        """The service's lifetime counters as one flat dict."""
        return self.stats.row()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedDictionaryService(shards={self.num_shards}, "
            f"router={self.router_name!r}, "
            f"completed={self.stats.completed})"
        )


def build_service(
    keys: np.ndarray,
    universe_size: int,
    num_shards: int = 1,
    replicas: int = 3,
    scheme: str = "low-contention",
    router: str = "least-loaded",
    max_batch: int = 32,
    max_delay: float = 1.0,
    capacity: int = 1024,
    probe_time: float = 0.0,
    faults: FaultConfig | None = None,
    mode: str = "random",
    seed=0,
) -> ShardedDictionaryService:
    """Construct a service over ``keys``: shard, build, replicate.

    The universe splits into ``num_shards`` equal contiguous ranges;
    each range's keys build one inner dictionary (scheme from
    :data:`~repro.experiments.common.SCHEMES`), wrapped in a
    :class:`~repro.dictionaries.replicated.ReplicatedDictionary` with
    ``replicas`` copies and the given fault configuration.  Every shard
    must own at least one key (shard counts far below n keep this true
    for random instances; a violating split raises
    :class:`~repro.errors.ParameterError`).
    """
    # Imported here, not at module level: repro.experiments.e19_serving
    # imports repro.serve, so a top-level import would be circular.
    from repro.experiments.common import SCHEMES

    keys = np.asarray(keys, dtype=np.int64)
    universe_size = int(universe_size)
    num_shards = check_positive_integer("num_shards", num_shards)
    if scheme not in SCHEMES:
        raise ParameterError(
            f"unknown scheme {scheme!r}; options: {sorted(SCHEMES)}"
        )
    rng = as_generator(seed)
    boundaries = [
        (universe_size * i) // num_shards for i in range(num_shards)
    ]
    edges = boundaries + [universe_size]
    shards: list[ReplicatedDictionary] = []
    for i in range(num_shards):
        lo, hi = edges[i], edges[i + 1]
        shard_keys = keys[(keys >= lo) & (keys < hi)]
        if shard_keys.size == 0:
            raise ParameterError(
                f"shard {i} (keys in [{lo}, {hi})) is empty; "
                f"use fewer shards for this instance"
            )
        inner = SCHEMES[scheme](
            shard_keys,
            universe_size,
            rng=np.random.default_rng(rng.integers(0, 2**63 - 1)),
        )
        shards.append(
            ReplicatedDictionary(
                inner, replicas, mode=mode, faults=faults
            )
        )
    return ShardedDictionaryService(
        shards,
        boundaries,
        router=router,
        max_batch=max_batch,
        max_delay=max_delay,
        capacity=capacity,
        probe_time=probe_time,
        seed=rng.integers(0, 2**63 - 1),
    )
