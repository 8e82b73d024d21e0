"""Seeded chaos schedules and the chaos driver (experiment E21).

A chaos run is an open-loop workload with a **fault schedule** woven
into virtual time: replica crashes, silent bit flips, stuck-at cells,
and contention spikes, all placed by a seeded RNG so every run is a
deterministic function of ``(schedule seed, workload seed)``.  The
driver replays the schedule against a healing-enabled
:class:`~repro.serve.service.ShardedDictionaryService`, then drives
the healing loop to quiescence and reports:

- correctness — wrong answers among completed requests (must be zero
  with healing on: verified dispatch and the canary gate make sure a
  damaged replica never propagates an answer);
- availability — shed vs degraded-shed vs completed counts;
- recovery — MTTR per healed replica, healing work performed, and the
  per-cell probe snapshots E21 checks against the Binomial(Q, Φ_t)
  envelope at the surviving replica count.

Faults are injected *physically* through the dictionary's dynamic
fault hooks (:meth:`~repro.dictionaries.replicated.
ReplicatedDictionary.crash_replica` and friends), not by patching
answers — the healing layer sees exactly what a real fleet would.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.distributions.base import QueryDistribution
from repro.errors import (
    DegradedModeError,
    HealError,
    OverloadError,
    ParameterError,
)
from repro.serve.client import _flush_due
from repro.serve.service import ShardedDictionaryService, Ticket
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer

#: Chaos event vocabulary (in-process replica faults + load spikes).
CHAOS_KINDS = ("crash", "corrupt", "stick", "spike-start", "spike-end")

#: Fabric-level event vocabulary (:mod:`repro.parallel` only): SIGKILL
#: of one worker process and silent corruption of a shared table
#: segment.  Applied through
#: :meth:`~repro.parallel.fabric.ParallelDictionaryService.
#: apply_fabric_event`; drivers replaying against an in-process service
#: count them as skipped instead of failing.
FABRIC_KINDS = ("kill-worker", "corrupt-segment")


@dataclasses.dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault, applied when virtual time reaches ``time``."""

    time: float
    kind: str
    shard: int = 0
    replica: int = -1
    #: Inner flat cell indices (``corrupt`` / ``stick``), or flat packed
    #: table words (``corrupt-segment``).
    cells: tuple = ()
    #: XOR masks, one per cell (``corrupt`` / ``corrupt-segment``).
    masks: tuple = ()
    #: Stuck-at values, one per cell (``stick`` events).
    values: tuple = ()
    #: Victim worker slot (``kill-worker`` events).
    worker: int = -1

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS + FABRIC_KINDS:
            raise ParameterError(
                f"unknown chaos kind {self.kind!r}; options: "
                f"{CHAOS_KINDS + FABRIC_KINDS}"
            )


@dataclasses.dataclass
class ChaosSchedule:
    """A time-sorted fault schedule over one run's virtual horizon."""

    events: list[ChaosEvent]
    horizon: float

    def __post_init__(self):
        if not float(self.horizon) > 0.0:
            raise ParameterError("horizon must be > 0")
        for event in self.events:
            if not 0.0 <= float(event.time) <= float(self.horizon):
                raise ParameterError(
                    f"chaos event {event.kind!r} at t={event.time} lies "
                    f"outside [0, horizon={self.horizon}]; boundary "
                    f"events (t == horizon) are applied before "
                    f"quiescence, later ones would silently never fire"
                )
        self.events = sorted(self.events, key=lambda e: (e.time, e.kind))

    @property
    def damage_events(self) -> list[ChaosEvent]:
        """Events that damage a replica (everything but spikes)."""
        return [
            e for e in self.events
            if e.kind in ("crash", "corrupt", "stick")
        ]

    @classmethod
    def generate(
        cls,
        seed,
        horizon: float,
        replicas: int,
        inner_cells: int,
        shard: int = 0,
        crashes: int = 1,
        corruptions: int = 1,
        stuck: int = 1,
        spikes: int = 1,
        flips_per_corruption: int = 4,
        cells_per_stick: int = 2,
    ) -> "ChaosSchedule":
        """Sample a randomized schedule (deterministic given ``seed``).

        Damage lands on *distinct* replicas, and the total number of
        damaged replicas must leave a strict majority untouched —
        that is the regime in which majority-vote repair is guaranteed
        and the one the chaos experiment validates.  Fault times land
        in the middle ``[0.15, 0.75]`` stretch of the horizon so every
        fault has healing room before the run ends.
        """
        horizon = float(horizon)
        if not horizon > 0.0:
            raise ParameterError("horizon must be > 0")
        damaged = int(crashes) + int(corruptions) + int(stuck)
        if damaged > (int(replicas) - 1) // 2:
            raise ParameterError(
                f"{damaged} damaged replicas of {replicas} leaves no "
                f"strict healthy majority; use more replicas or fewer "
                f"faults"
            )
        rng = as_generator(seed)
        victims = rng.permutation(int(replicas))[:damaged]
        times = np.sort(
            rng.uniform(0.15 * horizon, 0.75 * horizon, size=damaged)
        )
        kinds = (
            ["crash"] * int(crashes)
            + ["corrupt"] * int(corruptions)
            + ["stick"] * int(stuck)
        )
        events: list[ChaosEvent] = []
        for time, kind, victim in zip(times, kinds, victims):
            if kind == "crash":
                events.append(ChaosEvent(
                    time=float(time), kind="crash", shard=shard,
                    replica=int(victim),
                ))
            elif kind == "corrupt":
                cells = rng.integers(
                    0, inner_cells, size=int(flips_per_corruption)
                )
                masks = rng.integers(
                    1, 1 << 63, size=int(flips_per_corruption),
                    dtype=np.uint64,
                )
                events.append(ChaosEvent(
                    time=float(time), kind="corrupt", shard=shard,
                    replica=int(victim),
                    cells=tuple(int(c) for c in np.unique(cells)),
                    masks=tuple(
                        int(m) for m in masks[:np.unique(cells).size]
                    ),
                ))
            else:
                cells = np.unique(rng.integers(
                    0, inner_cells, size=int(cells_per_stick)
                ))
                values = rng.integers(
                    0, 1 << 63, size=cells.size, dtype=np.uint64
                )
                events.append(ChaosEvent(
                    time=float(time), kind="stick", shard=shard,
                    replica=int(victim),
                    cells=tuple(int(c) for c in cells),
                    values=tuple(int(v) for v in values),
                ))
        for _ in range(int(spikes)):
            start = float(rng.uniform(0.15 * horizon, 0.7 * horizon))
            length = float(rng.uniform(0.05 * horizon, 0.15 * horizon))
            events.append(ChaosEvent(time=start, kind="spike-start"))
            events.append(ChaosEvent(
                time=min(start + length, 0.95 * horizon), kind="spike-end",
            ))
        return cls(events=events, horizon=horizon)


@dataclasses.dataclass
class ChaosReport:
    """Outcome of one chaos run (deterministic given the seeds)."""

    requested: int
    completed: int
    shed: int
    degraded_shed: int
    wrong_answers: int
    duration: float
    events_applied: int
    heal_ticks: int
    #: ``{time, completed, probes, cell_counts, live, states}`` dicts
    #: captured at the requested mark times (and once at the end).
    snapshots: list
    #: The health manager's flat summary row (violations, MTTR count…).
    heal: dict
    #: Recovery durations of completed heals, in virtual time.
    mttr: list
    #: Final health state per (shard, replica), e.g. ``"0/2": "healthy"``.
    final_states: dict
    #: Fabric-level events the replay target could not express (e.g. a
    #: ``kill-worker`` event replayed against an in-process service).
    events_skipped: int = 0
    #: Completed-request latency percentiles in virtual time.
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0

    def row(self) -> dict:
        """Flat dict for experiment tables (snapshots elided)."""
        d = {
            "requested": self.requested,
            "completed": self.completed,
            "shed": self.shed,
            "degraded_shed": self.degraded_shed,
            "wrong_answers": self.wrong_answers,
            "duration": self.duration,
            "events_applied": self.events_applied,
            "events_skipped": self.events_skipped,
            "heal_ticks": self.heal_ticks,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "mttr_max": max(self.mttr) if self.mttr else 0.0,
            "recoveries": len(self.mttr),
        }
        d.update({f"heal_{k}": v for k, v in self.heal.items()})
        return d


def _apply_event(
    service: ShardedDictionaryService, event: ChaosEvent
) -> str:
    """Inject one fault; returns ``"spike"``/``"applied"``/``"skipped"``.

    Fabric-level kinds (:data:`FABRIC_KINDS`) route through the
    service's ``apply_fabric_event`` hook when it declares the
    ``fabric-faults`` capability (the
    :class:`~repro.parallel.fabric.ParallelDictionaryService` engine);
    an in-process service replaying the same schedule reports them as
    skipped instead of failing, so one genome replays everywhere.
    """
    if event.kind in ("spike-start", "spike-end"):
        return "spike"
    if event.kind in FABRIC_KINDS:
        if "fabric-faults" not in service.capabilities:
            return "skipped"
        return "applied" if service.apply_fabric_event(event) else "skipped"
    d = service.shards[event.shard]
    if event.kind == "crash":
        d.crash_replica(event.replica)
    elif event.kind == "corrupt":
        for cell, mask in zip(event.cells, event.masks):
            d.corrupt_cell(event.replica, int(cell), int(mask))
    elif event.kind == "stick":
        d.stick_cells(
            event.replica,
            np.asarray(event.cells, dtype=np.int64),
            np.asarray(event.values, dtype=np.uint64),
        )
    return "applied"


def _snapshot(service: ShardedDictionaryService, now: float) -> dict:
    health = service.health
    return {
        "time": float(now),
        "completed": int(service.stats.completed),
        "probes": int(service.stats.probes),
        "cell_counts": service.shards[0].table.counter.total_counts(),
        "live": [list(r.live) for r in service.routers],
        "states": (
            {}
            if health is None
            else {
                f"{s}/{r}": m.state
                for (s, r), m in sorted(health.machines.items())
            }
        ),
    }


def run_chaos(
    service: ShardedDictionaryService,
    dist: QueryDistribution,
    schedule: ChaosSchedule,
    num_requests: int,
    rate: float,
    seed=0,
    expected_keys: np.ndarray | None = None,
    spike_dist: QueryDistribution | None = None,
    high_priority_fraction: float = 0.25,
    marks: tuple = (),
    max_heal_ticks: int | None = None,
) -> ChaosReport:
    """Drive ``service`` through a chaos schedule under open-loop load.

    Arrivals are Poisson at ``rate``; each request is high-priority
    with probability ``high_priority_fraction`` (low-priority requests
    are the ones degraded-mode admission sheds).  During a contention
    spike keys are drawn from ``spike_dist`` instead of ``dist``.
    Schedule events fire at their virtual times (pending batch
    deadlines flush first, so a fault never time-travels ahead of
    traffic).  After the last arrival the service drains, and the
    healing loop ticks until every replica reaches a terminal state
    (healthy, or incorrigibly quarantined) or the tick budget runs
    out.

    ``marks`` are virtual times at which to snapshot per-cell counts
    and live sets — the windows E21's envelope check is stated over.
    A final snapshot is always appended after healing quiesces.
    """
    num_requests = check_positive_integer("num_requests", num_requests)
    if not float(rate) > 0.0:
        raise ParameterError("rate must be > 0")
    if not 0.0 <= float(high_priority_fraction) <= 1.0:
        raise ParameterError("high_priority_fraction must be in [0, 1]")
    health = service.health
    rng = as_generator(seed)
    arrivals = np.cumsum(
        rng.exponential(1.0 / float(rate), size=num_requests)
    )
    keys = dist.sample(rng, num_requests)
    spike_keys = (
        spike_dist.sample(rng, num_requests)
        if spike_dist is not None
        else keys
    )
    priorities = (
        rng.random(num_requests) < float(high_priority_fraction)
    ).astype(np.int64)
    done: list[Ticket] = []
    service.on_complete = done.extend
    shed = 0
    degraded_base = service.admission.degraded_shed
    pending_events = list(schedule.events)
    pending_marks = sorted(float(m) for m in marks)
    snapshots: list[dict] = []
    events_applied = 0
    events_skipped = 0
    spiking = False

    def fire(event: ChaosEvent) -> None:
        """Apply one due event and fold it into the run's tallies."""
        nonlocal spiking, events_applied, events_skipped
        status = _apply_event(service, event)
        if status == "spike":
            spiking = event.kind == "spike-start"
        if status == "skipped":
            events_skipped += 1
        else:
            events_applied += 1

    try:
        for t, x, sx, prio in zip(arrivals, keys, spike_keys, priorities):
            t = float(t)
            while pending_events and pending_events[0].time <= t:
                event = pending_events.pop(0)
                _flush_due(service, event.time)
                fire(event)
            while pending_marks and pending_marks[0] <= t:
                mark = pending_marks.pop(0)
                _flush_due(service, mark)
                snapshots.append(_snapshot(service, mark))
            _flush_due(service, t)
            key = int(sx) if spiking else int(x)
            try:
                service.submit(key, t, priority=int(prio))
            except (OverloadError, DegradedModeError):
                shed += 1
        end = float(arrivals[-1])
        # Events past the last arrival — horizon-boundary events
        # (time == horizon) included — still fire before the drain and
        # the healing loop below; they are never silently dropped.
        for event in pending_events:
            _flush_due(service, event.time)
            fire(event)
            end = max(end, float(event.time))
        while service.next_deadline() is not None:
            end = service.next_deadline()
            service.advance(end)
        for mark in pending_marks:
            snapshots.append(_snapshot(service, mark))
        # Heal to quiescence: tick until every machine is terminal.
        heal_ticks = 0
        if health is not None:
            if max_heal_ticks is None:
                chunks = max(
                    -(-d.inner_rows // health.config.scrub_rows_per_chunk)
                    for d in service.shards
                )
                max_heal_ticks = 50 + 8 * chunks * service.num_shards
            while heal_ticks < max_heal_ticks:
                if all(
                    m.state == "healthy" or m.incorrigible
                    for m in health.machines.values()
                ):
                    break
                end += 1.0
                health.tick(end)
                heal_ticks += 1
        snapshots.append(_snapshot(service, end))
    finally:
        service.on_complete = None
    wrong = 0
    if expected_keys is not None and len(done):
        expected = np.asarray(expected_keys, dtype=np.int64)
        got = np.asarray([t.key for t in done], dtype=np.int64)
        answers = np.asarray([t.answer for t in done], dtype=bool)
        truth = np.isin(got, expected)
        wrong = int(np.sum(answers != truth))
    p50 = p95 = p99 = 0.0
    if done:
        latencies = np.asarray([t.latency for t in done], dtype=np.float64)
        p50, p95, p99 = (
            float(v) for v in np.percentile(latencies, [50.0, 95.0, 99.0])
        )
    return ChaosReport(
        requested=num_requests,
        completed=len(done),
        shed=shed,
        degraded_shed=service.admission.degraded_shed - degraded_base,
        wrong_answers=wrong,
        duration=float(end),
        events_applied=events_applied,
        heal_ticks=heal_ticks if health is not None else 0,
        snapshots=snapshots,
        heal={} if health is None else health.row(),
        mttr=[] if health is None else health.mttr_values(),
        final_states=(
            {}
            if health is None
            else {
                f"{s}/{r}": m.state
                for (s, r), m in sorted(health.machines.items())
            }
        ),
        events_skipped=events_skipped,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
    )


def require_armed(service: ShardedDictionaryService) -> None:
    """Raise :class:`~repro.errors.HealError` unless faults are armed.

    Chaos schedules inject through the dictionaries' dynamic fault
    hooks, which exist only when the service was built with an armed
    :class:`~repro.faults.FaultConfig` — checked up front so a
    misconfigured run fails before any traffic is served.
    """
    for shard, d in enumerate(service.shards):
        if d._injector is None:
            raise HealError(
                f"shard {shard} has no fault layer; build the service "
                f"with FaultConfig(armed=True) to run chaos schedules"
            )
