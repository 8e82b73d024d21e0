"""The structured event bus: typed events, zero overhead when disabled.

Observability must never change what it observes.  The bus is designed
around one contract, enforced at every producer site in the library:

    if BUS.active:
        BUS.emit(ProbeEvent(step=step, probes=k))

With no subscriber, ``BUS.active`` is a plain ``False`` attribute, so
the *entire* cost of an instrumented hot path is one attribute test —
no event object is ever constructed, no callable is ever invoked, and
(crucially for this library) no RNG stream is ever touched.  The
disabled path is property-tested to leave per-cell, per-step probe
accounting byte-identical to the uninstrumented code
(``tests/test_telemetry_integration.py``), and the timing gate
(``python tools/timing_gates.py e20``) bounds its overhead on the
batch-query hot path at 2%.

Events are small frozen dataclasses (one per instrumented layer of the
probe/serve stack: table probes, query executions, admission decisions,
batch flushes, routing picks, dispatches, failovers, replica health,
injected faults).  Consumers subscribe plain callables; the
:class:`~repro.telemetry.hub.BusMetricsCollector` turns the stream into
metrics, and tests use :meth:`EventBus.capture` to assert on it.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Callable, Iterator


@dataclasses.dataclass(frozen=True, slots=True)
class ProbeEvent:
    """One charged read call against a cell-probe table.

    ``probes`` is the number of cells actually probed (a batched read
    skips its negative-column entries), all charged at query ``step``.
    """

    step: int
    probes: int


@dataclasses.dataclass(frozen=True, slots=True)
class ExecutionEvent:
    """``count`` query executions completed (the contention normalizer)."""

    count: int


@dataclasses.dataclass(frozen=True, slots=True)
class AdmissionEvent:
    """One admission decision: ``admitted`` or shed at ``depth``."""

    admitted: bool
    depth: int
    capacity: int


@dataclasses.dataclass(frozen=True, slots=True)
class BatchEvent:
    """One micro-batch flush: ``size`` requests after ``waited`` units."""

    size: int
    reason: str
    waited: float


@dataclasses.dataclass(frozen=True, slots=True)
class RouteEvent:
    """A router assigned ``size`` requests of shard ``shard`` to ``replica``."""

    shard: int
    replica: int
    policy: str
    size: int


@dataclasses.dataclass(frozen=True, slots=True)
class DispatchEvent:
    """One replica dispatch completed, charging ``probes`` probes."""

    shard: int
    replica: int
    probes: int
    start: float
    finish: float


@dataclasses.dataclass(frozen=True, slots=True)
class FailoverEvent:
    """A dispatch hit a crashed replica and retried on a survivor."""

    shard: int
    replica: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReplicaHealthEvent:
    """A router marked ``replica`` down (``up=False``) or back up."""

    replica: int
    up: bool


@dataclasses.dataclass(frozen=True, slots=True)
class FaultEvent:
    """Injected faults corrupted ``count`` values on one read path."""

    kind: str
    count: int


@dataclasses.dataclass(frozen=True, slots=True)
class HealthTransitionEvent:
    """A replica health state machine moved ``source`` → ``target``."""

    shard: int
    replica: int
    source: str
    target: str
    reason: str


@dataclasses.dataclass(frozen=True, slots=True)
class HealEvent:
    """One healing action: scrub repair, stuck diagnosis, rebuild, canary.

    ``kind`` is one of ``"repair"``, ``"stuck"``, ``"rebuild-start"``,
    ``"rebuild-done"``, ``"canary-pass"``, ``"canary-fail"``; ``count``
    is the number of cells/rows/queries the action covered.
    """

    kind: str
    shard: int
    replica: int
    count: int = 1


@dataclasses.dataclass(frozen=True, slots=True)
class UpdateEvent:
    """One applied update group: ``size`` ops moved ``shard`` to ``epoch``."""

    shard: int
    size: int
    epoch: int


@dataclasses.dataclass(frozen=True, slots=True)
class RebuildEvent:
    """One dynamic level rebuild: ``entries`` entries re-installed at
    ``level``, writing ``cells`` cells, with ``probes`` verification
    probes charged to the rebuild counter (never the query counter).
    """

    shard: int
    replica: int
    level: int
    entries: int
    cells: int
    probes: int


@dataclasses.dataclass(frozen=True, slots=True)
class EpochEvent:
    """An epoch advanced: ``retired`` structures held, ``reclaimed`` freed."""

    epoch: int
    retired: int
    reclaimed: int
    pinned: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReconfigEvent:
    """The autotune control plane applied one reconfiguration action.

    ``kind`` is one of ``"split"`` (grow replication), ``"join"``
    (shrink replication), ``"scheme-switch"``, ``"capacity"``, or
    ``"update-capacity"``; ``shard`` is ``-1`` for service-wide actions
    (admission tuning).  ``before``/``after`` give the changed quantity
    (replica count, scheme index, or capacity); ``probes`` is the
    reconfiguration probe work (clone peeks, verification) charged to
    the controller's reconfig counter, never the query path; ``epoch``
    is the controller epoch at which the swap became visible.
    """

    kind: str
    shard: int
    before: int
    after: int
    probes: int
    epoch: int
    target: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class CheckpointEvent:
    """One shard checkpoint written durably at ``generation``.

    ``entries`` is the retained log-suffix length captured in the file,
    ``live_keys`` the snapshot's live key count, ``nbytes`` the framed
    file size, and ``compacted`` the log entries folded into the base
    snapshot by the compaction that preceded the save (0 when none ran).
    """

    shard: int
    generation: int
    epoch: int
    entries: int
    live_keys: int
    nbytes: int
    compacted: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class RecoveryEvent:
    """One shard recovered from durable state (or found none).

    ``source`` is ``"checkpoint"`` (restored from a verified
    generation), ``"log"`` (full-log replay of a never-compacted
    snapshot), or ``"empty"`` (no usable generation survived; the shard
    restarted blank).  ``replayed`` counts the suffix updates replayed
    on top of the base snapshot — the bounded recovery work —
    and ``quarantined`` the corrupt files renamed aside on the way to a
    usable generation.
    """

    shard: int
    generation: int
    source: str
    replayed: int
    quarantined: int


#: Every event type the library emits (introspection / capture filters).
EVENT_TYPES = (
    ProbeEvent,
    ExecutionEvent,
    AdmissionEvent,
    BatchEvent,
    RouteEvent,
    DispatchEvent,
    FailoverEvent,
    ReplicaHealthEvent,
    FaultEvent,
    HealthTransitionEvent,
    HealEvent,
    UpdateEvent,
    RebuildEvent,
    EpochEvent,
    ReconfigEvent,
    CheckpointEvent,
    RecoveryEvent,
)


class EventBus:
    """Synchronous fan-out of typed events to subscribed callables.

    ``active`` is a plain attribute kept equal to "has subscribers";
    producers test it before constructing an event, which is what makes
    the disabled path free.  Subscribers run inline on the emitting
    thread in subscription order — a slow subscriber slows the
    instrumented code, which is deliberate (no hidden queues, no
    reordering, deterministic tests).
    """

    __slots__ = ("active", "_subscribers")

    def __init__(self) -> None:
        self.active = False
        self._subscribers: list[Callable] = []

    # -- subscription ------------------------------------------------------------

    def subscribe(self, fn: Callable) -> None:
        """Add ``fn`` (called with each event); enables the bus."""
        self._subscribers.append(fn)
        self.active = True

    def unsubscribe(self, fn: Callable) -> None:
        """Remove one subscription of ``fn``; disables the bus if last."""
        self._subscribers.remove(fn)
        self.active = bool(self._subscribers)

    @property
    def subscribers(self) -> int:
        """Number of active subscriptions."""
        return len(self._subscribers)

    # -- emission ----------------------------------------------------------------

    def emit(self, event) -> None:
        """Deliver ``event`` to every subscriber, in order.

        Producers must guard this behind ``if bus.active:`` — calling
        ``emit`` on a disabled bus is harmless but means the event was
        constructed for nothing.
        """
        for fn in self._subscribers:
            fn(event)

    # -- scoped helpers ----------------------------------------------------------

    @contextmanager
    def subscribed(self, fn: Callable) -> Iterator["EventBus"]:
        """Subscribe ``fn`` for the duration of a ``with`` block."""
        self.subscribe(fn)
        try:
            yield self
        finally:
            self.unsubscribe(fn)

    @contextmanager
    def capture(self, *types) -> Iterator[list]:
        """Collect events (optionally filtered by ``types``) into a list."""
        events: list = []
        if types:
            def sink(event, _types=tuple(types)):
                if isinstance(event, _types):
                    events.append(event)
        else:
            sink = events.append
        self.subscribe(sink)
        try:
            yield events
        finally:
            self.unsubscribe(sink)


#: The process-wide bus every instrumented site in the library emits to.
BUS = EventBus()


def get_bus() -> EventBus:
    """The process-wide :data:`BUS` (a function for mockability)."""
    return BUS
