"""Telemetry: tracing, metrics & live contention monitoring (PR 4).

The observability layer for the probe/serve stack, built around one
invariant: **telemetry off must be byte-identical to telemetry absent**.
Every instrumented site in the library guards its emission behind
``if BUS.active:``, so the disabled cost is a single attribute test —
no event objects, no callable dispatch, and no RNG perturbation.  The
property test in ``tests/test_telemetry_integration.py`` proves probe
accounting identical with the layer disabled, and
``python tools/timing_gates.py e20`` gates the hot-path overhead.

Four coordinated pieces:

- :mod:`~repro.telemetry.events` — the zero-overhead structured event
  bus and its typed event vocabulary;
- :mod:`~repro.telemetry.tracing` — clockless trace spans threading
  request → admission → batch → route → replica → table-probe, with
  JSON and Chrome ``trace_event`` export;
- :mod:`~repro.telemetry.metrics` — counters, gauges, mergeable
  log-bucket histograms, Prometheus text exposition, and versioned
  JSON snapshots;
- :mod:`~repro.telemetry.monitor` — live monitors comparing streaming
  per-cell probe counts against the exact Binomial(Q, Φ_t(j)) law of
  the paper's Definition 1, with a max-of-Gaussians-corrected alarm
  threshold (validated by experiment E20);
- :mod:`~repro.telemetry.hub` — :class:`TelemetryHub`, the attachable
  bundle the serving stack carries, and :class:`BusMetricsCollector`
  for bus-driven collection around offline experiment runs.
"""

from repro.telemetry.events import (
    BUS,
    EVENT_TYPES,
    AdmissionEvent,
    BatchEvent,
    DispatchEvent,
    EventBus,
    ExecutionEvent,
    FailoverEvent,
    FaultEvent,
    HealEvent,
    HealthTransitionEvent,
    ProbeEvent,
    ReplicaHealthEvent,
    RouteEvent,
    get_bus,
)
from repro.telemetry.hub import (
    BusMetricsCollector,
    TelemetryHub,
    collect_bus_metrics,
)
from repro.telemetry.metrics import (
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
)
from repro.telemetry.monitor import (
    ContentionMonitor,
    HotCellAlarm,
    ReplicaBalanceMonitor,
    RouterSkewAlarm,
)
from repro.telemetry.tracing import TRACE_VERSION, Span, Tracer

__all__ = [
    "BUS",
    "EVENT_TYPES",
    "AdmissionEvent",
    "BatchEvent",
    "BusMetricsCollector",
    "ContentionMonitor",
    "Counter",
    "DispatchEvent",
    "EventBus",
    "ExecutionEvent",
    "FailoverEvent",
    "FaultEvent",
    "Gauge",
    "HealEvent",
    "HealthTransitionEvent",
    "HotCellAlarm",
    "LogHistogram",
    "MetricsRegistry",
    "ProbeEvent",
    "ReplicaBalanceMonitor",
    "ReplicaHealthEvent",
    "RouteEvent",
    "RouterSkewAlarm",
    "SNAPSHOT_VERSION",
    "Span",
    "TRACE_VERSION",
    "TelemetryHub",
    "Tracer",
    "collect_bus_metrics",
    "get_bus",
]
