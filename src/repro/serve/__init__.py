"""repro.serve — sharded dictionary serving with contention-aware routing.

The serving subsystem turns the library's static dictionaries into a
live membership service and closes the loop between the paper's
*analysis* (exact per-cell contention Φ_t) and *operations* (what a
running replica fleet actually experiences):

- :mod:`~repro.serve.batcher` — micro-batching of the request stream
  into ``query_batch`` calls (size/deadline flush policy);
- :mod:`~repro.serve.router` — replica routing: the paper's uniform
  marginal, round-robin, and contention-aware least-loaded balancing on
  live probe counters;
- :mod:`~repro.serve.admission` — bounded in-flight queue with typed
  load shedding;
- :mod:`~repro.serve.service` — the clockless sharded core composing
  all of the above over ``ReplicatedDictionary`` shards, with failover
  on injected replica crashes;
- :mod:`~repro.serve.client` — deterministic virtual-time load
  generation (open/closed loop) with latency and load reporting;
- :mod:`~repro.serve.asyncio_server` — the wall-clock asyncio shell;
- :mod:`~repro.serve.health` — the self-healing layer: per-replica
  health state machines, circuit-breaker canaries, scrub/rebuild
  orchestration, and priority-aware graceful degradation;
- :mod:`~repro.serve.chaos` — seeded randomized fault schedules and
  the chaos driver validating steady-state healing (experiment E21);
- :mod:`~repro.serve.dynamic_service` — the *mutable* sharded service:
  replicated dynamic dictionaries with a micro-batched write path,
  write admission control (:class:`~repro.errors.UpdateBacklogError`),
  read-your-writes, and epoch-pinned linearizable multi-key reads
  (experiment E24).

Experiment E19 validates the stack end-to-end: measured per-cell load
under live random routing matches exact Φ_t within sampling error, and
least-loaded routing beats round-robin on Zipf workloads.  E21 runs
the chaos schedule against the healing stack: zero wrong answers,
bounded MTTR, and per-cell loads inside the Binomial envelope at the
surviving replica count.
"""

from repro.serve.admission import AdmissionController
from repro.serve.asyncio_server import AsyncDictionaryServer, serve_forever
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.chaos import (
    ChaosEvent,
    ChaosReport,
    ChaosSchedule,
    run_chaos,
)
from repro.serve.client import (
    LoadReport,
    run_closed_loop,
    run_loadgen,
    run_open_loop,
)
from repro.serve.health import (
    HEALTH_STATES,
    HealthConfig,
    HealthManager,
    ReplicaHealth,
)
from repro.serve.router import (
    BREAKER_STATES,
    ROUTERS,
    CircuitBreaker,
    LeastLoadedRouter,
    RandomRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.serve.dynamic_service import (
    DynamicShardedService,
    UpdateTicket,
    build_dynamic_service,
)
from repro.serve.service import (
    ServiceStats,
    ShardedDictionaryService,
    Ticket,
    build_service,
)

__all__ = [
    "AdmissionController",
    "AsyncDictionaryServer",
    "BREAKER_STATES",
    "Batch",
    "ChaosEvent",
    "ChaosReport",
    "ChaosSchedule",
    "CircuitBreaker",
    "DynamicShardedService",
    "HEALTH_STATES",
    "HealthConfig",
    "HealthManager",
    "LeastLoadedRouter",
    "LoadReport",
    "MicroBatcher",
    "ROUTERS",
    "RandomRouter",
    "ReplicaHealth",
    "RoundRobinRouter",
    "Router",
    "ServiceStats",
    "ShardedDictionaryService",
    "Ticket",
    "UpdateTicket",
    "build_dynamic_service",
    "build_service",
    "make_router",
    "run_chaos",
    "run_closed_loop",
    "run_loadgen",
    "run_open_loop",
    "serve_forever",
]
