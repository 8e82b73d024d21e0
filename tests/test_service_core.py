"""The shared service core, exercised on all three deployments.

``ShardedDictionaryService`` owns the request path (keyspace checks,
admission, batching, completion).  The multicore fabric — here its
``procs=0`` inline engine — and the dynamic service override only how
a flushed batch executes, and each declares its ``capabilities``.  The
shared contract runs against every deployment; the capability tests
check that each declared set is exactly what the autotune executor and
``enable_healing`` enforce.
"""

import numpy as np
import pytest

from repro.autotune import Decision, ReconfigExecutor
from repro.errors import (
    ActionUnsupportedError,
    ParameterError,
    QueryError,
    TelemetryError,
)
from repro.experiments.common import make_instance
from repro.parallel import ParallelDictionaryService, build_parallel_service
from repro.serve import (
    DynamicShardedService,
    ShardedDictionaryService,
    build_dynamic_service,
    build_service,
)
from repro.serve.chaos import ChaosEvent, _apply_event
from repro.telemetry import ContentionMonitor, TelemetryHub

DEPLOYMENTS = ("static", "dynamic", "fabric")
ACTIONS = ("capacity", "update-capacity", "split", "join", "scheme-switch")


@pytest.fixture(scope="module")
def instance():
    keys, N = make_instance(64, seed=3)
    return keys, N


def _build(kind, keys, N, **kwargs):
    """A two-shard service of ``kind``; the dynamic one holds ``keys``."""
    common = dict(num_shards=2, replicas=3, seed=1, **kwargs)
    if kind == "static":
        return build_service(keys, N, **common)
    if kind == "fabric":
        return build_parallel_service(keys, N, procs=0, **common)
    svc = build_dynamic_service(N, update_batch=16, **common)
    for k in keys:
        svc.submit_update(int(k), True, 0.0)
    svc.drain(0.0)
    return svc


def _construct(kind, shards, boundaries, **kwargs):
    cls = {
        "static": ShardedDictionaryService,
        "dynamic": DynamicShardedService,
        "fabric": ParallelDictionaryService,
    }[kind]
    if kind == "fabric":
        kwargs["procs"] = 0
    return cls(shards, boundaries, **kwargs)


@pytest.mark.parametrize("kind", DEPLOYMENTS)
class TestSharedRequestPath:
    def test_constructor_validation(self, kind, instance):
        keys, N = instance
        shards = _build(kind, keys, N).shards
        with pytest.raises(ParameterError):
            _construct(kind, [], [])
        with pytest.raises(ParameterError):
            _construct(kind, shards[:1], [1])
        with pytest.raises(ParameterError):
            _construct(kind, shards[:1], [0, 8])
        with pytest.raises(ParameterError):
            _construct(kind, shards, [0, 0])
        with pytest.raises(ParameterError):
            _construct(kind, shards, [0, N // 2], probe_time=-1.0)

    def test_builder_rejects_negative_probe_time(self, kind, instance):
        keys, N = instance
        with pytest.raises(ParameterError):
            _build(kind, keys, N, probe_time=-1.0)

    def test_shard_of(self, kind, instance):
        keys, N = instance
        svc = _build(kind, keys, N)
        assert svc.shard_of(0) == 0
        assert svc.shard_of(N // 2 - 1) == 0
        assert svc.shard_of(N // 2) == 1
        assert svc.shard_of(N - 1) == 1
        for bad in (-1, N):
            with pytest.raises(QueryError):
                svc.shard_of(bad)

    def test_out_of_universe_submit_admits_nothing(self, kind, instance):
        keys, N = instance
        svc = _build(kind, keys, N)
        for bad in (-1, N):
            with pytest.raises(QueryError):
                svc.submit(bad, 1.0)
        assert svc.stats.submitted == 0
        assert svc.admission.in_flight == 0

    def test_answers_are_membership(self, kind, instance):
        keys, N = instance
        svc = _build(kind, keys, N, max_batch=4)
        member = set(keys.tolist())
        xs = list(keys[:10]) + [1, N // 2, N - 2]
        tickets = [svc.submit(int(x), 1.0 + i) for i, x in enumerate(xs)]
        svc.drain(100.0)
        assert all(t.done for t in tickets)
        assert all(t.answer == (t.key in member) for t in tickets)
        assert svc.stats.completed == len(xs)
        assert svc.stats.probes > 0


@pytest.mark.parametrize("kind", ("fabric", "dynamic"))
@pytest.mark.parametrize("bad", (-1, "N"))
def test_bulk_reads_reject_out_of_universe(kind, bad, instance):
    keys, N = instance
    svc = _build(kind, keys, N)
    xs = np.array([int(keys[0]), N if bad == "N" else bad], dtype=np.int64)
    with pytest.raises(QueryError):
        if kind == "fabric":
            svc.query_batch(xs)
        else:
            svc.read_pinned(xs, 1.0)


def _check_capabilities(svc, expected):
    """``capabilities`` is exactly what the executor and healing enforce."""
    assert type(svc).capabilities == expected
    executor = ReconfigExecutor(svc, seed=0)
    assert executor.capabilities == expected & frozenset(ACTIONS)
    for kind in ACTIONS:
        if kind in expected:
            continue
        decision = Decision(
            now=0.0, kind=kind, shard=0, before=1, after=2, reason="test",
        )
        with pytest.raises(ActionUnsupportedError):
            executor.apply(decision, 0.0)
    # Telemetry observes every deployment's batches the same way.
    hub = TelemetryHub(metrics=True)
    svc.attach_telemetry(hub)
    tickets = [svc.submit(x, 1.0) for x in (0, 1, 2)]
    svc.drain(2.0)
    assert all(t.done for t in tickets)
    assert hub.metrics.counter("serve_completed").value == 3
    assert hub.metrics.counter("serve_probes").value > 0
    if "heal" in expected:
        assert svc.enable_healing(seed=0) is svc.health
    else:
        with pytest.raises(ParameterError):
            svc.enable_healing()
        assert svc.health is None


def test_static_capabilities(instance):
    keys, N = instance
    _check_capabilities(
        _build("static", keys, N),
        frozenset(("capacity", "split", "join", "scheme-switch", "heal")),
    )


def test_dynamic_capabilities(instance):
    keys, N = instance
    _check_capabilities(
        _build("dynamic", keys, N),
        frozenset(("capacity", "update-capacity")),
    )


def test_fabric_capabilities(instance):
    keys, N = instance
    _check_capabilities(
        _build("fabric", keys, N), frozenset(("capacity", "fabric-faults")),
    )


@pytest.mark.parametrize("kind", ("kill-worker", "corrupt-segment"))
def test_fabric_events_follow_the_declared_capability(kind, instance):
    # Only a deployment declaring ``fabric-faults`` receives fabric
    # events; an in-process replay of the same schedule skips them.
    keys, N = instance
    event = ChaosEvent(time=0.0, kind=kind, cells=(0,), masks=(1,))
    static = _build("static", keys, N)
    assert "fabric-faults" not in static.capabilities
    assert _apply_event(static, event) == "skipped"
    fabric = _build("fabric", keys, N)
    calls = []
    fabric.apply_fabric_event = lambda ev: calls.append(ev) or True
    assert _apply_event(fabric, event) == "applied"
    assert calls == [event]


def test_dynamic_service_refuses_contention_monitor():
    # A ContentionMonitor reads one Φ matrix per shard; a dynamic shard
    # spreads its probes over level tables, so attaching is refused
    # instead of crashing the first checked read batch.
    svc = build_dynamic_service(1 << 10, num_shards=1, max_batch=1)
    phi = np.full((1, 4), 0.25)
    hub = TelemetryHub(contention=ContentionMonitor(phi), check_every=1)
    with pytest.raises(TelemetryError):
        svc.attach_telemetry(hub)
    assert svc.telemetry is None
    ticket = svc.submit(5, 0.0)
    svc.drain(1.0)
    assert ticket.done and ticket.answer is False
    # A hub without a contention monitor still attaches.
    svc.attach_telemetry(TelemetryHub(metrics=True))
    svc.submit(5, 2.0)
    svc.drain(3.0)
    assert svc.telemetry.metrics.counter("serve_completed").value == 1


def test_dynamic_autotune_observes_no_backlog(instance):
    keys, N = instance
    svc = _build("dynamic", keys, N, probe_time=1.0, max_batch=4)
    controller = svc.enable_autotune(seed=0, enabled=False)
    tickets = [svc.submit(int(keys[i]), 0.0) for i in range(8)]
    assert all(t.done and t.completion > 0.0 for t in tickets)
    obs = controller.observe(0.0)
    assert obs.shard_backlog == (0.0, 0.0)
    assert obs.update_capacity == svc.update_capacity
