"""The autotune control plane: purity, safety, and identity properties.

The PR-9 satellite suite: policy validation, the pure decision engine
(identical telemetry streams + seed => identical decision traces),
executor actions (split / join / scheme-switch / capacity) with their
probe-accounting and precondition guarantees, capability honesty per
deployment, and the zero-overhead-when-off digest identity.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.autotune import (
    AutotuneController,
    AutotunePolicy,
    Decision,
    DecisionEngine,
    Observation,
    ReconfigExecutor,
    replay_trace,
    scheme_name,
)
from repro.errors import (
    ActionUnsupportedError,
    AutotuneError,
    ReconfigError,
)
from repro.experiments.common import make_instance
from repro.serve.service import build_service
from repro.telemetry.events import BUS, ReconfigEvent
from repro.utils.rng import as_generator


@pytest.fixture(scope="module")
def instance():
    keys, N = make_instance(96, seed=3)
    return keys, N


def small_service(keys, N, **kwargs):
    defaults = dict(
        num_shards=2, replicas=2, probe_time=0.01, max_batch=4,
        max_delay=0.5, seed=9,
    )
    defaults.update(kwargs)
    return build_service(keys, N, **defaults)


def drive(service, keys, N, requests=120, seed=0, rate=24.0):
    """Open-loop drive; returns (tickets, wrong_count)."""
    rng = as_generator(seed)
    xs = rng.integers(0, N, size=requests)
    gaps = rng.exponential(1.0 / rate, size=requests)
    arrivals = np.cumsum(gaps)
    key_set = set(int(k) for k in keys)
    tickets = []
    for x, t in zip(xs, arrivals):
        service.advance(float(t))
        tickets.append((int(x), service.submit(int(x), float(t))))
    service.drain(float(arrivals[-1]) + 5.0)
    wrong = sum(
        1 for x, tk in tickets
        if tk.done and tk.answer != (x in key_set)
    )
    return tickets, wrong


class TestPolicy:
    def test_defaults_valid_and_round_trip(self):
        p = AutotunePolicy()
        back = AutotunePolicy.from_dict(p.to_dict())
        assert back == p and back.digest() == p.digest()

    @pytest.mark.parametrize("bad", [
        dict(low_load=2.0, high_load=1.0),
        dict(min_replicas=0),
        dict(min_replicas=4, max_replicas=2),
        dict(max_total_replicas=0, min_replicas=2),
        dict(cooldown=0.0),
        dict(check_every=-1.0),
        dict(shed_low=0.5, shed_high=0.1),
        dict(backlog_slack=0.0),
        dict(join_backlog=3.0, split_backlog=2.0),
        dict(min_capacity=0),
        dict(backlog_low=0.9, backlog_high=0.5),
        dict(hot_scheme="fks", cold_scheme="fks"),
    ])
    def test_validation_raises_typed_error(self, bad):
        with pytest.raises(AutotuneError):
            AutotunePolicy(**bad)

    def test_digest_sensitive_to_fields(self):
        assert (
            AutotunePolicy(cooldown=5.0).digest()
            != AutotunePolicy(cooldown=6.0).digest()
        )


def obs(now, probes, replicas, backlog=None, **kwargs):
    n = len(probes)
    defaults = dict(
        now=float(now),
        shard_probes=tuple(probes),
        shard_replicas=tuple(replicas),
        shard_schemes=tuple("low-contention" for _ in range(n)),
        shard_backlog=tuple(backlog if backlog is not None
                            else (0.0,) * n),
        admitted=100, shed=0, in_flight=0, capacity=256,
    )
    defaults.update(kwargs)
    return Observation(**defaults)


CAPS = frozenset(("capacity", "split", "join", "scheme-switch"))


class TestDecisionEngine:
    def test_identical_streams_identical_traces(self):
        policy = AutotunePolicy(cooldown=1.0, check_every=0.5)
        stream = [
            obs(t, (900, 40, 40, 20), (2, 2, 2, 2),
                backlog=(3.0, 0.0, 0.0, 0.0))
            for t in range(6)
        ]
        a = DecisionEngine(policy, CAPS, seed=4)
        b = DecisionEngine(policy, CAPS, seed=4)
        ta = [[d.to_dict() for d in a.decide(o)] for o in stream]
        tb = [[d.to_dict() for d in b.decide(o)] for o in stream]
        assert ta == tb
        assert any(ds for ds in ta)

    def test_hot_shard_splits(self):
        engine = DecisionEngine(AutotunePolicy(), CAPS)
        ds = engine.decide(obs(0.0, (970, 10, 10, 10), (2, 2, 2, 2)))
        assert [d.kind for d in ds] == ["split"]
        assert ds[0].shard == 0 and ds[0].after == 3

    def test_cold_shard_joins(self):
        engine = DecisionEngine(AutotunePolicy(), CAPS)
        ds = engine.decide(obs(0.0, (30, 30, 30, 1), (2, 2, 2, 3)))
        assert [d.kind for d in ds] == ["join"]
        assert ds[0].shard == 3 and ds[0].after == 2

    def test_backlogged_shard_splits_without_relative_heat(self):
        # Uniform saturation: equal shares, all backlogged — the
        # absolute-pressure band must still grow replication.
        engine = DecisionEngine(AutotunePolicy(split_backlog=1.0), CAPS)
        ds = engine.decide(obs(
            0.0, (25, 25, 25, 25), (2, 2, 2, 2),
            backlog=(2.0, 3.0, 2.5, 2.0),
        ))
        assert [d.kind for d in ds] == ["split"]
        assert ds[0].shard == 1  # most backlogged first

    def test_backlogged_victim_never_joins(self):
        engine = DecisionEngine(
            AutotunePolicy(join_backlog=0.25), CAPS
        )
        ds = engine.decide(obs(
            0.0, (30, 30, 30, 1), (2, 2, 2, 3),
            backlog=(0.0, 0.0, 0.0, 1.0),
        ))
        assert ds == []

    def test_budget_split_funded_by_join(self):
        engine = DecisionEngine(
            AutotunePolicy(max_total_replicas=8), CAPS
        )
        ds = engine.decide(obs(0.0, (970, 10, 10, 10), (2, 2, 2, 2)))
        assert [d.kind for d in ds] == ["join", "split"]
        assert ds[0].shard != ds[1].shard and ds[1].shard == 0

    def test_cooldown_suppresses_repeat(self):
        # Shares keep shard 0 hot and the rest inside the band, so the
        # only candidate action is the split the cooldown suppresses.
        policy = AutotunePolicy(cooldown=10.0)
        engine = DecisionEngine(policy, CAPS)
        hot = obs(0.0, (600, 140, 130, 130), (2, 2, 2, 2))
        assert engine.decide(hot)
        assert engine.decide(obs(
            1.0, (600, 140, 130, 130), (3, 2, 2, 2)
        )) == []

    def test_capacity_raises_on_shed(self):
        engine = DecisionEngine(AutotunePolicy(), frozenset(("capacity",)))
        ds = engine.decide(obs(
            0.0, (25, 25, 25, 25), (2, 2, 2, 2), admitted=90, shed=10,
        ))
        assert [d.kind for d in ds] == ["capacity"]
        assert ds[0].after > ds[0].before

    def test_decision_round_trip(self):
        d = Decision(now=1.0, kind="split", shard=2, before=2,
                     after=3, reason="hot")
        assert Decision.from_dict(d.to_dict()) == d


class TestCapabilities:
    def test_sharded_service_full_set(self, instance):
        keys, N = instance
        service = small_service(keys, N)
        assert ReconfigExecutor(service).capabilities == CAPS

    def test_dynamic_service_admission_only(self):
        from repro.serve.dynamic_service import build_dynamic_service

        svc = build_dynamic_service(1 << 10, num_shards=1, replicas=2,
                                    seed=1)
        caps = ReconfigExecutor(svc).capabilities
        assert caps == frozenset(("capacity", "update-capacity"))

    def test_unsupported_action_raises(self):
        from repro.serve.dynamic_service import build_dynamic_service

        svc = build_dynamic_service(1 << 10, num_shards=1, replicas=2,
                                    seed=1)
        executor = ReconfigExecutor(svc, seed=0)
        split = Decision(now=0.0, kind="split", shard=0, before=2,
                         after=3, reason="x")
        with pytest.raises(ActionUnsupportedError):
            executor.apply(split, 0.0)


class TestExecutor:
    def make(self, instance, **kwargs):
        keys, N = instance
        service = small_service(keys, N, **kwargs)
        return keys, N, service, ReconfigExecutor(service, seed=7)

    def test_split_grows_and_charges_reconfig_counter(self, instance):
        keys, N, service, executor = self.make(instance)
        query_probes_before = int(
            np.sum(service.shards[0].replica_probe_loads())
        )
        entry = executor.apply(
            Decision(now=0.0, kind="split", shard=0, before=2,
                     after=3, reason="hot"),
            0.0,
        )
        assert service.shards[0].replicas == 3
        assert len(service._busy_until[0]) == 3
        assert entry["probes"] > 0
        assert executor.reconfig_probes == entry["probes"]
        # Query-path counter untouched: the new table starts clean.
        assert int(
            np.sum(service.shards[0].replica_probe_loads())
        ) <= query_probes_before
        _, wrong = drive(service, keys, N)
        assert wrong == 0

    def test_join_shrinks_after_drain(self, instance):
        keys, N, service, executor = self.make(instance, replicas=3)
        entry = executor.apply(
            Decision(now=0.0, kind="join", shard=1, before=3,
                     after=2, reason="cold"),
            0.0,
        )
        assert service.shards[1].replicas == 2
        assert entry["probes"] == 0
        _, wrong = drive(service, keys, N)
        assert wrong == 0

    def test_join_refused_while_victim_busy(self, instance):
        keys, N, service, executor = self.make(instance, replicas=3)
        service._busy_until[0][2] = 99.0
        with pytest.raises(ReconfigError, match="drain"):
            executor.apply(
                Decision(now=0.0, kind="join", shard=0, before=3,
                         after=2, reason="cold"),
                0.0,
            )
        assert service.shards[0].replicas == 3

    def test_join_at_one_replica_refused(self, instance):
        keys, N, service, executor = self.make(instance, replicas=1)
        with pytest.raises(ReconfigError, match="one replica"):
            executor.apply(
                Decision(now=0.0, kind="join", shard=0, before=1,
                         after=0, reason="cold"),
                0.0,
            )

    def test_scheme_switch_swaps_at_epoch(self, instance):
        keys, N, service, executor = self.make(instance)
        assert scheme_name(service.shards[0]) == "low-contention"
        entry = executor.apply(
            Decision(now=0.0, kind="scheme-switch", shard=0, before=2,
                     after=2, reason="x", target="fks"),
            0.0,
        )
        assert scheme_name(service.shards[0]) == "fks"
        assert entry["epoch"] == executor.epochs.epoch
        _, wrong = drive(service, keys, N)
        assert wrong == 0

    def test_scheme_switch_to_same_scheme_refused(self, instance):
        keys, N, service, executor = self.make(instance)
        with pytest.raises(ReconfigError, match="already"):
            executor.apply(
                Decision(now=0.0, kind="scheme-switch", shard=0,
                         before=2, after=2, reason="x",
                         target="low-contention"),
                0.0,
            )

    def test_capacity_action_retargets_admission(self, instance):
        keys, N, service, executor = self.make(instance)
        executor.apply(
            Decision(now=0.0, kind="capacity", shard=-1, before=1024,
                     after=512, reason="x"),
            0.0,
        )
        assert service.admission.capacity == 512

    def test_structural_action_emits_reconfig_event(self, instance):
        keys, N, service, executor = self.make(instance)
        with BUS.capture() as events:
            executor.apply(
                Decision(now=0.0, kind="split", shard=0, before=2,
                         after=3, reason="hot"),
                0.0,
            )
        reconfigs = [e for e in events if isinstance(e, ReconfigEvent)]
        assert len(reconfigs) == 1
        assert reconfigs[0].kind == "split"
        assert reconfigs[0].after == 3

    def test_split_rebinds_health_machinery(self, instance):
        keys, N, service, executor = self.make(instance)
        service.enable_healing(seed=2)
        assert (0, 2) not in service.health.machines
        executor.apply(
            Decision(now=0.0, kind="split", shard=0, before=2,
                     after=3, reason="hot"),
            0.0,
        )
        assert service.health.machines[(0, 2)].state == "healthy"
        # The repair counter tracks the new table's geometry.
        assert (
            service.health.repair_counters[0].num_cells
            == service.shards[0].table.num_cells
        )


class TestControllerIdentity:
    def test_disabled_controller_is_byte_identical(self, instance):
        keys, N = instance
        bare = small_service(keys, N)
        drive(bare, keys, N)
        attached = small_service(keys, N)
        attached.enable_autotune(seed=3, enabled=False)
        drive(attached, keys, N)
        assert [
            s.table.counter.digest() for s in bare.shards
        ] == [
            s.table.counter.digest() for s in attached.shards
        ]
        assert attached.autotune.trace == []

    def test_enabled_controller_replays_byte_for_byte(self, instance):
        keys, N = instance
        service = small_service(keys, N)
        policy = AutotunePolicy(
            check_every=0.5, cooldown=1.0, split_backlog=0.5,
        )
        controller = service.enable_autotune(policy=policy, seed=5)
        drive(service, keys, N, requests=200, rate=64.0)
        assert controller.trace  # the controller actually observed
        result = replay_trace(controller.trace_payload())
        assert result["match"] and result["mismatches"] == []
        assert result["entries"] == len(controller.trace)

    def test_two_runs_identical_trace_digest(self, instance):
        keys, N = instance
        digests = []
        for _ in range(2):
            service = small_service(keys, N)
            controller = service.enable_autotune(
                policy=AutotunePolicy(check_every=0.5, cooldown=1.0),
                seed=5,
            )
            drive(service, keys, N, requests=160, rate=48.0)
            digests.append(controller.trace_digest())
        assert digests[0] == digests[1]

    def test_tampered_trace_fails_replay(self, instance):
        keys, N = instance
        service = small_service(keys, N)
        controller = service.enable_autotune(
            policy=AutotunePolicy(check_every=0.5, cooldown=1.0,
                                  split_backlog=0.5),
            seed=5,
        )
        drive(service, keys, N, requests=200, rate=64.0)
        payload = controller.trace_payload()
        entry = next(
            (e for e in payload["entries"] if e["decisions"]), None
        )
        if entry is None:
            pytest.skip("no decisions issued at this seed")
        entry["decisions"] = []
        assert not replay_trace(payload)["match"]

    def test_verify_toggle_shifts_no_decision(self, instance):
        keys, N = instance
        outcomes = {}
        for verify in (True, False):
            service = small_service(keys, N)
            controller = service.enable_autotune(
                policy=AutotunePolicy(
                    check_every=0.5, cooldown=1.0, split_backlog=0.5,
                    verify_clones=verify,
                ),
                seed=5,
            )
            drive(service, keys, N, requests=200, rate=64.0)
            outcomes[verify] = controller
        assert (
            outcomes[True].trace == outcomes[False].trace
        )
        assert (
            outcomes[True].executor.reconfig_probes
            >= outcomes[False].executor.reconfig_probes
        )


class TestControllerLoop:
    def test_funding_join_failure_skips_split(self, instance):
        # A refused funding join must veto its paired split: applying
        # the split anyway would bust the replica budget.
        keys, N = instance
        service = small_service(keys, N, num_shards=2, replicas=2)
        controller = AutotuneController(
            service,
            policy=AutotunePolicy(
                check_every=0.5, cooldown=1.0, max_total_replicas=4,
                high_load=1.2,
            ),
            seed=6,
        )
        # Make shard 0 look hot by probing it directly...
        rng = as_generator(1)
        for x in rng.integers(0, N, size=64):
            service.shards[0].query(int(x), rng)
        # ...while the funding victim (shard 1) hides a quarantined
        # replica the pure engine cannot see: the executor's steady
        # precondition refuses the join.
        service.enable_healing(seed=2)
        service.health.machines[(1, 1)].state = "quarantined"
        controller.tick(10.0)
        engine_kinds = [
            d["kind"] for d in controller.trace[-1]["decisions"]
        ]
        assert engine_kinds == ["join", "split"]
        skip_kinds = [s["kind"] for s in controller.skips]
        assert skip_kinds == ["join", "split"]
        assert sum(s.replicas for s in service.shards) == 4

    def test_gauges_exported_through_telemetry(self, instance):
        from repro.telemetry import TelemetryHub

        keys, N = instance
        service = small_service(keys, N)
        hub = TelemetryHub(metrics=True)
        service.attach_telemetry(hub)
        service.enable_autotune(
            policy=AutotunePolicy(check_every=0.5, cooldown=1.0,
                                  split_backlog=0.25, join_backlog=0.05),
            seed=5,
        )
        drive(service, keys, N, requests=200, rate=64.0)
        if service.autotune.applied:
            gauges = hub.metrics.snapshot()["gauges"]
            assert "autotune_replicas_total" in gauges
