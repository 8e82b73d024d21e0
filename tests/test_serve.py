"""Unit and property tests for the serving subsystem (repro.serve)."""

from __future__ import annotations

import asyncio
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributions import ZipfDistribution
from repro.errors import (
    FaultExhaustedError,
    OverloadError,
    ParameterError,
    QueryError,
)
from repro.experiments.common import make_instance, uniform_distribution
from repro.faults import FaultConfig
from repro.serve import (
    AdmissionController,
    AsyncDictionaryServer,
    MicroBatcher,
    ROUTERS,
    build_service,
    make_router,
    run_loadgen,
)


def test_import_serve_first_is_not_circular():
    # repro.experiments.e19_serving imports repro.serve; the reverse
    # edge must stay lazy, or `import repro.serve` breaks whenever it
    # is the first repro import in the process (regression: the suite
    # itself always imports repro.experiments first, hiding this).
    subprocess.run(
        [sys.executable, "-c", "import repro.serve"], check=True
    )


@pytest.fixture(scope="module")
def instance():
    keys, N = make_instance(128, seed=11)
    return keys, N


def small_service(keys, N, **kwargs):
    defaults = dict(num_shards=2, replicas=3, seed=5)
    defaults.update(kwargs)
    return build_service(keys, N, **defaults)


class TestMicroBatcher:
    def test_size_flush(self):
        b = MicroBatcher(max_size=3, max_delay=10.0)
        assert b.add("a", 0.0) is None
        assert b.add("b", 0.5) is None
        batch = b.add("c", 1.0)
        assert batch is not None
        assert batch.reason == "size"
        assert batch.requests == ["a", "b", "c"]
        assert batch.opened == 0.0 and batch.flushed == 1.0
        assert b.pending == 0

    def test_deadline_flush(self):
        b = MicroBatcher(max_size=100, max_delay=2.0)
        b.add("a", 1.0)
        assert b.poll(2.9) is None  # oldest is 1.9 old, deadline is 3.0
        batch = b.poll(3.0)
        assert batch is not None and batch.reason == "delay"
        assert b.next_deadline() is None

    def test_deadline_tracks_oldest_request(self):
        b = MicroBatcher(max_size=100, max_delay=2.0)
        b.add("a", 1.0)
        b.add("b", 2.5)  # younger request does not extend the deadline
        assert b.next_deadline() == 3.0

    def test_drain(self):
        b = MicroBatcher()
        assert b.drain(0.0) is None
        b.add("a", 0.0)
        batch = b.drain(1.0)
        assert batch is not None and batch.reason == "drain"

    def test_counters(self):
        b = MicroBatcher(max_size=2)
        b.add("a", 0.0)
        b.add("b", 0.0)
        b.add("c", 1.0)
        b.drain(2.0)
        assert b.flushed_batches == 2
        assert b.flushed_requests == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            MicroBatcher(max_size=0)
        with pytest.raises(ParameterError):
            MicroBatcher(max_delay=-1.0)


class TestRouters:
    @pytest.mark.parametrize("name", ROUTERS)
    def test_assignments_are_live_replicas(self, name):
        router = make_router(name, 4, seed=3)
        router.mark_down(2)
        out = router.assign(50)
        assert out.shape == (50,)
        assert set(np.unique(out)) <= {0, 1, 3}

    def test_round_robin_cycles(self):
        router = make_router("round-robin", 3)
        picks = [int(router.assign(2)[0]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_lightest(self):
        router = make_router("least-loaded", 3)
        router.record(0, 100)
        router.record(1, 10)
        router.record(2, 50)
        assert int(router.assign(4)[0]) == 1

    def test_least_loaded_ties_break_low(self):
        router = make_router("least-loaded", 3)
        assert int(router.assign(1)[0]) == 0

    def test_mark_down_last_replica_raises(self):
        router = make_router("random", 2)
        router.mark_down(0)
        with pytest.raises(FaultExhaustedError):
            router.mark_down(1)

    def test_mark_up_restores(self):
        router = make_router("round-robin", 2)
        router.mark_down(0)
        router.mark_up(0)
        assert router.live == [0, 1]

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            make_router("sticky", 3)


class TestAdmission:
    def test_sheds_beyond_capacity(self):
        ac = AdmissionController(capacity=2)
        ac.admit()
        ac.admit()
        with pytest.raises(OverloadError) as exc:
            ac.admit()
        assert exc.value.depth == 2 and exc.value.capacity == 2
        assert ac.shed == 1 and ac.admitted == 2

    def test_release_reopens(self):
        ac = AdmissionController(capacity=1)
        ac.admit()
        ac.release()
        ac.admit()
        assert ac.peak_in_flight == 1
        assert ac.shed_fraction == 0.0

    def test_release_validation(self):
        ac = AdmissionController(capacity=4)
        with pytest.raises(ParameterError):
            ac.release(1)


class TestShardedService:
    def test_shard_of_partitions_universe(self, instance):
        keys, N = instance
        svc = small_service(keys, N, num_shards=2)
        assert svc.shard_of(0) == 0
        assert svc.shard_of(N - 1) == 1
        boundary = N // 2
        assert svc.shard_of(boundary - 1) == 0
        assert svc.shard_of(boundary) == 1
        with pytest.raises(QueryError):
            svc.shard_of(N)

    def test_shard_of_on_and_next_to_every_boundary(self, instance):
        keys, N = instance
        svc = small_service(keys, N, num_shards=5, replicas=1)
        edges = [(N * i) // 5 for i in range(5)] + [N]
        probes = sorted({
            x for b in edges for x in (b - 1, b, b + 1) if 0 <= x < N
        })
        expected = [
            next(i for i in range(5) if edges[i] <= x < edges[i + 1])
            for x in probes
        ]
        assert [svc.shard_of(x) for x in probes] == expected
        assert [svc.shard_of(np.int64(x)) for x in probes] == expected
        vec = svc._shards_of(np.array(probes, dtype=np.int64))
        assert vec.tolist() == expected
        for bad in (-1, N, N + 1):
            with pytest.raises(QueryError):
                svc.shard_of(bad)
            with pytest.raises(QueryError):
                svc._shards_of(np.array([0, bad], dtype=np.int64))

    def test_answers_are_ground_truth(self, instance):
        keys, N = instance
        svc = small_service(keys, N, max_batch=8)
        member = set(keys.tolist())
        tickets = []
        for i, x in enumerate(list(keys[:12]) + [1, N - 2]):
            tickets.append(svc.submit(int(x), float(i)))
        svc.drain(100.0)
        for t in tickets:
            assert t.done
            assert t.answer == (t.key in member)

    def test_submit_past_capacity_sheds(self, instance):
        keys, N = instance
        svc = small_service(
            keys, N, capacity=3, max_batch=100, max_delay=100.0
        )
        for i in range(3):
            svc.submit(int(keys[i]), 0.0)
        with pytest.raises(OverloadError):
            svc.submit(int(keys[3]), 0.0)
        assert svc.admission.shed == 1

    def test_probe_time_queues_on_busy_replica(self, instance):
        keys, N = instance
        svc = small_service(
            keys, N, num_shards=1, replicas=1, probe_time=1.0, max_batch=4
        )
        first = [svc.submit(int(keys[i]), 0.0) for i in range(4)]
        second = [svc.submit(int(keys[i]), 0.0) for i in range(4, 8)]
        # Same replica: the second batch starts after the first finishes.
        assert all(t.done for t in first + second)
        assert second[0].completion > first[0].completion
        assert first[0].completion > 0.0

    def test_crashed_replica_fails_over(self, instance):
        keys, N = instance
        svc = small_service(
            keys,
            N,
            num_shards=1,
            mode="failover",
            faults=FaultConfig(crashed_replicas=(0, 1), seed=2),
            router="least-loaded",
            max_batch=4,
        )
        tickets = [svc.submit(int(keys[i]), 0.0) for i in range(4)]
        assert all(t.done and t.replica == 2 for t in tickets)
        assert svc.routers[0].live == [2]
        assert svc.stats.failovers >= 1

    def test_all_replicas_crashed_exhausts(self, instance):
        keys, N = instance
        svc = small_service(
            keys,
            N,
            num_shards=1,
            replicas=2,
            mode="failover",
            faults=FaultConfig(crashed_replicas=(0, 1), seed=2),
            max_batch=2,
        )
        with pytest.raises(FaultExhaustedError):
            svc.submit(int(keys[0]), 0.0)
            svc.submit(int(keys[1]), 0.0)

    def test_empty_shard_rejected(self, instance):
        keys, N = instance
        with pytest.raises(ParameterError):
            # Far more shards than keys guarantees an empty range.
            build_service(keys[:2], N, num_shards=64, seed=1)

    def test_validation(self, instance):
        keys, N = instance
        with pytest.raises(ParameterError):
            build_service(keys, N, scheme="nope", seed=1)
        with pytest.raises(ParameterError):
            small_service(keys, N, router="nope")
        with pytest.raises(ParameterError):
            small_service(keys, N, probe_time=-1.0)


class TestLoadgen:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        discipline=st.sampled_from(["open", "closed"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_deterministic_and_correct(self, seed, discipline):
        keys, N = make_instance(64, seed=17)
        dist = uniform_distribution(keys, N)
        reports = []
        for _ in range(2):
            svc = build_service(
                keys, N, num_shards=2, replicas=3, seed=seed,
                probe_time=0.001, max_batch=8, max_delay=0.2,
            )
            reports.append(
                run_loadgen(
                    svc, dist, 300, discipline=discipline, rate=50.0,
                    clients=8, seed=seed + 1, expected_keys=keys,
                )
            )
        assert reports[0].row() == reports[1].row()
        assert reports[0].completed == 300
        assert reports[0].wrong_answers == 0
        assert reports[0].probes > 0

    def test_open_loop_sheds_under_overload(self):
        keys, N = make_instance(64, seed=17)
        dist = uniform_distribution(keys, N)
        svc = build_service(
            keys, N, capacity=8, max_batch=64, max_delay=50.0, seed=3
        )
        report = run_loadgen(
            svc, dist, 100, discipline="open", rate=1000.0, seed=4
        )
        assert report.shed > 0
        assert report.completed + report.shed == 100

    def test_zipf_workload_round_trips(self):
        keys, N = make_instance(64, seed=17)
        rng = np.random.default_rng(9)
        candidates = np.unique(
            np.concatenate([keys, rng.integers(0, N, size=64)])
        )
        dist = ZipfDistribution(N, candidates, 1.1, shuffle_ranks=3)
        svc = build_service(keys, N, num_shards=2, seed=5)
        report = run_loadgen(
            svc, dist, 400, discipline="open", rate=80.0, seed=6,
            expected_keys=keys,
        )
        assert report.completed == 400
        assert report.wrong_answers == 0

    def test_unknown_discipline_rejected(self):
        keys, N = make_instance(64, seed=17)
        svc = build_service(keys, N, seed=1)
        with pytest.raises(ParameterError):
            run_loadgen(
                svc, uniform_distribution(keys, N), 10, discipline="warp"
            )


class TestAsyncServer:
    def test_query_round_trip(self, instance):
        keys, N = instance

        async def scenario():
            svc = small_service(keys, N, max_batch=4, max_delay=0.01)
            async with AsyncDictionaryServer(svc) as server:
                hits = await server.query_many(keys[:8])
                miss = await server.query(1)
                return hits, miss

        hits, miss = asyncio.run(scenario())
        assert hits == [True] * 8
        assert miss is (1 in set(keys.tolist()))

    def test_deadline_flush_resolves_waiters(self, instance):
        keys, N = instance

        async def scenario():
            # max_batch high: only the deadline flusher can resolve it.
            svc = small_service(keys, N, max_batch=1000, max_delay=0.02)
            async with AsyncDictionaryServer(svc) as server:
                return await asyncio.wait_for(
                    server.query(int(keys[0])), timeout=5.0
                )

        assert asyncio.run(scenario()) is True

    def test_query_requires_running_server(self, instance):
        keys, N = instance
        svc = small_service(keys, N)
        server = AsyncDictionaryServer(svc)

        async def scenario():
            await server.query(int(keys[0]))

        with pytest.raises(Exception):
            asyncio.run(scenario())

    def test_stop_drains_pending(self, instance):
        keys, N = instance

        async def scenario():
            svc = small_service(keys, N, max_batch=1000, max_delay=60.0)
            server = AsyncDictionaryServer(svc)
            await server.start()
            task = asyncio.create_task(server.query(int(keys[0])))
            await asyncio.sleep(0.01)
            await server.stop()
            return await asyncio.wait_for(task, timeout=5.0)

        assert asyncio.run(scenario()) is True

    def test_stop_drains_even_when_flusher_crashed(self, instance):
        # Regression: stop() used to await the flusher and propagate its
        # exception *before* draining, leaving every pending future
        # hanging forever.  Now the crash is captured, the drain still
        # runs (clients get answers), and the error re-raises at the end.
        keys, N = instance
        boom = RuntimeError("flusher crashed")

        async def scenario():
            svc = small_service(keys, N, max_batch=1000, max_delay=0.005)
            server = AsyncDictionaryServer(svc)
            await server.start()
            task = asyncio.create_task(server.query(int(keys[0])))
            await asyncio.sleep(0)  # let the query submit its ticket

            def exploding(now):
                raise boom

            svc.advance = exploding  # deadline flush now crashes
            for _ in range(500):
                await asyncio.sleep(0.005)
                if server._flusher.done():
                    break
            with pytest.raises(RuntimeError, match="flusher crashed"):
                await server.stop()
            return await asyncio.wait_for(task, timeout=5.0)

        assert asyncio.run(scenario()) is True

    def test_metrics_snapshot_without_hub(self, instance):
        keys, N = instance

        async def scenario():
            svc = small_service(keys, N, max_batch=4, max_delay=0.01)
            async with AsyncDictionaryServer(svc) as server:
                await server.query_many(keys[:8])
                return server.metrics_snapshot(), server.metrics_text()

        snap, text = asyncio.run(scenario())
        assert snap["kind"] == "repro-metrics"
        assert snap["server"]["completed"] == 8
        assert snap["server"]["running"] is True
        assert snap["server"]["pending_futures"] == 0
        assert text == ""  # no hub: no exposition

    def test_metrics_snapshot_with_hub(self, instance):
        from repro.telemetry import TelemetryHub

        keys, N = instance

        async def scenario():
            svc = small_service(keys, N, max_batch=4, max_delay=0.01)
            svc.attach_telemetry(TelemetryHub(metrics=True))
            async with AsyncDictionaryServer(svc) as server:
                await server.query_many(keys[:8])
                return server.metrics_snapshot(), server.metrics_text()

        snap, text = asyncio.run(scenario())
        assert snap["counters"]["serve_completed"]["value"] == 8
        assert snap["server"]["completed"] == 8
        assert "serve_requests_total 8" in text
