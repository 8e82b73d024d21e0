"""The mutable sharded service: write path, read-your-writes, pins, CLI.

Clockless end-to-end tests of ``DynamicShardedService``: micro-batched
write groups advancing epochs, typed update backlog shedding,
read-your-writes ordering, epoch-pinned multi-key reads, telemetry
event flow, and the ``serve --dynamic`` CLI smoke path.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import (
    QueryError,
    UpdateBacklogError,
)
from repro.serve import (
    DynamicShardedService,
    build_dynamic_service,
)
from repro.telemetry.events import (
    BUS,
    EpochEvent,
    RebuildEvent,
    UpdateEvent,
)

UNIVERSE = 1 << 12


def _service(**kwargs) -> DynamicShardedService:
    defaults = dict(
        num_shards=2, replicas=3, seed=0, max_batch=4, max_delay=1.0,
        update_batch=4, update_delay=1.0, update_capacity=16, capacity=64,
    )
    defaults.update(kwargs)
    return build_dynamic_service(UNIVERSE, **defaults)


class TestWritePath:
    def test_update_groups_advance_epoch_once(self):
        svc = _service()
        tickets = [
            svc.submit_update(k, True, 0.0) for k in range(4)
        ]  # shard 0, full group -> flushed immediately
        assert all(t.done for t in tickets)
        assert {t.epoch for t in tickets} == {1}
        assert svc.epochs_by_shard()[0] == 1
        assert svc.stats.update_groups == 1
        assert svc.stats.updates_applied == 4

    def test_deadline_flush_via_advance(self):
        svc = _service()
        ticket = svc.submit_update(1, True, 0.0)
        assert not ticket.done
        assert svc.pending_updates == 1
        svc.advance(5.0)  # past update_delay
        assert ticket.done
        assert svc.pending_updates == 0

    def test_backlog_sheds_with_typed_error(self):
        svc = _service(update_capacity=3, update_batch=100, update_delay=50.0)
        for k in range(3):
            svc.submit_update(k, True, 0.0)
        with pytest.raises(UpdateBacklogError) as exc:
            svc.submit_update(99, True, 0.0)
        assert exc.value.pending == 3
        assert exc.value.capacity == 3
        assert svc.stats.shed_updates == 1
        # Draining the backlog restores admission.
        svc.drain(0.0)
        svc.submit_update(99, True, 1.0)

    def test_update_out_of_universe(self):
        svc = _service()
        with pytest.raises(QueryError):
            svc.submit_update(UNIVERSE, True, 0.0)


class TestReadPath:
    def test_read_your_writes(self):
        svc = _service()
        ref: set[int] = set()
        rng = np.random.default_rng(1)
        checked = 0
        for i in range(120):
            now = float(i)
            if rng.random() < 0.5:
                k = int(rng.integers(0, UNIVERSE))
                ins = rng.random() < 0.7
                svc.submit_update(k, ins, now)
                (ref.add if ins else ref.discard)(k)
            ticket = svc.submit(int(rng.integers(0, UNIVERSE)), now)
            svc.advance(now)
            if ticket.done:
                checked += 1
                assert ticket.answer == (ticket.key in ref)
        svc.drain(float(120))
        assert checked > 0

    def test_same_tick_write_visible_to_read(self):
        """A write admitted before a read is applied before it executes,
        even when the write group is not yet full."""
        svc = _service(max_batch=1)
        svc.submit_update(7, True, 0.0)  # sits in the write batcher
        ticket = svc.submit(7, 0.0)  # batch of 1: dispatches immediately
        assert ticket.done
        assert ticket.answer is True

    def test_read_pinned_consistent_cut(self):
        svc = _service()
        ref: set[int] = set()
        rng = np.random.default_rng(2)
        for i in range(60):
            k = int(rng.integers(0, UNIVERSE))
            svc.submit_update(k, True, float(i))
            ref.add(k)
            svc.advance(float(i))
        sample = rng.integers(0, UNIVERSE, size=128)
        answers, epochs = svc.read_pinned(sample, 100.0)
        assert np.array_equal(answers, np.isin(sample, sorted(ref)))
        assert set(epochs) <= {0, 1}
        assert epochs == {
            s: svc.shards[s].epoch for s in epochs
        }
        # All pins released: further churn reclaims eagerly.
        for s in epochs:
            assert svc.shards[s].epochs.pinned == 0

    def test_read_pinned_out_of_universe(self):
        svc = _service()
        with pytest.raises(QueryError):
            svc.read_pinned(np.array([0, UNIVERSE]), 0.0)


class TestTelemetry:
    def test_events_flow(self):
        with BUS.capture(UpdateEvent, RebuildEvent, EpochEvent) as events:
            svc = _service()
            for k in range(8):
                svc.submit_update(k, True, 0.0)
            svc.drain(1.0)
        updates = [e for e in events if isinstance(e, UpdateEvent)]
        rebuilds = [e for e in events if isinstance(e, RebuildEvent)]
        epochs = [e for e in events if isinstance(e, EpochEvent)]
        assert len(updates) == svc.stats.update_groups
        assert len(epochs) == svc.stats.update_groups
        assert rebuilds
        assert sum(e.size for e in updates) == svc.stats.updates_applied


class TestConstruction:
    def test_stats_row_shape(self):
        svc = _service()
        svc.submit_update(3, True, 0.0)
        svc.drain(0.0)
        row = svc.stats_row()
        assert row["updates_applied"] == 1
        assert row["pending_updates"] == 0
        assert row["shard0_epoch_epoch"] == 1
        assert row["shard1_epoch_epoch"] == 0
        assert row["update_log_entries"] == 1

    def test_update_log_gauge_and_warning(self, monkeypatch):
        import warnings

        from repro.serve import dynamic_service
        from repro.telemetry import TelemetryHub

        svc = _service()
        hub = TelemetryHub(metrics=True)
        svc.attach_telemetry(hub)
        svc.submit_update(3, True, 0.0)
        svc.submit_update(7, False, 0.0)
        svc.drain(0.0)
        gauges = hub.metrics.snapshot()["gauges"]
        assert gauges["dynamic_update_log_entries"]["value"] == 2.0
        # Crossing the (patched) threshold warns exactly once.
        monkeypatch.setattr(
            dynamic_service, "UPDATE_LOG_WARN_THRESHOLD", 3
        )
        with pytest.warns(RuntimeWarning, match="update log"):
            svc.submit_update(9, True, 1.0)
            svc.drain(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svc.submit_update(11, True, 2.0)
            svc.drain(2.0)


class TestCLI:
    def test_serve_dynamic_smoke(self, capsys):
        assert main([
            "serve", "--dynamic", "--n", "64",
            "--smoke-queries", "48", "--seed", "0", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 wrong" in out
