"""Durable checkpoints + corruption-tolerant recovery (``repro.persist``).

Pins the PR-10 durability contract end to end: save/restore byte
identity, the per-shard fallback chain (quarantine → older generation
→ empty restart), typed errors for inspection and total loss, bounded
retained logs under a retention policy, the one-shot log warning's
re-arm after compaction, the new ``stats_row`` fields, and — in a real
subprocess — that a SIGKILL mid-checkpoint never damages a previously
published generation.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from numpy.random import default_rng

from repro.errors import CheckpointCorruptError, CheckpointError
from repro.persist import CheckpointStore, restore_dynamic_service
from repro.serve.dynamic_service import build_dynamic_service

UNIVERSE = 1 << 10
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _service(**kwargs):
    defaults = dict(
        num_shards=2, replicas=2, seed=5, max_batch=4, max_delay=1.0,
        update_batch=4, update_delay=1.0, update_capacity=64,
        capacity=128, log_retention=32,
    )
    defaults.update(kwargs)
    return build_dynamic_service(UNIVERSE, **defaults)


def _apply(service, n, seed, now=0.0):
    """Apply ``n`` seeded updates and drain; returns the next now."""
    rng = default_rng(seed)
    for _ in range(n):
        x = int(rng.integers(0, UNIVERSE))
        service.submit_update(x, bool(rng.random() < 0.75), now)
        now += 0.5
    service.drain(now + 4.0)
    return now


def _cells_digest(shard) -> str:
    h = hashlib.sha256()
    for r in sorted(shard.live_replicas()):
        rep = shard._replicas[r]
        for lv in rep._levels.nonempty_levels:
            h.update(lv.structure.table._cells.tobytes())
    return h.hexdigest()


def _saved(tmp_path, n=60, seed=3, **kwargs):
    """A drained service with one saved generation; returns (svc, store)."""
    svc = _service(**kwargs)
    now = _apply(svc, n, seed)
    store = CheckpointStore(tmp_path)
    svc.attach_checkpoints(store)
    svc.checkpoint(now + 5.0)
    return svc, store, now


class TestRoundTrip:
    def test_restore_is_byte_identical(self, tmp_path):
        svc, _, _ = _saved(tmp_path)
        restored, report = restore_dynamic_service(tmp_path)
        for a, b in zip(svc.shards, restored.shards):
            assert _cells_digest(a) == _cells_digest(b)
        assert all(r["source"] == "checkpoint" for r in report["shards"])
        assert report["quarantined"] == 0
        # Same answers for every key in the universe.
        for a, b in zip(svc.shards, restored.shards):
            assert np.array_equal(a.live_keys(), b.live_keys())

    def test_restore_carries_service_geometry(self, tmp_path):
        svc, _, _ = _saved(tmp_path)
        restored, _ = restore_dynamic_service(tmp_path)
        assert restored.num_shards == svc.num_shards
        assert restored.universe_size == svc.universe_size
        assert restored.log_retention == svc.log_retention
        assert list(restored._boundaries) == list(svc._boundaries)

    def test_checkpoint_saves_suffix_without_forced_compaction(
        self, tmp_path
    ):
        # Retention far above the written volume: the save must carry
        # the retained suffix as-is (bounded replay on restore), not
        # compact it away.
        svc, _, _ = _saved(tmp_path, n=24, log_retention=500)
        assert svc.stats.compactions == 0
        assert svc.update_log_entries() > 0
        _, report = restore_dynamic_service(tmp_path)
        assert 0 < report["replayed"] <= 500

    def test_checkpoint_without_store_raises(self):
        svc = _service()
        with pytest.raises(CheckpointError, match="attach_checkpoints"):
            svc.checkpoint(1.0)

    def test_restore_empty_directory_refuses(self, tmp_path):
        with pytest.raises(CheckpointError, match="no usable"):
            restore_dynamic_service(tmp_path)


class TestInspect:
    def test_summary_fields(self, tmp_path):
        _, store, _ = _saved(tmp_path)
        for shard, generation, path in store.generations():
            info = store.inspect(path)
            assert info["shard"] == shard
            assert info["generation"] == generation == 1
            assert info["num_shards"] == 2
            assert info["universe_size"] == UNIVERSE
            assert info["epoch"] > 0
            assert info["live_keys"] > 0

    def test_corrupt_file_raises_typed_error(self, tmp_path):
        from repro.faults import flip_file_bit

        _, store, _ = _saved(tmp_path)
        _, _, path = store.generations()[0]
        flip_file_bit(path, seed=9, count=3)
        with pytest.raises(CheckpointCorruptError) as exc:
            store.inspect(path)
        assert exc.value.path == path
        assert exc.value.reason
        # Inspection reports; it never quarantines.
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")


class TestFallbackChain:
    def test_damage_falls_back_a_generation(self, tmp_path):
        from repro.faults import torn_write

        svc, store, now = _saved(tmp_path)
        now = _apply(svc, 40, 17, now=now + 1.0)
        svc.checkpoint(now + 5.0)  # generation 2
        newest = store.generations(shard=0)[-1][2]
        torn_write(newest, fraction=0.4, seed=2)
        restored, report = restore_dynamic_service(tmp_path)
        by_shard = {r["shard"]: r for r in report["shards"]}
        assert by_shard[0]["generation"] == 1
        assert by_shard[1]["generation"] == 2
        assert report["quarantined"] == 1
        assert os.path.exists(newest + ".corrupt")
        assert report["quarantine_log"]

    def test_missing_shard_restarts_empty(self, tmp_path):
        _, store, _ = _saved(tmp_path)
        for _, _, path in store.generations(shard=1):
            os.unlink(path)
        restored, report = restore_dynamic_service(tmp_path)
        by_shard = {r["shard"]: r for r in report["shards"]}
        assert by_shard[0]["source"] == "checkpoint"
        assert by_shard[1]["source"] == "empty"
        assert by_shard[1]["generation"] == 0
        assert restored.shards[1].live_keys().size == 0

    def test_total_loss_refuses_with_typed_error(self, tmp_path):
        from repro.faults import flip_file_bit

        _, store, _ = _saved(tmp_path)
        for i, (_, _, path) in enumerate(store.generations()):
            flip_file_bit(path, seed=21 + i, count=5)
        with pytest.raises(CheckpointError, match="quarantined"):
            restore_dynamic_service(tmp_path)

    def test_verify_on_off_digests_identical(self, tmp_path):
        _saved(tmp_path)
        on, rep_on = restore_dynamic_service(tmp_path, verify=True)
        off, rep_off = restore_dynamic_service(tmp_path, verify=False)
        assert rep_on["recovery_probes"] > 0
        assert rep_off["recovery_probes"] == 0
        for a, b in zip(on.shards, off.shards):
            for r in sorted(a.live_replicas()):
                assert (
                    a.query_counter_digest(r) == b.query_counter_digest(r)
                )


class TestFormatBump:
    """Format 2 keys dynamic levels by the key; a format-1 file (levels
    keyed by the entry code) takes the fallback chain, never the reads."""

    @staticmethod
    def _as_format_1(path, magic=b"REPROCKPT:1\n"):
        """Rewrite ``path`` as a format-1 frame of the same payload."""
        import pickle

        from repro.io.integrity import atomic_write_bytes, frame
        from repro.persist import CHECKPOINT_FORMAT

        assert CHECKPOINT_FORMAT == 2
        meta = CheckpointStore(os.path.dirname(path))._read_meta(path)
        meta["format"] = 1
        atomic_write_bytes(path, frame(pickle.dumps(meta), magic))

    def test_saved_files_are_format_2(self, tmp_path):
        from repro.persist import CHECKPOINT_MAGIC

        _, store, _ = _saved(tmp_path)
        for _, _, path in store.generations():
            with open(path, "rb") as f:
                assert f.read(len(CHECKPOINT_MAGIC)) == b"REPROCKPT:2\n"
            assert store._read_meta(path)["format"] == 2

    @pytest.mark.parametrize("magic", [b"REPROCKPT:1\n", b"REPROCKPT:2\n"])
    def test_format_1_raises_typed_error(self, tmp_path, magic):
        _, store, _ = _saved(tmp_path)
        _, _, path = store.generations()[0]
        self._as_format_1(path, magic)
        with pytest.raises(CheckpointCorruptError) as exc:
            store.inspect(path)
        assert exc.value.path == path
        assert "format" in exc.value.reason

    def test_format_1_falls_back_a_generation_then_empty(self, tmp_path):
        svc, store, now = _saved(tmp_path)
        now = _apply(svc, 40, 17, now=now + 1.0)
        svc.checkpoint(now + 5.0)  # generation 2
        newest = store.generations(shard=0)[-1][2]
        self._as_format_1(newest)
        for _, _, path in store.generations(shard=1):
            self._as_format_1(path)
        restored, report = restore_dynamic_service(tmp_path)
        by_shard = {r["shard"]: r for r in report["shards"]}
        assert by_shard[0]["generation"] == 1
        assert by_shard[0]["source"] == "checkpoint"
        assert by_shard[1]["source"] == "empty"
        assert report["quarantined"] == 3
        assert os.path.exists(newest + ".corrupt")
        # No format-1 level serves a read: shard 1 restarted empty.
        assert restored.shards[1].live_keys().size == 0
        xs = np.arange(UNIVERSE, dtype=np.int64)
        one = restored.shards[1].query_batch(xs, np.random.default_rng(0))
        assert not one.any()


class TestCompactionBounds:
    def test_retention_bounds_the_log(self):
        svc = _service(log_retention=16)
        peak = 0
        rng = default_rng(8)
        now = 0.0
        for _ in range(200):
            x = int(rng.integers(0, UNIVERSE))
            svc.submit_update(x, bool(rng.random() < 0.75), now)
            now += 0.5
            peak = max(peak, svc.update_log_entries())
        svc.drain(now + 4.0)
        assert peak <= 16 + svc.build_config["update_batch"]
        assert svc.stats.compactions > 0
        # Lifetime totals stay visible even though the log compacted.
        assert svc.stats.updates_applied == 200

    def test_stats_row_exposes_persistence_counters(self, tmp_path):
        svc, _, now = _saved(tmp_path, n=80, log_retention=16)
        row = svc.stats_row()
        assert row["update_log_entries"] == svc.update_log_entries()
        assert row["compactions"] == svc.stats.compactions > 0
        assert row["checkpoints"] == svc.stats.checkpoints == 1

    def test_store_prunes_beyond_keep(self, tmp_path):
        svc, store, now = _saved(tmp_path)
        store.keep = 2
        for i in range(3):
            now = _apply(svc, 8, 40 + i, now=now + 1.0)
            svc.checkpoint(now + 5.0)
        gens = sorted({g for _, g, _ in store.generations()})
        assert gens == [3, 4]


class TestLogWarning:
    def test_warns_once_then_rearms_after_compaction(self, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.dynamic_service.UPDATE_LOG_WARN_THRESHOLD", 6
        )
        svc = _service(num_shards=1, log_retention=None)
        with pytest.warns(RuntimeWarning, match="update log"):
            _apply(svc, 8, 51)
        # Latched: staying above the threshold stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _apply(svc, 4, 52, now=10.0)
        # Compaction shrinks the log below the threshold; the next
        # applied group re-arms the latch, so a later runaway warns
        # again instead of being swallowed forever.
        svc.compact_logs()
        with pytest.warns(RuntimeWarning, match="update log"):
            _apply(svc, 12, 53, now=20.0)


_CHILD = textwrap.dedent("""
    import os, signal, sys
    from numpy.random import default_rng

    import repro.persist.checkpoint as ckpt_mod
    from repro.persist import CheckpointStore
    from repro.serve.dynamic_service import build_dynamic_service

    d = sys.argv[1]
    svc = build_dynamic_service(
        1024, num_shards=2, replicas=2, seed=7, update_batch=4,
        update_delay=1.0, update_capacity=64, log_retention=32,
    )
    rng = default_rng(11)
    now = 0.0
    for _ in range(60):
        x = int(rng.integers(0, 1024))
        svc.submit_update(x, bool(rng.random() < 0.75), now)
        now += 0.5
    svc.drain(now + 4.0)
    store = CheckpointStore(d)
    svc.attach_checkpoints(store)
    svc.checkpoint(now + 5.0)  # generation 1, published cleanly
    for _ in range(40):
        x = int(rng.integers(0, 1024))
        svc.submit_update(x, bool(rng.random() < 0.75), now)
        now += 0.5
    svc.drain(now + 4.0)

    def rigged(path, data, fsync=True):
        # Tear the first generation-2 file at its final name, then die
        # the hard way mid-checkpoint.
        with open(path, "wb") as fh:
            fh.write(bytes(data[: len(data) // 3]))
        os.kill(os.getpid(), signal.SIGKILL)

    ckpt_mod.atomic_write_bytes = rigged
    svc.checkpoint(now + 9.0)
""")


class TestSigkillMidCheckpoint:
    def test_previous_generation_stays_valid(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(_CHILD)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "ckpt")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode < 0  # died by signal, not sys.exit
        store = CheckpointStore(tmp_path / "ckpt")
        # Generation 1 (both shards) still verifies byte-for-byte.
        gen1 = [p for s, g, p in store.generations() if g == 1]
        assert len(gen1) == 2
        for path in gen1:
            assert store.inspect(path)["generation"] == 1
        # Recovery quarantines the torn generation-2 file and falls
        # back; no shard is lost.
        restored, report = restore_dynamic_service(tmp_path / "ckpt")
        assert report["quarantined"] == 1
        assert all(r["source"] == "checkpoint" for r in report["shards"])
        assert all(r["generation"] >= 1 for r in report["shards"])
