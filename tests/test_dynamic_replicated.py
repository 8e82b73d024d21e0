"""Replicated dynamic dictionary: lockstep, faults, epochs, pins.

State-machine replication over the Bentley–Saxe dynamization: R
replicas on spawned rng streams apply one log in lockstep; reads are
majority votes; a rebuilt replica replays the log into byte-identical
state; epoch pins make multi-key reads linearizable and gate retired
level reclamation.
"""

import numpy as np
import pytest

from repro.dynamic import EpochManager, ReplicatedDynamicDictionary
from repro.errors import (
    FaultExhaustedError,
    HealError,
    ParameterError,
    ReplicaUnavailableError,
    ServeError,
)

UNIVERSE = 1 << 12


def _churn(rep, ops: int, seed: int, key_range: int = 300) -> set:
    """Apply a seeded mixed stream, returning the reference set."""
    rng = np.random.default_rng(seed)
    ref: set[int] = set()
    for _ in range(ops):
        k = int(rng.integers(0, key_range))
        if rng.random() < 0.7:
            rep.insert(k)
            ref.add(k)
        else:
            rep.delete(k)
            ref.discard(k)
    return ref


def _level_bytes(rep: ReplicatedDynamicDictionary, r: int) -> list:
    """A replica's physical level state: (index, raw cells) pairs."""
    return [
        (lv.index, lv.structures[r].table._cells.tobytes())
        for lv in rep._levels.nonempty_levels
    ]


class TestLockstep:
    def test_replicas_agree_and_match_reference(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=0)
        ref = _churn(rep, 200, seed=1)
        assert set(rep.live_keys().tolist()) == ref
        xs = np.random.default_rng(2).integers(0, UNIVERSE, size=200)
        answers = rep.query_batch(xs, np.random.default_rng(3))
        assert np.array_equal(answers, np.isin(xs, sorted(ref)))
        for r in range(3):
            answers = rep.query_batch_on(xs, r, np.random.default_rng(4))
            assert np.array_equal(answers, np.isin(xs, sorted(ref)))

    def test_replicas_use_distinct_rng_streams(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=0)
        _churn(rep, 120, seed=1)
        assert _level_bytes(rep, 0) != _level_bytes(rep, 1)

    def test_epoch_advances_once_per_group(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=2, seed=0)
        assert rep.epoch == 0
        rep.insert(1)
        assert rep.epoch == 1
        epoch = rep.apply_batch([(2, True), (3, True), (1, False)])
        assert epoch == rep.epoch == 2
        assert rep.update_count == 4

    def test_out_of_universe_update(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=2, seed=0)
        with pytest.raises(ParameterError):
            rep.apply_batch([(UNIVERSE, True)])


class TestFaults:
    def test_hooks_require_armed(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=0)
        with pytest.raises(HealError):
            rep.crash_replica(0)
        with pytest.raises(HealError):
            rep.rebuild_replica(0)
        with pytest.raises(HealError):
            rep.corrupt_cell(0, 0, 0, 1)

    def test_rebuild_replays_to_byte_identical_state(self):
        healthy = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=3, seed=7, armed=True
        )
        chaotic = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=3, seed=7, armed=True
        )
        _churn(healthy, 80, seed=8)
        rng = np.random.default_rng(8)
        ref: set[int] = set()
        for i in range(80):
            k = int(rng.integers(0, 300))
            if rng.random() < 0.7:
                chaotic.insert(k)
                ref.add(k)
            else:
                chaotic.delete(k)
                ref.discard(k)
            if i == 40:
                chaotic.crash_replica(1)
        chaotic.rebuild_replica(1)
        for r in range(3):
            assert _level_bytes(chaotic, r) == _level_bytes(healthy, r)
        assert chaotic.live_replicas() == [0, 1, 2]
        assert chaotic.fault_stats.crashes == 1
        assert chaotic.fault_stats.rebuilds == 1

    def test_majority_survives_corruption(self):
        rep = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=5, seed=3, armed=True
        )
        ref = _churn(rep, 150, seed=4)
        corrupted = 0
        for r in (0, 1):  # minority: 2 of 5
            for lv in rep._levels.nonempty_levels:
                rep.corrupt_cell(r, lv.index, 0, 0xFFFF)
                corrupted += 1
        assert corrupted > 0
        assert rep.fault_stats.corruptions == corrupted
        xs = np.random.default_rng(5).integers(0, UNIVERSE, size=300)
        answers = rep.query_batch(xs, np.random.default_rng(6))
        assert np.array_equal(answers, np.isin(xs, sorted(ref)))

    def test_crashed_replica_refuses_dispatch(self):
        rep = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=3, seed=0, armed=True
        )
        rep.insert(1)
        rep.crash_replica(2)
        with pytest.raises(ReplicaUnavailableError):
            rep.query_batch_on(np.array([1]), 2, np.random.default_rng(0))
        assert rep.live_replicas() == [0, 1]

    def test_all_crashed_exhausts(self):
        rep = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=3, seed=0, armed=True
        )
        rep.insert(1)
        for r in range(3):
            rep.crash_replica(r)
        with pytest.raises(FaultExhaustedError):
            rep.query_batch(np.array([1]), np.random.default_rng(0))
        with pytest.raises(FaultExhaustedError):
            rep.live_keys()


class TestEpochPins:
    def test_pinned_read_is_linearizable(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=9)
        _churn(rep, 100, seed=10)
        pin = rep.pin()
        pinned_truth = np.asarray(pin.snapshot["live_keys"])
        for k in pinned_truth[: pinned_truth.size // 2]:
            rep.delete(int(k))
        _churn(rep, 60, seed=11)
        xs = np.unique(np.concatenate([
            pinned_truth,
            np.random.default_rng(12).integers(0, 400, size=100),
        ]))
        pinned = rep.query_pinned(pin, xs, np.random.default_rng(13))
        live = rep.query_batch(xs, np.random.default_rng(14))
        assert np.array_equal(pinned, np.isin(xs, pinned_truth))
        assert np.array_equal(live, np.isin(xs, rep.live_keys()))
        assert np.any(pinned != live)
        pin.release()

    def test_pin_survives_crash_updates_and_rebuild(self):
        """A pin taken before a crash answers exactly its pinned key set
        after updates and a rebuild, and its levels are left as they were."""
        rep = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=3, seed=28, armed=True
        )
        _churn(rep, 100, seed=29)
        pin = rep.pin()
        pinned_truth = np.asarray(pin.snapshot["live_keys"])
        levels = pin.snapshot["levels"]
        before = [
            (dict(lv.entries), dict(lv.structures), {
                r: s.table._cells.tobytes() for r, s in lv.structures.items()
            })
            for lv in levels if lv is not None
        ]
        rep.crash_replica(1)
        ref = set(rep.live_keys().tolist())
        for k, ins in zip(range(0, 300, 7), [True, False] * 30):
            rep.apply(k, ins)
            (ref.add if ins else ref.discard)(k)
        rep.rebuild_replica(1)
        xs = np.arange(400, dtype=np.int64)
        got = rep.query_pinned(pin, xs, np.random.default_rng(31))
        assert np.array_equal(got, np.isin(xs, pinned_truth))
        after = [lv for lv in levels if lv is not None]
        assert len(after) == len(before)
        for lv, (entries, structures, cells) in zip(after, before):
            assert lv.entries == entries
            assert lv.structures.keys() == structures.keys()
            assert all(lv.structures[r] is s for r, s in structures.items())
            assert {
                r: s.table._cells.tobytes() for r, s in lv.structures.items()
            } == cells
        # The rebuilt replica reads the current state from new levels.
        pinned_ids = {id(lv) for lv in after}
        assert not any(id(lv) in pinned_ids for lv in rep._levels.levels)
        now = rep.query_batch_on(xs, 1, np.random.default_rng(32))
        assert np.array_equal(now, np.isin(xs, sorted(ref)))
        pin.release()

    def test_reclamation_waits_for_pin(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=2, seed=15)
        _churn(rep, 60, seed=16)
        pin = rep.pin()
        _churn(rep, 60, seed=17)
        retained_while = rep.epochs.retained
        assert retained_while > 0
        pin.release()
        assert rep.epochs.retained < retained_while
        # Without a pin, retirees from further churn reclaim eagerly.
        _churn(rep, 30, seed=18)
        assert rep.epochs.retained == 0

    def test_pin_context_manager_and_double_release(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=2, seed=19)
        rep.insert(1)
        with rep.pin() as pin:
            assert rep.epochs.pinned == 1
        assert rep.epochs.pinned == 0
        pin.release()  # idempotent
        assert rep.epochs.pinned == 0

    def test_epoch_manager_rejects_unknown_release(self):
        from repro.dynamic.epoch import EpochPin

        mgr = EpochManager()
        bogus = EpochPin(0, None, mgr)
        with pytest.raises(ServeError):
            bogus.release()


class TestAccounting:
    def test_verification_isolated_from_query_digest(self):
        digests = []
        for verify in (True, False):
            rep = ReplicatedDynamicDictionary(
                UNIVERSE, replicas=2, seed=20, verify_rebuilds=verify
            )
            _churn(rep, 100, seed=21)
            rep.query_batch(
                np.random.default_rng(22).integers(0, UNIVERSE, size=200),
                np.random.default_rng(23),
            )
            digests.append(
                tuple(rep.query_counter_digest(r) for r in range(2))
            )
            probes = [rep.rebuild_probes(r) for r in range(2)]
            if verify:
                assert all(p > 0 for p in probes)
            else:
                assert all(p == 0 for p in probes)
        assert digests[0] == digests[1]

    def test_probe_loads_and_stats(self):
        rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=24)
        _churn(rep, 60, seed=25)
        rep.query_batch(
            np.random.default_rng(26).integers(0, UNIVERSE, size=100),
            np.random.default_rng(27),
        )
        loads = rep.replica_probe_loads()
        assert loads.shape == (3,)
        assert np.all(loads > 0)
        assert rep.probe_total() == int(loads.sum())
        stats = rep.stats()
        assert stats["replicas"] == 3
        assert stats["live_replicas"] == 3
        assert stats["updates"] == 60
        assert stats["epoch_epoch"] == 60
        assert stats["space_words"] > 0
