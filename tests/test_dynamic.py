"""Dynamic dictionary: correctness, level discipline, cost accounting."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dictionaries.base import StaticDictionary
from repro.distributions import UniformPositiveNegative
from repro.dynamic import (
    DynamicLowContentionDictionary,
    ReplicatedDynamicDictionary,
)
from repro.dynamic.levels import (
    LevelStructure,
    SingletonDictionary,
    encode_delete,
    encode_insert,
)
from repro.errors import ParameterError, QueryError

UNIVERSE = 1 << 16


@pytest.fixture()
def dyn():
    return DynamicLowContentionDictionary(
        UNIVERSE, rng=np.random.default_rng(0)
    )


class TestCorrectness:
    def test_insert_then_query(self, dyn, rng):
        dyn.insert(42)
        assert dyn.query(42, rng) is True
        assert dyn.query(43, rng) is False
        assert dyn.contains(42)

    def test_delete(self, dyn, rng):
        dyn.insert(7)
        dyn.delete(7)
        assert dyn.query(7, rng) is False
        assert not dyn.contains(7)

    def test_reinsert_after_delete(self, dyn, rng):
        dyn.insert(5)
        dyn.delete(5)
        dyn.insert(5)
        assert dyn.query(5, rng) is True

    def test_idempotent_operations(self, dyn, rng):
        for _ in range(4):
            dyn.insert(9)
        dyn.delete(100)  # absent: no-op
        assert dyn.live_count == 1
        assert dyn.query(9, rng) is True

    def test_random_stream_matches_reference_set(self, rng):
        dyn = DynamicLowContentionDictionary(
            UNIVERSE, rng=np.random.default_rng(1)
        )
        ref = set()
        for step in range(800):
            k = int(rng.integers(0, 500))
            if rng.random() < 0.65:
                dyn.insert(k)
                ref.add(k)
            else:
                dyn.delete(k)
                ref.discard(k)
            if step % 80 == 0:
                for probe in rng.integers(0, 500, size=8):
                    assert dyn.query(int(probe), rng) == (int(probe) in ref)
        assert dyn.live_count == len(ref)
        assert set(dyn.live_keys().tolist()) == ref

    def test_out_of_universe(self, dyn, rng):
        with pytest.raises(QueryError):
            dyn.query(UNIVERSE, rng)
        with pytest.raises(ParameterError):
            dyn.insert(-1)


class TestLevelDiscipline:
    def test_binary_counter_shape(self, rng):
        dyn = DynamicLowContentionDictionary(
            UNIVERSE, rng=np.random.default_rng(2)
        )
        for k in range(1, 9):  # 8 distinct inserts, no deletes
            dyn.insert(k)
        # 8 = 2^3 ops -> single level of 8 (or a flattened equivalent).
        assert dyn.live_count == 8
        sizes = [s for s in dyn.level_sizes if s]
        assert sum(sizes) == 8

    def test_flatten_after_heavy_deletion(self, rng):
        dyn = DynamicLowContentionDictionary(
            UNIVERSE, rng=np.random.default_rng(3)
        )
        for k in range(32):
            dyn.insert(k)
        for k in range(30):
            dyn.delete(k)
        assert dyn.live_count == 2
        # Flattening keeps total entries within 2x live.
        assert sum(dyn.level_sizes) <= max(2 * dyn.live_count, 8)
        for k in range(32):
            assert dyn.contains(k) == (k >= 30)

    def test_space_and_probes_reported(self, dyn):
        dyn.insert(1)
        dyn.insert(2)
        assert dyn.space_words > 0
        assert dyn.max_probes > 0


class TestAccounting:
    def test_update_and_query_counts(self, dyn, rng):
        dyn.insert(1)
        dyn.insert(2)
        dyn.query(1, rng)
        assert dyn.account.updates == 2
        assert dyn.account.queries == 1
        assert dyn.account.rebuilds

    def test_amortized_cost_logarithmic(self, rng):
        """Cells written per update stays O(rows * log(ops)) — far from
        the O(n) of rebuild-everything-every-time."""
        dyn = DynamicLowContentionDictionary(
            UNIVERSE, rng=np.random.default_rng(4)
        )
        n_ops = 512
        for k in range(n_ops):
            dyn.insert(k)
        amortized = dyn.account.amortized_write_cost()
        assert amortized < 40 * np.log2(n_ops)
        # Naive full-rebuild would pay ~ total space per update.
        assert amortized < dyn.space_words / 4

    def test_write_contention_dominated_by_small_levels(self, rng):
        dyn = DynamicLowContentionDictionary(
            UNIVERSE, rng=np.random.default_rng(5)
        )
        for k in range(128):
            dyn.insert(k)
        by_level = dyn.account.rebuild_count_by_level()
        # Level 0 is rebuilt most often (every other op lands there).
        assert by_level[0] == max(by_level.values())
        assert 0 < dyn.account.max_write_contention() <= 1.0


class TestContentionMeasurement:
    def test_padding_restores_low_contention(self):
        results = {}
        for width in (0, 512):
            dyn = DynamicLowContentionDictionary(
                UNIVERSE, rng=np.random.default_rng(6), min_level_width=width
            )
            rng = np.random.default_rng(7)
            for _ in range(300):
                k = int(rng.integers(0, 600))
                if rng.random() < 0.75:
                    dyn.insert(k)
                else:
                    dyn.delete(k)
            dist = UniformPositiveNegative(UNIVERSE, dyn.live_keys(), 0.5)
            res = dyn.empirical_query_contention(
                dist, 1200, np.random.default_rng(8)
            )
            results[width] = res["global_max_contention"]
        assert results[512] < results[0] / 4

    def test_contention_report_structure(self, dyn):
        dyn.insert(3)
        dyn.insert(4)
        dyn.insert(5)
        dist = UniformPositiveNegative(UNIVERSE, dyn.live_keys(), 0.5)
        res = dyn.empirical_query_contention(
            dist, 400, np.random.default_rng(9)
        )
        assert res["mean_probes"] > 0
        assert res["per_level"]
        for row in res["per_level"]:
            assert row["max_contention"] >= row["floor_1_over_s"] - 1e-9


class TestSingleton:
    def test_semantics(self, rng):
        s = SingletonDictionary([99], 1000, width=32)
        assert s.query(99, rng) is True
        assert s.query(98, rng) is False
        assert s.max_probes == 1
        plan = s.probe_plan(99)
        assert len(plan) == 1 and plan[0].size == 32

    def test_batch_plan(self, rng):
        s = SingletonDictionary([99], 1000)
        steps = s.probe_plan_batch(np.array([1, 99]))
        assert len(steps) == 1 and steps[0].shared

    def test_requires_one_key(self):
        with pytest.raises(ParameterError):
            SingletonDictionary([1, 2], 1000)

    @staticmethod
    def _twins():
        return (
            SingletonDictionary([99], 1000, width=48),
            SingletonDictionary([99], 1000, width=48),
        )

    @pytest.mark.parametrize("shape", [(0,), (1,), (31,), (3, 7)])
    def test_batch_equals_scalar_loop(self, shape):
        s, twin = self._twins()
        xs = np.random.default_rng(1).integers(90, 110, size=shape)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        got = s.query_batch(xs, rng_a)
        want = StaticDictionary.query_batch(twin, xs, rng_b)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert s.table.counter.digest() == twin.table.counter.digest()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("bad", [0, 2, -1])
    def test_batch_out_of_universe_as_scalar_loop(self, bad):
        s, twin = self._twins()
        xs = np.array([99, 5, 99, 7])
        xs[bad] = 1000 if bad else -3
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(QueryError) as got:
            s.query_batch(xs, rng_a)
        with pytest.raises(QueryError) as want:
            StaticDictionary.query_batch(twin, xs, rng_b)
        assert str(got.value) == str(want.value)
        assert s.table.counter.total_probes() == bad % len(xs)
        assert s.table.counter.digest() == twin.table.counter.digest()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestEncoding:
    def test_encode_disjoint(self):
        assert encode_insert(5) != encode_delete(5)
        assert encode_insert(5) // 2 == encode_delete(5) // 2 == 5


class TestLevelEdgeCases:
    """Flatten landing, tombstone dropping, and width padding corners."""

    def test_flatten_single_live_key_lands_at_level_zero(self):
        ls = LevelStructure(1 << 10, np.random.default_rng(10))
        # One live key buried under eight tombstones of dead weight:
        # total = 9 > 2 * max(live=1, 1) and >= 8, so the next check
        # flattens — ceil(log2(1)) = 0, a singleton at level 0.
        ls._install(0, {1: True})
        ls._install(3, {k: False for k in range(2, 10)})
        ls._maybe_flatten()
        nonempty = ls.nonempty_levels
        assert len(nonempty) == 1
        assert nonempty[0].index == 0
        assert nonempty[0].entries == {1: True}
        assert isinstance(nonempty[0].structure, SingletonDictionary)

    def test_flatten_empty_live_set_clears_all_levels(self):
        ls = LevelStructure(1 << 10, np.random.default_rng(11))
        ls._install(3, {k: False for k in range(8)})
        ls._maybe_flatten()
        assert ls.nonempty_levels == []
        assert ls.total_entries == 0
        assert ls.live_keys() == []

    def test_delete_dropped_when_nothing_older(self):
        ls = LevelStructure(1 << 10, np.random.default_rng(12))
        # A tombstone merging below every non-empty level has nothing
        # older to cancel: it is dropped and no level is installed.
        ls.apply(5, False)
        assert ls.total_entries == 0
        assert ls.nonempty_levels == []

    def test_delete_kept_when_older_level_exists(self):
        ls = LevelStructure(1 << 10, np.random.default_rng(13))
        ls.apply(1, True)
        ls.apply(2, True)  # carries {1, 2} into level 1
        ls.apply(3, False)  # level 1 is older and non-empty: kept
        assert ls.levels[0] is not None
        assert ls.levels[0].entries == {3: False}
        assert ls.state_of(3) is False
        assert ls.live_keys() == [1, 2]

    def test_min_level_width_pads_singletons(self):
        for width, expected in ((0, 64), (256, 256)):
            ls = LevelStructure(
                1 << 10, np.random.default_rng(14), min_level_width=width
            )
            ls.apply(7, True)
            (level,) = ls.nonempty_levels
            assert isinstance(level.structure, SingletonDictionary)
            assert level.structure.table.s == expected

    def test_seeded_replay_is_deterministic(self):
        digests, sizes, spaces = [], [], []
        for _ in range(2):
            dyn = DynamicLowContentionDictionary(
                UNIVERSE, rng=np.random.default_rng(15)
            )
            stream = np.random.default_rng(16)
            for _ in range(300):
                k = int(stream.integers(0, 400))
                if stream.random() < 0.7:
                    dyn.insert(k)
                else:
                    dyn.delete(k)
            xs = stream.integers(0, UNIVERSE, size=256)
            dyn.query_batch(xs, np.random.default_rng(17))
            digests.append(dyn.query_counter_digest())
            sizes.append(dyn.level_sizes)
            spaces.append(dyn.space_words)
        assert digests[0] == digests[1]
        assert sizes[0] == sizes[1]
        assert spaces[0] == spaces[1]


class TestLiveCount:
    """The exact live count that replaces the per-update Θ(n) scan."""

    _ops = st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["insert", "delete"]),
                      st.integers(0, 15)),
            st.tuples(st.sampled_from(["crash", "rebuild", "noop_apply"]),
                      st.integers(0, 2)),
            st.tuples(st.sampled_from(["compact", "snapshot"]), st.just(0)),
        ),
        max_size=40,
    )

    @settings(max_examples=20, deadline=None)
    @given(ops=_ops, seed=st.integers(0, 3))
    def test_count_matches_scan_on_every_replica(self, ops, seed):
        rep = ReplicatedDynamicDictionary(
            1 << 10, replicas=3, seed=seed, armed=True
        )
        ref: set[int] = set()
        for op, arg in ops:
            if op == "insert":
                rep.insert(arg)
                ref.add(arg)
            elif op == "delete":
                rep.delete(arg)
                ref.discard(arg)
            elif op == "crash":
                rep.crash_replica(arg)
            elif op == "rebuild":
                rep.rebuild_replica(arg)
            elif op == "compact":
                rep.compact_log()
            elif op == "snapshot":
                rep, _ = ReplicatedDynamicDictionary.from_snapshot(
                    rep.snapshot_payload()
                )
            else:
                # A direct no-op apply: re-assert one key's current
                # state on one replica's levels.
                levels = rep._replicas[arg]._levels
                key = min(ref) if ref else 3
                levels.apply(key, levels.state_of(key))
            for d in rep._replicas:
                assert d._levels._live == len(d._levels.live_keys())
                assert d.live_count == d._levels._live
            if rep.live_replicas():
                assert set(rep.live_keys().tolist()) == ref

    def test_noop_apply_keeps_count(self):
        ls = LevelStructure(1 << 10, np.random.default_rng(20))
        for k in (1, 2, 3):
            ls.apply(k, True)
        ls.apply(2, True)  # already live
        ls.apply(9, False)  # already absent
        assert ls._live == len(ls.live_keys()) == 3

    def test_apply_without_flatten_makes_no_scan(self, monkeypatch):
        scans, flattens = [], []
        scan, check = LevelStructure.live_keys, LevelStructure._maybe_flatten

        def counted_scan(self):
            scans.append(1)
            return scan(self)

        def watched_check(self):
            # A flatten is the only step of _maybe_flatten that relinks.
            before = [id(lv) for lv in self.levels]
            check(self)
            flattens.append([id(lv) for lv in self.levels] != before)

        monkeypatch.setattr(LevelStructure, "live_keys", counted_scan)
        monkeypatch.setattr(LevelStructure, "_maybe_flatten", watched_check)
        ls = LevelStructure(1 << 10, np.random.default_rng(21))
        for k in range(64):
            ls.apply(k, True)  # distinct inserts never leave dead weight
        assert scans == [] and not any(flattens)
        for k in range(60):
            ls.apply(k, False)
            assert len(scans) == sum(flattens)
        assert sum(flattens) > 0
        assert ls._live == 4

    def test_insert_time_does_not_grow_with_n(self):
        # Amortized O(lg n) work per insert: filling to 2^14 costs per
        # insert within 3x of filling to 2^10 (the lg ratio is 1.4).  A
        # Θ(n) scan per update would make the ratio about 16.
        def per_insert(n: int) -> float:
            keys = np.random.default_rng(22).choice(1 << 24, n, replace=False)
            dyn = DynamicLowContentionDictionary(
                1 << 24, rng=np.random.default_rng(23)
            )
            start = time.process_time()
            for k in keys.tolist():
                dyn.insert(k)
            elapsed = time.process_time() - start
            assert dyn.live_count == n
            return elapsed / n

        small, large = per_insert(1 << 10), per_insert(1 << 14)
        assert large <= 3 * small, (large, small)
