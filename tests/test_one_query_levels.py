"""One query per level: dynamic levels keyed by the key.

Each non-empty level of a dynamic dictionary is a static structure over
its entries' keys whose data row holds the entry word ``2k + is_insert``
at the key's slot, so one honest lookup per level answers "absent",
"inserted" or "deleted" (:func:`repro.dynamic.levels.lookup_levels`).
These tests pin:

- answers: live, pinned and scalar reads equal a Python ``set`` oracle
  over seeded R = 3 streams with tombstones over older inserts, no-op
  updates, flattens, a crash and rebuild, ``compact_log`` and a
  ``from_snapshot`` round trip;
- cost: a read makes exactly one static lookup per non-empty level it
  visits, per voting replica, and a key's probes at a level equal that
  level's static query cost for it (1 at a singleton level);
- layout: the data row holds ``2k + is_insert`` at each key's slot;
- the rebuild sweep checks each entry's state bit;
- chaos: ``corrupt_cell`` on one replica leaves 0 wrong voted answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellprobe.counters import ProbeCounter
from repro.cellprobe.table import EMPTY_CELL
from repro.core import LowContentionDictionary
from repro.core.verification import verify_dictionary
from repro.dynamic import (
    DynamicLowContentionDictionary,
    ReplicatedDynamicDictionary,
)
from repro.dynamic.levels import (
    ABSENT,
    Level,
    LevelStructure,
    SingletonDictionary,
    lookup_levels,
)
from repro.errors import QueryError, VerificationError

UNIVERSE = 1 << 12
KEY_RANGE = 160
R = 3


def _ops(seed: int, count: int) -> list[tuple[int, bool]]:
    """A seeded stream over a small key range with delete-heavy stretches."""
    rng = np.random.default_rng(seed)
    ops = []
    for step in range(count):
        p_insert = 0.25 if (step // 150) % 3 == 1 else 0.65
        ops.append((int(rng.integers(0, KEY_RANGE)),
                    bool(rng.random() < p_insert)))
    return ops


def _apply(rep, ops, ref: set, stats: dict) -> None:
    """Apply ``ops`` in groups of 1-3, mirroring them into ``ref``."""
    i = 0
    while i < len(ops):
        group = ops[i:i + 1 + i % 3]
        for k, ins in group:
            stats["noops"] += int(ins == (k in ref))
            (ref.add if ins else ref.discard)(k)
        rep.apply_batch(group)
        i += len(group)


def _tombstones_over_inserts(d: DynamicLowContentionDictionary) -> int:
    """Delete entries whose key has an insert entry at an older level."""
    levels = d._levels.nonempty_levels
    count = 0
    for i, lv in enumerate(levels):
        for k, ins in lv.entries.items():
            if not ins and any(old.entries.get(k) for old in levels[i + 1:]):
                count += 1
    return count


def _check_layout(d, seen: set) -> None:
    """Each level's data row holds ``2k + is_insert`` at key k's slot."""
    for lv in d._levels.nonempty_levels:
        s = lv.structure
        seen.add(type(s))
        assert s.keys.tolist() == sorted(lv.entries)
        assert s.universe_size == UNIVERSE
        for k, ins in lv.entries.items():
            word = 2 * k + int(ins)
            if isinstance(s, SingletonDictionary):
                assert (s.table._cells[0] == word).all()
                continue
            con = s.construction
            b = con.h(k)
            slot = int(con.span_starts[b]) + con.inner[b](k)
            assert int(s.table._cells[s.params.data_row, slot]) == word


def _check_answers(rep, ref: set, qrng, stats: dict) -> None:
    """Live, pinned and scalar reads against the oracle."""
    xs = np.arange(KEY_RANGE + 40, dtype=np.int64)
    want = np.isin(xs, sorted(ref))
    assert np.array_equal(rep.query_batch(xs, qrng), want)
    for r in rep.live_replicas():
        d = rep._replicas[r]
        assert np.array_equal(d.query_batch(xs, qrng), want)
        for x in qrng.choice(xs, size=12, replace=False).tolist():
            assert d.query(x, qrng) == (x in ref)
        stats["tombstones"] = max(
            stats["tombstones"], _tombstones_over_inserts(d)
        )
        _check_layout(d, stats["layouts"])
    for x in qrng.choice(xs, size=8, replace=False).tolist():
        assert rep.query(x, qrng) == (x in ref)
    stats["checks"] += 1


@pytest.fixture(scope="module", params=[3, 8])
def stream(request):
    """One seeded R = 3 stream through every path that moves levels."""
    seed = request.param
    flattens = []
    inner = LevelStructure._maybe_flatten

    def counted(self):
        before = [id(lv) for lv in self.levels]
        inner(self)
        if [id(lv) for lv in self.levels] != before:
            flattens.append(self.replica)

    ops = _ops(seed, 1400)
    ref: set[int] = set()
    stats = {
        "noops": 0, "tombstones": 0, "checks": 0, "pins": 0, "layouts": set()
    }
    qrng = np.random.default_rng(seed + 100)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LevelStructure, "_maybe_flatten", counted)
        rep = ReplicatedDynamicDictionary(
            UNIVERSE, replicas=R, seed=seed, armed=True,
            verify_rebuilds=True,
        )
        for lo in range(0, 1400, 100):
            if lo == 300:
                rep.crash_replica(1)
            if lo == 500:
                rep.rebuild_replica(1)
            if lo == 700:
                stats["compacted"] = rep.compact_log()
            if lo == 1000:
                rep, report = ReplicatedDynamicDictionary.from_snapshot(
                    rep.snapshot_payload()
                )
                stats["replayed"] = report["replayed"]
                assert rep.verify_state(seed=seed) > 0
            pin = rep.pin()
            pinned = set(ref)
            _apply(rep, ops[lo:lo + 100], ref, stats)
            xs = np.arange(KEY_RANGE, dtype=np.int64)
            got = rep.query_pinned(pin, xs, qrng)
            assert np.array_equal(got, np.isin(xs, sorted(pinned)))
            pin.release()
            stats["pins"] += 1
            _check_answers(rep, ref, qrng, stats)
    stats["flattens"] = flattens.count(0)
    return rep, ref, stats


def test_stream_covers_every_path_and_matches_the_oracle(stream):
    rep, ref, stats = stream
    assert stats["noops"] > 0
    assert stats["tombstones"] > 0
    assert stats["flattens"] >= 1
    assert stats["compacted"] > 0 and stats["replayed"] > 0
    assert stats["checks"] == stats["pins"] == 14
    assert set(rep.live_keys().tolist()) == ref
    assert rep.verify_state(seed=1) > 0


# -- one lookup per level visited ----------------------------------------------------


def _count_lookups(monkeypatch) -> list:
    """Record ``(structure, keys)`` of every static lookup."""
    calls = []
    for cls in (LowContentionDictionary, SingletonDictionary):
        inner = cls.lookup_batch

        def counted(self, xs, rng=None, _inner=inner):
            calls.append((self, np.asarray(xs).copy()))
            return _inner(self, xs, rng)

        monkeypatch.setattr(cls, "lookup_batch", counted)
    return calls


def _expected_visits(d, xs) -> list:
    """``(structure, keys)`` the walk must look up, newest level first."""
    pending = [int(x) for x in xs]
    visits = []
    for lv in d._levels.nonempty_levels:
        if not pending:
            break
        visits.append((lv.structure, pending))
        pending = [x for x in pending if lv.state_of(x) is None]
    return visits


def test_one_static_lookup_per_level_visited_per_voting_replica(
    stream, monkeypatch
):
    rep, ref, _ = stream
    assert len(rep._replicas[0]._levels.nonempty_levels) >= 2
    rng = np.random.default_rng(5)
    live = sorted(ref)
    batches = [[x] for x in (live[0], live[-1], KEY_RANGE + 7)]
    batches.append(rng.integers(0, KEY_RANGE + 40, size=50).tolist())
    for xs in batches:
        calls = _count_lookups(monkeypatch)
        rep.query_batch(np.array(xs), rng)
        want = []
        for r in rep.live_replicas():
            want += _expected_visits(rep._replicas[r], xs)
        assert len(calls) == len(want)
        for (got_s, got_keys), (want_s, want_keys) in zip(calls, want):
            assert got_s is want_s
            assert got_keys.tolist() == want_keys
        monkeypatch.undo()


def test_probes_per_level_equal_the_static_query_cost(stream):
    rep, ref, _ = stream
    d = rep._replicas[0]
    levels = d._levels.nonempty_levels
    assert any(isinstance(lv.structure, LowContentionDictionary)
               for lv in levels)
    rng = np.random.default_rng(9)
    for x in sorted(ref)[::7] + [KEY_RANGE + 3, KEY_RANGE + 11]:
        before = [lv.structure.table.counter.total_probes() for lv in levels]
        assert d.query(x, rng) == (x in ref)
        visiting = True
        for lv, b in zip(levels, before):
            spent = lv.structure.table.counter.total_probes() - b
            if not visiting:
                assert spent == 0
                continue
            if isinstance(lv.structure, SingletonDictionary):
                assert spent == 1
            else:
                assert spent == len(lv.structure.probe_plan(x))
            visiting = lv.state_of(x) is None


def test_max_probes_is_one_static_query_per_level():
    d = DynamicLowContentionDictionary(UNIVERSE, rng=2)
    for k in range(37):
        d.insert(k)
    levels = d._levels.nonempty_levels
    assert len(levels) >= 2
    assert d.max_probes == sum(lv.structure.max_probes for lv in levels)


# -- layout ---------------------------------------------------------------------------


def test_data_row_holds_the_entry_word_at_each_key_slot(stream):
    rep, _, stats = stream
    for d in rep._replicas:
        _check_layout(d, stats["layouts"])
    assert stats["layouts"] == {LowContentionDictionary, SingletonDictionary}


def test_lookup_returns_words_and_query_batch_compares_them():
    keys = np.arange(3, 300, 7, dtype=np.int64)
    words = 2 * keys + (keys % 3 == 0)
    (a,) = LowContentionDictionary.build_lockstep(
        keys, UNIVERSE, [np.random.default_rng(4)], data=words
    )
    b = LowContentionDictionary(keys, UNIVERSE, rng=4)
    xs = np.arange(0, 320, dtype=np.int64)
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    got = a.lookup_batch(xs, rng_a)
    found = b.query_batch(xs, rng_b)
    # Same draws and charges; only the data row differs.
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert a.table.counter.digest() == b.table.counter.digest()
    member = np.isin(xs, keys)
    assert np.array_equal(got[member], words[np.searchsorted(keys, xs[member])])
    assert np.array_equal(found, member)
    assert not ((got[~member] >> 1) == xs[~member].astype(np.uint64)).any()
    assert (got == EMPTY_CELL).any()


def test_membership_on_a_data_built_structure_raises():
    keys = np.arange(3, 300, 7, dtype=np.int64)
    (table,) = LowContentionDictionary.build_lockstep(
        keys, UNIVERSE, [np.random.default_rng(4)], data=2 * keys + 1
    )
    single = SingletonDictionary([9], UNIVERSE, data=[19])
    for structure in (table, single):
        assert not structure.keyed
        with pytest.raises(QueryError):
            structure.query(10)
        with pytest.raises(QueryError):
            structure.query_batch(keys)
    with pytest.raises(QueryError):
        verify_dictionary(table)
    assert single.lookup_batch([9], 0).tolist() == [19]
    assert LowContentionDictionary(keys, UNIVERSE, rng=4).keyed
    assert SingletonDictionary([9], UNIVERSE).keyed


def test_walk_states():
    ls = LevelStructure(UNIVERSE, np.random.default_rng(6))
    ls._install(3, {k: True for k in range(10, 20)})
    ls._install(1, {12: False, 13: True, 40: True})
    ls._install(0, {15: False})
    xs = np.array([[12, 13, 15], [16, 40, 99]])
    states = lookup_levels(ls.levels, xs, np.random.default_rng(0))
    assert states.tolist() == [[0, 1, 0], [1, 1, ABSENT]]


def test_rebuild_sweep_checks_the_state_bit():
    ls = LevelStructure(
        UNIVERSE, np.random.default_rng(7), verify_rebuilds=True
    )
    entries = {k: k % 2 == 0 for k in range(20, 40)}
    ls._install(2, entries)
    assert ls.levels[2].rebuild_counter.total_probes() > 0
    (structure,) = ls._build_structures(entries, [np.random.default_rng(8)])
    con = structure.construction
    b = con.h(25)
    slot = int(con.span_starts[b]) + con.inner[b](25)
    structure.table._cells[structure.params.data_row, slot] ^= np.uint64(1)
    level = Level(index=2, entries=entries, structure=structure)
    level.rebuild_counter = ProbeCounter(structure.table.num_cells)
    with pytest.raises(VerificationError) as exc:
        ls._verify_level(level)
    assert exc.value.key == 25


# -- chaos --------------------------------------------------------------------------


def test_corrupt_cell_chaos_leaves_no_wrong_voted_answer():
    rep = ReplicatedDynamicDictionary(UNIVERSE, replicas=R, seed=11, armed=True)
    ref: set[int] = set()
    stats = {"noops": 0}
    chaos = np.random.default_rng(12)
    qrng = np.random.default_rng(13)
    xs = np.arange(KEY_RANGE + 40, dtype=np.int64)
    ops = _ops(14, 900)
    wrong = corrupted = 0
    for phase, lo in enumerate(range(0, 900, 60)):
        _apply(rep, ops[lo:lo + 60], ref, stats)
        victim = phase % R
        levels = rep._replicas[victim]._levels.levels
        for _ in range(12):
            li = int(chaos.choice(
                [i for i, lv in enumerate(levels) if lv is not None]
            ))
            cells = levels[li].structure.table.num_cells
            rep.corrupt_cell(
                victim, li, int(chaos.integers(0, cells)),
                int(chaos.integers(1, 1 << 16)),
            )
            corrupted += 1
        pin = rep.pin()
        want = np.isin(xs, sorted(ref))
        wrong += int((rep.query_batch(xs, qrng) != want).sum())
        wrong += int((rep.query_pinned(pin, xs, qrng) != want).sum())
        pin.release()
        rep.rebuild_replica(victim)
        assert np.array_equal(rep._replicas[victim].query_batch(xs, qrng), want)
    assert corrupted == 15 * 12
    assert wrong == 0
