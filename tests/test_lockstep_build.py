"""Lockstep construction: R tables built in one pass equal R builds alone.

``construct_lockstep`` builds the low-contention table for one key set
once per generator.  Table ``i`` must be the one ``construct`` builds
from generator ``i`` alone: the same cells and ``writes``, every
perfect hash ``(a, c)`` as Python ints, the histogram words, the trial
count and the generator's end state, so pickles match too.  A failing
build must fail as the builds run one after another would.  On the
dynamic side, a replicated group builds each level once for all live
replicas, and each replica ends as if it had applied the ops alone.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.core.construction as construction
from repro.core import LowContentionDictionary, SchemeParameters
from repro.core.construction import construct, construct_lockstep
from repro.dynamic import DynamicLowContentionDictionary, ReplicatedDynamicDictionary
from repro.dynamic.levels import LevelStructure
from repro.errors import ConstructionError
from repro.utils.rng import spawn_generators

UNIVERSE = 1 << 20
SIZES = (2, 3, 5, 8, 33, 100, 700)
#: Seeds whose three generators need unequal P(S) trials or unequal
#: perfect-hash retries (found by search; checked below).
UNEVEN = {2: (8, 11), 3: (31, 4), 5: (10, 3), 8: (32, 11), 33: (118, 1)}


def _keys(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(1000 + seed).choice(UNIVERSE, n, replace=False)


def _rngs(seed: int, count: int) -> list:
    return [np.random.default_rng((seed, i)) for i in range(count)]


def _fingerprint(con, rng) -> dict:
    pairs = []
    for b, h in enumerate(con.inner):
        if h is not None:
            assert type(h.a) is int and type(h.c) is int
            pairs.append((b, h.a, h.c, h.range_size))
    return {
        "cells": con.table._cells.tobytes(),
        "writes": con.table.writes,
        "pairs": pairs,
        "hist": con.hist_words.tobytes(),
        "trials": con.trials,
        "rng": rng.bit_generator.state,
    }


@pytest.mark.parametrize("replicas", (1, 2, 3, 5))
@pytest.mark.parametrize("n", SIZES)
def test_fused_build_equals_separate_builds(n, replicas):
    for seed in (0, 1) + UNEVEN.get(n, ()):
        keys = _keys(n, seed)
        alone_rngs = _rngs(seed, replicas)
        alone = [construct(keys, UNIVERSE, rng=g) for g in alone_rngs]
        fused_rngs = _rngs(seed, replicas)
        fused = construct_lockstep(keys, UNIVERSE, None, fused_rngs)
        assert len(fused) == replicas
        for a, ga, b, gb in zip(alone, alone_rngs, fused, fused_rngs):
            assert _fingerprint(a, ga) == _fingerprint(b, gb)
        assert pickle.dumps(fused) == pickle.dumps(alone)


def test_pinned_seeds_are_uneven(monkeypatch):
    """Each pinned seed makes its generators' builds differ in P(S)
    trials or in perfect-hash retries, so the lockstep is exercised with
    generators that fall out of step."""
    retries = []
    search = construction.find_perfect_hashes

    def counted(keys, loads, prime, rng, *args, **kwargs):
        found = search(keys, loads, prime, rng, *args, **kwargs)
        retries.append(int(found[2].sum()) - len(found[2]))
        return found

    monkeypatch.setattr(construction, "find_perfect_hashes", counted)
    for n, seeds in UNEVEN.items():
        for seed in seeds:
            retries.clear()
            trials = [
                construct(_keys(n, seed), UNIVERSE, rng=g).trials
                for g in _rngs(seed, 3)
            ]
            assert len(set(trials)) > 1 or len(set(retries)) > 1, (n, seed)


def test_dictionaries_equal_separate_builds():
    keys = _keys(33, 118)
    alone = [LowContentionDictionary(keys, UNIVERSE, rng=g) for g in _rngs(118, 3)]
    fused = LowContentionDictionary.build_lockstep(keys, UNIVERSE, _rngs(118, 3))
    assert pickle.dumps(fused) == pickle.dumps(alone)
    for d in fused:
        assert d.query_batch(keys, np.random.default_rng(0)).all()
    assert len({id(d.params) for d in fused}) == 3


def _builds_in_order(keys, params, rngs, max_trials):
    """Run the one-generator builds in order up to the first failure."""
    for g in rngs:
        try:
            construct(keys, UNIVERSE, params, g, max_trials)
        except ConstructionError as exc:
            return str(exc)
    raise AssertionError("no build failed")


@pytest.mark.parametrize(
    "n, seed", [(3, 31), (5, 10), (8, 33)], ids=["first", "second", "second-b"]
)
def test_failure_at_max_trials_matches_builds_in_order(n, seed):
    keys = _keys(n, seed)
    alone_rngs = _rngs(seed, 3)
    text = _builds_in_order(keys, None, alone_rngs, max_trials=1)
    assert text.startswith("property P(S) not satisfied after 1 trials")
    fused_rngs = _rngs(seed, 3)
    with pytest.raises(ConstructionError) as info:
        construct_lockstep(keys, UNIVERSE, None, fused_rngs, max_trials=1)
    assert str(info.value) == text
    for a, b in zip(alone_rngs, fused_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_histogram_failure_matches_builds_in_order():
    keys = np.random.default_rng(4).choice(UNIVERSE, size=300, replace=False)
    params = SchemeParameters(n=300, word_bits=8)
    object.__setattr__(params, "rho", 3)  # 7 words fit the bound
    alone_rngs = _rngs(7, 2)
    text = _builds_in_order(keys, params, alone_rngs, max_trials=500)
    assert text.startswith("histogram of group ")
    fused_rngs = _rngs(7, 2)
    with pytest.raises(ConstructionError) as info:
        construct_lockstep(keys, UNIVERSE, params, fused_rngs)
    assert str(info.value) == text
    for a, b in zip(alone_rngs, fused_rngs):
        assert a.bit_generator.state == b.bit_generator.state


# -- the dynamic write path ---------------------------------------------------------


def _ops(seed: int, count: int) -> list:
    """Inserts and deletes; delete-heavy stretches force flattens."""
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(0, 80)),
         bool(rng.random() < (0.2 if (i // 150) % 2 else 0.7)))
        for i in range(count)
    ]


def test_a_group_builds_each_level_once(monkeypatch):
    calls = []
    build = LevelStructure._build_structures

    def counted(self, entries, rngs):
        calls.append(len(rngs))
        return build(self, entries, rngs)

    monkeypatch.setattr(LevelStructure, "_build_structures", counted)
    rep = ReplicatedDynamicDictionary(1 << 16, replicas=3, seed=5, armed=True)
    keys = list(range(10, 30))
    rep.apply_batch([(k, True) for k in keys])
    # Distinct inserts: one carry per op and no flatten, so k builds of
    # three tables each, not 3k builds of one.
    assert calls == [3] * len(keys)
    calls.clear()
    rep.crash_replica(1)
    rep.apply_batch([(k, True) for k in range(40, 45)])
    assert calls == [2] * 5


def test_structures_that_differ_build_apart():
    """apply_lockstep shares a build only between structures that owe the
    same level; structures with different entries or widths still end as
    if each had applied the op alone."""
    def structures():
        out = []
        for i, (width, history) in enumerate(
            ((0, (1, 2, 3)), (0, (1, 2, 3)), (0, (4, 5)), (256, (1, 2, 3)))
        ):
            ls = LevelStructure(1 << 10, np.random.default_rng(i),
                                min_level_width=width)
            for k in history:
                ls.apply(k, True)
            out.append(ls)
        return out

    together, alone = structures(), structures()
    for key, ins in ((9, True), (2, False), (11, True)):
        LevelStructure.apply_lockstep(together, key, ins)
        for ls in alone:
            ls.apply(key, ins)
    for a, b in zip(together, alone):
        assert pickle.dumps(a.levels) == pickle.dumps(b.levels)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_lockstep_replicas_equal_replicas_applied_alone(monkeypatch):
    """Every replica's state, and the pickled base snapshot of all of
    them, equal those of replicas that applied the log one at a time."""
    flattens = []
    check = LevelStructure._maybe_flatten

    def counted(self):
        # A flatten is the only step of _maybe_flatten that relinks.
        before = [id(lv) for lv in self.levels]
        check(self)
        flattens.append([id(lv) for lv in self.levels] != before)

    monkeypatch.setattr(LevelStructure, "_maybe_flatten", counted)
    seed, replicas = 9, 3
    rep = ReplicatedDynamicDictionary(
        1 << 16, replicas=replicas, seed=seed, verify_rebuilds=True
    )
    ops = _ops(21, 700)
    i = 0
    while i < len(ops):
        size = 1 + rep.epoch % 4
        rep.apply_batch(ops[i:i + size])
        i += size
    assert sum(flattens) >= 3 * 2  # fused flatten builds too
    twin = ReplicatedDynamicDictionary(
        1 << 16, replicas=replicas, seed=seed, verify_rebuilds=True
    )
    for r in range(replicas):
        d = twin._replicas[r]
        for k, ins in ops:
            (d.insert if ins else d.delete)(k)
    twin.epochs.epoch = rep.epochs.epoch
    capture = ReplicatedDynamicDictionary._capture_replica_state
    for a, b in zip(rep._replicas, twin._replicas):
        assert pickle.dumps(capture(a)) == pickle.dumps(capture(b))
    assert rep.compact_log() == len(ops)
    assert rep._base_state == twin._capture_base()
    # The standalone facade is the one-replica case of the same path.
    alone = DynamicLowContentionDictionary(
        1 << 16, rng=spawn_generators(seed, replicas)[0],
        verify_rebuilds=True, verify_seed=0,
    )
    for k, ins in ops:
        (alone.insert if ins else alone.delete)(k)
    assert pickle.dumps(capture(alone)) == pickle.dumps(capture(rep._replicas[0]))
