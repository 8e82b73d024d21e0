"""Golden identity of the dynamic update path.

``tests/fixtures/dynamic_golden.json`` holds, for one seeded stream
against an R = 3 ``ReplicatedDynamicDictionary``, everything an update
can leave behind on each replica:

- the query-counter digest (reads are interleaved with the updates);
- the level sizes;
- a SHA-256 over every level's ``table._cells`` and ``table.writes``;
- the cost account's amortized write cost;
- the final ``rng.bit_generator.state``.

The stream mixes inserts and deletes over a small key range, so it
carries no-op inserts and deletes and several flattens, and it goes
through a crash and rebuild before and after a ``compact_log``, and a
``snapshot_payload`` -> ``from_snapshot`` round trip.  Any change to the
level carry, the flatten points, the construction's RNG order or its
writes moves one of these values.  The values are recorded from a known
good build; they are not to be regenerated to make this test pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.dynamic import ReplicatedDynamicDictionary
from repro.dynamic.levels import LevelStructure
from repro.utils.rng import as_generator

GOLDEN = Path(__file__).parent / "fixtures" / "dynamic_golden.json"

UNIVERSE = 1 << 16
KEY_RANGE = 256
OPS = 2000


def _cells_digest(d, r: int) -> str:
    h = hashlib.sha256()
    for lv in d._levels.nonempty_levels:
        table = lv.structures[r].table
        h.update(lv.index.to_bytes(4, "little"))
        h.update(np.ascontiguousarray(table._cells).tobytes())
        h.update(int(table.writes).to_bytes(8, "little"))
    return h.hexdigest()


def _apply_stream(d, ops, qrng, stats):
    """Apply ``ops`` in groups of 1-4; read a batch every 50 updates."""
    ref = stats["ref"]
    i = 0
    while i < len(ops):
        size = 1 + (i // 7) % 4
        group = ops[i:i + size]
        for k, ins in group:
            stats["noops"] += int(ins == (k in ref))
            (ref.add if ins else ref.discard)(k)
        d.apply_batch(group)
        i += size
        if i // 50 != (i - size) // 50:
            d.query_batch(qrng.integers(0, 2 * KEY_RANGE, size=64), qrng)
    return d


def run_stream() -> tuple[dict, dict]:
    """The seeded stream; returns ``(pinned values, stream stats)``."""
    rng = as_generator(17)
    qrng = as_generator(18)
    ops = []
    for step in range(OPS):
        # Two delete-heavy stretches drive the dead weight past 2x live.
        p_insert = 0.2 if (step // 400) % 3 == 1 else 0.6
        ops.append((int(rng.integers(0, KEY_RANGE)),
                    bool(rng.random() < p_insert)))
    stats = {"noops": 0, "ref": set()}
    d = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=19, armed=True)
    _apply_stream(d, ops[:500], qrng, stats)
    d.crash_replica(1)
    _apply_stream(d, ops[500:650], qrng, stats)
    d.rebuild_replica(1)
    _apply_stream(d, ops[650:1000], qrng, stats)
    stats["compacted"] = d.compact_log()
    _apply_stream(d, ops[1000:1200], qrng, stats)
    d.crash_replica(2)
    _apply_stream(d, ops[1200:1300], qrng, stats)
    d.rebuild_replica(2)
    _apply_stream(d, ops[1300:1500], qrng, stats)
    d, report = ReplicatedDynamicDictionary.from_snapshot(d.snapshot_payload())
    stats["replayed"] = report["replayed"]
    _apply_stream(d, ops[1500:], qrng, stats)
    pinned = {
        "live_keys": int(d.live_keys().size),
        "replicas": [
            {
                "digest": d.query_counter_digest(r),
                "level_sizes": [
                    lv.size if lv is not None else 0 for lv in d._levels.levels
                ],
                "cells": _cells_digest(d, r),
                "amortized_write_cost": d.account(r).amortized_write_cost(),
                "rng_state": d._streams[r].rng.bit_generator.state,
            }
            for r in range(d.replicas)
        ],
        "query_rng_state": qrng.bit_generator.state,
    }
    return pinned, stats


@pytest.fixture(scope="module")
def stream():
    # A flatten is the only step of _maybe_flatten that relinks levels;
    # count those that replica 0 (never crashed in the stream) goes through.
    flattens = []
    inner = LevelStructure._maybe_flatten

    def counted(self):
        before = [id(lv) for lv in self.levels]
        inner(self)
        if [id(lv) for lv in self.levels] != before:
            flattens.append(0 in self.streams)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LevelStructure, "_maybe_flatten", counted)
        pinned, stats = run_stream()
    stats["flattens"] = sum(flattens)
    return pinned, stats


def test_stream_covers_the_update_paths(stream):
    _, stats = stream
    assert stats["noops"] > 0
    assert stats["flattens"] >= 3
    assert stats["compacted"] > 0
    assert stats["replayed"] > 0
    assert stream[0]["live_keys"] == len(stats["ref"])


def test_dynamic_stream_matches_golden(stream):
    pinned, _ = stream
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(json.dumps(pinned)) == golden
