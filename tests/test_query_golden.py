"""Golden identity of the low-contention batch query.

``tests/fixtures/lc_query_golden.json`` holds, for fixed seeds, the
answers, the probe-counter digest and the final query-RNG state of
``LowContentionDictionary.query_batch`` as the per-row kernel (one
``read_batch`` per table row) produced them.  The round kernel must
reproduce every value byte for byte, on four paths:

- a direct dictionary over its own table;
- an R = 3 ``ReplicatedDictionary`` through ``query_batch_on``;
- the same with transient bit flips and stuck cells injected, so the
  injector's random stream is pinned too;
- a table attached to shared memory with a ``ShmProbeCounter``.

The batches mix members, non-members in occupied buckets and keys of
empty buckets (whose perfect-hash and data rounds are skipped), and one
batch hits only empty buckets.  The values are recorded from a known
good kernel; they are not to be regenerated to make this test pass.

The pin test at the bottom guards the NumPy property the round kernel
relies on: one ``Generator.integers`` draw of shape ``(k, b)`` equals k
sequential draws of size ``b``, values and end state alike.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import LowContentionDictionary
from repro.dictionaries import ReplicatedDictionary
from repro.errors import ReproError
from repro.faults import FaultConfig
from repro.utils.rng import as_generator, sample_distinct

GOLDEN = Path(__file__).parent / "fixtures" / "lc_query_golden.json"

N_KEYS = 300
UNIVERSE = 1 << 20


def _dictionary(seed: int = 5) -> LowContentionDictionary:
    rng = as_generator(seed)
    keys = np.sort(sample_distinct(rng, UNIVERSE, N_KEYS))
    return LowContentionDictionary(keys, UNIVERSE, rng=as_generator(seed + 1))


def _batches(d: LowContentionDictionary, seed: int = 9) -> list[np.ndarray]:
    """Mixed batches of odd and even size, then one of empty buckets only."""
    rng = as_generator(seed)
    con = d.construction
    members = set(int(k) for k in d.keys)
    pool = rng.integers(0, UNIVERSE, size=4000)
    loads = con.loads[con.h.eval_batch(pool)]
    empty = [int(x) for x, ld in zip(pool, loads) if ld == 0][:19]
    occupied_miss = [
        int(x) for x, ld in zip(pool, loads)
        if ld > 0 and int(x) not in members
    ][:12]
    hits = [int(x) for x in rng.choice(d.keys, size=21)]
    mixed = np.array(hits[:11] + occupied_miss[:6] + empty[:16], dtype=np.int64)
    rng.shuffle(mixed)
    wide = np.array(hits + occupied_miss + empty[:9], dtype=np.int64)
    rng.shuffle(wide)
    return [
        mixed,
        wide,
        np.array(empty, dtype=np.int64),
        np.array(hits[:1], dtype=np.int64),
    ]


def _bits(answers: np.ndarray) -> str:
    return "".join("1" if a else "0" for a in answers)


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def run_direct() -> dict:
    d = _dictionary()
    rng = as_generator(11)
    answers = [_bits(d.query_batch(xs, rng)) for xs in _batches(d)]
    return {
        "answers": answers,
        "digest": d.table.counter.digest(),
        "rng_state": _state(rng),
    }


def run_replicated(faults: FaultConfig | None = None) -> dict:
    inner = _dictionary()
    d = ReplicatedDictionary(inner, replicas=3, rng=as_generator(3),
                             faults=faults)
    rng = as_generator(12)
    answers = []
    for i, xs in enumerate(_batches(inner) * 2):
        try:
            answers.append(_bits(d.query_batch_on(xs, i % 3, rng)))
        except ReproError as exc:
            answers.append(type(exc).__name__)
    return {
        "answers": answers,
        "digest": d.table.counter.digest(),
        "rng_state": _state(rng),
    }


def run_shm() -> dict:
    from repro.cellprobe import ProbeCounter
    from repro.parallel import (
        ShmProbeCounter,
        attach_table,
        create_counter_segment,
        destroy_segment,
        pack_table,
        read_counter,
        segment_name,
    )

    d = _dictionary()
    batches = _batches(d)
    cells = d.table.rows * d.table.s
    tab = pack_table(segment_name("repro-test", "gold"), d.table)
    cnt = create_counter_segment(
        segment_name("repro-test", "goldc"), d.params.num_rows, cells
    )
    try:
        counter = ShmProbeCounter(cnt)
        d.table = attach_table(tab, counter)
        rng = as_generator(13)
        answers = [_bits(d.query_batch(xs, rng)) for xs in batches]
        merged = ProbeCounter(cells).merge(read_counter(cnt))
        return {
            "answers": answers,
            "digest": counter.digest(),
            "merged_digest": merged.digest(),
            "rng_state": _state(rng),
        }
    finally:
        d.table = None
        destroy_segment(tab)
        destroy_segment(cnt)


FAULTS = FaultConfig(flip_rate=0.02, stuck_rate=0.002, seed=4)

CASES = {
    "direct": run_direct,
    "replicated": run_replicated,
    "replicated_faulty": lambda: run_replicated(FAULTS),
    "shm": run_shm,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_batches_cover_the_skip_paths():
    d = _dictionary()
    con = d.construction
    batches = _batches(d)
    loads = [con.loads[con.h.eval_batch(xs)] for xs in batches]
    assert all((ld == 0).any() and (ld > 0).any() for ld in loads[:2])
    assert (loads[2] == 0).all()
    assert len(batches[0]) % 2 == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_query_batch_matches_golden(case, golden):
    assert json.loads(json.dumps(CASES[case]())) == golden[case]


def test_faulty_case_sees_corruption(golden):
    # The faulty case must differ from the clean one, or it pins nothing
    # about the injector's stream.
    faulty, clean = golden["replicated_faulty"], golden["replicated"]
    assert faulty["answers"] != clean["answers"]
    assert faulty["digest"] != clean["digest"]


@pytest.mark.parametrize(
    "high", [2, 3, 7, 1000, (1 << 31) + 1, 1 << 40, (1 << 62) + 1]
)
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (6, 33), (4, 64)])
def test_matrix_integers_draw_equals_sequential_draws(high, shape):
    k, b = shape
    whole, rows = as_generator(21), as_generator(21)
    matrix = whole.integers(0, high, size=shape)
    seq = np.stack([rows.integers(0, high, size=b) for _ in range(k)])
    assert np.array_equal(matrix, seq)
    assert whole.bit_generator.state == rows.bit_generator.state
