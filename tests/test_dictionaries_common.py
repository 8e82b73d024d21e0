"""Cross-scheme contract tests: every dictionary obeys the protocol.

These tests run identically against all six schemes:

- correctness on all keys and on negatives;
- executed probes conform to the analytic plan (machine validation);
- batch plans agree with single-query plans, query by query;
- probe counts respect ``max_probes``;
- honest queries never read construction-private state (checked
  indirectly: the queries succeed using only a fresh rebuild of the
  reader side from parameter words — covered per-scheme).
"""

import numpy as np
import pytest

from repro.cellprobe import CellProbeMachine
from repro.dictionaries.base import StaticDictionary
from repro.errors import ParameterError

SCHEMES = [
    "low-contention",
    "fks",
    "dm",
    "cuckoo",
    "binary-search",
    "linear-probing",
]


@pytest.fixture(params=SCHEMES)
def scheme(request, all_dictionaries):
    return all_dictionaries[request.param]


def test_all_positive_queries_found(scheme, keys, rng):
    for x in keys:
        assert scheme.query(int(x), rng) is True


def test_negative_queries_rejected(scheme, negatives, rng):
    for x in negatives:
        assert scheme.query(int(x), rng) is False


def test_plan_conformance(scheme, keys, negatives, rng):
    machine = CellProbeMachine(scheme, check_plan=True)
    for x in list(keys[:20]) + list(negatives[:20]):
        record = machine.run_query(int(x), rng)
        assert record.num_probes <= scheme.max_probes


def test_batch_plan_agrees_with_single(scheme, keys, negatives):
    xs = np.concatenate([keys[:25], negatives[:25]])
    batch = scheme.probe_plan_batch(xs)
    for i, x in enumerate(xs):
        single = scheme.probe_plan(int(x))
        batch_steps = [st.step_for(i) for st in batch]
        batch_steps = [b for b in batch_steps if b is not None]
        assert len(batch_steps) == len(single), f"query {x}"
        for b, s in zip(batch_steps, single):
            assert b.row == s.row, f"query {x}"
            assert np.array_equal(b.support(), s.support()), f"query {x}"


def test_plan_lengths_bounded(scheme, keys, negatives):
    xs = np.concatenate([keys, negatives])
    for x in xs[:50]:
        assert len(scheme.probe_plan(int(x))) <= scheme.max_probes


def test_contains_matches_membership(scheme, keys, negatives):
    assert all(scheme.contains(int(x)) for x in keys)
    assert not any(scheme.contains(int(x)) for x in negatives)
    batch = scheme.contains_batch(np.concatenate([keys[:10], negatives[:10]]))
    assert batch.tolist() == [True] * 10 + [False] * 10


def test_out_of_universe_query_rejected(scheme, rng):
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        scheme.query(scheme.universe_size, rng)
    with pytest.raises(QueryError):
        scheme.probe_plan(-1)


def test_space_is_positive_and_reported(scheme):
    assert scheme.space_words == scheme.table.num_cells > 0
    assert scheme.n > 0


def test_probe_rows_within_table(scheme, keys, negatives):
    for x in list(keys[:10]) + list(negatives[:10]):
        for step in scheme.probe_plan(int(x)):
            assert 0 <= step.row < scheme.table.rows
            assert int(step.support().max()) < scheme.table.s


def test_query_determinism_of_answers(scheme, keys, rng):
    """Randomized probes, deterministic answers."""
    x = int(keys[7])
    answers = {scheme.query(x, np.random.default_rng(s)) for s in range(10)}
    assert answers == {True}


def _reference_sorted_keys(keys, universe_size):
    """The per-key ``sorted(int(k) ...)`` check ``_sorted_keys`` replaced."""
    arr = np.asarray(sorted(int(k) for k in keys), dtype=np.int64)
    if arr.size == 0:
        raise ParameterError("key set must be non-empty")
    if np.unique(arr).size != arr.size:
        raise ParameterError("keys must be distinct")
    if int(arr[0]) < 0 or int(arr[-1]) >= universe_size:
        raise ParameterError("keys must lie in [0, universe_size)")
    return arr


def _outcome(fn, make_keys, universe):
    try:
        arr = fn(make_keys(), universe)
    except (ParameterError, OverflowError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.tolist()


def test_sorted_keys_matches_reference_on_every_input_kind():
    """Same keys or the same error, whatever container or dtype holds them."""
    local = np.random.default_rng(5)
    universe = 1000
    values = [
        [], [7], [3, 1, 2], [5, 5], [4, 2, 4], [-1, 3], [2, universe],
        [0, universe - 1],
        local.choice(universe, size=200, replace=False).tolist(),
        local.integers(0, universe, size=50).tolist(), [250, 17, 999, 0],
    ]
    kinds = {
        "list": list,
        "tuple": tuple,
        "set": set,
        "generator": lambda v: (x for x in v),
        "float array": lambda v: np.array(v, dtype=np.float64),
        "bool array": lambda v: np.array([bool(x) for x in v]),
        "2-D array": lambda v: np.array(v, dtype=np.int64).reshape(-1, 1),
    }
    for dtype in ("int8", "int16", "int32", "int64",
                  "uint8", "uint16", "uint32", "uint64"):
        kinds[dtype] = lambda v, dt=dtype: np.array(v).astype(dt)
    for name, make in kinds.items():
        for v in values:
            new = _outcome(
                StaticDictionary._sorted_keys, lambda: make(v), universe
            )
            ref = _outcome(_reference_sorted_keys, lambda: make(v), universe)
            assert new == ref, (name, v)
    huge = np.array([1, (1 << 63) + 5], dtype=np.uint64)
    assert _outcome(StaticDictionary._sorted_keys, lambda: huge, 1 << 62) == (
        _outcome(_reference_sorted_keys, lambda: huge, 1 << 62)
    )


def test_sorted_keys_leaves_the_input_alone():
    keys = np.array([9, 3, 5], dtype=np.int64)
    out = StaticDictionary._sorted_keys(keys, 10)
    assert out.tolist() == [3, 5, 9] and keys.tolist() == [9, 3, 5]
