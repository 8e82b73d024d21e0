"""ProbeCounter semantics: stratified counts and contention estimates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellprobe import ProbeCounter
from repro.errors import ParameterError
from repro.parallel.shm import (
    ShmProbeCounter,
    create_counter_segment,
    destroy_segment,
    read_counter,
    segment_name,
)


def test_record_and_totals():
    c = ProbeCounter(4)
    c.record(0, 1)
    c.record(0, 1)
    c.record(2, 3)
    assert c.num_steps == 3
    assert c.total_counts().tolist() == [0, 2, 0, 1]
    assert c.total_probes() == 3


def test_record_batch_skips_negatives():
    c = ProbeCounter(5)
    c.record_batch(0, np.array([0, -1, 2, 2]))
    assert c.total_counts().tolist() == [1, 0, 2, 0, 0]


def test_record_batch_negatives_charge_nothing_anywhere():
    # The documented contract: a negative entry is skipped *entirely* —
    # no probe lands on any cell (not cell 0, not |entry|) and the
    # execution counter does not move (only finish_execution does).
    c = ProbeCounter(4)
    c.record_batch(0, np.array([-1, -3, -2]))
    assert c.total_probes() == 0
    assert c.total_counts().tolist() == [0, 0, 0, 0]
    assert c.executions == 0
    assert c.num_steps == 1  # the step row exists, just empty


def test_merge_adds_counts_and_executions():
    a, b = ProbeCounter(3), ProbeCounter(3)
    a.record(0, 1)
    a.finish_execution()
    b.record(0, 1)
    b.record(2, 2)  # b has a deeper step ladder than a
    b.finish_execution(2)
    assert a.merge(b) is a
    assert a.executions == 3
    assert a.counts_per_step().tolist() == [
        [0, 2, 0], [0, 0, 0], [0, 0, 1],
    ]
    # b is untouched.
    assert b.executions == 2 and b.total_probes() == 2


def test_merge_matches_single_counter_stream():
    rng = np.random.default_rng(7)
    whole = ProbeCounter(8)
    parts = [ProbeCounter(8) for _ in range(3)]
    for part in parts:
        for _ in range(40):
            step, cell = int(rng.integers(0, 4)), int(rng.integers(0, 8))
            part.record(step, cell)
            whole.record(step, cell)
        part.finish_execution(5)
        whole.finish_execution(5)
    merged = ProbeCounter(8)
    for part in parts:
        merged.merge(part)
    assert (
        merged.counts_per_step().tobytes()
        == whole.counts_per_step().tobytes()
    )
    assert merged.executions == whole.executions


def test_merge_validation():
    c = ProbeCounter(3)
    with pytest.raises(ParameterError):
        c.merge(ProbeCounter(4))
    with pytest.raises(ParameterError):
        c.merge([1, 2, 3])


def test_record_batch_bounds():
    c = ProbeCounter(3)
    with pytest.raises(ParameterError):
        c.record_batch(0, np.array([3]))


def test_record_round_charges_row_i_at_step_plus_i():
    c = ProbeCounter(5)
    c.record_round(1, np.array([[0, -1, 2, 2], [-1, -1, -1, -1], [4, 4, 0, -2]]))
    counts = c.counts_per_step()
    assert c.num_steps == 4  # steps 0..3; the all-skipped step 2 included
    assert counts[1].tolist() == [1, 0, 2, 0, 0]
    assert not counts[2].any()
    assert counts[3].tolist() == [1, 0, 0, 0, 2]
    assert c.total_probes() == 6 and c.executions == 0


def test_record_round_validation_charges_nothing():
    c = ProbeCounter(3)
    for step, cells in [
        (0, np.array([[0, 3]])),
        (0, np.array([[-1], [5]])),
        (-1, np.array([[0]])),
        (0, np.array([0, 1])),
    ]:
        with pytest.raises(ParameterError):
            c.record_round(step, cells)
    assert c.num_steps == 0 and c.total_probes() == 0


def test_shm_record_round_rejects_steps_beyond_capacity():
    seg = create_counter_segment(segment_name("repro-test", "cap"), 4, 8)
    try:
        shm = ShmProbeCounter(seg)
        with pytest.raises(ParameterError):
            shm.record_round(3, np.array([[1], [2]]))
        shm.record_round(2, np.array([[1], [2]]))
        assert shm.num_steps == 4 and shm.total_probes() == 2
    finally:
        destroy_segment(seg)


def test_contention_requires_executions():
    c = ProbeCounter(2)
    c.record(0, 0)
    with pytest.raises(ParameterError):
        c.total_contention()
    c.finish_execution()
    assert c.total_contention().tolist() == [1.0, 0.0]


def test_contention_normalization():
    c = ProbeCounter(2)
    for _ in range(4):
        c.record(0, 0)
        c.record(1, 1)
    c.finish_execution(4)
    per_step = c.contention_per_step()
    assert per_step.shape == (2, 2)
    assert per_step[0, 0] == pytest.approx(1.0)
    assert per_step[1, 1] == pytest.approx(1.0)
    assert c.max_contention() == pytest.approx(1.0)
    assert c.max_step_contention() == pytest.approx(1.0)


def test_reset():
    c = ProbeCounter(2)
    c.record(0, 0)
    c.finish_execution()
    c.reset()
    assert c.num_steps == 0
    assert c.executions == 0
    assert c.total_probes() == 0


def test_empty_counter_shapes():
    c = ProbeCounter(3)
    assert c.counts_per_step().shape == (0, 3)
    assert c.total_counts().tolist() == [0, 0, 0]


def test_invalid_arguments():
    c = ProbeCounter(2)
    with pytest.raises(ParameterError):
        c.record(-1, 0)
    with pytest.raises(ParameterError):
        c.record(0, 2)
    with pytest.raises(ParameterError):
        c.finish_execution(0)
    with pytest.raises(ParameterError):
        ProbeCounter(0)


# -- running total: property tests ---------------------------------------------

CELLS = 6
MAX_STEPS = 5

_steps = st.integers(0, MAX_STEPS - 1)
_batch = st.lists(st.integers(-3, CELLS - 1), max_size=8)
_op = st.one_of(
    st.tuples(st.just("record"), _steps, st.integers(0, CELLS - 1)),
    st.tuples(st.just("batch"), _steps, _batch),
    st.tuples(st.just("batch"), _steps, st.lists(st.integers(-5, -1),
                                                 min_size=1, max_size=4)),
    st.tuples(st.just("merge"), st.lists(st.tuples(_steps, _batch),
                                         max_size=3)),
    st.tuples(st.just("round"), st.integers(0, MAX_STEPS - 3),
              st.integers(1, 3), st.lists(st.integers(-3, CELLS - 1),
                                          max_size=12)),
    st.tuples(st.just("finish"), st.integers(1, 3)),
    st.tuples(st.just("reset"),),
)


def _round(op) -> tuple[int, np.ndarray]:
    _, step, k, cells = op
    width = len(cells) // k
    return step, np.array(cells[: k * width], dtype=np.int64).reshape(k, width)


def _apply(counter, op) -> None:
    kind = op[0]
    if kind == "record":
        counter.record(op[1], op[2])
    elif kind == "batch":
        counter.record_batch(op[1], np.array(op[2], dtype=np.int64))
    elif kind == "merge":
        other = ProbeCounter(CELLS)
        for step, cells in op[1]:
            other.record_batch(step, np.array(cells, dtype=np.int64))
        other.finish_execution()
        counter.merge(other)
    elif kind == "round":
        counter.record_round(*_round(op))
    elif kind == "finish":
        counter.finish_execution(op[1])
    else:
        counter.reset()


def _apply_by_rows(counter, op) -> None:
    """Like :func:`_apply`, but a round becomes one record_batch per row."""
    if op[0] != "round":
        return _apply(counter, op)
    step, cells = _round(op)
    for i, row in enumerate(cells):
        counter.record_batch(step + i, row)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=12))
def test_running_total_tracks_the_count_matrix(ops):
    # The O(1) total is derived from the per-step rows, never instead of
    # them: after every operation it equals the matrix sum, and the
    # plain, shared-memory and read-back counters digest identically.
    # A round records exactly what one record_batch per row records.
    plain = ProbeCounter(CELLS)
    by_rows = ProbeCounter(CELLS)
    seg = create_counter_segment(
        segment_name("repro-test", "prop"), MAX_STEPS, CELLS
    )
    try:
        shm = ShmProbeCounter(seg)
        for op in ops:
            _apply(plain, op)
            _apply(shm, op)
            _apply_by_rows(by_rows, op)
            copy = read_counter(seg)
            for c in (plain, shm, copy):
                assert c.total_probes() == int(c.counts_per_step().sum())
            assert shm.digest() == plain.digest() == copy.digest()
            assert by_rows.digest() == plain.digest()
            assert shm.total_probes() == plain.total_probes()
            assert copy.total_probes() == plain.total_probes()
        # A fresh attach resumes the exact state, total included.
        resumed = ShmProbeCounter(seg)
        assert resumed.total_probes() == plain.total_probes()
        assert resumed.digest() == plain.digest()
    finally:
        destroy_segment(seg)


def test_running_total_survives_pickling():
    import pickle

    c = ProbeCounter(4)
    c.record_batch(1, np.array([0, 3, 3, -1]))
    back = pickle.loads(pickle.dumps(c))
    assert back.total_probes() == 3 and back.digest() == c.digest()
    # A counter pickled before the running total existed.
    state = dict(c.__dict__)
    del state["_total"]
    old = ProbeCounter.__new__(ProbeCounter)
    old.__setstate__(state)
    assert old.total_probes() == 3
