"""Table semantics: writes are free, reads are charged, bounds checked."""

import numpy as np
import pytest

from repro.cellprobe import EMPTY_CELL, ProbeCounter, Table
from repro.dictionaries.base import write_interleaved_params
from repro.errors import TableError


def test_fresh_table_is_empty():
    t = Table(rows=2, s=5)
    assert t.occupancy() == 0.0
    assert t.peek(0, 0) == EMPTY_CELL
    assert t.num_cells == 10


def test_write_then_read_roundtrip():
    t = Table(rows=2, s=4)
    t.write(1, 3, 12345)
    assert t.read(1, 3, step=0) == 12345
    assert t.counter.total_probes() == 1


def test_writes_are_not_probes():
    t = Table(rows=1, s=4)
    for j in range(4):
        t.write(0, j, j)
    assert t.counter.total_probes() == 0
    assert t.occupancy() == 1.0


def test_peek_is_not_a_probe():
    t = Table(rows=1, s=2)
    t.write(0, 0, 9)
    assert t.peek(0, 0) == 9
    assert t.counter.total_probes() == 0


def test_write_row_bulk():
    t = Table(rows=2, s=3)
    t.write_row(0, np.array([1, 2, 3], dtype=np.uint64))
    assert [t.peek(0, j) for j in range(3)] == [1, 2, 3]
    with pytest.raises(TableError):
        t.write_row(0, np.array([1, 2], dtype=np.uint64))
    with pytest.raises(TableError):
        t.write_row(5, np.zeros(3, dtype=np.uint64))


def test_write_cells_equals_per_cell_writes():
    scatter, scalar = Table(rows=2, s=8), Table(rows=2, s=8)
    cols = np.array([6, 0, 3, 7], dtype=np.int64)
    vals = [5, (1 << 64) - 2, 0, 9]
    scatter.write_cells(1, cols, np.array(vals, dtype=np.uint64))
    for c, v in zip(cols.tolist(), vals):
        scalar.write(1, c, v)
    assert np.array_equal(scatter._cells, scalar._cells)
    assert scatter.writes == scalar.writes == 4
    scatter.write_cells(0, np.array([], dtype=np.int64), [])
    assert scatter.writes == 4
    for row, bad in ((2, [0]), (0, [8]), (0, [-1, 2])):
        with pytest.raises(TableError):
            scatter.write_cells(row, np.array(bad), np.zeros(len(bad)))
    bad_values = (
        np.array([1, -1]),  # negative int64 would wrap to a huge word
        [1, -1],
        [1 << 64, 0],
        np.zeros(1, dtype=np.uint64),  # would broadcast over both columns
        5,
        np.zeros(3, dtype=np.uint64),
    )
    for values in bad_values:
        with pytest.raises(TableError):
            scatter.write_cells(0, np.array([1, 2]), values)
    assert np.array_equal(scatter._cells, scalar._cells)
    assert scatter.writes == 4


def test_interleaved_params_equal_per_cell_writes():
    """One scatter stores what one ``write`` per column stored."""
    words = [7, (1 << 64) - 1, 0, 12345]
    for s, replication in ((16, 4), (16, 2), (19, 1), (9, 2)):
        scatter, scalar = Table(rows=2, s=s), Table(rows=2, s=s)
        write_interleaved_params(scatter, 1, words, replication)
        for j, word in enumerate(words):
            for k in range(replication):
                scalar.write(1, j + k * len(words), word)
        assert np.array_equal(scatter._cells, scalar._cells)
        assert scatter.writes == scalar.writes == len(words) * replication
    for bad in ([1, -1], [1 << 64]):
        with pytest.raises(TableError):
            write_interleaved_params(Table(rows=1, s=8), 0, bad, 2)
    with pytest.raises(TableError):
        write_interleaved_params(Table(rows=1, s=8), 0, words, 3)


def test_bounds_checking():
    t = Table(rows=2, s=3)
    for row, col in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(TableError):
            t.read(row, col, 0)
        with pytest.raises(TableError):
            t.write(row, col, 0)


def test_value_must_fit_cell():
    t = Table(rows=1, s=1)
    t.write(0, 0, (1 << 64) - 1)  # max value OK (the EMPTY sentinel)
    with pytest.raises(TableError):
        t.write(0, 0, 1 << 64)
    with pytest.raises(TableError):
        t.write(0, 0, -1)


def test_shared_counter_rejected_on_size_mismatch():
    counter = ProbeCounter(5)
    with pytest.raises(TableError):
        Table(rows=2, s=3, counter=counter)


def test_flat_index():
    t = Table(rows=3, s=7)
    assert t.flat_index(2, 4) == 2 * 7 + 4
    with pytest.raises(TableError):
        t.flat_index(3, 0)


def test_reads_charge_correct_step_and_cell():
    t = Table(rows=2, s=4)
    t.write(0, 1, 5)
    t.write(1, 2, 6)
    t.read(0, 1, step=0)
    t.read(1, 2, step=1)
    t.read(1, 2, step=1)
    counts = t.counter.counts_per_step()
    assert counts[0, t.flat_index(0, 1)] == 1
    assert counts[1, t.flat_index(1, 2)] == 2
    assert counts.sum() == 3


# -- read_batch contract ---------------------------------------------------------


def _filled(rows=3, s=5):
    t = Table(rows=rows, s=s)
    for r in range(rows):
        t.write_row(r, np.arange(s, dtype=np.uint64) + 100 * r)
    return t


def test_read_batch_scalar_row_matches_row_array():
    scalar, per_entry = _filled(), _filled()
    cols = np.array([4, -1, 0, 4, 2, -3], dtype=np.int64)
    a = scalar.read_batch(1, cols, step=2)
    b = per_entry.read_batch(np.full(cols.shape, 1), cols, step=2)
    assert a.tolist() == b.tolist()
    assert a.tolist() == [104, EMPTY_CELL, 100, 104, 102, EMPTY_CELL]
    assert scalar.counter.digest() == per_entry.counter.digest()
    assert scalar.counter.total_probes() == 4


def test_read_batch_per_entry_rows():
    t = _filled()
    out = t.read_batch(np.array([0, 2, 1]), np.array([3, 0, -1]), step=0)
    assert out.tolist() == [3, 200, EMPTY_CELL]
    counts = t.counter.counts_per_step()
    assert counts.shape == (1, 15)
    assert counts[0, t.flat_index(0, 3)] == 1
    assert counts[0, t.flat_index(2, 0)] == 1
    assert t.counter.total_probes() == 2


@pytest.mark.parametrize(
    "rows, cols",
    [
        (-1, [0, 1]),                 # negative scalar row
        (3, [0, 1]),                  # scalar row == rows
        ([0, -2], [1, 1]),            # negative row in an array
        ([0, 3], [1, 1]),             # row >= rows in an array
        (0, [1, 5]),                  # column == s
        ([1, 2], [9, 0]),             # column > s
    ],
)
def test_read_batch_out_of_range_active_entry_raises(rows, cols):
    t = _filled()
    with pytest.raises(TableError):
        t.read_batch(rows, np.array(cols), step=1)
    # The failed batch charged nothing and allocated no step.
    assert t.counter.total_probes() == 0
    assert t.counter.num_steps == 0


def test_read_batch_bounds_ignore_skipped_entries():
    t = _filled()
    # Out-of-range rows sit only on skipped (column < 0) entries.
    out = t.read_batch(np.array([7, 1, -4]), np.array([-1, 2, -1]), step=0)
    assert out.tolist() == [EMPTY_CELL, 102, EMPTY_CELL]
    out = t.read_batch(99, np.array([-1, -1]), step=0)
    assert out.tolist() == [EMPTY_CELL, EMPTY_CELL]
    assert t.counter.total_probes() == 1


def test_read_batch_all_skipped_allocates_step():
    t = _filled()
    out = t.read_batch(0, np.array([-1, -5, -1]), step=3)
    assert out.tolist() == [EMPTY_CELL] * 3
    assert out.dtype == np.uint64
    assert t.counter.num_steps == 4
    assert t.counter.total_probes() == 0
    assert not t.counter.counts_per_step().any()


def test_read_batch_probe_event_counts_active_entries():
    from repro.telemetry.events import BUS, ProbeEvent

    t = _filled()
    seen = []
    BUS.subscribe(seen.append)
    try:
        t.read_batch(2, np.array([0, -1, 4, -1, 1]), step=1)
        t.read_batch(0, np.array([-1]), step=2)
    finally:
        BUS.unsubscribe(seen.append)
    probes = [(e.step, e.probes) for e in seen if isinstance(e, ProbeEvent)]
    assert probes == [(1, 3), (2, 0)]


def test_faulty_table_read_batch_charges_like_the_bare_table():
    from repro.faults import FaultConfig, FaultInjector, FaultyTable

    bare, wrapped = _filled(), _filled()
    inj = FaultInjector(
        FaultConfig(stuck_rate=0.3, flip_rate=0.5, seed=11), 3, 5
    )
    faulty = FaultyTable(wrapped, inj)
    batches = [
        (1, np.array([0, 4, -1, 4])),
        (np.array([0, 2, 1]), np.array([-1, 3, 3])),
        (2, np.array([-1, -1])),
    ]
    for step, (rows, cols) in enumerate(batches):
        clean = bare.read_batch(rows, cols, step)
        noisy = faulty.read_batch(rows, cols, step)
        assert np.all(noisy[cols < 0] == EMPTY_CELL)
        assert clean.shape == noisy.shape
    assert wrapped.counter.digest() == bare.counter.digest()
    assert wrapped.counter.total_probes() == 5


# -- read_round contract ---------------------------------------------------------


def _per_row(table, rows, cols, step):
    """The round as k separate read_batch calls, one step each."""
    return np.stack([
        table.read_batch(int(r), c, step + i)
        for i, (r, c) in enumerate(zip(rows, cols))
    ])


ROUNDS = [
    (np.array([0, 1, 2]), np.array([[0, 4, 2], [1, 1, 3], [4, 0, 0]])),
    (np.array([2, 0]), np.array([[3, -1, 0, -2], [-1, -1, 4, 4]])),
    (np.array([1]), np.array([[2, 2, 2, 2, 2]])),
    (np.array([2, 1, 0]), np.array([[-1, -1], [0, -1], [-3, -1]])),
]


@pytest.mark.parametrize("rows, cols", ROUNDS)
def test_read_round_equals_per_row_read_batch(rows, cols):
    t, ref = _filled(), _filled()
    out = t.read_round(rows, cols, step=2)
    assert out.dtype == np.uint64 and out.shape == cols.shape
    assert out.tolist() == _per_row(ref, rows, cols, 2).tolist()
    assert t.counter.digest() == ref.counter.digest()
    assert t.counter.total_probes() == ref.counter.total_probes()
    assert t.counter.total_probes() == int((cols >= 0).sum())


def test_read_round_skipped_entries_read_empty_and_charge_nothing():
    t = _filled()
    out = t.read_round(
        np.array([0, 2]), np.array([[3, -1, -7], [-1, 1, -1]]), step=0
    )
    assert out.tolist() == [[3, EMPTY_CELL, EMPTY_CELL],
                            [EMPTY_CELL, 201, EMPTY_CELL]]
    counts = t.counter.counts_per_step()
    assert counts[0, t.flat_index(0, 3)] == 1
    assert counts[1, t.flat_index(2, 1)] == 1
    assert t.counter.total_probes() == 2


@pytest.mark.parametrize(
    "rows, cols",
    [
        ([-1, 0], [[0, 1], [1, 1]]),         # negative row
        ([0, 3], [[0, 1], [1, 1]]),          # row == rows
        ([1, 2], [[1, 5], [0, 0]]),          # column == s
        ([1, 2], [[-1, -1], [9, -1]]),       # column > s beside skips
        ([7, 1], [[0, -1], [-1, -1]]),       # bad row with one active entry
    ],
)
def test_read_round_out_of_range_active_entry_raises(rows, cols):
    t = _filled()
    with pytest.raises(TableError):
        t.read_round(np.array(rows), np.array(cols), step=1)
    # The failed round charged nothing and allocated no step.
    assert t.counter.total_probes() == 0
    assert t.counter.num_steps == 0


def test_read_round_bounds_ignore_skipped_entries():
    t = _filled()
    out = t.read_round(
        np.array([7, 1, -4]), np.array([[-1, -1], [2, -1], [-1, -1]]), step=0
    )
    assert out.tolist() == [[EMPTY_CELL] * 2, [102, EMPTY_CELL],
                            [EMPTY_CELL] * 2]
    assert t.counter.total_probes() == 1


def test_read_round_rejects_malformed_shapes():
    t = _filled()
    for rows, cols in [
        (np.array([0, 1]), np.array([0, 1])),
        (np.array([[0]]), np.array([[0]])),
        (np.array([0, 1]), np.array([[0, 1]])),
    ]:
        with pytest.raises(TableError):
            t.read_round(rows, cols, step=0)
    assert t.counter.num_steps == 0


def test_read_round_all_skipped_step_is_allocated():
    t = _filled()
    out = t.read_round(np.array([0, 1]), np.array([[1, 2], [-1, -1]]), step=3)
    assert out[1].tolist() == [EMPTY_CELL] * 2
    assert t.counter.num_steps == 5
    assert not t.counter.counts_per_step()[4].any()
    empty = _filled()
    empty.read_round(np.array([2]), np.zeros((1, 0), dtype=np.int64), step=1)
    assert empty.counter.num_steps == 2
    assert empty.counter.total_probes() == 0


def test_read_round_probe_events_match_per_row_reads():
    from repro.telemetry.events import BUS, ProbeEvent

    rows, cols = ROUNDS[1]
    seen = {"round": [], "rows": []}
    for key, read in (
        ("round", lambda: _filled().read_round(rows, cols, step=1)),
        ("rows", lambda: _per_row(_filled(), rows, cols, 1)),
    ):
        BUS.subscribe(seen[key].append)
        try:
            read()
        finally:
            BUS.unsubscribe(seen[key].append)
    as_pairs = {
        key: [(e.step, e.probes) for e in events if isinstance(e, ProbeEvent)]
        for key, events in seen.items()
    }
    assert as_pairs["round"] == as_pairs["rows"] == [(1, 2), (2, 2)]


def test_faulty_table_read_round_matches_per_row_reads():
    from repro.faults import FaultConfig, FaultInjector, FaultyTable

    config = FaultConfig(stuck_rate=0.3, flip_rate=0.5, seed=11)
    by_round = FaultyTable(_filled(), FaultInjector(config, 3, 5))
    by_rows = FaultyTable(_filled(), FaultInjector(config, 3, 5))
    for step, (rows, cols) in enumerate(ROUNDS):
        got = by_round.read_round(rows, cols, step)
        want = _per_row(by_rows, rows, cols, step)
        assert got.tolist() == want.tolist()
    assert by_round.counter.digest() == by_rows.counter.digest()


def test_low_contention_query_batch_is_five_rounds():
    from repro.core import LowContentionDictionary
    from repro.utils.rng import as_generator, sample_distinct

    keys = np.sort(sample_distinct(as_generator(3), 1 << 16, 64))
    d = LowContentionDictionary(keys, 1 << 16, rng=as_generator(4))
    calls = []

    class Spy:
        def __init__(self, table):
            self._table = table
            self.rows, self.s, self.counter = table.rows, table.s, table.counter

        def read_round(self, rows, columns, step):
            calls.append(("read_round", step, len(rows)))
            return self._table.read_round(rows, columns, step)

        def read_batch(self, rows, columns, step):
            calls.append(("read_batch", step))
            return self._table.read_batch(rows, columns, step)

    d.table = Spy(d.table)
    xs = np.concatenate([keys[:20], np.arange(0, 1 << 16, 4099)])
    d.query_batch(xs, rng=as_generator(5))
    p = d.params
    assert calls == [
        ("read_round", 0, 2 * p.degree),
        ("read_round", p.z_row, 1),
        ("read_round", p.gbas_row, 1 + p.rho),
        ("read_round", p.phf_row, 1),
        ("read_round", p.data_row, 1),
    ]
