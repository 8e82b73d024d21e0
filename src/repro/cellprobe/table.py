"""The cell-probe table: ``rows × s`` cells of b-bit words, with accounting.

In the static cell-probe model the table is prepared offline (writes are
free); only query-time *reads* are probes and are charged to the
:class:`~repro.cellprobe.counters.ProbeCounter`.  Cells hold unsigned
values below ``2**64``; the reserved sentinel :data:`EMPTY_CELL` marks
unowned / vacant cells (it is outside every universe we allow, since
universes are capped at ``2**62``).
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.errors import TableError
from repro.telemetry.events import BUS, ProbeEvent
from repro.utils.validation import check_positive_integer

#: Sentinel stored in vacant cells; outside any permitted universe.
EMPTY_CELL = (1 << 64) - 1

#: Cell width in bits (DESIGN.md conventions; b = 64 >= log2 N).
CELL_BITS = 64


class Table:
    """An instrumented cell-probe memory of shape ``(rows, s)``.

    Parameters
    ----------
    rows:
        Number of rows; the schemes in this library use one probe per row.
    s:
        Number of cells per row (the paper's table size parameter).
    counter:
        Optional shared :class:`ProbeCounter`; a fresh one is created if
        omitted.
    """

    def __init__(self, rows: int, s: int, counter: ProbeCounter | None = None):
        self.rows = check_positive_integer("rows", rows)
        self.s = check_positive_integer("s", s)
        self._cells = np.full((self.rows, self.s), EMPTY_CELL, dtype=np.uint64)
        #: Cells written during construction — a deterministic proxy for
        #: construction work (writes are free in the model but O(build time)).
        self.writes = 0
        self.counter = counter if counter is not None else ProbeCounter(self.rows * self.s)
        if self.counter.num_cells != self.rows * self.s:
            raise TableError(
                f"counter tracks {self.counter.num_cells} cells, table has "
                f"{self.rows * self.s}"
            )

    @classmethod
    def from_cells(cls, cells: np.ndarray, writes: int) -> "Table":
        """A table over built ``cells`` (a ``(rows, s)`` uint64 array).

        ``writes`` is the construction writes that built them; the table
        gets a fresh counter.  The cells are taken, not copied.
        """
        table = cls.__new__(cls)
        table.rows, table.s = cells.shape
        table._cells = cells
        table.writes = int(writes)
        table.counter = ProbeCounter(table.rows * table.s)
        return table

    # -- construction-time access (free) ------------------------------------

    def write(self, row: int, column: int, value: int) -> None:
        """Store ``value`` (a b-bit word) during construction; not a probe."""
        self._check(row, column)
        if not 0 <= value < (1 << CELL_BITS):
            raise TableError(f"value {value} does not fit a {CELL_BITS}-bit cell")
        self._cells[row, column] = value
        self.writes += 1

    def write_cells(self, row: int, columns: np.ndarray, values) -> None:
        """Store ``values[i]`` at ``(row, columns[i])``; not a probe.

        The same cells, values, ``writes`` and range checks as one
        :meth:`write` per column, in one scatter.  ``values`` must match
        ``columns`` in shape; columns are expected to be distinct.
        """
        if not 0 <= row < self.rows:
            raise TableError(f"row {row} out of range [0, {self.rows})")
        columns = np.asarray(columns, dtype=np.int64)
        if columns.size and (
            int(columns.min()) < 0 or int(columns.max()) >= self.s
        ):
            raise TableError(
                f"column out of range [0, {self.s}) in row {row}"
            )
        try:
            cells = np.asarray(values, dtype=np.uint64)
        except OverflowError as exc:
            raise TableError(f"a value does not fit a {CELL_BITS}-bit cell") from exc
        if cells.shape != columns.shape:
            raise TableError(
                f"values have shape {cells.shape}, columns {columns.shape}"
            )
        signed = isinstance(values, np.ndarray) and values.dtype.kind == "i"
        if signed and values.size and int(values.min()) < 0:
            raise TableError(f"a value does not fit a {CELL_BITS}-bit cell")
        self._cells[row, columns] = cells
        self.writes += int(columns.size)

    def write_row(self, row: int, values: np.ndarray) -> None:
        """Bulk-store an entire row during construction; not a probe."""
        if not 0 <= row < self.rows:
            raise TableError(f"row {row} out of range [0, {self.rows})")
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (self.s,):
            raise TableError(f"row must have shape ({self.s},), got {values.shape}")
        self._cells[row, :] = values
        self.writes += self.s

    def peek(self, row: int, column: int) -> int:
        """Read without charging a probe (analysis / debugging only)."""
        self._check(row, column)
        return int(self._cells[row, column])

    def peek_row(self, row: int) -> np.ndarray:
        """Copy an entire row without charging probes (scrub/rebuild I/O).

        The healing layer charges its own repair counter explicitly per
        cell, so the raw read must stay off the query-path counter.
        """
        if not 0 <= row < self.rows:
            raise TableError(f"row {row} out of range [0, {self.rows})")
        return self._cells[row].copy()

    # -- query-time access (charged) -----------------------------------------

    def read(self, row: int, column: int, step: int) -> int:
        """Probe cell ``(row, column)`` at query step ``step`` and return it.

        The probe is charged to the table's counter under step index
        ``step`` (0-based), realizing one sample of ``Y^(t)(x, j)``.
        """
        self._check(row, column)
        self.counter.record(step, row * self.s + column)
        if BUS.active:
            BUS.emit(ProbeEvent(step=step, probes=1))
        return int(self._cells[row, column])

    def read_batch(
        self, rows: np.ndarray | int, columns: np.ndarray, step: int
    ) -> np.ndarray:
        """Probe many cells at the same query step and return their values.

        ``rows`` broadcasts against ``columns`` (pass a scalar row to probe
        one row at many columns).  Entries with ``column < 0`` are *skipped*:
        no probe is charged and :data:`EMPTY_CELL` is returned in their
        place — this is how batched query algorithms express per-key steps
        that the scalar algorithm would not execute (e.g. a second cuckoo
        probe after a first-table hit).

        All executed probes are charged to the counter under step index
        ``step`` via one :meth:`ProbeCounter.record_batch` call — made even
        when every entry is skipped, so the step is still allocated.  The
        batch is one pass over its active entries: select them, check
        their bounds, compute their flat indices, charge them, gather
        them.  A scalar ``rows`` stays scalar throughout.
        """
        columns = np.asarray(columns, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        active = columns >= 0
        cols = columns[active]
        if cols.size:
            if rows.ndim:
                if rows.shape != columns.shape:
                    rows = np.broadcast_to(rows, columns.shape)
                rows = rows[active]
                bad = int(rows.min()) < 0 or int(rows.max()) >= self.rows
            else:
                rows = int(rows)
                bad = not 0 <= rows < self.rows
            if bad or int(cols.max()) >= self.s:
                raise TableError(
                    f"batch probe out of range for table "
                    f"({self.rows} rows x {self.s} cells)"
                )
            flat = rows * self.s + cols
        else:
            flat = cols
        self.counter.record_batch(step, flat)
        if BUS.active:
            BUS.emit(ProbeEvent(step=step, probes=int(cols.size)))
        if cols.size == columns.size:
            return self._cells.take(flat).reshape(columns.shape)
        out = np.full(columns.shape, EMPTY_CELL, dtype=np.uint64)
        out[active] = self._cells.take(flat)
        return out

    def read_round(
        self, rows: np.ndarray, columns: np.ndarray, step: int
    ) -> np.ndarray:
        """Probe one adaptive round: k rows, each at its own query step.

        ``rows`` has shape ``(k,)`` and ``columns`` shape ``(k, batch)``;
        row ``rows[i]`` is probed at ``columns[i]`` and charged under
        step ``step + i``.  The result equals k :meth:`read_batch` calls
        — same values, same skip rule (``column < 0`` charges nothing
        and reads :data:`EMPTY_CELL`), same per-step counts and probe
        events — but the round is one bounds check over its active
        entries, one flat index, one :meth:`ProbeCounter.record_round`
        and one ``take``.  A bad row or column among the active entries
        raises :class:`TableError` before anything is charged.
        """
        rows = np.asarray(rows, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        if rows.ndim != 1 or columns.ndim != 2 or len(columns) != len(rows):
            raise TableError(
                f"round needs rows (k,) and columns (k, batch), got "
                f"{rows.shape} and {columns.shape}"
            )
        row_list = rows.tolist()
        rows_ok = not row_list or (
            min(row_list) >= 0 and max(row_list) < self.rows
        )
        flat = columns + (rows * self.s)[:, None]
        # Read as unsigned words, every column is below s exactly when
        # none is skipped and none is out of range: one reduction
        # settles the common round.
        everything = (
            not columns.size or int(columns.view(np.uint64).max()) < self.s
        )
        if everything:
            if not rows_ok and columns.size:
                raise self._round_error()
        else:
            active = columns >= 0
            if int(columns.max()) >= self.s:
                raise self._round_error()
            if not rows_ok:
                live = active.any(axis=1).tolist()
                if any(
                    on and not 0 <= r < self.rows
                    for r, on in zip(row_list, live)
                ):
                    raise self._round_error()
            flat = np.where(active, flat, -1)
        self.counter.record_round(step, flat)
        if BUS.active:
            probes = (
                [columns.shape[1]] * len(row_list) if everything
                else np.count_nonzero(active, axis=1).tolist()
            )
            for i, count in enumerate(probes):
                BUS.emit(ProbeEvent(step=step + i, probes=count))
        if everything:
            return self._cells.take(flat)
        out = self._cells.take(flat, mode="clip")
        out[~active] = EMPTY_CELL
        return out

    def _round_error(self) -> TableError:
        return TableError(
            f"round probe out of range for table "
            f"({self.rows} rows x {self.s} cells)"
        )

    # -- misc ------------------------------------------------------------------

    def flat_index(self, row: int, column: int) -> int:
        """Flat cell index used by counters and the contention engine."""
        self._check(row, column)
        return row * self.s + column

    @property
    def num_cells(self) -> int:
        """Total number of cells (the paper's space in words)."""
        return self.rows * self.s

    def occupancy(self) -> float:
        """Fraction of cells not holding :data:`EMPTY_CELL`."""
        return float(np.count_nonzero(self._cells != EMPTY_CELL)) / self.num_cells

    def _check(self, row: int, column: int) -> None:
        if not (0 <= row < self.rows and 0 <= column < self.s):
            raise TableError(
                f"cell ({row}, {column}) out of range for table "
                f"({self.rows} rows x {self.s} cells)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table(rows={self.rows}, s={self.s}, occupancy={self.occupancy():.3f})"
