"""Injectable fault model for the cell-probe substrate.

The paper's model (Definition 1, Theorem 3) assumes perfectly reliable
cells and replicas; a production system must survive neither being true.
This module makes unreliability *injectable, seeded, and accounted*:

- :class:`FaultConfig` — a declarative, hashable description of the
  faults to inject: **stuck-at cells** (a fraction of cells permanently
  return a corrupt word), **transient bit flips** (each read is
  independently corrupted with some probability), and **crashed
  replicas** (whole replicas of a
  :class:`~repro.dictionaries.replicated.ReplicatedDictionary` become
  unavailable).
- :class:`FaultInjector` — the materialization of a config against one
  table geometry: it decides *which* cells are stuck and *which*
  replicas are crashed up front (from the config seed), and owns a
  private RNG stream for transient flips so the query algorithm's
  randomness — and therefore its probe sequence and the exact
  contention bookkeeping — is untouched by fault injection.
- :class:`FaultyTable` — a :class:`~repro.cellprobe.table.Table` facade
  that corrupts values on the way *out* of ``read``/``read_batch``/``read_round``.
  Every probe is still charged to the real counter at the real cell:
  faults change what a query *sees*, never what it *cost*.
- :class:`FaultStats` — mutable counters for the fault-tolerant query
  paths (retries, exponential-backoff cost in probe-equivalents,
  crashes hit, exhaustion events).

With ``FaultConfig()`` (all rates zero) nothing is wrapped anywhere and
every code path is byte-identical to the fault-free library — the
zero-overhead default is property-tested in ``tests/test_faults.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cellprobe.table import CELL_BITS
from repro.telemetry.events import BUS, FaultEvent
from repro.utils.validation import check_probability

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FaultyTable",
    "flip_file_bit",
    "torn_write",
    "truncate_file",
]


# -- checkpoint-file corruption (durability chaos) --------------------------------
#
# The in-memory fault model above damages what queries *see*; these
# helpers damage what recovery *reads*.  They reproduce the three
# physical failure modes a crash can leave behind in a checkpoint file —
# a torn (partially persisted) write, a truncation, and silent bit rot —
# so tests and the adversary can drive the quarantine/fallback chain in
# ``repro.persist`` deterministically.  All three are seeded and operate
# in place on an existing file.


def torn_write(path, fraction: float = 0.5, seed: int = 0) -> int:
    """Simulate a torn write: keep a prefix, garbage the rest.

    A crash mid-``write()`` persists a prefix of the new contents and
    leaves the tail undefined.  This keeps the first
    ``round(fraction * size)`` bytes and overwrites the remainder with
    seeded random bytes, returning the number of bytes damaged.  The
    framed checkpoint format detects this via its CRC32 word.
    """
    check_probability("fraction", fraction)
    with open(path, "rb") as fh:
        blob = fh.read()
    keep = int(round(float(fraction) * len(blob)))
    damaged = len(blob) - keep
    if damaged <= 0:
        return 0
    rng = np.random.default_rng(int(seed))
    tail = rng.integers(0, 256, size=damaged, dtype=np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(blob[:keep] + tail)
    return damaged


def truncate_file(path, keep: int) -> int:
    """Truncate a file to its first ``keep`` bytes; returns bytes lost.

    Models a crash between ``write()`` and ``fsync()`` on a filesystem
    that persisted only part of the data blocks.  ``keep`` may exceed
    the file size (then nothing happens).
    """
    keep = int(keep)
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    with open(path, "rb") as fh:
        blob = fh.read()
    lost = len(blob) - keep
    if lost <= 0:
        return 0
    with open(path, "wb") as fh:
        fh.write(blob[:keep])
    return lost


def flip_file_bit(path, seed: int = 0, count: int = 1) -> int:
    """Flip ``count`` seeded random bits in a file (silent bit rot).

    Models media decay: the file keeps its length and structure but
    ``count`` bits anywhere in it (header, digest, or payload) are
    inverted.  Returns the number of bits flipped (0 for an empty
    file).  The framed format's SHA-256 catches payload rot; rot inside
    the header degrades to a magic/CRC mismatch.
    """
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    if not blob or count == 0:
        return 0
    rng = np.random.default_rng(int(seed))
    flipped = 0
    for _ in range(count):
        pos = int(rng.integers(0, len(blob)))
        bit = int(rng.integers(0, 8))
        blob[pos] ^= 1 << bit
        flipped += 1
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    return flipped


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Declarative fault-injection configuration (hashable, seedable).

    Parameters
    ----------
    stuck_rate:
        Fraction of cells that are *stuck-at* a fixed corrupt word: every
        read of such a cell returns the same garbage value, forever.
    flip_rate:
        Per-read probability of a transient single-bit flip in the value
        returned (the cell itself is undamaged).
    crash_rate:
        Per-replica probability of being crashed (sampled once from the
        config seed).  Only meaningful when the injector is built for a
        replicated structure.
    crashed_replicas:
        Explicitly crashed replica indices (in addition to any sampled).
    faulty_replicas:
        If not ``None``, restrict stuck cells, transient flips, *and*
        ``crash_rate`` sampling to these replicas — the "f faulty
        replicas out of R" regime the majority-vote guarantee is stated
        in.  Explicit ``crashed_replicas`` are always honored.
    faulty_rows:
        If not ``None``, restrict stuck cells and transient flips to
        these *inner-structure* row indices (the pattern repeats in
        every replica of a replicated structure).  Composes with
        ``faulty_replicas`` by intersection.  Row-scoped faults are how
        the batch/scalar probe-accounting equivalence is property-tested
        under corruption: flips confined to rows that never steer the
        probe sequence (e.g. the data row) leave the number of probes
        per step a deterministic function of the instance.
    seed:
        Seeds both the up-front fault placement and the transient-flip
        stream; identical configs inject identical faults.
    armed:
        Materialize the fault layer even when every rate is zero and no
        replica is crashed up front.  This is how chaos schedules work:
        the run *starts* healthy but the injector must exist so crashes
        and stuck cells can be injected dynamically mid-run.
    """

    stuck_rate: float = 0.0
    flip_rate: float = 0.0
    crash_rate: float = 0.0
    crashed_replicas: tuple[int, ...] = ()
    faulty_replicas: tuple[int, ...] | None = None
    faulty_rows: tuple[int, ...] | None = None
    seed: int = 0
    armed: bool = False

    def __post_init__(self):
        check_probability("stuck_rate", self.stuck_rate)
        check_probability("flip_rate", self.flip_rate)
        check_probability("crash_rate", self.crash_rate)
        object.__setattr__(
            self, "crashed_replicas",
            tuple(int(r) for r in self.crashed_replicas),
        )
        if self.faulty_replicas is not None:
            object.__setattr__(
                self, "faulty_replicas",
                tuple(int(r) for r in self.faulty_replicas),
            )
        if self.faulty_rows is not None:
            object.__setattr__(
                self, "faulty_rows",
                tuple(int(r) for r in self.faulty_rows),
            )

    @property
    def enabled(self) -> bool:
        """Whether this config materializes a fault layer at all."""
        return bool(
            self.stuck_rate > 0.0
            or self.flip_rate > 0.0
            or self.crash_rate > 0.0
            or self.crashed_replicas
            or self.armed
        )


@dataclasses.dataclass
class FaultStats:
    """Counters maintained by fault-aware query paths."""

    reads: int = 0
    corrupted_reads: int = 0
    crash_hits: int = 0
    retries: int = 0
    backoff_probes: int = 0
    exhausted: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def row(self) -> dict:
        """Flat dict for experiment tables."""
        return dataclasses.asdict(self)


class FaultInjector:
    """A :class:`FaultConfig` materialized against one table geometry.

    The placement of stuck cells and the crashed-replica set are decided
    here, once, from ``config.seed``; transient flips draw from a private
    generator so injection never perturbs query randomness.
    """

    def __init__(
        self, config: FaultConfig, rows: int, s: int, replicas: int = 1
    ):
        self.config = config
        self.rows = int(rows)
        self.s = int(s)
        self.replicas = int(replicas)
        if self.rows % self.replicas:
            raise ValueError(
                f"{self.rows} rows do not split into {self.replicas} replicas"
            )
        self._inner_rows = self.rows // self.replicas
        placement = np.random.default_rng(config.seed)
        #: Private stream for transient flips (query RNG stays untouched).
        self._flip_rng = np.random.default_rng(
            np.random.SeedSequence(config.seed).spawn(1)[0]
        )

        crashed = {
            r for r in config.crashed_replicas if 0 <= r < self.replicas
        }
        crashable = (
            range(self.replicas)
            if config.faulty_replicas is None
            else [r for r in config.faulty_replicas if 0 <= r < self.replicas]
        )
        if config.crash_rate > 0.0:
            draws = placement.random(len(list(crashable)))
            for r, u in zip(crashable, draws):
                if u < config.crash_rate:
                    crashed.add(r)
        self.crashed: frozenset[int] = frozenset(crashed)

        eligible = self._eligible_flat_cells()
        k = int(round(config.stuck_rate * eligible.size))
        if k > 0:
            chosen = placement.choice(eligible, size=k, replace=False)
            self._stuck_cells = np.sort(chosen.astype(np.int64))
            self._stuck_values = placement.integers(
                0, 1 << CELL_BITS, size=k, dtype=np.uint64
            )[np.argsort(chosen, kind="stable")]
        else:
            self._stuck_cells = np.empty(0, dtype=np.int64)
            self._stuck_values = np.empty(0, dtype=np.uint64)
        self._flip_rows = self._eligible_row_mask()

    # -- fault placement ---------------------------------------------------------

    def _eligible_rows(self) -> np.ndarray:
        replicas = (
            range(self.replicas)
            if self.config.faulty_replicas is None
            else [
                r for r in self.config.faulty_replicas
                if 0 <= r < self.replicas
            ]
        )
        inner = (
            range(self._inner_rows)
            if self.config.faulty_rows is None
            else [
                i for i in self.config.faulty_rows
                if 0 <= i < self._inner_rows
            ]
        )
        rows = [
            r * self._inner_rows + i for r in replicas for i in inner
        ]
        return np.asarray(rows, dtype=np.int64)

    def _eligible_flat_cells(self) -> np.ndarray:
        rows = self._eligible_rows()
        return (
            rows[:, None] * self.s + np.arange(self.s, dtype=np.int64)
        ).ravel()

    def _eligible_row_mask(self) -> np.ndarray:
        mask = np.zeros(self.rows, dtype=bool)
        mask[self._eligible_rows()] = True
        return mask

    # -- queries against the fault state ------------------------------------------

    def available(self, replica: int) -> bool:
        """Whether ``replica`` is up (not crashed)."""
        return int(replica) not in self.crashed

    @property
    def num_stuck(self) -> int:
        """Number of stuck-at cells injected."""
        return int(self._stuck_cells.size)

    def is_stuck(self, flat_cell: int) -> bool:
        """Whether ``flat_cell`` is stuck-at a corrupt value."""
        i = int(np.searchsorted(self._stuck_cells, flat_cell))
        return (
            i < self._stuck_cells.size
            and int(self._stuck_cells[i]) == int(flat_cell)
        )

    # -- dynamic fault injection (chaos schedules) --------------------------------

    def crash(self, replica: int) -> None:
        """Crash ``replica`` now (chaos event); idempotent."""
        r = int(replica)
        if not 0 <= r < self.replicas:
            raise ValueError(f"replica {r} out of range [0, {self.replicas})")
        self.crashed = frozenset(self.crashed | {r})

    def revive(self, replica: int) -> None:
        """Bring ``replica`` back (after a rebuild); idempotent."""
        self.crashed = frozenset(self.crashed - {int(replica)})

    def stick(self, flat_cells: np.ndarray, values: np.ndarray) -> None:
        """Make ``flat_cells`` stuck-at ``values`` from now on (chaos event).

        New cells merge into the sorted stuck set; a cell already stuck
        keeps its original value (first damage wins).
        """
        flat_cells = np.asarray(flat_cells, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint64)
        if flat_cells.shape != values.shape:
            raise ValueError("flat_cells and values must have the same shape")
        if flat_cells.size == 0:
            return
        if flat_cells.min() < 0 or flat_cells.max() >= self.rows * self.s:
            raise ValueError("stuck cell index out of range")
        cells = np.concatenate([self._stuck_cells, flat_cells])
        vals = np.concatenate([self._stuck_values, values])
        order = np.argsort(cells, kind="stable")
        cells, vals = cells[order], vals[order]
        keep = np.ones(cells.size, dtype=bool)
        keep[1:] = cells[1:] != cells[:-1]
        self._stuck_cells = cells[keep]
        self._stuck_values = vals[keep]

    # -- corruption --------------------------------------------------------------

    def corrupt(self, row: int, column: int, value: int) -> int:
        """The value a read of ``(row, column)`` observes under faults."""
        flat = row * self.s + column
        i = int(np.searchsorted(self._stuck_cells, flat))
        if i < self._stuck_cells.size and int(self._stuck_cells[i]) == flat:
            return int(self._stuck_values[i])
        if (
            self.config.flip_rate > 0.0
            and self._flip_rows[row]
            and self._flip_rng.random() < self.config.flip_rate
        ):
            bit = int(self._flip_rng.integers(0, CELL_BITS))
            return int(value) ^ (1 << bit)
        return int(value)

    def corrupt_batch(
        self, rows: np.ndarray, columns: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`corrupt` (entries with ``column < 0`` skipped)."""
        values = np.array(values, dtype=np.uint64, copy=True)
        active = columns >= 0
        flat = np.where(active, rows * self.s + columns, -1)
        if self._stuck_cells.size:
            idx = np.searchsorted(self._stuck_cells, flat)
            idx_c = np.minimum(idx, self._stuck_cells.size - 1)
            stuck = active & (self._stuck_cells[idx_c] == flat)
            values[stuck] = self._stuck_values[idx_c[stuck]]
        else:
            stuck = np.zeros(values.shape, dtype=bool)
        if self.config.flip_rate > 0.0:
            flippable = active & ~stuck & self._flip_rows[np.where(active, rows, 0)]
            n = int(flippable.sum())
            if n:
                hit = self._flip_rng.random(n) < self.config.flip_rate
                bits = self._flip_rng.integers(0, CELL_BITS, size=n)
                masks = np.zeros(n, dtype=np.uint64)
                masks[hit] = np.uint64(1) << bits[hit].astype(np.uint64)
                values[flippable] ^= masks
        return values


class FaultyTable:
    """A table facade that injects faults on reads.

    Wraps a :class:`~repro.cellprobe.table.Table` (or anything
    table-shaped, e.g. a replica view): probes are delegated — and
    therefore charged to the real counter at the real cell — and the
    returned values are then passed through the injector.  ``row_offset``
    places a view inside a larger fault domain (replica views share one
    injector spanning all replicas).
    """

    def __init__(self, inner, injector: FaultInjector, row_offset: int = 0):
        self._inner = inner
        self._injector = injector
        self._offset = int(row_offset)
        self.rows = inner.rows
        self.s = inner.s
        self.counter = inner.counter

    # -- charged reads (corrupted) -------------------------------------------------

    def read(self, row: int, column: int, step: int) -> int:
        """Charged read of one cell, corrupted on the way out."""
        value = self._inner.read(row, column, step)
        corrupted = self._injector.corrupt(self._offset + row, column, value)
        if BUS.active and corrupted != value:
            BUS.emit(FaultEvent(kind="read", count=1))
        return corrupted

    def read_batch(self, rows, columns, step: int) -> np.ndarray:
        """Charged vectorized read; entries with ``column < 0`` skipped."""
        columns = np.asarray(columns, dtype=np.int64)
        rows_arr = np.broadcast_to(np.asarray(rows, dtype=np.int64), columns.shape)
        values = self._inner.read_batch(rows_arr, columns, step)
        corrupted = self._injector.corrupt_batch(
            rows_arr + self._offset, columns, values
        )
        if BUS.active:
            changed = int(np.count_nonzero(corrupted != values))
            if changed:
                BUS.emit(FaultEvent(kind="read_batch", count=changed))
        return corrupted

    def read_round(self, rows, columns, step: int) -> np.ndarray:
        """Charged round of reads, corrupted row by row.

        One :meth:`read_batch` per row, in row order, so the injector's
        flip stream — and so every corrupted value — is exactly that of
        k separate per-row reads.
        """
        columns = np.asarray(columns, dtype=np.int64)
        return np.stack([
            self.read_batch(row, cols, step + i)
            for i, (row, cols) in enumerate(zip(np.asarray(rows), columns))
        ])

    # -- free accesses (construction/analysis) --------------------------------------

    def write(self, row: int, column: int, value: int) -> None:
        """Uncharged write, delegated to the wrapped table."""
        self._inner.write(row, column, value)

    def write_row(self, row: int, values: np.ndarray) -> None:
        """Uncharged whole-row write, delegated to the wrapped table."""
        self._inner.write_row(row, values)

    def peek(self, row: int, column: int) -> int:
        """Uncharged read showing stuck-at damage but no transient flips.

        Stuck-at damage is physical, so peek shows it; transient flips
        are read noise, so peek does not roll the flip dice.
        """
        value = self._inner.peek(row, column)
        flat = (self._offset + row) * self.s + column
        if self._injector.is_stuck(flat):
            i = int(np.searchsorted(self._injector._stuck_cells, flat))
            return int(self._injector._stuck_values[i])
        return value

    def peek_row(self, row: int) -> np.ndarray:
        """Uncharged whole-row read showing stuck-at damage (no flips).

        This is what the scrubber and rebuilder vote over: persistent
        damage is visible, transient read noise is not re-rolled, and no
        probe lands on the query-path counter.
        """
        values = np.array(self._inner.peek_row(row), dtype=np.uint64, copy=True)
        inj = self._injector
        if inj._stuck_cells.size:
            flats = (self._offset + row) * self.s + np.arange(
                self.s, dtype=np.int64
            )
            idx = np.searchsorted(inj._stuck_cells, flats)
            idx_c = np.minimum(idx, inj._stuck_cells.size - 1)
            stuck = inj._stuck_cells[idx_c] == flats
            values[stuck] = inj._stuck_values[idx_c[stuck]]
        return values

    def flat_index(self, row: int, column: int) -> int:
        """Flat cell index, delegated to the wrapped table."""
        return self._inner.flat_index(row, column)

    @property
    def num_cells(self) -> int:
        """Total cell count of the wrapped table."""
        return self._inner.num_cells

    def occupancy(self) -> float:
        """Occupancy of the wrapped table (faults don't change storage)."""
        return self._inner.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultyTable({self._inner!r}, stuck={self._injector.num_stuck}, "
            f"crashed={sorted(self._injector.crashed)})"
        )
