"""Update-cost and write-contention accounting.

The static cell-probe model charges only query reads; a dynamic
structure also *writes* cells on every rebuild.  Analogously to
Definition 1, we define the **write contention** of a cell over an
operation sequence as (number of writes to that cell) / (number of
update operations) — the expected number of writes to the cell caused
by one update drawn uniformly from the sequence.  Rebuild-based
dynamization concentrates writes in time (a rebuild touches a whole
level) but spreads them across cells; the accounting here makes both
dimensions measurable (E14).

A rebuild writes each cell of the rebuilt level's table (at most) once,
so per-cell write counts within a level equal that level's rebuild
count; the accounting therefore tracks rebuild counts per level, which
keeps it O(1) per rebuild.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict


@dataclasses.dataclass(frozen=True)
class RebuildRecord:
    """One level rebuild: which level, how many entries and cell writes.

    ``probes`` counts verification reads charged to the level's
    *rebuild* counter (never the query counter) — 0 when rebuild
    verification is off.
    """

    operation_index: int
    level: int
    entries: int
    cells_written: int
    probes: int = 0


@dataclasses.dataclass
class UpdateCostAccount:
    """Aggregates rebuild work and write counts over an op sequence."""

    updates: int = 0
    queries: int = 0
    rebuilds: list = dataclasses.field(default_factory=list)
    # Full-table writes per level (each rebuild writes each cell once).
    _full_writes: dict = dataclasses.field(
        default_factory=lambda: defaultdict(int)
    )

    def record_update(self) -> None:
        """Count one insert/delete operation."""
        self.updates += 1

    def record_query(self, count: int = 1) -> None:
        """Count ``count`` membership queries."""
        self.queries += int(count)

    def record_rebuild(
        self, level: int, entries: int, cells_written: int, probes: int = 0
    ) -> None:
        """Record one level rebuild (writes every cell of the level once)."""
        self.rebuilds.append(
            RebuildRecord(
                operation_index=self.updates,
                level=level,
                entries=entries,
                cells_written=cells_written,
                probes=int(probes),
            )
        )
        self._full_writes[level] += 1

    # -- summaries ---------------------------------------------------------------

    @property
    def total_cells_written(self) -> int:
        return sum(r.cells_written for r in self.rebuilds)

    @property
    def rebuild_probes(self) -> int:
        """Total verification probes charged to rebuild counters."""
        return sum(r.probes for r in self.rebuilds)

    def amortized_write_cost(self) -> float:
        """Cells written per update — the classic amortized rebuild cost."""
        return self.total_cells_written / self.updates if self.updates else 0.0

    def max_write_contention(self) -> float:
        """max over cells of writes/updates — the write analogue of phi.

        A cell of level L is written once per rebuild of L.
        """
        if not self.updates:
            return 0.0
        return max(self._full_writes.values(), default=0) / self.updates

    def rebuild_count_by_level(self) -> dict[int, int]:
        """How many times each level was rebuilt."""
        return dict(self._full_writes)

    def row(self) -> dict:
        """Flat dict for experiment tables."""
        return {
            "updates": self.updates,
            "queries": self.queries,
            "rebuilds": len(self.rebuilds),
            "amortized_cells_written": round(self.amortized_write_cost(), 2),
            "max_write_contention": round(self.max_write_contention(), 4),
            "rebuild_probes": self.rebuild_probes,
        }
