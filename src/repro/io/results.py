"""Experiment result records and JSON serialization.

Also home of the telemetry-snapshot round-trip helpers: a snapshot is a
versioned plain-JSON payload (``repro.telemetry.metrics.SNAPSHOT_VERSION``)
written by :func:`save_snapshot` and read back by :func:`load_snapshot`.
Readers are **forward compatible**: unknown top-level keys from a newer
writer are preserved verbatim, and only a version *newer than the reader
understands* is rejected (by ``MetricsRegistry.from_snapshot``, not
here — loading a raw payload never fails on content).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.io.tables import render_table


@dataclasses.dataclass
class ExperimentResult:
    """One experiment's regenerated table plus provenance.

    ``rows`` is the table body; ``claim`` quotes what the paper asserts;
    ``finding`` summarizes what the measurement showed (filled by the
    runner).  EXPERIMENTS.md is assembled from these.

    ``passed`` is the experiment's own acceptance check, decided by its
    runner from the rows it measured; ``repro run`` exits 1 when it is
    False.  ``None`` means no verdict was recorded: a result saved
    before experiments decided their gates loads that way.
    """

    experiment_id: str
    title: str
    claim: str
    rows: list[dict]
    finding: str = ""
    notes: str = ""
    passed: bool | None = None

    def render(self) -> str:
        """Human-readable block: header, claim, table, finding, notes."""
        header = f"[{self.experiment_id}] {self.title}\nClaim: {self.claim}"
        table = render_table(self.rows)
        tail = f"Finding: {self.finding}" if self.finding else ""
        notes = f"Notes: {self.notes}" if self.notes else ""
        return "\n".join(p for p in (header, table, tail, notes) if p)

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return dataclasses.asdict(self)


def save_results(results: list[ExperimentResult], path) -> None:
    """Write a list of results as pretty JSON."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps([r.as_dict() for r in results], indent=2, default=str)
    )


def save_snapshot(snapshot: dict, path) -> pathlib.Path:
    """Write one telemetry snapshot (a versioned JSON payload) to ``path``."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(snapshot, indent=2, default=str) + "\n")
    return path


def load_snapshot(path) -> dict:
    """Read a telemetry snapshot back as a plain dict.

    No schema enforcement happens here: unknown keys survive untouched
    so a snapshot written by a newer library version round-trips through
    an older reader.  Feed the result to
    ``MetricsRegistry.from_snapshot`` to materialize the metrics (which
    ignores keys it does not know and rejects only a payload whose
    declared version is newer than it supports).
    """
    return json.loads(pathlib.Path(path).read_text())
