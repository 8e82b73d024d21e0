"""Dynamic low-contention dictionaries (the paper's future work).

The paper closes with: "Another interesting and perhaps more realistic
future direction is to study the contention caused by the updates in
dynamic data structures."  This subpackage is our extension in that
direction:

- :class:`~repro.dynamic.dictionary.DynamicLowContentionDictionary` —
  a dynamization of the Section 2 scheme via the Bentley–Saxe
  logarithmic method: operations (inserts *and* deletes, as signed
  entries) accumulate in geometrically growing levels, each level a
  static low-contention dictionary keyed by the key whose data row
  holds the entry word ``2k + is_insert``; a query makes one lookup per
  level, newest first, until a level pins the key, so its per-step
  contention inherits each level's O(1/level_size) profile.
- :mod:`~repro.dynamic.accounting` — update-contention accounting: the
  static model charges only reads, but updates *write*; we count the
  cells written per rebuild and report per-cell write contention over
  an operation sequence (the quantity the paper proposes studying).
- :mod:`~repro.dynamic.epoch` — epoch-based reclamation: every applied
  update group advances an epoch; :class:`EpochPin` captures a
  (epoch, snapshot) cut, makes arbitrary multi-key reads linearizable
  at that cut, and holds retired levels alive until released (with no
  pins open, retirement reclaims eagerly).
- :mod:`~repro.dynamic.replicated` — state-machine replication:
  :class:`ReplicatedDynamicDictionary` runs R replicas in
  deterministic lockstep on spawned rng streams over one shared level
  list (same entries, one table per replica: independent cells),
  serves majority-vote reads, and rebuilds a crashed replica by log
  replay of its stream into byte-identical tables; all
  rebuild/verification probes are charged to separate rebuild
  counters via :func:`repro.heal.charged_to`.

Key measured trade-off (experiment E14): query contention is dominated
by the *smallest* non-empty level (O(1/B) for buffer capacity B), while
amortized update cost grows with the number of levels — the classic
static-to-dynamic tension, now visible in contention units. E24 serves
this stack live (``serve --dynamic``) and gates zero wrong answers
under churn + chaos, exact pinned reads, and rebuild-accounting
digest byte-identity.
"""

from repro.dynamic.accounting import RebuildRecord, UpdateCostAccount
from repro.dynamic.dictionary import DynamicLowContentionDictionary
from repro.dynamic.epoch import EpochManager, EpochPin
from repro.dynamic.levels import Level, LevelStructure, Stream
from repro.dynamic.replicated import (
    DynamicFaultStats,
    ReplicatedDynamicDictionary,
)

__all__ = [
    "DynamicLowContentionDictionary",
    "LevelStructure",
    "Level",
    "Stream",
    "UpdateCostAccount",
    "RebuildRecord",
    "EpochManager",
    "EpochPin",
    "ReplicatedDynamicDictionary",
    "DynamicFaultStats",
]
