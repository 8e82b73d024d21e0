"""Durable checkpoints for the dynamic serving stack.

The dynamic stack (PR 8/9) holds everything in memory: a process crash
loses the dictionary, and the replay log grows without bound.  This
package closes both gaps:

- :class:`~repro.persist.checkpoint.CheckpointStore` — generation-
  numbered, per-shard checkpoint files.  Each file is an atomically
  published (tmp + fsync + rename + dirsync) frame — magic, CRC32,
  SHA-256 — around a pickled snapshot: the shard's base state from its
  last log compaction (live key set, epoch, applied-update count, and
  the exact spawned-rng stream position of every replica) plus the
  retained log *suffix*, with the full service geometry embedded
  redundantly so any one surviving file can bootstrap recovery.
- :func:`~repro.persist.checkpoint.restore_dynamic_service` — paranoid
  recovery: per shard, walk generations newest-first, verify the frame
  (CRC/SHA), *quarantine* corrupt or torn files (rename to
  ``*.corrupt``, record a typed
  :class:`~repro.errors.CheckpointCorruptError` reason, never crash,
  never serve from them), fall back to older generations, and degrade
  to full-log replay when the best survivor predates compaction.
  Restore rebuilds replicas byte-identical (``table._cells``) to a
  never-crashed twin; optional post-restore canary verification
  charges its probes through :func:`repro.heal.charged_to` so
  query-counter digests are byte-identical with verification on or
  off.

Experiment E26 gates the whole path: SIGKILL mid-checkpoint at
adversarial instants, byte-identical recovery digests, zero wrong
answers post-restore, and a bounded retained log under sustained
writes.
"""

from repro.persist.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_MAGIC,
    CheckpointStore,
    restore_dynamic_service,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_MAGIC",
    "CheckpointStore",
    "restore_dynamic_service",
]
