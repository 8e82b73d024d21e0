"""Generation-numbered checkpoint files + corruption-tolerant recovery.

File layout: one file per shard per generation, named
``shard{S}-gen{G:08d}.ckpt``, each a :func:`repro.io.integrity.frame`
(magic + CRC32 + SHA-256) around a pickled metadata dict carrying the
shard's :meth:`~repro.dynamic.replicated.ReplicatedDynamicDictionary.
snapshot_payload` and the full service geometry.  Files are published
with :func:`repro.io.integrity.atomic_write_bytes`, so a reader only
ever observes a complete old generation or a complete new one — a
SIGKILL mid-write leaves at worst a dangling ``*.tmp.<pid>`` sibling
(ignored by recovery) while every previously published generation
stays valid.

Recovery is a fallback chain, per shard::

    newest generation
      └─ frame verify (magic → CRC32 → SHA-256) ──fail──▶ quarantine
      └─ unpickle + format/structure check      ──fail──▶ (*.corrupt)
      └─ restore base + replay retained suffix        │
           └─ base present  → source "checkpoint"     ▼
           └─ base missing  → source "log"      older generation …
                                                 └─ none left →
                                                    source "empty"

A quarantined file is renamed aside (never deleted, never served
from); the chain *never raises* for per-file damage — only
:func:`CheckpointStore.inspect` of one named file surfaces the typed
:class:`~repro.errors.CheckpointCorruptError` directly.
"""

from __future__ import annotations

import os
import pickle
import re

from repro.dynamic.replicated import ReplicatedDynamicDictionary
from repro.errors import CheckpointCorruptError, CheckpointError
from repro.io.integrity import atomic_write_bytes, check_frame, frame
from repro.telemetry.events import BUS, CheckpointEvent, RecoveryEvent

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_MAGIC",
    "CheckpointStore",
    "restore_dynamic_service",
]

#: Checkpoint format version.  Format 2 stores each dynamic level keyed
#: by the key, with the entry word ``2k + is_insert`` in its data row;
#: format 1 keyed it by the entry code, a layout the reads no longer
#: walk, so a format-1 file takes the fallback chain like a damaged one.
CHECKPOINT_FORMAT = 2

#: Frame magic; the trailing number is the checkpoint format version.
CHECKPOINT_MAGIC = b"REPROCKPT:%d\n" % CHECKPOINT_FORMAT

#: Shard checkpoint file name: ``shard{S}-gen{G:08d}.ckpt``.
_FILE_RE = re.compile(r"^shard(\d+)-gen(\d{8})\.ckpt$")

#: Exceptions a hostile pickle payload can raise on load — anything
#: else is a programming error and should propagate.
_UNPICKLE_FAILURES = (
    pickle.UnpicklingError, EOFError, AttributeError,
    ImportError, IndexError, KeyError, TypeError, ValueError,
)


def _checkpoint_name(shard: int, generation: int) -> str:
    return f"shard{int(shard)}-gen{int(generation):08d}.ckpt"


class CheckpointStore:
    """A directory of generation-numbered per-shard checkpoint files."""

    def __init__(self, directory, keep: int = 3):
        self.directory = os.fspath(directory)
        if int(keep) < 1:
            raise CheckpointError("checkpoint store must keep >= 1 generation")
        self.keep = int(keep)
        #: ``(path, reason)`` pairs quarantined by this store instance.
        self.quarantined: list[tuple[str, str]] = []
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint directory {self.directory} is unusable: {exc}"
            ) from exc
        if not os.path.isdir(self.directory):
            raise CheckpointError(
                f"checkpoint path {self.directory} is not a directory"
            )

    # -- listing -----------------------------------------------------------------

    def generations(self, shard: int | None = None) -> list[tuple[int, int, str]]:
        """All checkpoint files as ``(shard, generation, path)``, sorted.

        Ordered by shard then ascending generation; quarantined
        (``*.corrupt``) files and dangling tmp files are excluded.
        """
        out = []
        for name in os.listdir(self.directory):
            m = _FILE_RE.match(name)
            if m is None:
                continue
            s, g = int(m.group(1)), int(m.group(2))
            if shard is not None and s != int(shard):
                continue
            out.append((s, g, os.path.join(self.directory, name)))
        return sorted(out)

    def latest_generation(self) -> int:
        """The newest generation number present (0 when empty)."""
        gens = self.generations()
        return max((g for _, g, _ in gens), default=0)

    # -- saving ------------------------------------------------------------------

    def save(self, service, now: float = 0.0, compacted: int = 0) -> int:
        """Write one new generation: one atomic file per shard.

        Each file embeds the *whole* service geometry (boundaries,
        every shard's constructor config, the service build config) so
        recovery can bootstrap from any single survivor.  Returns the
        new generation number and prunes generations beyond ``keep``.
        """
        generation = self.latest_generation() + 1
        shard_configs = [s._config() for s in service.shards]
        for i, shard in enumerate(service.shards):
            snapshot = shard.snapshot_payload()
            meta = {
                "format": CHECKPOINT_FORMAT,
                "shard": i,
                "generation": generation,
                "saved_at": float(now),
                "num_shards": service.num_shards,
                "boundaries": [int(b) for b in service._boundaries],
                "universe_size": service.universe_size,
                "shard_configs": shard_configs,
                "service": dict(getattr(service, "build_config", {}) or {}),
                "snapshot": snapshot,
            }
            blob = frame(
                pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
                CHECKPOINT_MAGIC,
            )
            path = os.path.join(
                self.directory, _checkpoint_name(i, generation)
            )
            atomic_write_bytes(path, blob)
            if BUS.active:
                BUS.emit(CheckpointEvent(
                    shard=i,
                    generation=generation,
                    epoch=int(snapshot["epoch"]),
                    entries=sum(len(g) for g in snapshot["suffix"]),
                    live_keys=len(snapshot["live_keys"]),
                    nbytes=len(blob),
                    compacted=int(compacted),
                ))
        self.prune()
        return generation

    def prune(self) -> int:
        """Drop generations older than the newest ``keep``; returns removed."""
        removed = 0
        by_shard: dict[int, list[tuple[int, str]]] = {}
        for s, g, path in self.generations():
            by_shard.setdefault(s, []).append((g, path))
        for entries in by_shard.values():
            for _, path in sorted(entries)[:-self.keep]:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- reading (paranoid) ------------------------------------------------------

    def _read_meta(self, path: str) -> dict:
        """Read + fully verify one checkpoint file, or raise the typed error."""
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError as exc:
            raise CheckpointCorruptError(path, f"unreadable ({exc})") from exc
        payload, reason = check_frame(blob, CHECKPOINT_MAGIC)
        if payload is None:
            raise CheckpointCorruptError(path, reason)
        try:
            meta = pickle.loads(payload)
        except _UNPICKLE_FAILURES as exc:
            raise CheckpointCorruptError(
                path, f"unpicklable payload ({type(exc).__name__})"
            ) from exc
        if not isinstance(meta, dict) or "snapshot" not in meta:
            raise CheckpointCorruptError(path, "payload is not a checkpoint")
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointCorruptError(
                path,
                f"checkpoint format {meta.get('format')!r} != "
                f"{CHECKPOINT_FORMAT}",
            )
        return meta

    def inspect(self, path) -> dict:
        """Verify one named file; return its summary (raises when corrupt).

        The one entry point that *propagates*
        :class:`~repro.errors.CheckpointCorruptError` — inspection of a
        specific file should report damage loudly, while the recovery
        chain degrades silently.
        """
        meta = self._read_meta(os.fspath(path))
        snap = meta["snapshot"]
        return {
            "path": os.fspath(path),
            "shard": int(meta["shard"]),
            "generation": int(meta["generation"]),
            "epoch": int(snap["epoch"]),
            "update_count": int(snap["update_count"]),
            "live_keys": len(snap["live_keys"]),
            "suffix_entries": sum(len(g) for g in snap["suffix"]),
            "has_base": snap["base"] is not None,
            "compactions": int(snap.get("compactions", 0)),
            "num_shards": int(meta["num_shards"]),
            "universe_size": int(meta["universe_size"]),
            "saved_at": float(meta.get("saved_at", 0.0)),
        }

    def _quarantine(self, path: str, reason: str) -> None:
        """Rename a damaged file aside; never delete, never re-serve."""
        target = f"{path}.corrupt"
        try:
            os.replace(path, target)
        except OSError:
            pass
        self.quarantined.append((path, reason))

    def load_shard(self, shard: int) -> tuple[dict | None, int]:
        """The newest verifiable metadata for ``shard``, walking the chain.

        Tries generations newest-first; every file that fails
        verification is quarantined and the walk continues.  Returns
        ``(meta, quarantined_count)`` with ``meta=None`` when no
        generation survives.
        """
        quarantined = 0
        for _, generation, path in sorted(
            self.generations(shard), reverse=True
        ):
            try:
                meta = self._read_meta(path)
            except CheckpointCorruptError as exc:
                self._quarantine(path, exc.reason)
                quarantined += 1
                continue
            if int(meta["shard"]) != int(shard):
                self._quarantine(path, "shard index mismatch")
                quarantined += 1
                continue
            return meta, quarantined
        return None, quarantined


def restore_dynamic_service(
    directory,
    armed: bool | None = None,
    verify: bool = True,
    keep: int = 3,
    **service_overrides,
):
    """Rebuild a :class:`~repro.serve.dynamic_service.DynamicShardedService`
    from its checkpoint directory; returns ``(service, report)``.

    Walks every shard's fallback chain (see module docstring).  A shard
    with no surviving generation restarts empty (``source: "empty"``)
    using the constructor config embedded in a sibling shard's file —
    recovery degrades per shard, it never fails wholesale unless *no*
    file in the directory verifies, which raises
    :class:`~repro.errors.CheckpointError`.

    With ``verify=True`` every restored shard canary-reads its live key
    set through :meth:`~repro.dynamic.replicated.
    ReplicatedDynamicDictionary.verify_state`; the probes are charged
    to recovery counters (:func:`repro.heal.charged_to`), so
    query-counter digests are byte-identical either way.
    ``service_overrides`` override service constructor keywords (e.g.
    a different ``capacity``); ``armed`` overrides the chaos-hook
    arming recorded in the snapshot.
    """
    from repro.serve.dynamic_service import DynamicShardedService

    store = CheckpointStore(directory, keep=keep)
    shard_ids = sorted({s for s, _, _ in store.generations()})
    metas: dict[int, dict] = {}
    quarantined: dict[int, int] = {}
    for s in shard_ids:
        meta, q = store.load_shard(s)
        quarantined[s] = q
        if meta is not None:
            metas[s] = meta
    if not metas:
        raise CheckpointError(
            f"no usable checkpoint generation in {store.directory} "
            f"({sum(quarantined.values())} file(s) quarantined)"
        )
    # Any one verified file carries the full geometry.
    anchor = next(iter(metas.values()))
    num_shards = int(anchor["num_shards"])
    boundaries = [int(b) for b in anchor["boundaries"]]
    shard_configs = anchor["shard_configs"]
    shards = []
    shard_reports = []
    for i in range(num_shards):
        meta = metas.get(i)
        if meta is not None:
            dictionary, rep = ReplicatedDynamicDictionary.from_snapshot(
                meta["snapshot"], armed=armed
            )
            generation = int(meta["generation"])
            source, replayed = rep["source"], int(rep["replayed"])
        else:
            cfg = dict(shard_configs[i])
            if armed is not None:
                cfg["armed"] = bool(armed)
            dictionary = ReplicatedDynamicDictionary(**cfg)
            generation, source, replayed = 0, "empty", 0
        if verify and source != "empty":
            dictionary.verify_state(seed=i)
        shards.append(dictionary)
        q = quarantined.get(i, 0)
        shard_reports.append({
            "shard": i,
            "generation": generation,
            "source": source,
            "replayed": replayed,
            "quarantined": q,
        })
        if BUS.active:
            BUS.emit(RecoveryEvent(
                shard=i, generation=generation, source=source,
                replayed=replayed, quarantined=q,
            ))
    service_config = dict(anchor.get("service", {}) or {})
    service_config.update(service_overrides)
    service = DynamicShardedService(shards, boundaries, **service_config)
    report = {
        "shards": shard_reports,
        "replayed": sum(r["replayed"] for r in shard_reports),
        "quarantined": sum(quarantined.values()),
        "recovery_probes": sum(int(s.recovery_probes) for s in shards),
        "quarantine_log": list(store.quarantined),
    }
    return service, report
