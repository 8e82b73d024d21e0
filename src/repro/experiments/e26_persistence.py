"""E26 — durable checkpoints: crash-restartable, corruption-tolerant.

The dynamic stack (E24/E25) holds all state in memory and keeps every
applied update in an unbounded replay log.  PR 10 adds
:mod:`repro.persist` — generation-numbered, CRC/SHA-framed, atomically
published checkpoints plus log compaction — and this experiment gates
the whole durability story:

- **Part A (SIGKILL mid-checkpoint)** — a child process serves the
  mutable stack, writes generation 1, applies more updates, and is
  SIGKILLed at adversarial instants *inside* the generation-2 save
  (a torn write published at the final name; a kill between shard
  files, leaving a mixed-generation directory).  Per seed and instant:
  the previous generation must stay frame-valid, recovery must walk
  the fallback chain without crashing, replay length must stay within
  the compaction bound, post-restore answers over the whole universe
  must match the reference set frozen at each shard's restored
  generation (zero wrong answers), and every restored replica's table
  cells must be **byte-identical** to a never-crashed twin restored
  from the same generation.
- **Part B (corruption quarantine)** — all three physical damage
  modes (torn write, truncation, bit rot) against the newest
  generation: recovery quarantines the damaged file (``*.corrupt``,
  typed reason) and falls back to the older generation; with *every*
  generation damaged, restore refuses with a typed
  :class:`~repro.errors.CheckpointError` rather than fabricating
  state, and ``inspect`` surfaces the typed corruption reason.
- **Part C (bounded log)** — under sustained writes,
  ``update_log_entries()`` with a retention policy stays bounded by
  the policy (the old stack grows linearly); lifetime totals remain
  visible; compaction leaves rebuilt replicas byte-identical.
- **Part D (verify identity)** — restoring with post-restore canary
  verification on vs off leaves every per-replica query-counter
  digest byte-identical (verification probes are charged to recovery
  counters via ``repro.heal.charged_to``), while the verify pass
  itself does nonzero probe work.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

from repro.dynamic.replicated import ReplicatedDynamicDictionary
from repro.errors import CheckpointCorruptError, CheckpointError
from repro.faults import flip_file_bit, torn_write, truncate_file
from repro.io.results import ExperimentResult
from repro.persist import CheckpointStore, restore_dynamic_service
from repro.serve.dynamic_service import build_dynamic_service

CLAIM = (
    "The dynamic serving stack is crash-restartable: SIGKILL at "
    "adversarial instants mid-checkpoint never invalidates the "
    "previous generation, recovery walks a quarantine/fallback chain "
    "(torn writes, truncation, bit rot) with zero wrong answers and "
    "bounded replay, restored replicas are byte-identical to a "
    "never-crashed twin, log compaction bounds update_log_entries "
    "under sustained writes where the old stack grows linearly, and "
    "restore verification on/off leaves query-counter digests "
    "byte-identical."
)

#: Workload geometry shared by the child process and the in-process twin.
UNIVERSE = 2048
NUM_SHARDS = 2
REPLICAS = 2
LOG_RETENTION = 48
UPDATES_PER_PHASE = 80

#: Replay-length gate: the retained suffix at save time is bounded by
#: the retention trigger plus at most one flushed group.
REPLAY_BOUND = LOG_RETENTION + 16

#: Part A adversarial instants (see ``_CHILD_SCRIPT``).
KILL_MODES = ("torn-first", "between-shards")

SEEDS = (0, 1, 2)

#: The crash child: identical workload to :func:`_run_workload`, with
#: the generation-2 save rigged to die at the requested instant.  The
#: kill is a real ``SIGKILL`` — no cleanup, no atexit, no flushing —
#: delivered from *inside* the checkpoint write path.
_CHILD_SCRIPT = r"""
import os, signal, sys
import numpy as np

seed, directory, kill_at = int(sys.argv[1]), sys.argv[2], sys.argv[3]

import repro.persist.checkpoint as ckpt_mod
from repro.persist import CheckpointStore
from repro.serve.dynamic_service import build_dynamic_service

UNIVERSE, LOG_RETENTION, PER_PHASE = {universe}, {retention}, {per_phase}

svc = build_dynamic_service(
    UNIVERSE, num_shards={num_shards}, replicas={replicas},
    log_retention=LOG_RETENTION, seed=seed,
)
store = CheckpointStore(directory)
svc.attach_checkpoints(store)
rng = np.random.default_rng(seed + 1)
now = 0.0
for _ in range(PER_PHASE):
    k = int(rng.integers(0, UNIVERSE))
    svc.submit_update(k, bool(rng.random() >= 0.3), now)
    now += 1.0
    svc.advance(now)
svc.drain(now)
svc.checkpoint(now + 1.0)  # generation 1: complete and durable
for _ in range(PER_PHASE):
    k = int(rng.integers(0, UNIVERSE))
    svc.submit_update(k, bool(rng.random() >= 0.3), now)
    now += 1.0
    svc.advance(now)
svc.drain(now)

real = ckpt_mod.atomic_write_bytes
state = {{"writes": 0}}


def rigged(path, data, fsync=True):
    if kill_at == "torn-first" and state["writes"] == 0:
        # Worst case: a torn prefix published at the *final* name (a
        # filesystem that tore the write), then an immediate SIGKILL.
        with open(path, "wb") as fh:
            fh.write(bytes(data[: len(data) // 3]))
        os.kill(os.getpid(), signal.SIGKILL)
    if kill_at == "between-shards" and state["writes"] == 1:
        # Shard 0's generation-2 file landed; die before shard 1's.
        os.kill(os.getpid(), signal.SIGKILL)
    real(path, data, fsync=fsync)
    state["writes"] += 1


ckpt_mod.atomic_write_bytes = rigged
svc.checkpoint(now + 2.0)  # generation 2: dies inside
print("SURVIVED")  # only reached when kill_at == "none"
"""


def _child_script() -> str:
    return _CHILD_SCRIPT.format(
        universe=UNIVERSE, retention=LOG_RETENTION,
        per_phase=UPDATES_PER_PHASE, num_shards=NUM_SHARDS,
        replicas=REPLICAS,
    )


def _spawn_child(seed: int, directory: str, kill_at: str):
    """Run the crash child; returns the completed process."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", _child_script(),
         str(seed), directory, kill_at],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _run_workload(seed: int, directory: str, phases: int = 2):
    """The child's workload, in-process: the never-crashed twin.

    Returns ``(service, refs)`` where ``refs[g]`` is the reference key
    set frozen at generation ``g`` (both phases use the same RNG
    consumption pattern as the child, so the twin is byte-faithful).
    """
    svc = build_dynamic_service(
        UNIVERSE, num_shards=NUM_SHARDS, replicas=REPLICAS,
        log_retention=LOG_RETENTION, seed=seed,
    )
    store = CheckpointStore(directory)
    svc.attach_checkpoints(store)
    rng = np.random.default_rng(seed + 1)
    now = 0.0
    ref: set[int] = set()
    refs = {0: frozenset()}
    for phase in range(phases):
        for _ in range(UPDATES_PER_PHASE):
            k = int(rng.integers(0, UNIVERSE))
            ins = bool(rng.random() >= 0.3)
            svc.submit_update(k, ins, now)
            (ref.add if ins else ref.discard)(k)
            now += 1.0
            svc.advance(now)
        svc.drain(now)
        refs[svc.checkpoint(now + 1.0 + phase)] = frozenset(ref)
    return svc, refs


def _cells_digest(shard: ReplicatedDynamicDictionary) -> str:
    """SHA-256 over every live replica's installed table cells."""
    h = hashlib.sha256()
    for r in sorted(shard.live_replicas()):
        for lv in shard._levels.nonempty_levels:
            h.update(lv.structures[r].table._cells.tobytes())
    return h.hexdigest()


def _twin_digests(twin_dir: str) -> dict:
    """``{(shard, generation): cells digest}`` from the twin's files."""
    store = CheckpointStore(twin_dir)
    out = {}
    for shard, generation, path in store.generations():
        meta = store._read_meta(path)
        d, _ = ReplicatedDynamicDictionary.from_snapshot(meta["snapshot"])
        out[(shard, generation)] = _cells_digest(d)
    return out


def _wrong_answers(service, refs_by_shard) -> int:
    """Whole-universe membership check against per-shard references."""
    sample = np.arange(UNIVERSE, dtype=np.int64)
    wrong = 0
    for i, shard in enumerate(service.shards):
        lo = service._boundaries[i]
        hi = (
            service._boundaries[i + 1]
            if i + 1 < len(service._boundaries) else UNIVERSE
        )
        xs = sample[(sample >= lo) & (sample < hi)]
        expect = refs_by_shard[i]
        truth = np.isin(
            xs,
            np.fromiter(expect, dtype=np.int64, count=len(expect))
            if expect else np.empty(0, dtype=np.int64),
        )
        answers = shard.query_batch(xs, rng=np.random.default_rng(99))
        wrong += int(np.sum(answers != truth))
    return wrong


def _part_a_sigkill(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """SIGKILL mid-checkpoint at adversarial instants, per seed."""
    seeds = SEEDS[:2] if fast else SEEDS
    rows = []
    all_ok = True
    for s in seeds:
        base = seed + s
        with tempfile.TemporaryDirectory() as twin_dir:
            twin, refs = _run_workload(base, twin_dir)
            twin_cells = _twin_digests(twin_dir)
            for mode in KILL_MODES:
                with tempfile.TemporaryDirectory() as crash_dir:
                    proc = _spawn_child(base, crash_dir, mode)
                    killed = proc.returncode < 0
                    # The previous generation must still be frame-valid.
                    store = CheckpointStore(crash_dir)
                    gen1_valid = True
                    for shard, generation, path in store.generations():
                        if generation != 1:
                            continue
                        try:
                            store.inspect(path)
                        except CheckpointCorruptError:
                            gen1_valid = False
                    service, report = restore_dynamic_service(crash_dir)
                    restored = {
                        r["shard"]: r["generation"]
                        for r in report["shards"]
                    }
                    wrong = _wrong_answers(
                        service,
                        {i: refs[restored[i]] for i in restored},
                    )
                    identical = all(
                        _cells_digest(service.shards[i])
                        == twin_cells[(i, g)]
                        for i, g in restored.items()
                    )
                    bounded = report["replayed"] <= REPLAY_BOUND
                    ok = (
                        killed and gen1_valid and wrong == 0
                        and identical and bounded
                        and all(g >= 1 for g in restored.values())
                    )
                    all_ok = all_ok and ok
                    rows.append({
                        "part": "A sigkill", "seed": s, "instant": mode,
                        "killed": bool(killed),
                        "prev gen valid": bool(gen1_valid),
                        "restored gens": str(
                            [restored[i] for i in sorted(restored)]
                        ),
                        "quarantined": report["quarantined"],
                        "replayed": report["replayed"],
                        "replay bound": REPLAY_BOUND,
                        "wrong": wrong,
                        "twin identical": bool(identical),
                        "ok": bool(ok),
                    })
    return rows, all_ok


def _part_b_quarantine(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """All three damage modes → quarantine + fallback; total loss → typed."""
    damage = {
        "torn": lambda p, s: torn_write(p, 0.4, seed=s),
        "truncate": lambda p, s: truncate_file(p, 32),
        "bitflip": lambda p, s: flip_file_bit(p, seed=s, count=3),
    }
    rows = []
    all_ok = True
    for mode, hurt in damage.items():
        with tempfile.TemporaryDirectory() as d:
            _twin, refs = _run_workload(seed + 7, d)
            store = CheckpointStore(d)
            newest = [
                p for (_s, g, p) in store.generations()
                if g == store.latest_generation()
            ]
            for i, path in enumerate(newest):
                hurt(path, seed + 11 + i)
            # inspect surfaces the typed reason without touching files.
            typed = 0
            for path in newest:
                try:
                    store.inspect(path)
                except CheckpointCorruptError as exc:
                    typed += 1
                    assert exc.reason
            service, report = restore_dynamic_service(d)
            fell_back = all(
                r["generation"] == 1 and r["source"] == "checkpoint"
                for r in report["shards"]
            )
            wrong = _wrong_answers(
                service, {i: refs[1] for i in range(NUM_SHARDS)}
            )
            quarantined_files = sorted(
                f for f in os.listdir(d) if f.endswith(".corrupt")
            )
            ok = (
                typed == len(newest) and fell_back and wrong == 0
                and report["quarantined"] == len(newest)
                and len(quarantined_files) == len(newest)
            )
            all_ok = all_ok and ok
            rows.append({
                "part": "B quarantine", "damage": mode,
                "typed errors": typed,
                "fell back to gen 1": bool(fell_back),
                "quarantined": report["quarantined"],
                "wrong": wrong,
                "ok": bool(ok),
            })
    # Total loss: every generation damaged → typed refusal, no fabrication.
    with tempfile.TemporaryDirectory() as d:
        _run_workload(seed + 8, d)
        store = CheckpointStore(d)
        for i, (_s, _g, path) in enumerate(store.generations()):
            flip_file_bit(path, seed=seed + 13 + i, count=5)
        try:
            restore_dynamic_service(d)
        except CheckpointError:
            refused = True
        else:
            refused = False
        all_ok = all_ok and refused
        rows.append({
            "part": "B quarantine", "damage": "all generations",
            "typed errors": "-", "fell back to gen 1": False,
            "quarantined": "-", "wrong": "-",
            "ok": bool(refused),
        })
    return rows, all_ok


def _part_c_bounded_log(fast: bool, seed: int) -> tuple[list[dict], bool]:
    """Retention bounds the retained log; the old stack grows linearly."""
    updates = 200 if fast else 400
    retention = 32

    def drive(svc):
        rng = np.random.default_rng(seed + 21)
        now = 0.0
        peak = 0
        for _ in range(updates):
            svc.submit_update(
                int(rng.integers(0, UNIVERSE)),
                bool(rng.random() >= 0.3), now,
            )
            now += 1.0
            svc.advance(now)
            peak = max(peak, svc.update_log_entries())
        svc.drain(now)
        return peak

    bounded = build_dynamic_service(
        UNIVERSE, num_shards=1, replicas=REPLICAS,
        log_retention=retention, seed=seed + 20,
    )
    unbounded = build_dynamic_service(
        UNIVERSE, num_shards=1, replicas=REPLICAS, seed=seed + 20,
    )
    peak_bounded = drive(bounded)
    peak_unbounded = drive(unbounded)
    # Compaction must not change the shard's bytes: rebuild a replica
    # from base+suffix and compare against the untouched twin.
    identical = (
        _cells_digest(bounded.shards[0])
        == _cells_digest(unbounded.shards[0])
    )
    lifetime_visible = (
        bounded.shards[0].update_count
        == unbounded.shards[0].update_count == updates
    )
    # One flushed group may land after the trigger fires.
    slack = retention + 8
    ok = (
        peak_bounded <= slack
        and peak_unbounded == updates
        and bounded.stats.compactions > 0
        and identical and lifetime_visible
    )
    rows = [{
        "part": "C bounded log", "updates": updates,
        "retention": retention,
        "peak retained (bounded)": peak_bounded,
        "peak retained (unbounded)": peak_unbounded,
        "compactions": bounded.stats.compactions,
        "cells identical": bool(identical),
        "lifetime totals visible": bool(lifetime_visible),
        "ok": bool(ok),
    }]
    return rows, ok


def _part_d_verify_identity(
    fast: bool, seed: int
) -> tuple[list[dict], bool]:
    """Restore verify on/off: byte-identical query-counter digests."""
    with tempfile.TemporaryDirectory() as d:
        _run_workload(seed + 31, d)
        on, rep_on = restore_dynamic_service(d, verify=True)
        off, rep_off = restore_dynamic_service(d, verify=False)
        digests_on = [
            [s.query_counter_digest(r) for r in sorted(s.live_replicas())]
            for s in on.shards
        ]
        digests_off = [
            [s.query_counter_digest(r) for r in sorted(s.live_replicas())]
            for s in off.shards
        ]
        identical = digests_on == digests_off
        charged = (
            rep_on["recovery_probes"] > 0
            and rep_off["recovery_probes"] == 0
        )
        cells_same = all(
            _cells_digest(a) == _cells_digest(b)
            for a, b in zip(on.shards, off.shards)
        )
        ok = identical and charged and cells_same
        rows = [{
            "part": "D verify identity",
            "query digests identical": bool(identical),
            "recovery probes (on/off)": (
                f"{rep_on['recovery_probes']}/"
                f"{rep_off['recovery_probes']}"
            ),
            "cells identical": bool(cells_same),
            "ok": bool(ok),
        }]
    return rows, ok


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Run E26 and return its result table."""
    rows: list[dict] = []
    all_ok = True
    for part in (_part_a_sigkill, _part_b_quarantine,
                 _part_c_bounded_log, _part_d_verify_identity):
        part_rows, ok = part(fast, seed)
        rows.extend(part_rows)
        all_ok = all_ok and ok
    rows.append({"part": "gate", "all checks passed": all_ok})
    finding = (
        "SIGKILL at adversarial instants mid-checkpoint never "
        "invalidates the previous generation; recovery quarantines "
        "torn/truncated/bit-rotted files with typed reasons and falls "
        "back with zero wrong answers, bounded replay, and replicas "
        "byte-identical to a never-crashed twin; log compaction bounds "
        "update_log_entries where the old stack grows linearly; "
        "restore verification on/off is query-digest byte-identical."
    )
    if not all_ok:
        finding += "  *** GATE FAILED ***"
    return ExperimentResult(
        experiment_id="E26",
        title=(
            "Durable checkpoints and log compaction: crash-restartable "
            "dynamic serving (robustness extension)"
        ),
        claim=CLAIM,
        rows=rows,
        finding=finding,
        passed=all_ok,
    )
