"""The multicore fabric: worker pool, dispatcher, and parallel service.

This is the front end of :mod:`repro.parallel`.  A
:class:`WorkerPool` packs every shard's replicated table into shared
memory once (:func:`~repro.parallel.shm.pack_table`), boots ``procs``
worker processes, and wires one request + one response SPSC ring per
worker (:mod:`repro.parallel.ring`).  A
:class:`ParallelDictionaryService` then reuses the *entire* in-process
serving brain — keyspace sharding, micro-batching, routing policies,
admission control from :class:`~repro.serve.service.
ShardedDictionaryService` — and swaps only the execution engine: where
the in-process service runs ``query_batch_on`` inline, the parallel
service ships each routed group to a worker as one raw ``uint64``
frame and reads the packed answers back.

**Determinism.**  All nondeterminism lives in the single-threaded
dispatcher: batching, routing, and one RNG draw per routed group (the
group's probe seed).  A worker's execution is the pure function
``(group_seed, keys, replica) -> (answers, probes)``, so *which*
worker runs a group cannot change any answer or any per-cell count —
the merged worker counters are byte-identical (same
:meth:`~repro.cellprobe.counters.ProbeCounter.digest`) to the
``procs=0`` inline engine running the same plan, for any worker count.
That is the E22 equivalence gate.

**Failure model.**  A crashed worker is detected while collecting
responses; its finished responses are drained from its ring (shared
memory outlives the process), its unfinished groups are resent to a
survivor, and the pool can rebuild the dead slot with
:meth:`WorkerPool.respawn` (fresh rings, same table and counter
segments — probes already charged stay charged, honest accounting).
Only a fabric with *no* live workers raises
:class:`~repro.errors.FabricError`.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

import repro
from repro.cellprobe.counters import ProbeCounter
from repro.errors import FabricError, ParameterError, RingFullError
from repro.parallel.ring import (
    FRAME_QUERY,
    FRAME_RESPONSE,
    RingBuffer,
)
from repro.parallel.shm import (
    KIND_TABLE,
    LINE_WORDS,
    create_counter_segment,
    destroy_segment,
    pack_table,
    read_counter,
    segment_name,
    verify_header,
)
from repro.parallel.worker import unpack_answers
from repro.serve.service import ShardedDictionaryService, build_service
from repro.utils.validation import check_positive_integer

#: Preallocated step capacity of each worker's shared counter matrix.
#: Far above any scheme's probe depth; exceeding it is a typed error.
DEFAULT_MAX_STEPS = 48

#: Default ring capacity in ``uint64`` words (512 KiB per ring).
DEFAULT_RING_WORDS = 1 << 16

#: Words of frame header before the keys: [gid, shard, replica, seed, n].
_QUERY_HEAD = 5


@dataclasses.dataclass
class FabricStats:
    """Lifetime counters of the dispatch fabric itself."""

    groups: int = 0
    failovers: int = 0
    respawns: int = 0
    ring_full_retries: int = 0
    kills: int = 0
    segment_corruptions: int = 0

    def row(self) -> dict:
        """Flat dict for experiment tables."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class _Group:
    """One routed group in flight: the unit of fabric dispatch."""

    gid: int
    shard: int
    replica: int
    seed: int
    keys: np.ndarray
    positions: np.ndarray
    worker_id: int = -1

    def payload(self) -> np.ndarray:
        """The group's request frame payload (uint64 words)."""
        head = np.array(
            [self.gid, self.shard, self.replica, self.seed, self.keys.size],
            dtype=np.uint64,
        )
        return np.concatenate([head, self.keys.astype(np.uint64)])


@dataclasses.dataclass
class WorkerHandle:
    """One worker slot: its process, rings, and on-disk boot files."""

    worker_id: int
    proc: subprocess.Popen
    req: RingBuffer
    resp: RingBuffer
    spec_path: str
    stderr_path: str
    alive: bool = True

    def poll_dead(self) -> bool:
        """Refresh and return whether the worker process has exited."""
        if self.alive and self.proc.poll() is not None:
            self.alive = False
        return not self.alive


class WorkerPool:
    """Owns the fabric's processes and every shared segment they use.

    The pool is the single *owner* in the shared-memory protocol: it
    creates (and is the only thing that ever unlinks) the table
    segments, the per-worker counter segments, and the rings.  Workers
    only attach and close.  :meth:`close` is idempotent and registered
    with ``atexit``, so even an interrupted session leaves ``/dev/shm``
    clean (the segment layer adds a second atexit net of its own).
    """

    def __init__(
        self,
        shards,
        procs: int,
        max_steps: int = DEFAULT_MAX_STEPS,
        ring_words: int = DEFAULT_RING_WORDS,
        prefix: str = "repro",
        boot_timeout: float = 60.0,
    ):
        self.procs = check_positive_integer("procs", procs)
        self.max_steps = check_positive_integer("max_steps", max_steps)
        self.ring_words = int(ring_words)
        self.boot_timeout = float(boot_timeout)
        self._prefix = prefix
        self._shards = list(shards)
        self._closed = False
        self.table_segs = [
            pack_table(segment_name(prefix, f"tab{i}"), s.table)
            for i, s in enumerate(self._shards)
        ]
        # counter_segs[w][i]: worker w's counter for shard i.  One per
        # (worker, shard) so merging them is the whole accounting story.
        self.counter_segs = [
            [
                create_counter_segment(
                    segment_name(prefix, f"cnt{w}s{i}"),
                    max_steps,
                    s.table.counter.num_cells,
                )
                for i, s in enumerate(self._shards)
            ]
            for w in range(self.procs)
        ]
        self.workers: list[WorkerHandle] = [
            self._spawn(w) for w in range(self.procs)
        ]
        atexit.register(self.close)
        self.wait_ready()

    # -- boot ------------------------------------------------------------------

    def _spawn(self, w: int) -> WorkerHandle:
        """Create rings + spec for slot ``w`` and boot its process."""
        req = RingBuffer.create(
            segment_name(self._prefix, f"req{w}"), self.ring_words
        )
        resp = RingBuffer.create(
            segment_name(self._prefix, f"rsp{w}"), self.ring_words
        )
        spec = {
            "worker_id": w,
            "req_ring": req.seg.name,
            "resp_ring": resp.seg.name,
            "shards": [
                {
                    "inner": s.inner,
                    "replicas": s.replicas,
                    "table_seg": self.table_segs[i].name,
                    "counter_seg": self.counter_segs[w][i].name,
                }
                for i, s in enumerate(self._shards)
            ],
        }
        fd, spec_path = tempfile.mkstemp(
            prefix="repro-fabric-spec-", suffix=".pkl"
        )
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(spec, fh)
        err_fd, stderr_path = tempfile.mkstemp(
            prefix="repro-fabric-worker-", suffix=".log"
        )
        env = dict(os.environ)
        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.worker", spec_path],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err_fd,
        )
        os.close(err_fd)
        return WorkerHandle(w, proc, req, resp, spec_path, stderr_path)

    def wait_ready(self) -> None:
        """Block until every live worker verified its segments and is serving."""
        deadline = time.monotonic() + self.boot_timeout
        for h in self.workers:
            if not h.alive:
                continue
            while not h.req.ready:
                if h.poll_dead() or time.monotonic() > deadline:
                    raise FabricError(
                        f"worker {h.worker_id} failed to become ready "
                        f"(exit={h.proc.poll()}): {self._stderr_tail(h)}"
                    )
                time.sleep(0.005)

    def _stderr_tail(self, h: WorkerHandle) -> str:
        """Last line of a worker's captured stderr, for diagnostics."""
        try:
            with open(h.stderr_path, "r", errors="replace") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
            return lines[-1] if lines else "(no stderr)"
        except OSError:  # pragma: no cover - boot race
            return "(stderr unavailable)"

    # -- health ----------------------------------------------------------------

    def live_workers(self) -> list[WorkerHandle]:
        """Workers whose process is still running (refreshes liveness)."""
        return [h for h in self.workers if not h.poll_dead()]

    def respawn(self, worker_id: int) -> WorkerHandle:
        """Rebuild a dead worker slot: fresh rings, same table/counters.

        The old rings are destroyed (their cursors are in an unknown
        state after a crash); the counter segments are *kept*, so every
        probe the dead worker already charged stays charged — crash
        recovery never falsifies the accounting.
        """
        old = self.workers[worker_id]
        if not old.poll_dead():
            raise ParameterError(
                f"worker {worker_id} is still alive; stop it first"
            )
        self._reap(old)
        self.workers[worker_id] = self._spawn(worker_id)
        self.wait_ready()
        return self.workers[worker_id]

    def _reap(self, h: WorkerHandle) -> None:
        """Destroy one dead slot's rings and boot files."""
        for ring in (h.req, h.resp):
            ring.close()
            destroy_segment(ring.seg)
        for path in (h.spec_path, h.stderr_path):
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- fault injection (the chaos/adversary surface) --------------------------

    def kill_worker(self, worker_id: int) -> bool:
        """SIGKILL one live worker slot; the red-team crash primitive.

        Refuses (returns ``False``) when the target is already dead or
        is the *last* live worker — a fabric with no workers cannot
        fail over, so the adversary is never allowed to orphan it.
        The slot stays rebuildable via :meth:`respawn`, and every probe
        the victim already charged stays in its counter segment.
        """
        worker_id = int(worker_id)
        if not 0 <= worker_id < self.procs:
            raise ParameterError(
                f"worker_id must be in [0, {self.procs}), got {worker_id}"
            )
        h = self.workers[worker_id]
        if h.poll_dead():
            return False
        if len(self.live_workers()) <= 1:
            return False
        h.proc.kill()
        h.proc.wait()
        h.poll_dead()
        return True

    def corrupt_table_segment(self, shard: int, cells, masks) -> bool:
        """XOR masks into a shared table's packed payload words.

        Flips bits directly in the shared pages every worker serves
        from — the header (and its payload CRC) is left untouched, so
        already-attached workers keep serving the corrupted cells while
        any *fresh* attach fails payload verification.  Word indices
        wrap modulo the payload size; returns ``False`` when there is
        nothing to apply.
        """
        if not 0 <= int(shard) < len(self._shards):
            raise ParameterError(
                f"shard must be in [0, {len(self._shards)}), got {shard}"
            )
        cells = [int(c) for c in cells]
        masks = [int(m) & 0xFFFFFFFFFFFFFFFF for m in masks]
        if not cells or not masks:
            return False
        seg = self.table_segs[int(shard)]
        table = self._shards[int(shard)].table
        nwords = table.rows * table.s
        word_size = np.dtype(np.uint64).itemsize
        words = np.ndarray(
            nwords, dtype=np.uint64, buffer=seg.buf,
            offset=LINE_WORDS * word_size,
        )
        applied = False
        for cell, mask in zip(cells, masks):
            if mask == 0:
                continue
            words[cell % nwords] ^= np.uint64(mask)
            applied = True
        return applied

    def table_crc_ok(self, shard: int) -> bool:
        """Recompute one table segment's payload CRC against its header.

        ``True`` while the shared pages still match the checksum stamped
        at :func:`~repro.parallel.shm.pack_table` time — i.e. no
        :meth:`corrupt_table_segment` damage (or any other writer) has
        touched the payload.
        """
        seg = self.table_segs[int(shard)]
        rows, s, payload_crc = verify_header(seg.buf, KIND_TABLE, seg.name)
        word_size = np.dtype(np.uint64).itemsize
        view = np.ndarray(
            (rows, s), dtype=np.uint64, buffer=seg.buf,
            offset=LINE_WORDS * word_size,
        )
        return (zlib.crc32(view.tobytes()) & 0xFFFFFFFF) == payload_crc

    # -- introspection ----------------------------------------------------------

    def queue_depths(self) -> list[int]:
        """Live request-ring depth (words) per worker slot."""
        return [h.req.depth_words for h in self.workers]

    def merged_counter(self, shard: int) -> ProbeCounter:
        """Merge every worker's shared counter for ``shard`` into one.

        The merge is element-wise addition over per-step matrices
        (:meth:`ProbeCounter.merge`), so the result is exactly what one
        in-process counter would have recorded for the same groups.
        """
        num_cells = self._shards[shard].table.counter.num_cells
        merged = ProbeCounter(num_cells)
        for w in range(self.procs):
            merged.merge(read_counter(self.counter_segs[w][shard]))
        return merged

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Stop workers, then unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for h in self.workers:
            if not h.poll_dead():
                h.req.set_stop()
                h.resp.set_stop()
        deadline = time.monotonic() + 5.0
        for h in self.workers:
            if h.proc.poll() is None:
                try:
                    h.proc.wait(
                        timeout=max(0.1, deadline - time.monotonic())
                    )
                except subprocess.TimeoutExpired:  # pragma: no cover
                    h.proc.kill()
                    h.proc.wait()
            self._reap(h)
        for seg in self.table_segs:
            destroy_segment(seg)
        for per_worker in self.counter_segs:
            for seg in per_worker:
                destroy_segment(seg)


class ParallelDictionaryService(ShardedDictionaryService):
    """The in-process serving brain driving out-of-process muscle.

    Subclasses :class:`~repro.serve.service.ShardedDictionaryService`
    and keeps its entire request path — ``submit``/``advance``/
    ``drain`` tickets, micro-batching, admission control, per-shard
    routers — replacing only batch *execution*:

    - ``procs >= 1``: each routed group becomes one request frame on a
      worker's ring; workers run the group against the shared table and
      respond with packed answers (the **process engine**);
    - ``procs == 0``: the same dispatch plan (same routing, same
      per-group seeds) executes inline (the **inline engine**) — the
      reference the equivalence tests compare digests against.

    Either way, per-group probe RNGs are seeded from one dispatcher
    draw, so answers and merged probe accounting are independent of
    the engine and of the worker count.
    """

    #: Replica state lives in worker-held shared memory, so the fabric
    #: offers admission tuning only; crashed workers recover by
    #: failover and :meth:`WorkerPool.respawn` instead of healing.
    #: ``fabric-faults``: chaos replays apply worker kills and segment
    #: corruption through :meth:`apply_fabric_event`.
    capabilities = frozenset(("capacity", "fabric-faults"))

    def __init__(
        self,
        shards,
        boundaries,
        procs: int = 2,
        router: str = "least-loaded",
        max_batch: int = 32,
        max_delay: float = 1.0,
        capacity: int = 1024,
        probe_time: float = 0.0,
        seed=0,
        max_steps: int = DEFAULT_MAX_STEPS,
        ring_words: int = DEFAULT_RING_WORDS,
        dispatch_timeout: float = 60.0,
    ):
        super().__init__(
            shards,
            boundaries,
            router=router,
            max_batch=max_batch,
            max_delay=max_delay,
            capacity=capacity,
            probe_time=probe_time,
            seed=seed,
        )
        if int(procs) < 0:
            raise ParameterError(f"procs must be >= 0, got {procs}")
        self.procs = int(procs)
        self._max_batch = check_positive_integer("max_batch", max_batch)
        self.dispatch_timeout = float(dispatch_timeout)
        self.fabric_stats = FabricStats()
        self._group_id = 0
        self._next_worker = 0
        self.pool = (
            WorkerPool(
                self.shards, self.procs,
                max_steps=max_steps, ring_words=ring_words,
            )
            if self.procs >= 1
            else None
        )

    # -- engine -----------------------------------------------------------------

    def _make_group(self, shard, replica, keys, positions) -> _Group:
        """Stamp a routed group with its id and probe seed (one RNG draw)."""
        g = _Group(
            gid=self._group_id,
            shard=int(shard),
            replica=int(replica),
            seed=int(self._rng.integers(0, 2**63 - 1)),
            keys=np.asarray(keys, dtype=np.int64),
            positions=np.asarray(positions, dtype=np.int64),
        )
        self._group_id += 1
        self.fabric_stats.groups += 1
        return g

    def _pick_worker(self) -> WorkerHandle:
        """Deterministic round-robin over live workers."""
        live = self.pool.live_workers()
        if not live:
            raise FabricError("no live workers to dispatch to")
        h = live[self._next_worker % len(live)]
        self._next_worker += 1
        return h

    def _send_group(self, g: _Group) -> None:
        """Enqueue one group, draining responses under backpressure."""
        payload = g.payload()
        deadline = time.monotonic() + self.dispatch_timeout
        while True:
            h = self._pick_worker()
            try:
                h.req.enqueue(FRAME_QUERY, payload)
                g.worker_id = h.worker_id
                return
            except RingFullError:
                self.fabric_stats.ring_full_retries += 1
                if time.monotonic() > deadline:
                    raise FabricError(
                        f"request ring stayed full past "
                        f"{self.dispatch_timeout}s deadline"
                    ) from None
                time.sleep(1e-4)

    def _execute(self, groups: list[_Group]) -> dict[int, tuple]:
        """Run groups on the configured engine: ``gid -> (answers, probes)``.

        The process engine ships every group before collecting any.
        """
        if self.procs == 0:
            return self._execute_inline(groups)
        for g in groups:
            self._send_group(g)
        return self._collect({g.gid: g for g in groups})

    def _execute_inline(self, groups: list[_Group]) -> dict[int, tuple]:
        """Reference engine: the identical plan, run in this process."""
        results: dict[int, tuple] = {}
        for g in groups:
            counter = self.shards[g.shard].table.counter
            before = counter.total_probes()
            answers = self.shards[g.shard].query_batch_on(
                g.keys, g.replica, np.random.default_rng(g.seed)
            )
            results[g.gid] = (
                np.asarray(answers, dtype=bool),
                counter.total_probes() - before,
            )
        return results

    def _collect(self, pending: dict[int, _Group]) -> dict[int, tuple]:
        """Await every pending group's response, failing over crashes.

        Dead workers' finished responses are drained first (their
        rings outlive them in shared memory); only then do their
        unfinished groups resend to survivors.
        """
        results: dict[int, tuple] = {}
        deadline = time.monotonic() + self.dispatch_timeout
        while pending:
            progress = False
            # Dead workers included: their rings outlive them.
            for h in self.pool.workers:
                for kind, payload in h.resp.consume_batch(128):
                    if kind != FRAME_RESPONSE:
                        continue
                    gid, nkeys, probes = (
                        int(payload[0]), int(payload[1]), int(payload[2]),
                    )
                    g = pending.pop(gid, None)
                    if g is None:
                        continue
                    results[gid] = (
                        unpack_answers(payload[3:], nkeys), probes
                    )
                    progress = True
            if not pending:
                break
            progress |= self._failover(pending)
            if progress:
                deadline = time.monotonic() + self.dispatch_timeout
            else:
                if time.monotonic() > deadline:
                    raise FabricError(
                        f"fabric made no progress for "
                        f"{self.dispatch_timeout}s with "
                        f"{len(pending)} groups outstanding"
                    )
                time.sleep(1e-4)
        return results

    def _failover(self, pending: dict[int, _Group]) -> bool:
        """Resend any pending group whose worker died; True if any moved."""
        dead_ids = {
            h.worker_id for h in self.pool.workers if h.poll_dead()
        }
        moved = False
        for g in pending.values():
            if g.worker_id in dead_ids:
                self.fabric_stats.failovers += 1
                self._send_group(g)
                moved = True
        return moved

    # -- ticket path (overrides the in-process execution only) ------------------

    def _execute_batch(self, shard, tickets, xs, now, batch_span=None) -> None:
        """Ship the batch's routed groups to the engine, then charge them."""
        router = self.routers[shard]
        groups = []
        for replica, sel in self._groups(router, xs.shape[0]):
            groups.append(self._make_group(shard, replica, xs[sel], sel))
            self._route(shard, router, replica, int(sel.size), now, batch_span)
        results = self._execute(groups)
        for g in groups:
            answers, probes = results[g.gid]
            finish = self._charge(shard, g.replica, probes, now, batch_span)
            self._stamp(tickets, g.positions, answers, finish, g.replica)

    # -- bulk path (the E22 throughput surface) ---------------------------------

    def query_batch(self, xs: np.ndarray) -> np.ndarray:
        """Serve a key array through the fabric, pipelined, in one call.

        The bulk surface E22 measures: keys are sharded and chunked
        exactly like the ticket path (``max_batch`` per routed batch,
        one router assignment per chunk), every routed group is shipped
        before the first response is awaited — so all workers run
        concurrently — and the answers come back in input order.
        Bypasses admission control: this is a closed-loop measurement
        surface, not an open-loop server.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 1:
            raise ParameterError("query_batch expects a 1-d key array")
        shard_of_each = self._shards_of(xs)
        groups: list[_Group] = []
        for shard in range(self.num_shards):
            idx = np.nonzero(shard_of_each == shard)[0]
            router = self.routers[shard]
            for lo in range(0, idx.size, self._max_batch):
                sel = idx[lo:lo + self._max_batch]
                for replica, pick in self._groups(router, sel.size):
                    groups.append(self._make_group(
                        shard, replica, xs[sel[pick]], sel[pick],
                    ))
        results = self._execute(groups)
        answers = np.zeros(xs.size, dtype=bool)
        for g in groups:
            got, probes = results[g.gid]
            self.routers[g.shard].record(g.replica, probes)
            self.stats.probes += probes
            answers[g.positions] = got
        self.stats.batches += 1
        return answers

    # -- accounting + metrics ----------------------------------------------------

    def merged_counter(self, shard: int = 0) -> ProbeCounter:
        """One shard's complete probe accounting, engine-independent.

        Process engine: the element-wise merge of every worker's shared
        counter.  Inline engine: a copy of the shard's own counter.
        Digest equality across engines and worker counts is the E22
        equivalence gate.
        """
        if self.pool is not None:
            return self.pool.merged_counter(shard)
        merged = ProbeCounter(self.shards[shard].table.counter.num_cells)
        return merged.merge(self.shards[shard].table.counter)

    def queue_depths(self) -> list[int]:
        """Per-worker request-ring depth in words (empty list inline)."""
        return self.pool.queue_depths() if self.pool is not None else []

    def respawn_worker(self, worker_id: int) -> WorkerHandle:
        """Rebuild one dead worker slot (see :meth:`WorkerPool.respawn`).

        The fabric's replica-rebuild analogue: the slot comes back with
        fresh rings against the same shared tables and counters, and
        the respawn is counted in :attr:`fabric_stats`.
        """
        handle = self.pool.respawn(worker_id)
        self.fabric_stats.respawns += 1
        return handle

    def apply_fabric_event(self, event) -> bool:
        """Apply one fabric-level chaos event; ``True`` if it landed.

        The hook :func:`~repro.serve.chaos._apply_event` dispatches
        ``FABRIC_KINDS`` through.  ``kill-worker`` SIGKILLs the slot
        ``event.worker`` (wrapped modulo ``procs``); ``corrupt-segment``
        XORs ``event.masks`` into ``event.cells`` (flat packed words) of
        ``event.shard``'s shared table.  Returns ``False`` — the event
        is *skipped*, not an error — on the inline engine (no pool), on
        a spared last-live-worker kill, or on an empty corruption.
        """
        if self.pool is None:
            return False
        if event.kind == "kill-worker":
            victim = int(event.worker) % self.procs if self.procs else 0
            if self.pool.kill_worker(victim):
                self.fabric_stats.kills += 1
                return True
            return False
        if event.kind == "corrupt-segment":
            shard = int(event.shard) % self.num_shards
            if self.pool.corrupt_table_segment(
                shard, event.cells, event.masks
            ):
                self.fabric_stats.segment_corruptions += 1
                return True
            return False
        return False

    def export_metrics(self, registry) -> None:
        """Publish fabric gauges/counters into a MetricsRegistry.

        Sets ``repro_parallel_queue_depth_w{i}`` and
        ``repro_parallel_worker_up_w{i}`` per worker plus fabric-level
        group/failover counters — the ``serve --metrics`` surface.
        """
        depths = self.queue_depths()
        live = (
            {h.worker_id for h in self.pool.live_workers()}
            if self.pool is not None
            else set()
        )
        for w, depth in enumerate(depths):
            registry.gauge(
                f"repro_parallel_queue_depth_w{w}",
                "Request-ring depth (words) of one fabric worker.",
            ).set(float(depth))
            registry.gauge(
                f"repro_parallel_worker_up_w{w}",
                "1 if the fabric worker process is alive, else 0.",
            ).set(1.0 if w in live else 0.0)
        registry.gauge(
            "repro_parallel_workers",
            "Number of worker processes in the fabric pool.",
        ).set(float(self.procs))
        registry.gauge(
            "repro_parallel_groups_total",
            "Routed groups dispatched by the fabric.",
        ).set(float(self.fabric_stats.groups))
        registry.gauge(
            "repro_parallel_failovers_total",
            "Groups resent after a worker crash.",
        ).set(float(self.fabric_stats.failovers))

    def close(self) -> None:
        """Tear the pool down (idempotent; inline engine is a no-op)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelDictionaryService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the pool."""
        self.close()


def build_parallel_service(
    keys: np.ndarray,
    universe_size: int,
    procs: int = 2,
    num_shards: int = 1,
    replicas: int = 3,
    scheme: str = "low-contention",
    router: str = "least-loaded",
    max_batch: int = 32,
    max_delay: float = 1.0,
    capacity: int = 1024,
    probe_time: float = 0.0,
    seed=0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ParallelDictionaryService:
    """Construct a fabric service: build shards in-process, then share them.

    Mirrors :func:`~repro.serve.service.build_service` (same sharding,
    same construction seeds for the same ``seed``) and wraps the result
    in a :class:`ParallelDictionaryService` with ``procs`` workers
    (``procs=0`` selects the inline reference engine).
    """
    built = build_service(
        keys,
        universe_size,
        num_shards=num_shards,
        replicas=replicas,
        scheme=scheme,
        router=router,
        max_batch=max_batch,
        max_delay=max_delay,
        capacity=capacity,
        probe_time=probe_time,
        seed=seed,
    )
    return ParallelDictionaryService(
        built.shards,
        [int(b) for b in built._boundaries],
        procs=procs,
        router=router,
        max_batch=max_batch,
        max_delay=max_delay,
        capacity=capacity,
        probe_time=probe_time,
        seed=seed,
        max_steps=max_steps,
    )
