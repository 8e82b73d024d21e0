"""The three workloads: inputs from a seed, set-up, the closed loop, restore.

Why each workload exists, which layers it loads most and least, and
which end-to-end metric each per-layer metric should move are recorded
in ``layers.json`` beside this file.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile

import numpy as np

from loop import ClosedLoop, Yardstick
from repro.dictionaries.replicated import ReplicatedDictionary
from repro.io.persistence import load_dictionary, save_dictionary
from repro.parallel import ParallelDictionaryService, build_parallel_service
from repro.persist import CheckpointStore, restore_dynamic_service
from repro.serve import (
    DynamicShardedService,
    ShardedDictionaryService,
    build_dynamic_service,
    build_service,
)
from repro.utils.rng import sample_distinct

SHARDS = 2
REPLICAS = 3
#: Kernel-component weights (see refkernel.py).  Building tables (many
#: construction trials of small NumPy calls) and the churn loop track the
#: interpreter and small-call components; the rest tracks all three.
INTERPRETER = {"py": 1.0, "np": 1.0}
ALL = {"py": 1.0, "np": 1.0, "mem": 1.0}
#: Keys per canary check after a restore (half members).
CANARY = 128
_CHUNK = 1 << 15


def _rss_mb(pids=()) -> float:
    """Peak resident set of this process plus ``pids`` (VmHWM), MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass
    return total_kib / 1024.0


# -- operation sources (the oracle lives here) ----------------------------------


class StaticSource:
    """Reads only: half uniformly drawn members, half uniform universe keys."""

    def __init__(self, keys: np.ndarray, universe: int, rng):
        self.keys = keys
        self.members = frozenset(keys.tolist())
        self.universe = universe
        self.rng = rng
        self._buf: list[int] = []
        self._i = 0

    def _refill(self) -> None:
        member = self.rng.random(_CHUNK) < 0.5
        picks = self.keys[self.rng.integers(0, self.keys.size, _CHUNK)]
        other = self.rng.integers(0, self.universe, _CHUNK)
        self._buf = np.where(member, picks, other).tolist()
        self._i = 0

    def next_op(self):
        if self._i >= len(self._buf):
            self._refill()
        key = self._buf[self._i]
        self._i += 1
        return True, key, False

    def expect(self, key: int) -> bool:
        return key in self.members

    def admit(self, key: int, is_insert: bool) -> None:
        raise AssertionError("static workloads issue no updates")

    def canary(self, count: int) -> list[int]:
        return [self.next_op()[1] for _ in range(count)]


class ChurnSource:
    """80% reads (half live keys), 10% inserts of new keys, 10% deletes.

    The oracle is the live set as admitted so far: ``admit`` runs when
    ``submit_update`` returns, before any later read can be dispatched.
    """

    def __init__(self, universe: int, rng, live=()):
        self.universe = universe
        self.rng = rng
        self._live: list[int] = []
        self._pos: dict[int, int] = {}
        for k in live:
            self._add(int(k))
        self._u: list[float] = []
        self._k: list[int] = []
        self._i = 0

    def _add(self, key: int) -> None:
        self._pos[key] = len(self._live)
        self._live.append(key)

    def _remove(self, key: int) -> None:
        i = self._pos.pop(key)
        last = self._live.pop()
        if last != key:
            self._live[i] = last
            self._pos[last] = i

    def _draw(self):
        if self._i >= len(self._u):
            self._u = self.rng.random(_CHUNK).tolist()
            self._k = self.rng.integers(0, self.universe, _CHUNK).tolist()
            self._i = 0
        u, k = self._u[self._i], self._k[self._i]
        self._i += 1
        return u, k

    def _live_pick(self) -> int:
        u, _ = self._draw()
        return self._live[int(u * len(self._live))]

    def next_op(self):
        u, k = self._draw()
        if u < 0.8:
            if u < 0.4 and self._live:
                return True, self._live_pick(), False
            return True, k, False
        if u < 0.9 or not self._live:
            while k in self._pos:
                _, k = self._draw()
            return False, k, True
        return False, self._live_pick(), False

    def expect(self, key: int) -> bool:
        return key in self._pos

    def admit(self, key: int, is_insert: bool) -> None:
        if is_insert:
            self._add(key)
        else:
            self._remove(key)

    def live_sorted(self) -> list[int]:
        return sorted(self._live)


# -- workloads --------------------------------------------------------------------


class Workload:
    """Shared flow: set up several times, run the loop, restore, report."""

    name = ""
    round_ops = 0
    setup_reps = 3
    #: Fewest timed restores a run reports the median of.
    restore_reps = 3
    #: Main-phase rounds between two timed restores; 0 times them all
    #: after the main phase.  Spread over the run like the rounds, short
    #: restores see the same host phases as the rounds, so a slow phase
    #: spoils a few of them, not all.
    restore_every = 0
    #: Rounds whose probe and cell counts are reported (fixed work, so the
    #: counts are exact and repeat bit-for-bit for one seed).
    exact_rounds = 6
    #: Main-phase rounds per second of ``--seconds`` (about one second of
    #: rounds at reference speed).  The work is fixed, not the time: a
    #: time-bounded run would do less churn on a slow host and so sample
    #: a different stretch of the structure's growth.
    rounds_per_s = 1.0
    #: A main phase stops early after this long, so that a run on a very
    #: slow host still ends in time.
    limit_s = 30.0
    #: Weight of each kernel component in the host slowdown applied to
    #: this workload's rounds (``loop_weights``, set by each workload) and
    #: its set-up; restores use :data:`ALL`.  Chosen on 2-vCPU KVM runs as
    #: the mix that made the per-run medians agree best across runs.
    loop_weights: dict[str, float]
    setup_weights = ALL

    def __init__(self, seed: int, small: bool, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)
        self.yard = Yardstick()
        self.canary_attempted = 0
        self.canary_wrong = 0
        self.exact: dict = {}
        self.restore_raw: list[float] = []
        self.restore_scaled: list[float] = []

    # hooks -------------------------------------------------------------------
    def build(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self, svc) -> None:
        pass

    def worker_pids(self, svc) -> list[int]:
        return []

    # flow --------------------------------------------------------------------
    def setup(self, reps: int):
        """Build ``reps`` services (timed, kernel between); keep the last."""
        keep = []

        def once():
            if keep:
                self.close(keep.pop())
            svc = self.build()
            keep.append(svc)

        raw, scaled = self.yard.timed(once, reps, self.setup_weights, "setup")
        self.setup_raw, self.setup_scaled = raw, scaled
        return keep[0]

    def snapshot_exact(self, svc, loop: ClosedLoop) -> None:
        self.exact = {
            "reads": loop.reads_done,
            "probes": int(svc.stats.probes),
        }

    def rounds(self, seconds: float) -> int:
        """Main-phase rounds for ``seconds``; never fewer than the exact ones."""
        return max(self.exact_rounds + 1, round(seconds * self.rounds_per_s))

    def run_loop(self, svc, seconds: float, restore=None) -> ClosedLoop:
        """The closed loop; times ``restore()`` every ``restore_every`` rounds."""
        loop = ClosedLoop(svc, self.source, self.yard, self.loop_weights)

        def on_round(n):
            if n == self.exact_rounds and not self.exact:
                self.snapshot_exact(svc, loop)
            if restore is not None and self.restore_every and (
                    n % self.restore_every == 0):
                self.time_restore(restore)

        loop.run(self.rounds(seconds), self.round_ops, self.limit_s, on_round)
        return loop

    def time_restore(self, restore) -> None:
        raw, scaled = self.yard.timed(restore, 1, ALL, "restore")
        self.restore_raw += raw
        self.restore_scaled += scaled

    def check_final(self, svc, loop) -> None:
        """Check the state the main phase left (outside any timing)."""

    def check(self, got, key) -> None:
        self.canary_attempted += 1
        if bool(got) != self.source.expect(int(key)):
            self.canary_wrong += 1


class StaticWorkload(Workload):
    """A read-only deployment of the paper's low-contention dictionary."""

    def __init__(self, seed, small, workdir, keys_per_shard):
        super().__init__(seed, small, workdir)
        n = SHARDS * keys_per_shard
        self.universe = n * n
        self.keys = np.sort(sample_distinct(self.rng, self.universe, n))
        self.source = StaticSource(self.keys, self.universe, self.rng)
        self.build_seed = int(self.rng.integers(0, 2**31))

    def make_service(self):
        return build_service(
            self.keys, self.universe, num_shards=SHARDS, replicas=REPLICAS,
            seed=self.build_seed,
        )

    def static_writes(self, raw_s, scaled_s) -> None:
        """An update to a static deployment is absorbed by a rebuild.

        The low-contention scheme has no incremental update, so its
        write path is the build: every key becomes visible when the
        build that installs it ends.
        """
        self.builds = {"scaled": scaled_s, "raw": raw_s}

    def writes(self, loop, scaled: bool = True):
        """``(p50 ms, p99 ms, updates per second)`` of the write path.

        Every key of a build shares that build's latency, so the
        per-key distribution is one value: the median of the timed
        builds (the median keeps one host hiccup out of the p99).
        """
        build = statistics.median(self.builds["scaled" if scaled else "raw"])
        return build * 1e3, build * 1e3, self.keys.size / build

    def cells_per_update(self, svc) -> float:
        """Table cells written per key installed (exact)."""
        cells = sum(int(s.table.num_cells) for s in svc.shards)
        return cells / self.keys.size

    def restorer(self, svc):
        """Persist the shards; returns one timed, checked restore."""
        paths = []
        for i, shard in enumerate(svc.shards):
            path = os.path.join(self.workdir, f"shard{i}.npz")
            save_dictionary(shard.inner, path)
            paths.append(path)
        boundaries = [int(b) for b in svc._boundaries]
        return lambda: self.restore_once(paths, boundaries)

    def restore_once(self, paths, boundaries) -> None:
        """Reload the shards, rebuild an in-process service, check canaries.

        The fabric's worker boot is not part of it: booting processes is
        set-up (setup_s) and varied by a third between runs of one host.
        """
        shards = [ReplicatedDictionary(load_dictionary(p), REPLICAS)
                  for p in paths]
        svc = ShardedDictionaryService(shards, boundaries, seed=self.build_seed)
        self.canary_check(svc)

    def canary_check(self, svc) -> None:
        """Serve :data:`CANARY` reads through the ticket path and check them."""
        done = []
        svc.on_complete = done.extend
        try:
            for key in self.source.canary(CANARY):
                svc.submit(key, 0.0)
            svc.drain(0.0)
        finally:
            svc.on_complete = None
        if len(done) != CANARY:
            self.canary_wrong += CANARY - len(done)
        for t in done:
            self.check(t.answer, t.key)


class StaticRead(StaticWorkload):
    """In-process ``build_service``: large tables, the query kernel dominates."""

    name = "static-read"
    service_class = ShardedDictionaryService
    setup_reps = 5
    restore_reps = 7
    rounds_per_s = 2.75
    loop_weights = {"mem": 1.0}
    # Set-up is the build alone, and its builds are the write path.
    setup_weights = INTERPRETER

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir, 1024 if small else 16384)
        self.round_ops = 96 if small else 512

    def build(self):
        return self.make_service()

    def setup(self, reps):
        svc = super().setup(reps)
        if reps > 1:
            # The first build also pays one-off warm-up; an update never does.
            self.static_writes(self.setup_raw[1:], self.setup_scaled[1:])
        return svc


class FabricRead(StaticWorkload):
    """``build_parallel_service`` with one shm worker: small tables, the
    dispatcher, rings and response drain dominate."""

    name = "fabric-read"
    service_class = ParallelDictionaryService
    setup_reps = 5
    restore_reps = 5
    rounds_per_s = 1.6
    write_reps = 40
    procs = 1
    # Dispatcher and worker alternate on one CPU, so interpreter and
    # small-call speed set the pace, not memory bandwidth.
    loop_weights = INTERPRETER
    write_weights = INTERPRETER

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir, 128 if small else 512)
        self.round_ops = 512 if small else 8192
        if small:
            self.write_reps = 4

    def build(self):
        svc = build_parallel_service(
            self.keys, self.universe, procs=self.procs, num_shards=SHARDS,
            replicas=REPLICAS, seed=self.build_seed,
        )
        self.pin(svc)
        return svc

    def pin(self, svc) -> None:
        """Dispatcher and worker share CPU 0.

        With the worker on the second vCPU, read_qps halved in some runs
        while kernels timed beside the dispatcher, and beside the worker,
        moved under 20%: that vCPU was slowed by something the guest
        cannot see.  On one CPU the dispatcher sleeps while it waits, so
        the worker runs in its gaps.
        """
        os.sched_setaffinity(0, {0})
        for h in svc.pool.workers:
            os.sched_setaffinity(h.proc.pid, {0})

    def close(self, svc) -> None:
        svc.close()

    def worker_pids(self, svc) -> list[int]:
        return [h.proc.pid for h in svc.pool.workers]

    def setup(self, reps):
        svc = super().setup(reps)
        if reps > 1:
            raw, scaled = self.yard.timed(
                self.make_service, self.write_reps, self.write_weights,
                "write",
            )
            self.static_writes(raw, scaled)
        return svc


class Churn(Workload):
    """``build_dynamic_service`` under 80/10/10 read/insert/delete churn
    with log retention, periodic checkpoints and a verified restore."""

    name = "churn"
    service_class = DynamicShardedService
    setup_reps = 3
    restore_reps = 9
    # Restores of a small checkpoint take ~0.1 s; timed in one burst after
    # the main phase they spread twice as wide between runs.
    restore_every = 3
    rounds_per_s = 2.0
    exact_rounds = 24
    # Level carries, flattens and small-array queries: interpreter and
    # small-call bound, as on fabric-read.  Set-up rebuilds levels.
    loop_weights = INTERPRETER
    setup_weights = INTERPRETER
    universe = 1 << 20
    #: Virtual time between periodic checkpoints (a few per run).
    checkpoint_every = 4000.0

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        self.round_ops = 64 if small else 384
        # The same count in every shard's range (shards split the
        # universe evenly), so every seed builds the same level shapes:
        # restore and set-up times follow the shapes (500 = 0b111110100
        # keys sit in six levels and restore ~3x slower than 512 in one),
        # and a uniform split left them to the seed.
        per_shard = 125 if small else 500
        span = self.universe // SHARDS
        keys = np.concatenate([
            s * span + sample_distinct(self.rng, span, per_shard)
            for s in range(SHARDS)
        ])
        self.rng.shuffle(keys)
        self.prefill_keys = keys.tolist()
        self.build_seed = int(self.rng.integers(0, 2**31))
        self.source = ChurnSource(self.universe, self.rng, self.prefill_keys)
        self.ckpt_dir = os.path.join(workdir, "checkpoints")
        self.base_dir = os.path.join(workdir, "base")
        if small:
            self.checkpoint_every = 200.0

    def build(self):
        svc = build_dynamic_service(
            self.universe, num_shards=SHARDS, replicas=REPLICAS,
            log_retention=512, seed=self.build_seed,
        )
        for key in self.prefill_keys:
            svc.submit_update(key, True, 0.0)
        svc.drain(0.0)
        return svc

    def setup(self, reps):
        svc = super().setup(reps)
        for d in (self.base_dir, self.ckpt_dir):
            shutil.rmtree(d, ignore_errors=True)
        # The timed restores read this checkpoint of the prefilled
        # service: every seed leaves the same level shapes after the
        # prefill and, compacted here, an empty log suffix, so restore
        # work depends neither on the seed (which shard's updates the
        # write path's compaction left retained) nor on where the
        # time-bounded main phase stopped.
        svc.compact_logs()
        svc.attach_checkpoints(CheckpointStore(self.base_dir))
        svc.checkpoint(0.0)
        svc.attach_checkpoints(
            CheckpointStore(self.ckpt_dir), every=self.checkpoint_every
        )
        return svc

    def snapshot_exact(self, svc, loop):
        super().snapshot_exact(svc, loop)
        costs = [
            shard.account(r).amortized_write_cost()
            for shard in svc.shards for r in range(shard.replicas)
        ]
        self.exact["cells_per_update"] = sum(costs) / len(costs)

    def writes(self, loop, scaled: bool = True):
        """``(p50 ms, p99 ms, updates per second)``; the p99 as reads'."""
        p50 = float(np.percentile(loop.latencies_ms("write_lat", scaled), 50))
        return (p50, loop.block_percentile_ms("write_lat", 99, scaled),
                loop.rate("writes", scaled))

    def cells_per_update(self, svc) -> float:
        """Cells written per update over set-up plus the exact rounds."""
        return self.exact["cells_per_update"]

    def restorer(self, svc):
        """The timed restore: the checkpoint written right after set-up."""
        prefill = sorted(self.prefill_keys)
        return lambda: self.restore_once(self.base_dir, prefill)

    def check_final(self, svc, loop) -> None:
        """Checkpoint the final state and check one restore of it."""
        svc.checkpoint(loop.now)
        self.restore_once(self.ckpt_dir, self.source.live_sorted())

    def restore_once(self, directory, expected) -> None:
        restored, _ = restore_dynamic_service(directory, verify=True)
        live = [int(k) for s in restored.shards for k in s.live_keys()]
        self.canary_attempted += 1
        if sorted(live) != expected:
            self.canary_wrong += 1


WORKLOADS = {w.name: w for w in (StaticRead, FabricRead, Churn)}


def new_workdir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=root)
