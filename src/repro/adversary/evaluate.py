"""The deterministic genome-evaluation harness.

:func:`evaluate` replays one :class:`~repro.adversary.genome.Genome`
against up to two targets and scores the damage:

1. **The in-process healing service** — the PR-5 stack with armed
   faults and healing enabled, driven by
   :func:`~repro.serve.chaos.run_chaos` under the genome's workload,
   rate, and compiled fault schedule.  Rewards: wrong answers,
   quarantine violations, shed/degraded traffic, tail-latency blowup,
   heal time, and exceedance of the exact Binomial(Q, Φ_t) envelope
   (the E21 max-of-Gaussians test, doubled for verified dispatch).
2. **The multicore fabric** (``config.procs >= 1``) — a
   :class:`~repro.parallel.fabric.ParallelDictionaryService` serving
   the genome's query mix while the genome's fabric-level events
   (``kill-worker``, ``corrupt-segment``) land at deterministic chunk
   boundaries.  Rewards: wrong answers exposed, a stalled fabric, and
   a broken table CRC.  Fabric events apply only *between* batches, so
   no in-flight group ever sees a partial fault and the stage stays a
   pure function of ``(genome, config, seed)``.

3. **The dynamic serve stack** (``genome.update_fraction > 0``) — a
   mutable :class:`~repro.serve.dynamic_service.DynamicShardedService`
   driven by the genome's interleaved update/read stream
   (insert/delete mix from ``delete_fraction``, hot-key churn from
   ``update_hot_keys``).  Rewards: wrong answers (live or
   epoch-pinned), update-backlog shedding, and rebuild pressure.  A
   read-only genome (``update_fraction == 0``) skips this stage *and*
   contributes no ``dyn_*`` metric keys, so every pre-PR-8 fixture's
   evaluation digest is unchanged.

4. **The autotuned healing service** (``genome.autotune_cooldown >
   0``) — the healing stack with a closed-loop
   :class:`~repro.autotune.AutotuneController` attached, its cooldown
   window taken from the gene.  Rewards: wrong answers, quarantine
   violations, and **detection latency** — virtual time from silent
   damage injection to quarantine — so the search hunts for
   reconfiguration timings that retard detection.  Controller-free
   genomes skip the stage and contribute no ``at_*`` keys, preserving
   every pre-PR-9 fixture digest.

5. **The durable checkpoint chain** (``genome.checkpoint_corruption >
   0``) — a mutable service writes generation-numbered checkpoints to
   a scratch directory, the gene damages each file with its
   probability (torn write / truncation / bit rot, mode drawn from the
   evaluation seed via ``repro.faults``), and
   :func:`~repro.persist.checkpoint.restore_dynamic_service` recovers
   through the quarantine/fallback chain.  Rewards: post-restore wrong
   answers against the reference set frozen at the restored
   generation (the correctness break — quarantine let damage
   through), generations lost to fallback, and total loss.
   Corruption-free genomes skip the stage and contribute no ``ckpt_*``
   keys, preserving every pre-PR-10 fixture digest.

Everything timing-dependent (wall clock, failover counts) is excluded
from both the metrics and the digest, so
:meth:`Evaluation.digest` — a SHA-256 over the canonical metrics plus
both probe-counter digests (the E22 machinery) — is byte-identical on
every replay of the same ``(genome, config, seed)`` triple.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from repro.adversary.genome import Genome, build_schedule
from repro.contention import exact_contention
from repro.errors import FabricError
from repro.faults import FaultConfig
from repro.serve.chaos import FABRIC_KINDS, require_armed, run_chaos
from repro.serve.service import build_service
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer
from repro.workloads.spec import distribution_from_spec

#: One-sided z allowance above the max-of-Gaussians correction (the
#: envelope becomes a *reward* above this, not a failure below it).
ENVELOPE_SIGMA = 3.0

#: Fabric-stage batch boundaries at which fabric events may land.
FABRIC_CHUNKS = 8

#: Cap on the per-process Φ cache (keyed by workload; evictions FIFO).
_PHI_CACHE_LIMIT = 64

_PHI_CACHE: dict[tuple, np.ndarray] = {}


@dataclasses.dataclass(frozen=True)
class EvalConfig:
    """The fixed (non-evolving) half of an evaluation: target sizing.

    ``procs == 0`` skips the fabric stage entirely — the search loop
    runs that way for speed and lets E23's red-team part apply fabric
    genes explicitly; fixtures record whichever config found them.
    """

    n: int = 48
    replicas: int = 5
    requests: int = 600
    procs: int = 0
    fabric_queries: int = 192
    fabric_replicas: int = 3

    def __post_init__(self):
        check_positive_integer("n", self.n)
        check_positive_integer("replicas", self.replicas)
        check_positive_integer("requests", self.requests)
        check_positive_integer("fabric_queries", self.fabric_queries)
        check_positive_integer("fabric_replicas", self.fabric_replicas)
        if int(self.procs) < 0:
            raise ValueError(f"procs must be >= 0, got {self.procs}")

    def to_dict(self) -> dict:
        """JSON-safe dict form (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(**{
            f.name: d[f.name]
            for f in dataclasses.fields(cls)
            if f.name in d
        })


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """One genome's scored replay: fitness, raw metrics, replay digest."""

    fitness: float
    metrics: dict
    digest: str

    def row(self) -> dict:
        """Flat dict for experiment tables: fitness + key metrics."""
        keep = (
            "wrong_answers", "violations", "shed", "degraded_shed",
            "latency_p99", "envelope_exceed", "quarantined",
            "fabric_wrong", "fabric_stalled", "fabric_crc_ok",
            "dyn_wrong", "dyn_pinned_wrong", "dyn_backlog_shed",
            "dyn_rebuilds",
            "at_wrong", "at_detect_latency", "at_decisions",
            "ckpt_wrong", "ckpt_quarantined", "ckpt_generations_lost",
        )
        row = {"fitness": round(self.fitness, 4), "digest": self.digest[:12]}
        row.update({k: self.metrics[k] for k in keep if k in self.metrics})
        return row


def _phi_total(service, dist, cache_key) -> np.ndarray:
    """Exact per-cell total contention, memoized per workload shape."""
    if cache_key in _PHI_CACHE:
        return _PHI_CACHE[cache_key]
    phi = exact_contention(service.shards[0], dist).phi.sum(axis=0)
    while len(_PHI_CACHE) >= _PHI_CACHE_LIMIT:
        _PHI_CACHE.pop(next(iter(_PHI_CACHE)))
    _PHI_CACHE[cache_key] = phi
    return phi


def _envelope_exceedance(report, phi_total) -> dict:
    """The E21 envelope test as a graded signal instead of a pass/fail.

    Uses the final snapshot's cumulative per-cell counts against
    ``completed * phi * 2`` (verified dispatch probes primary +
    witness).  Returns the max z, the max-of-Gaussians threshold, and
    ``exceed = max(0, max_z - threshold)`` — the fitness reward.
    """
    snap = report.snapshots[-1]
    completed = int(snap["completed"])
    counts = np.asarray(snap["cell_counts"], dtype=np.float64)
    p = np.clip(phi_total * 2.0, 0.0, 1.0)
    expected = completed * p
    testable = expected >= 10.0
    tested = int(np.count_nonzero(testable))
    if completed <= 0 or tested == 0:
        return {
            "envelope_tested": 0,
            "envelope_max_z": 0.0,
            "envelope_threshold": 0.0,
            "envelope_exceed": 0.0,
        }
    threshold = ENVELOPE_SIGMA + math.sqrt(2.0 * math.log(tested))
    sd = np.sqrt(expected * np.clip(1.0 - p, 0.1, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(testable, (counts - expected) / sd, 0.0)
    max_z = float(z.max())
    return {
        "envelope_tested": tested,
        "envelope_max_z": round(max_z, 6),
        "envelope_threshold": round(threshold, 6),
        "envelope_exceed": round(max(0.0, max_z - threshold), 6),
    }


def _healing_stage(genome: Genome, config: EvalConfig, seed) -> dict:
    """Replay the genome against the armed, healing in-process service."""
    # Imported lazily: repro.experiments.e23_adversary imports this
    # package, so a module-level import would be circular.
    from repro.experiments.common import make_instance

    keys, N = make_instance(config.n, seed)
    dist = distribution_from_spec(genome.workload_spec(), keys, N)
    spike_dist = (
        distribution_from_spec(
            {
                "family": "hotspot",
                "skew": 1.0,
                "positive_fraction": genome.positive_fraction,
                "hot_keys": list(genome.hot_keys),
            },
            keys,
            N,
        )
        if genome.hot_keys
        else None
    )
    horizon = config.requests / genome.rate
    service = build_service(
        keys, N, num_shards=1, replicas=config.replicas, router="random",
        max_batch=32, max_delay=0.25, capacity=1024,
        faults=FaultConfig(armed=True), seed=seed + 1,
    )
    require_armed(service)
    service.enable_healing(seed=seed + 2)
    d = service.shards[0]
    inner_cells = d.inner_rows * d.table.s
    phi_total = _phi_total(
        service, dist,
        (config.n, config.replicas, int(seed),
         json.dumps(genome.workload_spec(), sort_keys=True)),
    )
    schedule = build_schedule(genome, horizon, config.replicas, inner_cells)
    report = run_chaos(
        service, dist, schedule, config.requests, genome.rate,
        seed=seed, expected_keys=keys, spike_dist=spike_dist,
        high_priority_fraction=genome.high_priority_fraction,
    )
    quarantined = sum(
        1 for state in report.final_states.values() if state != "healthy"
    )
    metrics = {
        "requested": report.requested,
        "completed": report.completed,
        "shed": report.shed,
        "degraded_shed": report.degraded_shed,
        "wrong_answers": report.wrong_answers,
        "violations": int(report.heal.get("violations", 0)),
        "quarantined": quarantined,
        "replicas": config.replicas,
        "events_applied": report.events_applied,
        "events_skipped": report.events_skipped,
        "heal_ticks": report.heal_ticks,
        "mttr_max": float(max(report.mttr) if report.mttr else 0.0),
        "latency_p50": report.latency_p50,
        "latency_p95": report.latency_p95,
        "latency_p99": report.latency_p99,
        "horizon": float(horizon),
        "duration": report.duration,
        "heal_counter_digest": d.table.counter.digest(),
    }
    metrics.update(_envelope_exceedance(report, phi_total))
    return metrics


def _fabric_stage(genome: Genome, config: EvalConfig, seed) -> dict:
    """Replay the genome's fabric genes against a real worker pool.

    Queries are served in :data:`FABRIC_CHUNKS` contiguous batches;
    each fabric event lands *before* the batch its horizon fraction
    maps to, so faults never race an in-flight group.  A fabric that
    raises :class:`~repro.errors.FabricError` is recorded as stalled
    (a find, not a harness crash).
    """
    from repro.experiments.common import make_instance
    from repro.parallel.fabric import build_parallel_service

    keys, N = make_instance(config.n, seed)
    dist = distribution_from_spec(genome.workload_spec(), keys, N)
    horizon = config.requests / genome.rate
    fabric_events = []
    schedule = build_schedule(
        genome, horizon, config.fabric_replicas, max(config.n, 1)
    )
    for event in schedule.events:
        if event.kind in FABRIC_KINDS:
            chunk = min(
                int(float(event.time) / horizon * FABRIC_CHUNKS),
                FABRIC_CHUNKS - 1,
            )
            fabric_events.append((chunk, event))
    queries = dist.sample(as_generator(seed + 5), config.fabric_queries)
    truth = np.isin(queries, keys)
    edges = np.linspace(0, queries.size, FABRIC_CHUNKS + 1).astype(int)
    svc = build_parallel_service(
        keys, N, procs=config.procs, replicas=config.fabric_replicas,
        router="random", seed=seed + 1,
    )
    wrong = 0
    stalled = False
    try:
        for chunk in range(FABRIC_CHUNKS):
            for when, event in fabric_events:
                if when == chunk:
                    svc.apply_fabric_event(event)
            lo, hi = edges[chunk], edges[chunk + 1]
            if lo == hi:
                continue
            try:
                answers = svc.query_batch(queries[lo:hi])
            except FabricError:
                stalled = True
                break
            wrong += int(np.sum(answers != truth[lo:hi]))
        return {
            "fabric_ran": True,
            "fabric_queries": int(queries.size),
            "fabric_wrong": wrong,
            "fabric_stalled": stalled,
            "fabric_crc_ok": bool(
                all(
                    svc.pool.table_crc_ok(s)
                    for s in range(svc.num_shards)
                )
            ),
            "fabric_kills": svc.fabric_stats.kills,
            "fabric_corruptions": svc.fabric_stats.segment_corruptions,
            "fabric_counter_digest": svc.merged_counter(0).digest(),
        }
    finally:
        svc.close()


#: Dynamic-stage sizing: universe and interleaved request count.
DYNAMIC_UNIVERSE = 1 << 12
DYNAMIC_REQUESTS = 200


def _dynamic_stage(genome: Genome, config: EvalConfig, seed) -> dict:
    """Replay the genome's update stream against the mutable service.

    An interleaved open stream: each tick submits an update with
    probability ``update_fraction`` (delete share ``delete_fraction``,
    half the keys drawn from ``update_hot_keys`` when present — the
    churn that forces repeated small-level rebuilds), then a read
    biased onto the same keys, then advances virtual time.  Same-tick
    completions are checked against the reference set
    (read-your-writes), and a final epoch-pinned multi-key read is
    checked against the full reference.  Pure in
    ``(genome, config, seed)``; the shard's query-counter digest is
    folded into the metrics so replays compare *accounting*, not just
    headline counts.
    """
    from repro.errors import OverloadError, UpdateBacklogError
    from repro.serve.dynamic_service import build_dynamic_service

    svc = build_dynamic_service(
        DYNAMIC_UNIVERSE,
        num_shards=1,
        replicas=min(config.replicas, 3),
        seed=seed + 13,
        max_batch=8,
        max_delay=2.0,
        update_batch=4,
        update_delay=2.0,
        update_capacity=32,
        capacity=128,
    )
    rng = as_generator(seed + 17)
    hot = np.asarray(genome.update_hot_keys, dtype=np.int64) % DYNAMIC_UNIVERSE
    ref: set[int] = set()
    wrong = checked = shed_updates = shed_reads = 0

    def draw_key() -> int:
        if hot.size and rng.random() < 0.5:
            return int(hot[int(rng.integers(0, hot.size))])
        return int(rng.integers(0, DYNAMIC_UNIVERSE))

    for i in range(DYNAMIC_REQUESTS):
        now = float(i)
        if rng.random() < genome.update_fraction:
            k = draw_key()
            ins = rng.random() >= genome.delete_fraction
            try:
                svc.submit_update(k, ins, now)
                (ref.add if ins else ref.discard)(k)
            except UpdateBacklogError:
                shed_updates += 1
        ticket = None
        try:
            ticket = svc.submit(draw_key(), now)
        except OverloadError:
            shed_reads += 1
        svc.advance(now)
        if ticket is not None and ticket.done:
            checked += 1
            wrong += int(ticket.answer != (ticket.key in ref))
    svc.drain(float(DYNAMIC_REQUESTS))
    sample = rng.integers(0, DYNAMIC_UNIVERSE, size=128)
    answers, _ = svc.read_pinned(sample, float(DYNAMIC_REQUESTS) + 1.0)
    truth = np.isin(
        sample,
        np.fromiter(ref, dtype=np.int64, count=len(ref))
        if ref else np.empty(0, dtype=np.int64),
    )
    pinned_wrong = int(np.sum(answers != truth))
    row = svc.stats_row()
    shard = svc.shards[0]
    rebuilds = sum(
        len(shard.account(r).rebuilds)
        for r in shard.live_replicas()
    )
    return {
        "dyn_ran": True,
        "dyn_requests": DYNAMIC_REQUESTS,
        "dyn_checked": checked,
        "dyn_wrong": wrong,
        "dyn_pinned_wrong": pinned_wrong,
        "dyn_updates_applied": int(row["updates_applied"]),
        "dyn_update_groups": int(row["update_groups"]),
        "dyn_backlog_shed": shed_updates + int(row["shed_updates"]),
        "dyn_read_shed": shed_reads,
        "dyn_epoch": int(shard.epoch),
        "dyn_rebuilds": rebuilds,
        "dyn_counter_digest": shard.query_counter_digest(),
    }


#: Persistence-stage sizing: universe, checkpointed generations, and
#: updates applied between consecutive checkpoints.
PERSIST_UNIVERSE = 1 << 10
PERSIST_GENERATIONS = 3
PERSIST_UPDATES_PER_GEN = 40


def _persistence_stage(genome: Genome, config: EvalConfig, seed) -> dict:
    """Replay the genome's checkpoint-corruption gene against recovery.

    Runs only when ``genome.checkpoint_corruption > 0``.  A one-shard
    mutable service applies the genome's update mix (delete share and
    hot-key churn reused from the update genes), checkpointing after
    each of :data:`PERSIST_GENERATIONS` rounds and freezing the
    reference key set at every generation.  Each surviving checkpoint
    file is then independently damaged with probability
    ``checkpoint_corruption`` — torn write, truncation, or bit rot,
    mode and parameters drawn from the stage RNG — and recovery runs
    the full quarantine/fallback chain.  The stage is pure in
    ``(genome, config, seed)``: the scratch directory's path never
    enters the metrics, file names are deterministic, and post-restore
    verification charges only recovery counters, so the query-counter
    digest folded into the metrics is reproducible byte-for-byte.

    A correct stack concedes only *freshness* here (fallback to an
    older generation, or an empty restart when nothing survives) —
    never *correctness*: ``ckpt_wrong`` compares post-restore answers
    over the whole universe against the reference frozen at whichever
    generation recovery actually restored.
    """
    import tempfile

    from repro.errors import CheckpointError
    from repro.faults import flip_file_bit, torn_write, truncate_file
    from repro.persist import CheckpointStore, restore_dynamic_service
    from repro.serve.dynamic_service import build_dynamic_service

    rng = as_generator(seed + 23)
    svc = build_dynamic_service(
        PERSIST_UNIVERSE,
        num_shards=1,
        replicas=2,
        seed=seed + 29,
        update_batch=4,
        update_delay=1.0,
        update_capacity=64,
        log_retention=64,
    )
    hot = (
        np.asarray(genome.update_hot_keys, dtype=np.int64)
        % PERSIST_UNIVERSE
    )
    delete_fraction = genome.delete_fraction
    ref: set[int] = set()
    ref_at: dict[int, frozenset] = {0: frozenset()}
    now = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp, keep=PERSIST_GENERATIONS)
        svc.attach_checkpoints(store)
        for _ in range(PERSIST_GENERATIONS):
            for _ in range(PERSIST_UPDATES_PER_GEN):
                if hot.size and rng.random() < 0.5:
                    k = int(hot[int(rng.integers(0, hot.size))])
                else:
                    k = int(rng.integers(0, PERSIST_UNIVERSE))
                ins = rng.random() >= delete_fraction
                svc.submit_update(k, ins, now)
                (ref.add if ins else ref.discard)(k)
                now += 1.0
                svc.advance(now)
            svc.drain(now)
            now += 10.0
            ref_at[svc.checkpoint(now)] = frozenset(ref)
        corrupted = 0
        for _shard, _gen, path in store.generations():
            if rng.random() >= genome.checkpoint_corruption:
                continue
            mode = int(rng.integers(0, 3))
            damage_seed = int(rng.integers(0, 2**31))
            if mode == 0:
                torn_write(
                    path, float(rng.uniform(0.05, 0.95)), seed=damage_seed
                )
            elif mode == 1:
                truncate_file(path, int(rng.integers(0, 256)))
            else:
                flip_file_bit(
                    path, seed=damage_seed, count=int(rng.integers(1, 9))
                )
            corrupted += 1
        total_loss = False
        wrong = quarantined = replayed = restored_gen = 0
        counter_digest = ""
        try:
            restored, report = restore_dynamic_service(tmp, verify=True)
        except CheckpointError:
            # Every generation of every shard was quarantined: recovery
            # correctly refuses to fabricate state.  Freshness loss is
            # total, correctness is intact.
            total_loss = True
        else:
            quarantined = int(report["quarantined"])
            replayed = int(report["replayed"])
            restored_gen = int(report["shards"][0]["generation"])
            expect = ref_at.get(restored_gen, frozenset())
            sample = np.arange(PERSIST_UNIVERSE, dtype=np.int64)
            truth = np.isin(
                sample,
                np.fromiter(expect, dtype=np.int64, count=len(expect))
                if expect else np.empty(0, dtype=np.int64),
            )
            shard = restored.shards[0]
            answers = shard.query_batch(sample, rng=as_generator(seed + 31))
            wrong = int(np.sum(answers != truth))
            counter_digest = shard.query_counter_digest()
    lost = (
        PERSIST_GENERATIONS if total_loss
        else PERSIST_GENERATIONS - restored_gen
    )
    return {
        "ckpt_ran": True,
        "ckpt_generations": PERSIST_GENERATIONS,
        "ckpt_corrupted": corrupted,
        "ckpt_quarantined": quarantined,
        "ckpt_total_loss": total_loss,
        "ckpt_restored_generation": restored_gen,
        "ckpt_generations_lost": lost,
        "ckpt_replayed": replayed,
        "ckpt_wrong": wrong,
        "ckpt_counter_digest": counter_digest,
    }


#: Autotune-stage sizing: chaos requests (half the healing stage keeps
#: the stage affordable inside the search loop).
AUTOTUNE_REQUESTS_DIVISOR = 2

#: Silent-damage event kinds whose injection starts the detection clock.
_DAMAGE_KINDS = ("corrupt", "stick")


def _autotune_stage(genome: Genome, config: EvalConfig, seed) -> dict:
    """Replay the genome against a healing service *with autotune on*.

    Runs only when ``genome.autotune_cooldown > 0``.  The controller's
    cooldown window comes from the gene; structural splits rebind the
    shard's health machinery mid-chaos (scrub position resets, new
    replicas start unwatched), so the search can probe whether a
    well-timed reconfiguration retards corruption detection.  The
    headline signal is **detection latency**: virtual time from the
    first silent-damage injection (``corrupt`` / ``stick``) to the
    first ``quarantined`` transition at or after it — the full stage
    horizon's remainder if the damage is never caught.  Pure in
    ``(genome, config, seed)``; only ``at_*`` keys are emitted, so
    controller-free genomes replay to their pre-PR-9 digests.
    """
    from repro.autotune import AutotunePolicy
    from repro.experiments.common import make_instance

    requests = max(config.requests // AUTOTUNE_REQUESTS_DIVISOR, 50)
    keys, N = make_instance(config.n, seed)
    dist = distribution_from_spec(genome.workload_spec(), keys, N)
    horizon = requests / genome.rate
    service = build_service(
        keys, N, num_shards=1, replicas=config.replicas, router="random",
        max_batch=32, max_delay=0.25, capacity=1024,
        faults=FaultConfig(armed=True), seed=seed + 7,
    )
    require_armed(service)
    service.enable_healing(seed=seed + 8)
    cooldown = float(genome.autotune_cooldown)
    # low_load=0 disables joins (the compiled schedule's victim indices
    # must stay valid); splits and admission moves remain live.
    controller = service.enable_autotune(
        policy=AutotunePolicy(
            cooldown=cooldown,
            check_every=max(cooldown / 4.0, 0.125),
            low_load=0.0,
            max_replicas=config.replicas + 2,
        ),
        seed=seed + 9,
    )
    d = service.shards[0]
    inner_cells = d.inner_rows * d.table.s
    schedule = build_schedule(genome, horizon, config.replicas, inner_cells)
    report = run_chaos(
        service, dist, schedule, requests, genome.rate,
        seed=seed, expected_keys=keys,
        high_priority_fraction=genome.high_priority_fraction,
    )
    damage_times = [
        float(e.time) for e in schedule.events if e.kind in _DAMAGE_KINDS
    ]
    if damage_times:
        first_damage = min(damage_times)
        caught = [
            float(t)
            for machine in service.health.machines.values()
            for (t, _src, target, _reason) in machine.transitions
            if target == "quarantined" and float(t) >= first_damage
        ]
        detect_latency = (
            min(caught) - first_damage if caught
            else max(horizon - first_damage, 0.0)
        )
    else:
        detect_latency = 0.0
    return {
        "at_ran": True,
        "at_cooldown": round(cooldown, 6),
        "at_requests": requests,
        "at_horizon": round(float(horizon), 6),
        "at_damage_events": len(damage_times),
        "at_detect_latency": round(float(detect_latency), 6),
        "at_wrong": report.wrong_answers,
        "at_violations": int(report.heal.get("violations", 0)),
        "at_decisions": int(controller.applied),
        "at_skips": int(controller.skipped),
        "at_counter_digest": d.table.counter.digest(),
    }


def fitness_from_metrics(metrics: dict) -> float:
    """Score a metrics dict: bigger = a more damaging genome.

    Correctness breaks dominate (wrong answers and quarantine
    violations at 1000 apiece, a stalled fabric at 400, exposed fabric
    wrong answers at 300 per unit fraction); availability and latency
    damage (shed, degraded, p99, MTTR, quarantine) and envelope
    exceedance fill in the gradient the search climbs when the stack
    is — as it should be — correct.
    """
    requested = max(int(metrics.get("requested", 1)), 1)
    horizon = max(float(metrics.get("horizon", 1.0)), 1e-9)
    fitness = 0.0
    fitness += 1000.0 * metrics.get("wrong_answers", 0)
    fitness += 1000.0 * metrics.get("violations", 0)
    fitness += 100.0 * metrics.get("shed", 0) / requested
    fitness += 40.0 * metrics.get("degraded_shed", 0) / requested
    fitness += 50.0 * min(metrics.get("latency_p99", 0.0) / horizon, 1.0)
    fitness += 10.0 * metrics.get("envelope_exceed", 0.0)
    replicas = max(int(metrics.get("replicas", 1)), 1)
    fitness += 60.0 * metrics.get("quarantined", 0) / replicas
    fitness += 20.0 * min(metrics.get("mttr_max", 0.0) / horizon, 1.0)
    if metrics.get("fabric_ran"):
        fitness += 400.0 * bool(metrics.get("fabric_stalled"))
        fitness += 300.0 * metrics.get("fabric_wrong", 0) / max(
            int(metrics.get("fabric_queries", 1)), 1
        )
        fitness += 5.0 * (not metrics.get("fabric_crc_ok", True))
        fitness += 2.0 * metrics.get("fabric_kills", 0)
    if metrics.get("dyn_ran"):
        fitness += 1000.0 * metrics.get("dyn_wrong", 0)
        fitness += 1000.0 * metrics.get("dyn_pinned_wrong", 0)
        fitness += 80.0 * metrics.get("dyn_backlog_shed", 0) / max(
            int(metrics.get("dyn_requests", 1)), 1
        )
        fitness += 10.0 * min(metrics.get("dyn_rebuilds", 0) / 100.0, 1.0)
    if metrics.get("ckpt_ran"):
        # Persistence stage: quarantine letting damage through to a
        # wrong answer is the jackpot; freshness loss (falling back to
        # an older generation, or losing everything) earns a graded
        # reward so the search keeps probing the fallback chain even
        # while correctness holds.
        gens = max(int(metrics.get("ckpt_generations", 1)), 1)
        fitness += 1000.0 * metrics.get("ckpt_wrong", 0)
        fitness += 30.0 * metrics.get("ckpt_generations_lost", 0) / gens
        fitness += 20.0 * bool(metrics.get("ckpt_total_loss"))
        fitness += 2.0 * metrics.get("ckpt_quarantined", 0)
    if metrics.get("at_ran"):
        # Autotune stage: correctness breaks dominate as everywhere;
        # the graded term rewards *detection latency* — silent damage
        # that survives longer before quarantine (e.g. because a
        # reconfiguration rebound the scrubber at the wrong moment)
        # scores higher, steering the search toward detection gaps.
        at_horizon = max(float(metrics.get("at_horizon", 1.0)), 1e-9)
        fitness += 1000.0 * metrics.get("at_wrong", 0)
        fitness += 1000.0 * metrics.get("at_violations", 0)
        if metrics.get("at_damage_events", 0):
            fitness += 25.0 * min(
                metrics.get("at_detect_latency", 0.0) / at_horizon, 1.0
            )
    return float(fitness)


def evaluate(genome: Genome, config: EvalConfig, seed) -> Evaluation:
    """Deterministically score one genome; pure in ``(genome, config, seed)``.

    Runs the healing stage always and the fabric stage when
    ``config.procs >= 1``, folds both metric sets into one dict, scores
    it with :func:`fitness_from_metrics`, and stamps the replay digest:
    SHA-256 over the canonical JSON of ``(genome digest, config, seed,
    metrics)`` — metrics that already embed both probe-counter digests,
    so byte-identical replay means identical *accounting*, not just
    identical headline numbers.
    """
    metrics = _healing_stage(genome, config, int(seed))
    if config.procs >= 1:
        metrics.update(_fabric_stage(genome, config, int(seed)))
    else:
        metrics["fabric_ran"] = False
    # Read-only genomes contribute no dyn_* keys at all — the metrics
    # dict (and hence the replay digest) of every pre-update-gene
    # fixture is byte-identical to what it was before this stage existed.
    if genome.update_fraction > 0.0:
        metrics.update(_dynamic_stage(genome, config, int(seed)))
    # Same contract for the autotune gene: controller-free genomes
    # contribute no at_* keys and replay to their pre-PR-9 digests.
    if genome.autotune_cooldown > 0.0:
        metrics.update(_autotune_stage(genome, config, int(seed)))
    # And for the checkpoint-corruption gene: corruption-free genomes
    # contribute no ckpt_* keys and replay to their pre-PR-10 digests.
    if genome.checkpoint_corruption > 0.0:
        metrics.update(_persistence_stage(genome, config, int(seed)))
    fitness = fitness_from_metrics(metrics)
    payload = json.dumps(
        {
            "genome": genome.digest(),
            "config": config.to_dict(),
            "seed": int(seed),
            "metrics": metrics,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return Evaluation(
        fitness=fitness,
        metrics=metrics,
        digest=hashlib.sha256(payload.encode()).hexdigest(),
    )
