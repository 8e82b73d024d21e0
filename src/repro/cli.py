"""Command-line interface: ``python -m repro <command>``.

Commands
--------

- ``list [--json]`` — show the experiment registry (E1–E23) with
  titles (``--json`` prints a machine-readable object including the
  telemetry capability descriptor).
- ``run E5 [--full] [--seed 0] [--json out.json]`` — run one experiment
  (or ``all``) and print its regenerated table.  Resilience is opt-in:
  ``--timeout``/``--retries``/``--retry-backoff`` harden individual
  experiments, ``--checkpoint-dir`` makes multi-experiment runs
  crash-safe (kill and re-invoke to resume), and
  ``--fail-fast``/``--keep-going`` pick the multi-experiment failure
  semantics.  ``--emit-telemetry DIR`` writes one bus-collected metrics
  snapshot per experiment without changing any result.
- ``survey [--n 512] [--seed 0]`` — the §1.3 contention comparison
  across all schemes on one instance.
- ``serve [--n 256] [--smoke-queries 64] [--duration 0] [--metrics]
  [--heal] [--procs N] [--dynamic]`` — boot the asyncio dictionary
  server (:mod:`repro.serve`) over a random instance, answer a seeded
  self-test workload, optionally stay up; ``--metrics`` attaches a
  telemetry hub and prints the Prometheus exposition on shutdown;
  ``--heal`` arms fault injection and enables the self-healing layer;
  ``--procs N`` serves through N real worker processes over shared
  memory (:mod:`repro.parallel`; clamped to available CPUs, and the
  metrics exposition then carries per-worker queue depths);
  ``--dynamic`` boots the *mutable* sharded service instead
  (:mod:`repro.serve.dynamic_service`): the smoke workload interleaves
  inserts with reads, checks read-your-writes, and finishes with an
  epoch-pinned multi-key read verified against ground truth;
  ``--autotune`` attaches the closed-loop control plane
  (:mod:`repro.autotune`) — capability-gated, so it composes with
  every deployment — and prints the decision-trace digest on shutdown.
  Invalid flag combinations are rejected up front with typed errors
  (exit 2).
- ``autotune run|inspect|replay`` — the control plane
  (:mod:`repro.autotune`): ``run`` drives a seeded hot-shard workload
  under the controller and writes the byte-replayable decision trace,
  ``inspect`` prints a policy's effective parameters and identity
  digest, and ``replay`` re-derives every decision of a saved trace
  and exits 1 unless the replay is byte-identical.
- ``chaos [--requests 4000] [--crashes 1] [--corruptions 1]`` — run a
  seeded randomized fault schedule (crashes, bit flips, stuck cells,
  contention spikes) against a healing-enabled service and report
  recoveries, repairs, and wrong answers (exit 1 on any wrong answer
  or quarantine violation).
- ``adversary search|replay|minimize`` — the evolutionary red team
  (:mod:`repro.adversary`): ``search`` evolves attack genomes against
  the self-healing stack and can save the best find as a JSON fixture,
  ``replay`` re-evaluates fixtures and exits 1 unless every one
  reproduces its digest byte-identically with zero wrong answers and
  zero quarantine violations, and ``minimize`` greedily shrinks a
  fixture's genome while keeping most of its fitness.
- ``loadgen [--requests 2000] [--discipline open] [--router
  least-loaded]`` — deterministic virtual-time load generation against
  a fresh service; prints throughput, latency percentiles, and
  per-replica probe loads.
- ``stats [--monitor] [--prometheus] [--json snap.json]`` — drive a
  seeded workload through an instrumented service and print the
  collected metrics; ``--monitor`` checks live per-cell counts against
  the exact Φ_t law and reports any hot-cell alarms.
- ``trace --out trace.json [--fmt chrome]`` — record the full
  request → admission → batch → route → replica → probe span tree for
  a seeded workload and write it as Chrome ``trace_event`` JSON
  (loadable in ``chrome://tracing`` / Perfetto) or raw span JSON.
- ``info [--json]`` — package, paper, and reproduction-band summary.

The CLI is a thin veneer over :mod:`repro.experiments`; everything it
prints is available programmatically.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.errors import ExperimentFailureError, ReproError
from repro.experiments import EXPERIMENTS
from repro.io.results import save_results


def _cmd_list(args) -> int:
    if args.json:
        import json

        from repro.telemetry import SNAPSHOT_VERSION, TRACE_VERSION

        print(
            json.dumps(
                {
                    "experiments": {
                        eid: title
                        for eid, (title, _) in EXPERIMENTS.items()
                    },
                    "telemetry": {
                        "events": True,
                        "tracing": True,
                        "metrics": True,
                        "monitoring": True,
                        "snapshot_version": SNAPSHOT_VERSION,
                        "trace_version": TRACE_VERSION,
                        "trace_formats": ["chrome", "json"],
                    },
                },
                indent=2,
            )
        )
        return 0
    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, (title, _) in EXPERIMENTS.items():
        print(f"{eid:<{width}}  {title}")
    return 0


def _print_results(results, json_path) -> None:
    for result in results:
        print(result.render())
        print()
    if json_path:
        save_results(results, json_path)
        print(f"wrote {json_path}")


def _cmd_run(args) -> int:
    from repro.experiments.parallel import run_experiments

    try:
        results = run_experiments(
            args.experiments,
            fast=not args.full,
            seed=args.seed,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
            retries=args.retries,
            retry_backoff=args.retry_backoff,
            checkpoint_dir=args.checkpoint_dir,
            keep_going=args.keep_going,
            telemetry_dir=args.emit_telemetry,
        )
    except ExperimentFailureError as exc:
        # Keep-going runs still render everything that completed; either
        # way each failure becomes one line on stderr and a nonzero exit.
        _print_results(exc.results, args.json if exc.results else None)
        for eid, reason in exc.failures.items():
            print(f"error: {eid} failed: {reason}", file=sys.stderr)
        return 1
    _print_results(results, args.json)
    if args.emit_telemetry:
        print(f"wrote telemetry snapshots to {args.emit_telemetry}")
    return 0


def _cmd_survey(args) -> int:
    import numpy as np

    from repro.contention import measure
    from repro.experiments.common import SCHEMES, make_instance
    from repro.distributions import UniformPositiveNegative
    from repro.io import render_table

    keys, N = make_instance(args.n, args.seed)
    dist = UniformPositiveNegative(N, keys, 0.5)
    rows = []
    for name, cls in SCHEMES.items():
        d = cls(keys, N, rng=np.random.default_rng(args.seed + 1))
        rows.append(measure(d, dist).row())
    print(
        render_table(
            rows,
            columns=[
                "scheme", "space_words", "max_probes", "E[probes]",
                "max_step_phi", "ratio_step",
            ],
            title=f"Contention survey: n={args.n}, N={N}, uniform +/- queries",
        )
    )
    return 0


def _cmd_info(args) -> int:
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "package": "repro",
                    "version": __version__,
                    "paper": {
                        "title": "Low-Contention Data Structures",
                        "authors": ["Aspnes", "Eisenstat", "Yin"],
                        "venue": "SPAA 2010",
                    },
                    "experiments": list(EXPERIMENTS),
                    "docs": ["README.md", "DESIGN.md", "EXPERIMENTS.md"],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"repro {__version__} — reproduction of 'Low-Contention Data "
        "Structures'\n(Aspnes, Eisenstat, Yin; SPAA 2010).\n\n"
        f"Experiments registered: {len(EXPERIMENTS)} "
        f"({', '.join(EXPERIMENTS)})\n"
        "Docs: README.md (tour), DESIGN.md (system inventory), "
        "EXPERIMENTS.md (paper vs measured)."
    )
    return 0


def _make_service(args, armed: bool = False, procs: int = 0):
    """Shared ``serve``/``loadgen`` setup: instance + service + dist.

    ``armed`` builds the shards over armed fault injectors so chaos
    events (crash/corrupt/stick) and the healing hooks are available.
    ``procs >= 1`` serves the same shards through that many fabric
    worker processes (:mod:`repro.parallel`).
    """
    import numpy as np

    from repro.distributions import ZipfDistribution
    from repro.experiments.common import make_instance, uniform_distribution
    from repro.serve import build_service

    options = dict(
        num_shards=args.shards,
        replicas=args.replicas,
        scheme=args.scheme,
        router=args.router,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        capacity=args.capacity,
        probe_time=args.probe_time,
        seed=args.seed + 1,
    )
    keys, N = make_instance(args.n, args.seed)
    if procs:
        from repro.parallel import build_parallel_service

        service = build_parallel_service(keys, N, procs=procs, **options)
    else:
        from repro.faults import FaultConfig

        faults = FaultConfig(armed=True) if armed else None
        service = build_service(keys, N, faults=faults, **options)
    if args.workload == "zipf":
        rng = np.random.default_rng(args.seed + 2)
        candidates = np.unique(
            np.concatenate([keys, rng.integers(0, N, size=args.n)])
        )
        dist = ZipfDistribution(
            N, candidates, exponent=args.zipf_exponent,
            shuffle_ranks=args.seed + 3,
        )
    else:
        dist = uniform_distribution(keys, N)
    return keys, N, service, dist


def _validate_serve_flags(args) -> None:
    """Reject invalid ``serve`` flag combinations before construction.

    Every conflict surfaces here as a typed
    :class:`~repro.errors.ParameterError` (exit 2 via ``main``) instead
    of failing deep inside service construction.  ``--autotune``
    composes with every deployment: the controller is capability-gated,
    so the fabric and the dynamic service simply expose admission
    tuning only; ``--heal`` needs the deployment's ``heal`` capability.
    """
    from repro.errors import ParameterError
    from repro.parallel import ParallelDictionaryService
    from repro.serve import DynamicShardedService, ShardedDictionaryService
    from repro.serve.service import HEAL_UNSUPPORTED

    if args.dynamic and args.procs:
        raise ParameterError(
            "--dynamic serves in-process; --procs applies to the static "
            "fabric only"
        )
    service_cls = (
        DynamicShardedService if args.dynamic
        else ParallelDictionaryService if args.procs
        else ShardedDictionaryService
    )
    if args.heal and "heal" not in service_cls.capabilities:
        raise ParameterError(
            "--heal: " + HEAL_UNSUPPORTED.format(service=service_cls.__name__)
        )
    if args.procs < 0:
        raise ParameterError(
            f"--procs must be >= 0, got {args.procs}"
        )
    if getattr(args, "checkpoint_dir", None) and not args.dynamic:
        raise ParameterError(
            "--checkpoint-dir persists the mutable stack; it requires "
            "--dynamic (the static service is rebuilt from its keys)"
        )
    if getattr(args, "log_retention", None) is not None and not args.dynamic:
        raise ParameterError(
            "--log-retention bounds the dynamic replay log; it requires "
            "--dynamic"
        )


def _autotune_summary(controller) -> str:
    """One-line controller summary for the serve paths."""
    return (
        f"autotune: {controller.applied} action(s) applied, "
        f"{controller.skipped} skipped, "
        f"{controller.executor.reconfig_probes} reconfig probes, "
        f"trace digest {controller.trace_digest()[:16]}"
    )


def _cmd_serve_dynamic(args) -> int:
    """The ``serve --dynamic`` path: the mutable sharded service.

    Starts empty, streams the instance's keys in as micro-batched
    inserts interleaved with majority-voted reads, checks
    read-your-writes along the way, and finishes with an epoch-pinned
    multi-key read verified against the tracked reference set.

    With ``--checkpoint-dir`` the service becomes crash-restartable:
    if the directory holds a usable generation the service *recovers*
    from it (corrupt files are quarantined, not fatal) instead of
    starting empty, checkpoints periodically in virtual time when
    ``--checkpoint-every`` is set, and always writes a final
    generation on shutdown.
    """
    import time

    import numpy as np

    from repro.errors import CheckpointError, OverloadError, UpdateBacklogError
    from repro.experiments.common import make_instance
    from repro.serve import build_dynamic_service

    keys, N = make_instance(args.n, args.seed)
    store = None
    service = None
    if args.checkpoint_dir:
        from repro.persist import CheckpointStore, restore_dynamic_service

        store = CheckpointStore(args.checkpoint_dir)
        if store.latest_generation() > 0:
            try:
                service, report = restore_dynamic_service(
                    args.checkpoint_dir
                )
            except CheckpointError as exc:
                print(
                    f"recovery: no usable generation ({exc}); "
                    f"starting empty",
                    file=sys.stderr,
                )
            else:
                print(
                    f"recovered generation "
                    f"{max(s['generation'] for s in report['shards'])}: "
                    f"{report['replayed']} updates replayed, "
                    f"{report['quarantined']} corrupt file(s) quarantined, "
                    f"sources {[s['source'] for s in report['shards']]}"
                )
    if service is None:
        service = build_dynamic_service(
            N,
            num_shards=args.shards,
            replicas=args.replicas,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            capacity=args.capacity,
            log_retention=args.log_retention,
            seed=args.seed + 1,
        )
    if store is not None:
        service.attach_checkpoints(
            store,
            every=args.checkpoint_every if args.checkpoint_every > 0
            else None,
        )
    controller = (
        service.enable_autotune(seed=args.seed + 6)
        if getattr(args, "autotune", False) else None
    )
    print(
        f"serving (dynamic) universe [0, {N}) — "
        f"{args.shards} shard(s) x {args.replicas} lockstep replicas"
        + (", metrics on" if args.metrics else "")
        + (", autotune on" if controller is not None else "")
    )
    exit_code = 0
    now = 0.0
    if args.smoke_queries:
        rng = np.random.default_rng(args.seed + 4)
        ref: set[int] = set()
        ryw_wrong = 0
        ryw_checked = 0
        for i in range(args.smoke_queries):
            now += 1.0
            k = int(keys[i % keys.size])
            try:
                service.submit_update(k, True, now)
                ref.add(k)
            except UpdateBacklogError:
                pass
            try:
                ticket = service.submit(int(rng.integers(0, N)), now)
            except OverloadError:
                ticket = None
            service.advance(now)
            if ticket is not None and ticket.done:
                ryw_checked += 1
                if ticket.answer != (ticket.key in ref):
                    ryw_wrong += 1
        service.drain(now + 1.0)
        sample = rng.integers(0, N, size=max(args.smoke_queries, 1))
        answers, epochs = service.read_pinned(sample, now + 2.0)
        truth = np.isin(
            sample,
            np.fromiter(ref, dtype=np.int64, count=len(ref))
            if ref else np.empty(0, dtype=np.int64),
        )
        wrong = int(np.sum(answers != truth)) + ryw_wrong
        row = service.stats_row()
        print(
            f"smoke: {row['completed']} reads "
            f"({ryw_checked} read-your-writes checks), "
            f"{row['updates_applied']} updates in "
            f"{row['update_groups']} groups, "
            f"epochs {service.epochs_by_shard()}, "
            f"pinned read of {sample.size} keys @ epochs {epochs}, "
            f"{wrong} wrong"
        )
        if wrong:
            exit_code = 1
    if args.duration > 0:
        print(f"serving for {args.duration}s (ctrl-c to stop)")
        try:
            time.sleep(args.duration)
        except KeyboardInterrupt:
            pass
    if args.metrics:
        row = service.stats_row()
        print(
            f"metrics: {row['completed']} completed, "
            f"{row['batches']} batches, {row['probes']} probes, "
            f"{row['shed_reads']} reads shed, "
            f"{row['shed_updates']} updates shed"
        )
    if store is not None:
        generation = service.checkpoint(now + 3.0)
        print(
            f"checkpoint: wrote generation {generation} to "
            f"{args.checkpoint_dir} "
            f"({service.update_log_entries()} log entries retained, "
            f"{service.stats.compactions} compaction(s))"
        )
    if controller is not None:
        print(_autotune_summary(controller))
    return exit_code


def _cmd_serve(args) -> int:
    import asyncio
    import os

    import numpy as np

    from repro.serve import AsyncDictionaryServer

    _validate_serve_flags(args)
    if args.dynamic:
        return _cmd_serve_dynamic(args)
    procs = int(args.procs)
    cpus = os.cpu_count() or 1
    if procs > cpus:
        print(
            f"warning: --procs {procs} exceeds the {cpus} available "
            f"CPU(s); clamping to {cpus}",
            file=sys.stderr,
        )
        procs = cpus
    keys, N, service, dist = _make_service(
        args, armed=args.heal, procs=procs,
    )
    if args.metrics:
        from repro.telemetry import TelemetryHub

        service.attach_telemetry(TelemetryHub(metrics=True))
    manager = service.enable_healing(seed=args.seed + 5) if args.heal else None
    controller = (
        service.enable_autotune(seed=args.seed + 6)
        if getattr(args, "autotune", False) else None
    )

    async def session() -> int:
        async with AsyncDictionaryServer(service) as server:
            print(
                f"serving n={args.n} keys over universe [0, {N}) — "
                f"{args.shards} shard(s) x {args.replicas} replicas, "
                f"router={args.router}"
                + (f", {procs} worker process(es)" if procs else "")
                + (", metrics on" if args.metrics else "")
                + (", healing on" if manager is not None else "")
                + (", autotune on" if controller is not None else "")
            )
            if args.smoke_queries:
                rng = np.random.default_rng(args.seed + 4)
                xs = dist.sample(rng, args.smoke_queries)
                answers = await server.query_many(xs)
                sorted_keys = np.sort(keys)
                idx = np.clip(
                    np.searchsorted(sorted_keys, xs), 0, keys.size - 1
                )
                truth = sorted_keys[idx] == xs
                wrong = int(np.sum(np.asarray(answers) != truth))
                print(
                    f"smoke: {len(answers)} queries answered, "
                    f"{wrong} wrong, {service.stats.batches} batches, "
                    f"{service.stats.probes} probes"
                )
                if wrong:
                    return 1
            if args.duration > 0:
                print(f"serving for {args.duration}s (ctrl-c to stop)")
                try:
                    await asyncio.sleep(args.duration)
                except (KeyboardInterrupt, asyncio.CancelledError):
                    pass
            if args.metrics:
                if procs:
                    service.export_metrics(service.telemetry.metrics)
                snap = server.metrics_snapshot()
                print(
                    f"metrics: {snap['server']['completed']} completed, "
                    f"{snap['server']['batches']} batches, "
                    f"{snap['server']['probes']} probes"
                )
                text = server.metrics_text()
                if text:
                    print(text, end="")
            if manager is not None:
                row = manager.row()
                print(
                    f"healing: {row['recoveries']} recoveries, "
                    f"{row['quarantines']} quarantines, "
                    f"{row['cells_repaired']} cells repaired, "
                    f"{row['violations']} violations"
                )
            if controller is not None:
                print(_autotune_summary(controller))
        return 0

    try:
        return asyncio.run(session())
    finally:
        if procs:
            service.close()


def _load_autotune_policy(path):
    """An :class:`~repro.autotune.AutotunePolicy` from JSON (or defaults)."""
    import json

    from repro.autotune import AutotunePolicy

    if not path:
        return AutotunePolicy()
    with open(path) as fh:
        return AutotunePolicy.from_dict(json.load(fh))


def _cmd_autotune_inspect(args) -> int:
    """Print a policy's effective parameters and identity digest."""
    import json

    policy = _load_autotune_policy(args.policy)
    if args.json:
        print(json.dumps(policy.to_dict(), indent=2, sort_keys=True))
    else:
        for key, value in sorted(policy.to_dict().items()):
            print(f"{key:>22} = {value}")
    print(f"policy digest: {policy.digest()}")
    return 0


def _cmd_autotune_run(args) -> int:
    """Drive a seeded hot-shard workload under the controller.

    Boots a static sharded service, skews the query stream onto shard
    0, lets the controller adapt, and writes the byte-replayable
    decision trace (``--out``) for ``repro autotune replay``.
    """
    import json

    import numpy as np

    from repro.experiments.common import make_instance
    from repro.serve.service import build_service
    from repro.utils.rng import as_generator

    policy = _load_autotune_policy(args.policy)
    keys, N = make_instance(args.n, args.seed)
    service = build_service(
        keys, N,
        num_shards=args.shards,
        replicas=args.replicas,
        probe_time=0.02,
        max_batch=8,
        max_delay=0.5,
        capacity=args.capacity,
        seed=args.seed + 1,
    )
    controller = service.enable_autotune(
        policy=policy, seed=args.seed + 2
    )
    rng = as_generator(args.seed + 3)
    hot_span = max(1, N // args.shards)
    now = 0.0
    wrong = 0
    tickets = []
    for _ in range(args.requests):
        now += 1.0 / args.rate
        service.advance(now)
        if rng.random() < args.hot_fraction:
            x = int(rng.integers(0, hot_span))
        else:
            x = int(rng.integers(0, N))
        try:
            tickets.append((x, service.submit(x, now)))
        except ReproError:
            pass
    service.drain(now + 16.0)
    for x, ticket in tickets:
        if ticket.done and ticket.answer != bool(np.isin(x, keys)):
            wrong += 1
    print(
        f"ran {args.requests} requests at rate {args.rate} "
        f"({args.hot_fraction:.0%} on shard 0's range): "
        f"replicas {[s.replicas for s in service.shards]}, "
        f"{wrong} wrong answers"
    )
    print(_autotune_summary(controller))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(controller.trace_payload(), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if wrong else 0


def _cmd_autotune_replay(args) -> int:
    """Re-derive a trace's decisions; exit 1 unless byte-identical."""
    import json

    from repro.autotune import replay_trace

    with open(args.trace) as fh:
        payload = json.load(fh)
    report = replay_trace(payload)
    status = "match" if report["match"] else "MISMATCH"
    print(
        f"{args.trace}: {report['entries']} entries, "
        f"digest {report['digest'][:16]} — {status}"
    )
    if report["mismatches"]:
        print(f"mismatched entries: {report['mismatches']}")
    return 0 if report["match"] else 1


def _cmd_checkpoint_save(args) -> int:
    """Seeded workload → one durable generation (CI/demo entry point)."""
    import numpy as np

    from repro.persist import CheckpointStore
    from repro.serve import build_dynamic_service

    service = build_dynamic_service(
        args.n,
        num_shards=args.shards,
        replicas=args.replicas,
        log_retention=args.log_retention,
        seed=args.seed + 1,
    )
    store = CheckpointStore(args.dir)
    service.attach_checkpoints(store)
    rng = np.random.default_rng(args.seed + 4)
    now = 0.0
    for k in rng.choice(args.n, size=args.updates, replace=True):
        service.submit_update(int(k), bool(rng.random() >= 0.25), now)
        now += 1.0
        service.advance(now)
    service.drain(now + 1.0)
    generation = service.checkpoint(now + 2.0)
    print(
        f"wrote generation {generation} ({args.shards} shard file(s)) "
        f"to {args.dir}: epochs {service.epochs_by_shard()}, "
        f"{service.update_log_entries()} log entries retained, "
        f"{service.stats.compactions} compaction(s)"
    )
    return 0


def _cmd_checkpoint_inspect(args) -> int:
    """Verify + summarize checkpoint files without restoring them.

    ``path`` may be one ``.ckpt`` file or a checkpoint directory (every
    generation is inspected).  Corrupt files are reported and count
    toward a nonzero exit, but inspection never renames or repairs —
    quarantine is recovery's job.
    """
    import json
    import os

    from repro.errors import CheckpointCorruptError
    from repro.persist import CheckpointStore

    if os.path.isdir(args.path):
        store = CheckpointStore(args.path)
        targets = [p for (_s, _g, p) in store.generations()]
        if not targets:
            print(f"{args.path}: no checkpoint files")
            return 1
    else:
        store = CheckpointStore(os.path.dirname(args.path) or ".")
        targets = [args.path]
    rows, corrupt = [], 0
    for path in targets:
        try:
            rows.append(store.inspect(path))
        except CheckpointCorruptError as exc:
            corrupt += 1
            rows.append({"path": exc.path, "corrupt": exc.reason})
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            if "corrupt" in row:
                print(f"{row['path']}: CORRUPT — {row['corrupt']}")
            else:
                print(
                    f"{row['path']}: shard {row['shard']} "
                    f"gen {row['generation']} epoch {row['epoch']} — "
                    f"{row['live_keys']} live keys, "
                    f"{row['update_count']} updates "
                    f"({row['suffix_entries']} in the retained suffix)"
                )
    return 1 if corrupt else 0


def _cmd_checkpoint_restore(args) -> int:
    """Recover a service from a checkpoint directory and smoke-read it.

    Walks the full fallback chain (newest generation → verify →
    quarantine → older generation → log replay), prints the per-shard
    recovery report, and answers a seeded smoke batch through the
    restored service.  Exit 2 (typed error) only when *no* shard has
    any usable generation.
    """
    import numpy as np

    from repro.persist import restore_dynamic_service

    service, report = restore_dynamic_service(
        args.dir, verify=not args.no_verify
    )
    for shard in report["shards"]:
        print(
            f"shard {shard['shard']}: {shard['source']} "
            f"(generation {shard['generation']}), "
            f"{shard['replayed']} updates replayed, "
            f"{shard['quarantined']} file(s) quarantined"
        )
    print(
        f"recovery: {report['replayed']} replayed, "
        f"{report['quarantined']} quarantined, "
        f"{report['recovery_probes']} verification probes "
        f"(charged to recovery counters)"
    )
    for path, reason in report["quarantine_log"]:
        print(f"quarantined {path}: {reason}", file=sys.stderr)
    rng = np.random.default_rng(args.seed + 4)
    now = float(service.update_log_entries()) + 1.0
    sample = rng.integers(0, service.universe_size, size=64)
    answers, epochs = service.read_pinned(sample, now)
    print(
        f"smoke: pinned read of {sample.size} keys @ epochs {epochs}, "
        f"{int(answers.sum())} present"
    )
    return 0


def _cmd_loadgen(args) -> int:
    from repro.io import render_table
    from repro.serve import run_loadgen

    keys, N, service, dist = _make_service(args)
    report = run_loadgen(
        service,
        dist,
        args.requests,
        discipline=args.discipline,
        rate=args.rate,
        clients=args.clients,
        think_time=args.think_time,
        seed=args.seed + 4,
        expected_keys=keys,
    )
    print(
        render_table(
            [report.row()],
            title=(
                f"loadgen: {args.discipline} loop, {args.workload} "
                f"workload, router={args.router}, n={args.n}"
            ),
        )
    )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.row(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if report.wrong_answers else 0


def _cmd_stats(args) -> int:
    from repro.io import render_table
    from repro.serve import run_loadgen
    from repro.telemetry import ContentionMonitor, TelemetryHub

    keys, N, service, dist = _make_service(args)
    monitor = None
    if args.monitor:
        from repro.contention import exact_contention

        if args.shards != 1:
            print(
                "error: --monitor needs --shards 1 (one exact Phi_t "
                "prediction per monitored table)",
                file=sys.stderr,
            )
            return 2
        monitor = ContentionMonitor(
            exact_contention(service.shards[0], dist).phi,
            sigma_threshold=args.sigma,
        )
    hub = TelemetryHub(
        metrics=True, contention=monitor, check_every=args.check_every
    )
    service.attach_telemetry(hub)
    report = run_loadgen(
        service,
        dist,
        args.requests,
        discipline=args.discipline,
        rate=args.rate,
        clients=args.clients,
        think_time=args.think_time,
        seed=args.seed + 4,
        expected_keys=keys,
    )
    print(
        render_table(
            hub.metrics.rows(),
            title=(
                f"stats: {report.completed} requests, {args.workload} "
                f"workload, router={args.router}, n={args.n}"
            ),
        )
    )
    if monitor is not None:
        print(
            f"monitor: {monitor.checks} checks of "
            f"{monitor.cells_tested} cells, "
            f"{len(monitor.alarms)} alarm(s)"
        )
        for alarm in monitor.alarms[:10]:
            print(f"  {alarm.row()}")
        if len(monitor.alarms) > 10:
            print(f"  ... and {len(monitor.alarms) - 10} more")
    if args.prometheus:
        print(hub.metrics.to_prometheus(), end="")
    if args.json:
        from repro.io.results import save_snapshot

        save_snapshot(hub.snapshot(), args.json)
        print(f"wrote {args.json}")
    return 1 if report.wrong_answers else 0


def _cmd_chaos(args) -> int:
    from repro.errors import ParameterError
    from repro.serve import ChaosSchedule, run_chaos
    from repro.serve.chaos import require_armed
    from repro.utils.validation import check_positive_integer

    # Validate before the horizon division so a bad --rate/--requests
    # becomes a runner-style exit 2, not a raw ZeroDivisionError.
    requests = check_positive_integer("requests", args.requests)
    if not args.rate > 0:
        raise ParameterError(f"rate must be positive, got {args.rate}")
    keys, N, service, dist = _make_service(args, armed=True)
    require_armed(service)
    manager = service.enable_healing(seed=args.seed + 5)
    horizon = requests / args.rate
    d = service.shards[0]
    schedule = ChaosSchedule.generate(
        args.seed + 6,
        horizon,
        args.replicas,
        d.inner_rows * d.table.s,
        crashes=args.crashes,
        corruptions=args.corruptions,
        stuck=args.stuck,
        spikes=args.spikes,
    )
    report = run_chaos(
        service,
        dist,
        schedule,
        requests,
        args.rate,
        seed=args.seed + 4,
        expected_keys=keys,
    )
    heal = manager.row()
    mttr = manager.mttr_values()
    print(
        f"chaos: {report.completed}/{report.requested} completed, "
        f"{report.shed} shed ({report.degraded_shed} degraded), "
        f"{report.wrong_answers} wrong answers"
    )
    print(
        f"faults: {report.events_applied} events injected "
        f"({args.crashes} crash, {args.corruptions} corrupt, "
        f"{args.stuck} stuck, {args.spikes} spike)"
    )
    print(
        f"healing: {heal['recoveries']} recoveries "
        f"(max MTTR {max(mttr):.2f})" if mttr
        else "healing: 0 recoveries",
    )
    print(
        f"repairs: {heal['cells_repaired']} cells repaired, "
        f"{heal['stuck_cells']} stuck, {heal['rows_rebuilt']} rows "
        f"rebuilt, {heal['canary_queries']} canary queries, "
        f"{heal['violations']} quarantine violations"
    )
    states = " ".join(
        f"{k}={v}" for k, v in sorted(report.final_states.items())
    )
    print(f"states: {states}")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.row(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if report.wrong_answers or heal["violations"] else 0


def _adversary_config(args):
    """Build the :class:`~repro.adversary.EvalConfig` from CLI flags."""
    from repro.adversary import EvalConfig

    return EvalConfig(
        n=args.n,
        replicas=args.replicas,
        requests=args.requests,
        procs=args.procs,
    )


def _cmd_adversary_search(args) -> int:
    from repro.adversary import minimize, save_fixture, search

    config = _adversary_config(args)
    result = search(
        config,
        args.seed,
        generations=args.generations,
        population=args.population,
        elites=args.elites,
    )
    for entry in result.history:
        print(
            f"gen {entry['generation']}: best {entry['best_fitness']:.4f} "
            f"mean {entry['mean_fitness']:.4f} "
            f"({entry['evaluated']} evaluated)"
        )
    verdict = "BEAT" if result.beat_baseline else "did NOT beat"
    print(
        f"best fitness {result.best.fitness:.4f} {verdict} baseline "
        f"{result.baseline.fitness:.4f} "
        f"({result.evaluations} distinct genomes evaluated)"
    )
    metrics = result.best.metrics
    print(
        f"best genome: {len(result.best_genome.events)} events, "
        f"family={result.best_genome.family}, "
        f"rate={result.best_genome.rate:.1f}; "
        f"wrong={metrics.get('wrong_answers')}, "
        f"violations={metrics.get('violations')}, "
        f"shed={metrics.get('shed')}, "
        f"quarantined={metrics.get('quarantined')}"
    )
    if args.out:
        genome, evaluation = result.best_genome, result.best
        if args.minimize:
            genome, evaluation = minimize(genome, config, args.seed)
            print(
                f"minimized to {len(genome.events)} events at fitness "
                f"{evaluation.fitness:.4f}"
            )
        save_fixture(args.out, genome, config, args.seed, evaluation)
        print(f"wrote {args.out}")
    return 0 if result.beat_baseline else 1


def _adversary_fixture_args(args) -> list:
    """Resolve the ``fixtures``/``--dir`` operands into a path list."""
    from repro.adversary import fixture_paths
    from repro.errors import ParameterError

    paths = list(args.fixtures)
    if args.dir:
        paths.extend(fixture_paths(args.dir))
    if not paths:
        raise ParameterError(
            "no fixtures: pass paths and/or --dir with *.json files"
        )
    return paths


def _cmd_adversary_replay(args) -> int:
    from repro.adversary import replay_fixture

    failed = 0
    for path in _adversary_fixture_args(args):
        verdict = replay_fixture(path)
        status = "ok" if verdict["passed"] else "FAIL"
        print(
            f"{status}: {verdict['fixture']} "
            f"fitness {verdict['fitness']:.4f} "
            f"(stored {verdict['stored_fitness']:.4f}) "
            f"digest_match={verdict['digest_match']} "
            f"wrong_ok={verdict['no_wrong_answers']} "
            f"violations_ok={verdict['no_violations']}"
        )
        failed += 0 if verdict["passed"] else 1
    if failed:
        print(f"error: {failed} fixture(s) failed replay", file=sys.stderr)
        return 1
    return 0


def _cmd_adversary_minimize(args) -> int:
    from repro.adversary import evaluate, load_fixture, minimize, save_fixture

    fx = load_fixture(args.fixture)
    original = evaluate(fx["genome"], fx["config"], fx["seed"])
    genome, evaluation = minimize(
        fx["genome"], fx["config"], fx["seed"],
        keep_fraction=args.keep_fraction,
    )
    print(
        f"{len(fx['genome'].events)} events @ fitness "
        f"{original.fitness:.4f} -> {len(genome.events)} events @ "
        f"{evaluation.fitness:.4f}"
    )
    out = args.out or args.fixture
    save_fixture(out, genome, fx["config"], fx["seed"], evaluation)
    print(f"wrote {out}")
    return 0


def _cmd_trace(args) -> int:
    from repro.serve import run_loadgen
    from repro.telemetry import TelemetryHub

    keys, N, service, dist = _make_service(args)
    hub = TelemetryHub(metrics=True, tracing=True)
    service.attach_telemetry(hub)
    run_loadgen(
        service,
        dist,
        args.requests,
        discipline=args.discipline,
        rate=args.rate,
        clients=args.clients,
        think_time=args.think_time,
        seed=args.seed + 4,
        expected_keys=keys,
    )
    tracer = hub.tracer
    path = tracer.save(args.out, fmt=args.fmt)
    print(
        f"recorded {len(tracer.spans)} spans "
        f"({len(tracer.roots())} requests"
        + (f", {tracer.dropped} dropped" if tracer.dropped else "")
        + f") -> {path} [{args.fmt}]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for testing/completion)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-contention data structures: reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list experiments")
    list_p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    list_p.set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run experiments (ids or 'all')")
    run_p.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids, e.g. E1 E5, or 'all'",
    )
    run_p.add_argument("--full", action="store_true", help="full size ladders")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--json", help="also write results as JSON")
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are identical for any count)",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk construction cache directory (default: memory-only)",
    )
    run_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-experiment timeout in seconds (worker is killed)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failed/timed-out experiment this many times",
    )
    run_p.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        help="base retry backoff in seconds (doubles per attempt)",
    )
    run_p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist completed results here and resume from them "
        "on re-invocation (crash-safe multi-experiment runs)",
    )
    run_p.add_argument(
        "--emit-telemetry",
        default=None,
        metavar="DIR",
        help="write one bus-collected metrics snapshot per experiment "
        "into DIR (results are unchanged)",
    )
    halting = run_p.add_mutually_exclusive_group()
    halting.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="stop at the first failed experiment (default)",
    )
    halting.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        help="run remaining experiments past a failure; report all "
        "failures at the end and exit nonzero",
    )
    run_p.set_defaults(func=_cmd_run, keep_going=False)

    survey_p = sub.add_parser("survey", help="cross-scheme contention table")
    survey_p.add_argument("--n", type=int, default=512)
    survey_p.add_argument("--seed", type=int, default=0)
    survey_p.set_defaults(func=_cmd_survey)

    def add_service_options(p) -> None:
        from repro.experiments.common import SCHEMES
        from repro.serve import ROUTERS

        p.add_argument("--n", type=int, default=256, help="keys in the instance")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shards", type=int, default=1)
        p.add_argument("--replicas", type=int, default=3)
        p.add_argument(
            "--scheme", default="low-contention", choices=sorted(SCHEMES)
        )
        p.add_argument(
            "--router", default="least-loaded", choices=list(ROUTERS)
        )
        p.add_argument("--max-batch", type=int, default=32)
        p.add_argument(
            "--max-delay",
            type=float,
            default=0.25,
            help="batch flush deadline (seconds / virtual time units)",
        )
        p.add_argument("--capacity", type=int, default=1024)
        p.add_argument(
            "--probe-time",
            type=float,
            default=0.0,
            help="virtual replica service time per probe (loadgen only)",
        )
        p.add_argument(
            "--workload", default="uniform", choices=("uniform", "zipf")
        )
        p.add_argument("--zipf-exponent", type=float, default=1.1)

    serve_p = sub.add_parser(
        "serve", help="boot the asyncio dictionary server"
    )
    add_service_options(serve_p)
    serve_p.add_argument(
        "--smoke-queries",
        type=int,
        default=64,
        help="seeded self-test queries to answer on boot (0 = none)",
    )
    serve_p.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="stay up this many seconds after the smoke test",
    )
    serve_p.add_argument(
        "--metrics",
        action="store_true",
        help="attach a telemetry hub; print the Prometheus exposition "
        "on shutdown",
    )
    serve_p.add_argument(
        "--heal",
        action="store_true",
        help="arm fault injection and enable the self-healing layer "
        "(health state machines, scrubbing, rebuild)",
    )
    serve_p.add_argument(
        "--procs",
        type=int,
        default=0,
        help="serve through N real worker processes over shared memory "
        "(0 = in-process asyncio server; clamped to available CPUs)",
    )
    serve_p.add_argument(
        "--dynamic",
        action="store_true",
        help="boot the mutable sharded service (lockstep replicated "
        "dynamic dictionaries with a micro-batched write path, "
        "read-your-writes, and epoch-pinned reads)",
    )
    serve_p.add_argument(
        "--autotune",
        action="store_true",
        help="attach the closed-loop control plane (replication "
        "split/join, scheme switching, admission tuning — "
        "capability-gated per deployment); prints the decision-trace "
        "digest on shutdown",
    )
    serve_p.add_argument(
        "--checkpoint-dir",
        help="(requires --dynamic) durable checkpoint directory: "
        "recover from the newest usable generation on boot, write a "
        "final generation on shutdown",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=float,
        default=0.0,
        help="also checkpoint every this many virtual seconds while "
        "serving (0 = final checkpoint only)",
    )
    serve_p.add_argument(
        "--log-retention",
        type=int,
        default=None,
        help="(requires --dynamic) compact the replay log whenever the "
        "retained entries reach this bound (default: grow forever)",
    )
    serve_p.set_defaults(func=_cmd_serve)

    loadgen_p = sub.add_parser(
        "loadgen", help="deterministic load generation against a service"
    )
    add_service_options(loadgen_p)
    loadgen_p.add_argument("--requests", type=int, default=2000)
    loadgen_p.add_argument(
        "--discipline", default="open", choices=("open", "closed")
    )
    loadgen_p.add_argument(
        "--rate", type=float, default=64.0, help="open-loop arrival rate"
    )
    loadgen_p.add_argument(
        "--clients", type=int, default=16, help="closed-loop population"
    )
    loadgen_p.add_argument("--think-time", type=float, default=0.0)
    loadgen_p.add_argument("--json", help="also write the report as JSON")
    loadgen_p.set_defaults(func=_cmd_loadgen)

    def add_loadgen_options(p) -> None:
        p.add_argument("--requests", type=int, default=2000)
        p.add_argument(
            "--discipline", default="open", choices=("open", "closed")
        )
        p.add_argument(
            "--rate", type=float, default=64.0, help="open-loop arrival rate"
        )
        p.add_argument(
            "--clients", type=int, default=16, help="closed-loop population"
        )
        p.add_argument("--think-time", type=float, default=0.0)

    stats_p = sub.add_parser(
        "stats", help="collected metrics for a seeded workload"
    )
    add_service_options(stats_p)
    add_loadgen_options(stats_p)
    stats_p.add_argument(
        "--monitor",
        action="store_true",
        help="check live per-cell counts against the exact Phi_t law "
        "(needs --shards 1)",
    )
    stats_p.add_argument(
        "--check-every",
        type=int,
        default=8,
        help="monitor check cadence in completed batches",
    )
    stats_p.add_argument(
        "--sigma",
        type=float,
        default=3.0,
        help="monitor base threshold before the max-of-Gaussians "
        "correction",
    )
    stats_p.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the Prometheus text exposition",
    )
    stats_p.add_argument(
        "--json", help="also write the versioned telemetry snapshot here"
    )
    stats_p.set_defaults(func=_cmd_stats)

    chaos_p = sub.add_parser(
        "chaos",
        help="run a seeded chaos schedule against a self-healing service",
    )
    add_service_options(chaos_p)
    chaos_p.add_argument("--requests", type=int, default=4000)
    chaos_p.add_argument(
        "--rate", type=float, default=64.0, help="open-loop arrival rate"
    )
    chaos_p.add_argument("--crashes", type=int, default=1)
    chaos_p.add_argument("--corruptions", type=int, default=1)
    chaos_p.add_argument("--stuck", type=int, default=0)
    chaos_p.add_argument("--spikes", type=int, default=1)
    chaos_p.add_argument("--json", help="also write the report as JSON")
    # Five replicas keep a strict read majority with two damaged.
    chaos_p.set_defaults(func=_cmd_chaos, replicas=5, router="random")

    autotune_p = sub.add_parser(
        "autotune",
        help="closed-loop control plane: run, inspect, and replay traces",
    )
    autotune_sub = autotune_p.add_subparsers(
        dest="autotune_command", required=True
    )

    at_run_p = autotune_sub.add_parser(
        "run",
        help="drive a seeded hot-shard workload under the controller "
        "and write its byte-replayable decision trace",
    )
    at_run_p.add_argument("--seed", type=int, default=0)
    at_run_p.add_argument(
        "--n", type=int, default=192, help="keys in the instance"
    )
    at_run_p.add_argument("--shards", type=int, default=4)
    at_run_p.add_argument("--replicas", type=int, default=2)
    at_run_p.add_argument("--capacity", type=int, default=256)
    at_run_p.add_argument("--requests", type=int, default=2000)
    at_run_p.add_argument(
        "--rate", type=float, default=48.0, help="open-loop arrival rate"
    )
    at_run_p.add_argument(
        "--hot-fraction", type=float, default=0.8,
        help="fraction of queries aimed at shard 0's keyspace range",
    )
    at_run_p.add_argument(
        "--policy", help="policy JSON file (default: AutotunePolicy())"
    )
    at_run_p.add_argument("--out", help="write the decision trace here")
    at_run_p.set_defaults(func=_cmd_autotune_run)

    at_inspect_p = autotune_sub.add_parser(
        "inspect", help="print a policy's parameters and identity digest"
    )
    at_inspect_p.add_argument(
        "--policy", help="policy JSON file (default: AutotunePolicy())"
    )
    at_inspect_p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    at_inspect_p.set_defaults(func=_cmd_autotune_inspect)

    at_replay_p = autotune_sub.add_parser(
        "replay",
        help="re-derive a saved trace's decisions; exit 1 unless the "
        "replay is byte-identical",
    )
    at_replay_p.add_argument("trace", help="trace JSON path")
    at_replay_p.set_defaults(func=_cmd_autotune_replay)

    checkpoint_p = sub.add_parser(
        "checkpoint",
        help="durable checkpoints: save, inspect, and restore the "
        "dynamic stack",
    )
    checkpoint_sub = checkpoint_p.add_subparsers(
        dest="checkpoint_command", required=True
    )

    ck_save_p = checkpoint_sub.add_parser(
        "save",
        help="run a seeded update workload and write one durable "
        "generation",
    )
    ck_save_p.add_argument("--dir", required=True)
    ck_save_p.add_argument("--seed", type=int, default=0)
    ck_save_p.add_argument(
        "--n", type=int, default=4096, help="universe size"
    )
    ck_save_p.add_argument("--shards", type=int, default=2)
    ck_save_p.add_argument("--replicas", type=int, default=2)
    ck_save_p.add_argument(
        "--updates", type=int, default=256,
        help="seeded updates to apply before saving",
    )
    ck_save_p.add_argument(
        "--log-retention", type=int, default=128,
        help="replay-log compaction bound (use a large value to keep "
        "the full log)",
    )
    ck_save_p.set_defaults(func=_cmd_checkpoint_save)

    ck_inspect_p = checkpoint_sub.add_parser(
        "inspect",
        help="verify (CRC/SHA) and summarize checkpoint files without "
        "restoring; exit 1 if any file is corrupt",
    )
    ck_inspect_p.add_argument(
        "path", help="one .ckpt file or a checkpoint directory"
    )
    ck_inspect_p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    ck_inspect_p.set_defaults(func=_cmd_checkpoint_inspect)

    ck_restore_p = checkpoint_sub.add_parser(
        "restore",
        help="recover a service through the quarantine/fallback chain "
        "and smoke-read it",
    )
    ck_restore_p.add_argument("--dir", required=True)
    ck_restore_p.add_argument("--seed", type=int, default=0)
    ck_restore_p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the post-restore canary verification sweep",
    )
    ck_restore_p.set_defaults(func=_cmd_checkpoint_restore)

    adversary_p = sub.add_parser(
        "adversary",
        help="evolutionary red team: search, replay, and shrink attacks",
    )
    adversary_sub = adversary_p.add_subparsers(
        dest="adversary_command", required=True
    )

    def add_adversary_eval_options(p) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--n", type=int, default=48, help="keys in the target instance"
        )
        p.add_argument(
            "--replicas", type=int, default=5,
            help="healing-service replicas (5 keeps a strict majority "
            "with two damaged)",
        )
        p.add_argument(
            "--requests", type=int, default=600,
            help="requests per genome evaluation",
        )
        p.add_argument(
            "--procs", type=int, default=0,
            help="also replay each genome against N real worker "
            "processes (0 = healing service only)",
        )

    adv_search_p = adversary_sub.add_parser(
        "search", help="evolve attack genomes against the healing stack"
    )
    add_adversary_eval_options(adv_search_p)
    adv_search_p.add_argument("--generations", type=int, default=4)
    adv_search_p.add_argument("--population", type=int, default=6)
    adv_search_p.add_argument("--elites", type=int, default=2)
    adv_search_p.add_argument(
        "--out", help="save the best genome as a JSON fixture"
    )
    adv_search_p.add_argument(
        "--minimize",
        action="store_true",
        help="greedily shrink the best genome before saving",
    )
    adv_search_p.set_defaults(func=_cmd_adversary_search)

    adv_replay_p = adversary_sub.add_parser(
        "replay",
        help="re-evaluate fixtures; exit 1 unless every digest matches "
        "with zero wrong answers and zero violations",
    )
    adv_replay_p.add_argument(
        "fixtures", nargs="*", help="fixture JSON paths"
    )
    adv_replay_p.add_argument(
        "--dir", help="also replay every *.json under this directory"
    )
    adv_replay_p.set_defaults(func=_cmd_adversary_replay)

    adv_min_p = adversary_sub.add_parser(
        "minimize", help="greedily shrink a fixture's genome"
    )
    adv_min_p.add_argument("fixture", help="fixture JSON path")
    adv_min_p.add_argument(
        "--out", help="write the shrunk fixture here (default: in place)"
    )
    adv_min_p.add_argument(
        "--keep-fraction",
        type=float,
        default=0.8,
        help="accept simplifications keeping at least this fraction "
        "of the original fitness",
    )
    adv_min_p.set_defaults(func=_cmd_adversary_minimize)

    trace_p = sub.add_parser(
        "trace", help="record a span tree for a seeded workload"
    )
    add_service_options(trace_p)
    add_loadgen_options(trace_p)
    trace_p.add_argument(
        "--out", required=True, help="trace output path"
    )
    trace_p.add_argument(
        "--fmt",
        default="chrome",
        choices=("chrome", "json"),
        help="chrome trace_event JSON (chrome://tracing) or raw spans",
    )
    trace_p.set_defaults(func=_cmd_trace)

    info_p = sub.add_parser("info", help="package and paper summary")
    info_p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    info_p.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    """Parse arguments and dispatch to a command; returns the exit code.

    Library failures (:class:`~repro.errors.ReproError`) become a
    one-line ``error:`` message on stderr and exit code 2 — never a
    traceback.  Programming errors still raise.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
