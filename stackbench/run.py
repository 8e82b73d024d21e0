"""The serving-stack benchmark: one command, three workloads, one schema.

Usage (from the root of a checkout)::

    python3 stackbench/run.py --workload static-read --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run and prints every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON diagnostics block (host, raw values, per-round scale
factors).  The exit code is 1 when any answer was wrong.

Wall-clock metrics are reported at reference speed (see
``refkernel.py``); counts are exact.  ``--seconds`` sizes the main phase:
a fixed count of rounds that takes about that long at reference speed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import platform
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TMP = os.path.join(ROOT, ".bench_tmp")

LAYERS = ("driver", "serve", "parallel", "dictionaries", "core", "hashing",
          "cellprobe", "dynamic", "persist", "io")
#: The service calls the driver makes; see ``trace.service_coverage``.
SERVICE_ENTRIES = ("serve.submit", "serve.submit_update", "serve.advance",
                   "serve.drain")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _adopt_orphans() -> None:
    """Become the child subreaper, so helpers that outlive their parent
    (a fabric worker's resource tracker) are reparented here and waited
    for by :func:`_reap_children`, not left running after the run."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # SUBREAPER
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        pass


def _children() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except (OSError, ValueError):
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_children(grace_s: float = 10.0) -> None:
    """Stop this process's resource tracker, then wait for every child.

    Runs at exit, after the program's own exit handlers.  The tracker
    otherwise ends only when it reads end-of-file after this process
    has gone.  A child still running after ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_stop", None) is not None:
        tracker._stop()
    elif tracker._fd is not None:  # pragma: no cover - older Pythons
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.005)


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def _outcome(w, loop) -> tuple[int, int, int]:
    """``(attempted, failed, wrong)``: shed, errored and wrong all fail."""
    attempted = loop.attempted + w.canary_attempted
    wrong = loop.wrong + w.canary_wrong
    return attempted, loop.shed + loop.errors + wrong, wrong


def _host(w) -> dict:
    import numpy as np

    from refkernel import NOMINAL

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nominal_kernel_s": NOMINAL,
        "loop_weights": w.loop_weights,
        "setup_weights": w.setup_weights,
        "median_kernel_s": w.yard.median_kernel(),
    }


# -- the metric run ---------------------------------------------------------------


def measure(w, seconds: float):
    """The metric run: set-up, the closed loop, restores; no wrappers."""
    import numpy as np

    from workloads import _rss_mb

    svc = w.setup(w.setup_reps)
    try:
        restore = w.restorer(svc)
        gc.collect()
        loop = w.run_loop(svc, seconds, restore)
        loop.finish()
        rss = _rss_mb(w.worker_pids(svc))
        w.check_final(svc, loop)
        while len(w.restore_scaled) < w.restore_reps:
            w.time_restore(restore)
        cells = w.cells_per_update(svc)
    finally:
        w.close(svc)
    pct = lambda xs, q: float(np.percentile(xs, q))  # noqa: E731
    reads = loop.latencies_ms("read_lat")
    write_p50, write_p99, write_ups = w.writes(loop)
    metrics = {
        "setup_s": float(np.median(w.setup_scaled)),
        "read_qps": loop.rate("reads"),
        "read_p50_ms": pct(reads, 50),
        "read_p99_ms": loop.block_percentile_ms("read_lat", 99),
        "write_ups": write_ups,
        "write_p50_ms": write_p50,
        "write_p99_ms": write_p99,
        "restore_s": float(np.median(w.restore_scaled)),
        "probes_per_read": _ratio(w.exact["probes"], w.exact["reads"]),
        "cells_per_update": cells,
        "peak_rss_mb": rss,
    }
    attempted, failed, _ = _outcome(w, loop)
    metrics["ok_frac"] = _ratio(attempted - failed, attempted)
    raw_reads = loop.latencies_ms("read_lat", scaled=False)
    raw_write_p50, raw_write_p99, raw_write_ups = w.writes(loop, scaled=False)
    diag = {
        "raw": {
            "setup_s": w.setup_raw,
            "read_qps": loop.rate("reads", scaled=False),
            "read_p50_ms": pct(raw_reads, 50),
            "read_p99_ms": loop.block_percentile_ms("read_lat", 99, False),
            "read_p99_pooled_ms": pct(raw_reads, 99),
            "write_ups": raw_write_ups,
            "write_p50_ms": raw_write_p50,
            "write_p99_ms": raw_write_p99,
            "restore_s": w.restore_raw,
        },
        "round_factors": [round(r.factor, 4) for r in loop.rounds],
        "round_wall_ms": [round(r.wall_ns * 1e-6, 2) for r in loop.rounds],
        "round_kernel_ms": [
            {c: round(v * 1e3, 3) for c, v in r.kernel.items()}
            for r in loop.rounds
        ],
        "timed_calls": [
            [label, round(raw, 5),
             {c: round(v * 1e3, 3) for c, v in k.items()}]
            for label, raw, k in w.yard.samples
        ],
        "rounds": len(loop.rounds),
        "reads": loop.reads_done,
        "writes": loop.writes_done,
        "read_samples": len(reads),
        "shed": loop.shed,
        "errors": loop.errors,
        "service_stats": dict(vars(svc.stats)),
    }
    return metrics, diag, loop


# -- the traced run -----------------------------------------------------------------


def _register(tracer, w) -> None:
    """Name every layer entry point the traced run times."""
    import repro.core.dictionary as core_dictionary
    import repro.persist.checkpoint as checkpoint
    import workloads
    from loop import ClosedLoop
    from repro.cellprobe.counters import ProbeCounter
    from repro.cellprobe.table import Table
    from repro.core.dictionary import LowContentionDictionary
    from repro.dictionaries.replicated import ReplicatedDictionary
    from repro.dynamic.levels import LevelStructure
    from repro.dynamic.replicated import ReplicatedDynamicDictionary
    from repro.parallel.fabric import ParallelDictionaryService
    from repro.parallel.ring import RingBuffer
    from repro.persist import CheckpointStore
    from repro.serve.admission import AdmissionController
    from repro.serve.batcher import MicroBatcher
    from repro.serve.dynamic_service import DynamicShardedService
    from repro.serve.router import LeastLoadedRouter

    size = lambda i: (lambda a, k, r, t: len(a[i]))  # noqa: E731

    def level_keys(a, k, r, t):
        # A dynamic read asks each level it visits first for the insert
        # encoding (2x + 1, odd) of every key still undecided there, so
        # those keys count the levels the reads actually walk.
        n = len(a[1])
        if n and a[1][0] & 1 and tracer.parent() == "dynamic.query_batch":
            tracer.tally("dynamic.level_visits", n)
        return n
    add = tracer.add
    cls = w.service_class
    # The driver's own steps are spans too, so the closure check sees
    # only loop control and recorder bookkeeping as uncovered time.
    add(ClosedLoop, "_issue", "driver.issue")
    add(ClosedLoop, "_advance", "driver.advance")
    add(type(w.source), "next_op", "driver.next_op")
    add(ClosedLoop, "_harvest", "driver.harvest")
    add(cls, "submit", "serve.submit")
    add(cls, "shard_of", "serve.shard_of")
    add(cls, "advance", "serve.advance")
    add(cls, "drain", "serve.drain")
    if cls is ParallelDictionaryService:
        add(cls, "_dispatch", "parallel.dispatch")
        # The wait for worker responses has no public boundary.
        add(cls, "_collect", "parallel.wait")
        add(RingBuffer, "enqueue", "parallel.ring.enqueue")
        add(RingBuffer, "consume_batch", "parallel.ring.consume",
            units=lambda a, k, r, t: 0 if r else 1)
    else:
        add(cls, "_dispatch", "serve.dispatch")
    if cls is DynamicShardedService:
        add(cls, "submit_update", "serve.submit_update")
        add(cls, "_flush_writes", "serve.flush_writes",
            units=lambda a, k, r, t: 1 if r else 0)
    else:
        router = LeastLoadedRouter
        add(router, "assign", "serve.router.assign")
        add(router, "record", "serve.router.record")
    add(MicroBatcher, "add", "serve.batcher.add")
    add(MicroBatcher, "poll", "serve.batcher.poll")
    add(MicroBatcher, "drain", "serve.batcher.drain")
    add(AdmissionController, "admit", "serve.admission.admit")
    add(AdmissionController, "release", "serve.admission.release")
    add(ReplicatedDictionary, "query_batch_on", "dictionaries.query_batch_on")
    add(LowContentionDictionary, "query_batch", "core.query_batch",
        units=level_keys)
    add(core_dictionary, "construct", "core.construct",
        units=lambda a, k, r, t: r.trials)
    add(core_dictionary, "horner_eval_batch", "hashing.horner", units=size(1))
    add(Table, "read_batch", "cellprobe.read_batch", units=size(2))
    add(ProbeCounter, "record_batch", "cellprobe.record_batch", units=size(2))
    add(ProbeCounter, "total_probes", "cellprobe.total_probes")
    add(ProbeCounter, "total_counts", "cellprobe.total_counts")
    add(LevelStructure, "apply", "dynamic.apply")
    add(LevelStructure, "live_keys", "dynamic.live_keys")
    # A flatten is the only step of _maybe_flatten that relinks levels.
    add(LevelStructure, "_maybe_flatten", "dynamic.flatten",
        pre=lambda a: [id(lv) for lv in a[0].levels],
        units=lambda a, k, r, t: t != [id(lv) for lv in a[0].levels])
    add(ReplicatedDynamicDictionary, "apply_batch", "dynamic.apply_batch",
        units=size(1))
    add(ReplicatedDynamicDictionary, "query_batch", "dynamic.query_batch")
    add(ReplicatedDynamicDictionary, "compact_log", "dynamic.compact_log")
    add(ReplicatedDynamicDictionary, "verify_state", "dynamic.verify_state")
    add(CheckpointStore, "save", "persist.save")
    add(workloads, "restore_dynamic_service", "persist.restore")
    add(checkpoint, "frame", "io.frame", units=size(0))
    add(checkpoint, "check_frame", "io.check_frame", units=size(0))
    add(checkpoint, "atomic_write_bytes", "io.atomic_write", units=size(1))
    add(os, "fsync", "io.fsync")


def _rebuild_entries(svc) -> int:
    return sum(
        rec.entries
        for shard in svc.shards for r in range(shard.replicas)
        for rec in shard.account(r).rebuilds
    )


def traced(w, seconds: float):
    """Untraced then traced halves of one main phase, plus set-up and restore."""
    from spans import Tracer
    from workloads import Churn, FabricRead

    tracer = Tracer()
    _register(tracer, w)
    fabric = isinstance(w, FabricRead)
    half = seconds / 2.0
    svc = None
    try:
        with tracer.phase("setup"):
            svc = w.setup(1)
        gc.collect()
        loop = w.run_loop(svc, half)
        untraced = loop.rate("reads")
        mark = len(loop.rounds)
        st = svc.stats
        batches0, reads0 = st.batches, st.completed
        updates0 = getattr(st, "updates_applied", 0)
        retries0 = svc.fabric_stats.ring_full_retries if fabric else 0
        rebuilt0 = _rebuild_entries(svc) if isinstance(w, Churn) else 0
        with tracer.phase("main"):
            loop.run(w.rounds(half), w.round_ops, w.limit_s)
        rounds = loop.rounds[mark:]
        traced_qps = sum(r.reads for r in rounds) / sum(
            r.wall_ns * 1e-9 * r.factor for r in rounds)
        wall_ns = sum(r.wall_ns for r in rounds)
        batches = st.batches - batches0
        reads = st.completed - reads0
        updates = getattr(st, "updates_applied", 0) - updates0
        retries = (svc.fabric_stats.ring_full_retries - retries0
                   if fabric else 0)
        rebuilt = (_rebuild_entries(svc) - rebuilt0
                   if isinstance(w, Churn) else 0)
        replicas = svc.shards[0].replicas
        loop.finish()
        with tracer.phase("restore"):
            timed_restore = w.restorer(svc)
            w.check_final(svc, loop)
            w.time_restore(timed_restore)
    finally:
        if svc is not None:
            w.close(svc)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{w.name}-seed{w.seed}.npz"))

    main = ["main"]
    every = ["setup", "main", "restore"]
    g = lambda name, phases=main: tracer.get(phases, name)  # noqa: E731
    us = lambda name, phases=main: _ratio(g(name, phases)[1], g(name, phases)[0]) / 1e3  # noqa: E731,E501
    per_unit = lambda name, phases=main: _ratio(g(name, phases)[1], g(name, phases)[3])  # noqa: E731,E501
    selfs = tracer.self_by_name("main")
    layer_self = {layer: 0 for layer in LAYERS}
    for name, s in selfs.items():
        layer_self[name.split(".")[0]] += s
    save = g("persist.save", every)
    restore = g("persist.restore", ["restore"])
    verify = g("dynamic.verify_state", ["restore"])
    m = {
        "cellprobe.total_probes.calls_per_batch":
            _ratio(g("cellprobe.total_probes")[0], batches),
        "cellprobe.total_probes.us_per_call": us("cellprobe.total_probes"),
        "cellprobe.total_probes.self_share":
            _ratio(selfs.get("cellprobe.total_probes", 0), wall_ns),
        "cellprobe.total_counts.us_per_call": us("cellprobe.total_counts"),
        "cellprobe.read_batch.ns_per_probe": per_unit("cellprobe.read_batch"),
        "cellprobe.record_batch.ns_per_probe":
            per_unit("cellprobe.record_batch"),
        "core.query_batch.ns_per_key": per_unit("core.query_batch"),
        "core.query_batch.keys_per_call":
            _ratio(g("core.query_batch")[3], g("core.query_batch")[0]),
        "hashing.horner.ns_per_key": per_unit("hashing.horner"),
        "core.construct.ms_per_build": us("core.construct", every) / 1e3,
        "core.construct.trials_per_build":
            _ratio(g("core.construct", every)[3], g("core.construct", every)[0]),
        "dictionaries.query_batch_on.self_us_per_call":
            _ratio(g("dictionaries.query_batch_on")[2],
                   g("dictionaries.query_batch_on")[0]) / 1e3,
        "serve.submit.self_ns_per_req":
            _ratio(g("serve.submit")[2], g("serve.submit")[0]),
        "serve.shard_of.ns_per_req":
            _ratio(g("serve.shard_of")[1], g("serve.shard_of")[0]),
        "serve.router.assign.us_per_call": us("serve.router.assign"),
        "serve.admission.ns_per_req":
            _ratio(g("serve.admission.admit")[1]
                   + g("serve.admission.release")[1], g("serve.submit")[0]),
        "serve.batch_size.mean": _ratio(reads, batches),
        "serve.flush_writes.share_of_read_batches":
            _ratio(g("serve.flush_writes")[3], batches),
        "parallel.dispatch.self_us_per_batch":
            _ratio(g("parallel.dispatch")[2], g("parallel.dispatch")[0]) / 1e3,
        "parallel.wait.us_per_batch":
            _ratio(g("parallel.wait")[1], g("parallel.dispatch")[0]) / 1e3,
        "parallel.ring.enqueue_ns":
            _ratio(g("parallel.ring.enqueue")[1], g("parallel.ring.enqueue")[0]),
        "parallel.ring.empty_poll_ratio":
            _ratio(g("parallel.ring.consume")[3], g("parallel.ring.consume")[0]),
        "parallel.ring_full_retries": float(retries),
        "dynamic.apply.self_us_per_update":
            _ratio(g("dynamic.apply")[2], updates) / 1e3,
        "dynamic.live_keys.us_per_update":
            _ratio(g("dynamic.live_keys")[1], updates) / 1e3,
        "dynamic.rebuild.entries_per_update":
            _ratio(rebuilt, updates * replicas),
        "dynamic.flattens": 1e3 * _ratio(g("dynamic.flatten")[3], updates),
        "dynamic.compact.ms_per_call": us("dynamic.compact_log", every) / 1e3,
        "dynamic.levels_per_read":
            _ratio(g("dynamic.level_visits")[3], reads * replicas),
        "persist.save.ms_per_checkpoint": _ratio(save[1], save[0]) / 1e6,
        "persist.save.bytes_per_checkpoint":
            _ratio(g("io.atomic_write", every)[3], save[0]),
        "persist.fsyncs_per_checkpoint":
            _ratio(g("io.fsync", every)[0], save[0]),
        "persist.restore.verify_share": _ratio(verify[1], restore[1]),
        "io.frame.ns_per_byte": per_unit("io.frame", every),
        "io.check_frame.ns_per_byte": per_unit("io.check_frame", every),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = _ratio(layer_self[layer], wall_ns)
    m["trace.closure"] = _ratio(sum(selfs.values()), wall_ns)
    # The driver's spans absorb whatever the layer wrappers miss, so the
    # closure above stays near 1 by construction.  Inside the service's
    # entry calls nothing absorbs it: their own self time is what no
    # layer wrapper saw.
    wrapper_ns = tracer.calibrate()
    m["trace.service_coverage"] = tracer.coverage(
        "main", SERVICE_ENTRIES, wrapper_ns)
    closed = (abs(m["trace.closure"] - 1.0) <= 0.1
              and m["trace.service_coverage"] >= 0.9)
    if not closed:
        print(f"warning: closure {m['trace.closure']:.3f} (want 0.9-1.1), "
              f"service coverage {m['trace.service_coverage']:.3f} "
              f"(want >= 0.9)", file=sys.stderr)
    m["trace.overhead_qps_ratio"] = _ratio(traced_qps, untraced)
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:12]
    diag = {
        "untraced_read_qps": untraced,
        "traced_read_qps": traced_qps,
        "traced_wall_s": wall_ns * 1e-9,
        "top_self_share": {n: round(_ratio(s, wall_ns), 4) for n, s in top},
        "closure_within_10pct": closed,
        "wrapper_ns_in_parent_self": wrapper_ns,
        "note": ("fabric-read: worker processes run the query kernel; their "
                 "internals are out of reach from outside, so core/cellprobe "
                 "main-phase metrics count dispatcher-side calls only"
                 if isinstance(w, FabricRead) else ""),
    }
    return m, diag, loop


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="tiny inputs for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    _adopt_orphans()
    # Registered before the program's modules register theirs, so it
    # runs after them (exit handlers run last-in, first-out).
    atexit.register(_reap_children)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(TMP, exist_ok=True)
    # Fabric boot files and checkpoint directories stay in the checkout.
    os.environ["TMPDIR"] = TMP
    import tempfile

    tempfile.tempdir = TMP
    from workloads import WORKLOADS, new_workdir

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"options: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    workdir = new_workdir(TMP)
    t0 = time.perf_counter()
    try:
        w = WORKLOADS[args.workload](args.seed, args.small, workdir)
        run = traced if args.trace else measure
        metrics, diag, loop = run(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, wrong = _outcome(w, loop)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    diag = {"workload": w.name, "seed": args.seed, "trace": args.trace,
            "elapsed_s": time.perf_counter() - t0, "host": _host(w), **diag}
    print(json.dumps(diag, default=float))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in spec
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
