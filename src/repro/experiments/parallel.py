"""Parallel experiment runner: fan experiments over worker processes.

Every experiment runner is deterministic given ``seed``, and experiments
are independent of one another, so the E1–E17 grid parallelizes freely:
each experiment is one grid point dispatched to a
:class:`concurrent.futures.ProcessPoolExecutor` worker.  Results are
collected **in request order**, so the rendered output is byte-identical
for any worker count (including ``jobs=1``, which runs inline without a
pool).

Workers inherit the parent's interpreter state via fork/spawn and
reconfigure their own construction cache from ``cache_dir``; they never
share in-memory cache state, which is exactly why determinism holds
regardless of parallelism.

:func:`grid_map` is the same machinery for ad-hoc grids: it derives one
independent seeded RNG stream per grid point (via
:func:`~repro.utils.rng.spawn_generators`-style child seeding) so a
point's randomness never depends on which worker ran it or in what
order.

**Resilience** (all opt-in; the default path is byte-identical to the
plain runner): requesting a ``timeout``, ``retries``, ``keep_going``, or
a ``checkpoint_dir`` routes dispatch through a process-per-experiment
scheduler that

- enforces a per-attempt wall-clock **timeout** by killing the worker
  process;
- **retries** failed/timed-out experiments with exponential backoff
  (``retry_backoff * 2**attempt`` seconds);
- **checkpoints** each completed result as checksummed-by-parse JSON in
  ``checkpoint_dir`` and, on a later invocation with the same directory,
  resumes by loading completed experiments instead of recomputing them
  (kill a run mid-flight and re-invoke to pick up where it left off);
- aborts at the first exhausted experiment (fail-fast, default) or runs
  everything and reports all failures at the end (``keep_going``),
  raising :class:`~repro.errors.ExperimentFailureError` either way with
  the partial results attached.

On every path, a completed experiment whose own acceptance check failed
(``ExperimentResult.passed is False``) is reported the same way, as
failure reason ``"gate"``, after all results are in: it is never
retried, since the runners are deterministic in ``seed``.

Experiments are deterministic in ``seed``, so a resumed run's output is
identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import queue as queue_mod
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import CheckpointError, ExperimentFailureError, ParameterError
from repro.experiments.cache import configure_cache
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.io.results import ExperimentResult

#: Bumped when the checkpoint JSON layout changes; older files are
#: treated as missing (recomputed), never misread.
CHECKPOINT_VERSION = 1


def _ensure_directory(kind: str, value) -> pathlib.Path:
    """Validate a user-supplied directory path up front.

    Raises :class:`~repro.errors.CheckpointError` (a typed
    :class:`~repro.errors.ReproError`) when the path is an existing
    file, has a file where a parent directory should be, or cannot be
    created — so the CLI reports one line and exits 2 instead of
    leaking an ``OSError`` traceback from deep inside a worker.
    """
    path = pathlib.Path(value)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(
            f"{kind} {str(path)!r} is not a usable directory "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not path.is_dir():
        raise CheckpointError(
            f"{kind} {str(path)!r} is not a usable directory"
        )
    return path


def normalize_ids(ids: Iterable[str] | str) -> list[str]:
    """Expand ``"all"`` and validate/uppercase experiment ids."""
    if isinstance(ids, str):
        ids = [ids]
    out: list[str] = []
    for eid in ids:
        if eid.lower() == "all":
            out.extend(EXPERIMENTS)
            continue
        key = eid.upper()
        if key not in EXPERIMENTS:
            raise ParameterError(
                f"unknown experiment {eid!r}; options: {sorted(EXPERIMENTS)}"
            )
        out.append(key)
    return out


def telemetry_path(telemetry_dir, eid: str, fast: bool, seed: int) -> pathlib.Path:
    """Where experiment ``eid``'s metrics snapshot is written."""
    mode = "fast" if fast else "full"
    return (
        pathlib.Path(telemetry_dir) / f"{eid}_{mode}_s{int(seed)}.metrics.json"
    )


def _run_instrumented(
    eid: str, fast: bool, seed: int, telemetry_dir
) -> ExperimentResult:
    """Run one experiment, bus-collecting metrics when requested.

    With ``telemetry_dir`` set, the run executes under a
    :func:`~repro.telemetry.hub.collect_bus_metrics` subscription — the
    guarded emit sites across the library light up, the collected
    registry is snapshotted to one JSON file per experiment, and the
    experiment's *results* are unchanged (the bus never perturbs RNG
    streams or probe accounting; property-tested in
    ``tests/test_telemetry_integration.py``).
    """
    if telemetry_dir is None:
        return run_experiment(eid, fast=fast, seed=seed)
    from repro.io.results import save_snapshot
    from repro.telemetry import collect_bus_metrics

    path = telemetry_path(telemetry_dir, eid, fast, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with collect_bus_metrics() as registry:
        result = run_experiment(eid, fast=fast, seed=seed)
    snapshot = registry.snapshot()
    snapshot["experiment"] = {
        "id": eid, "fast": bool(fast), "seed": int(seed),
    }
    save_snapshot(snapshot, path)
    return result


def _run_one(
    eid: str, fast: bool, seed: int, cache_dir, telemetry_dir=None
) -> ExperimentResult:
    """Worker entry point: set up this process's cache, run, return."""
    if cache_dir is not None:
        configure_cache(cache_dir=cache_dir)
    return _run_instrumented(eid, fast, seed, telemetry_dir)


def run_experiments(
    ids: Iterable[str] | str,
    fast: bool = True,
    seed: int = 0,
    jobs: int = 1,
    cache_dir=None,
    timeout: float | None = None,
    retries: int = 0,
    retry_backoff: float = 0.5,
    checkpoint_dir=None,
    keep_going: bool = False,
    telemetry_dir=None,
) -> list[ExperimentResult]:
    """Run experiments, optionally across ``jobs`` worker processes.

    Returns results in the order of ``ids`` (after ``"all"`` expansion)
    no matter how many workers ran them.  ``timeout``/``retries``/
    ``checkpoint_dir``/``keep_going`` engage the resilient scheduler
    (see the module docstring); leaving them all at their defaults runs
    the plain deterministic path unchanged.  ``telemetry_dir`` writes
    one bus-collected metrics snapshot per experiment (results stay
    byte-identical — collection cannot perturb the runs).  A completed
    experiment that fails its own gate raises
    :class:`~repro.errors.ExperimentFailureError` with every result
    attached.
    """
    ids = normalize_ids(ids)
    jobs = int(jobs)
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    if retries < 0:
        raise ParameterError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ParameterError("timeout must be positive")
    if checkpoint_dir is not None:
        _ensure_directory("checkpoint directory", checkpoint_dir)
    if cache_dir is not None:
        _ensure_directory("cache directory", cache_dir)
        configure_cache(cache_dir=cache_dir)
    resilient = (
        timeout is not None
        or retries > 0
        or checkpoint_dir is not None
        or keep_going
    )
    if resilient:
        return _run_resilient(
            ids, fast, seed, jobs, cache_dir, timeout, retries,
            retry_backoff, checkpoint_dir, keep_going, telemetry_dir,
        )
    if jobs == 1 or len(ids) <= 1:
        results = [
            _run_instrumented(eid, fast, seed, telemetry_dir) for eid in ids
        ]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = [
                pool.submit(
                    _run_one, eid, fast, seed, cache_dir, telemetry_dir
                )
                for eid in ids
            ]
            results = [f.result() for f in futures]
    failures = _gate_failures(results)
    if failures:
        raise ExperimentFailureError(failures, results)
    return results


def _gate_failures(results: Iterable[ExperimentResult]) -> dict[str, str]:
    """``{id: "gate"}`` for every result whose own acceptance check failed.

    A result with no verdict (``passed is None``, saved before
    experiments decided their gates) is not a failure.
    """
    return {r.experiment_id: "gate" for r in results if r.passed is False}


# -- checkpoints ------------------------------------------------------------------


def checkpoint_path(checkpoint_dir, eid: str, fast: bool, seed: int) -> pathlib.Path:
    """Where experiment ``eid``'s completed result is checkpointed."""
    mode = "fast" if fast else "full"
    return pathlib.Path(checkpoint_dir) / f"{eid}_{mode}_s{int(seed)}.json"


def _jsonify(value):
    """Recursively convert numpy scalars/arrays to plain JSON values."""
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def save_checkpoint(
    checkpoint_dir, eid: str, fast: bool, seed: int, result: ExperimentResult
) -> None:
    """Atomically persist a completed result for later resume."""
    path = checkpoint_path(checkpoint_dir, eid, fast, seed)
    blob = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "experiment_id": eid,
            "fast": bool(fast),
            "seed": int(seed),
            "result": _jsonify(result.as_dict()),
        },
        indent=2,
    )
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path} "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def load_checkpoint(
    checkpoint_dir, eid: str, fast: bool, seed: int
) -> ExperimentResult | None:
    """A previously checkpointed result, or None if absent/unusable.

    Corrupt, truncated, or version-mismatched checkpoints degrade to a
    miss with a warning — the experiment is simply recomputed.
    """
    path = checkpoint_path(checkpoint_dir, eid, fast, seed)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if (
            data.get("version") != CHECKPOINT_VERSION
            or data.get("experiment_id") != eid
            or data.get("fast") != bool(fast)
            or data.get("seed") != int(seed)
        ):
            raise ValueError("checkpoint metadata mismatch")
        result = ExperimentResult(**data["result"])
        if result.experiment_id != eid or not isinstance(result.rows, list):
            raise ValueError("checkpoint body mismatch")
        return result
    except (OSError, ValueError, KeyError, TypeError) as exc:
        warnings.warn(
            f"ignoring unusable checkpoint {path} "
            f"({type(exc).__name__}: {exc}); recomputing {eid}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


# -- resilient scheduler -----------------------------------------------------------


def _subprocess_entry(eid, fast, seed, cache_dir, q, telemetry_dir=None) -> None:
    """Dedicated-process entry: always posts exactly one message."""
    try:
        if cache_dir is not None:
            configure_cache(cache_dir=cache_dir)
        q.put(("ok", _run_instrumented(eid, fast, seed, telemetry_dir)))
    except BaseException as exc:  # noqa: BLE001 — must never die silently
        try:
            q.put(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


def _run_isolated(
    eid: str, fast: bool, seed: int, cache_dir, timeout: float | None,
    telemetry_dir=None,
) -> tuple[str, object]:
    """One attempt in its own process; the process is killed on timeout."""
    ctx = multiprocessing.get_context()
    q = ctx.Queue()
    proc = ctx.Process(
        target=_subprocess_entry,
        args=(eid, fast, seed, cache_dir, q, telemetry_dir),
        daemon=True,
    )
    proc.start()
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            status, payload = q.get(timeout=0.05)
            break
        except queue_mod.Empty:
            if deadline is not None and time.monotonic() > deadline:
                proc.terminate()
                proc.join()
                return "timeout", f"{eid} exceeded {timeout:g}s"
            if not proc.is_alive():
                # Drain once more: the child may have posted right
                # before exiting.
                try:
                    status, payload = q.get(timeout=0.5)
                    break
                except queue_mod.Empty:
                    return "error", f"{eid} worker died without a result"
    proc.join()
    return status, payload


def _resilient_task(
    eid, fast, seed, cache_dir, timeout, retries, retry_backoff,
    checkpoint_dir, telemetry_dir=None,
) -> tuple[ExperimentResult | None, str]:
    """Attempt ``eid`` with retries+backoff; checkpoint on success."""
    reason = ""
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(retry_backoff * 2 ** (attempt - 1))
        status, payload = _run_isolated(
            eid, fast, seed, cache_dir, timeout, telemetry_dir
        )
        if status == "ok":
            if checkpoint_dir is not None:
                save_checkpoint(checkpoint_dir, eid, fast, seed, payload)
            return payload, ""
        reason = str(payload)
    return None, f"{reason} (after {retries + 1} attempt(s))"


def _run_resilient(
    ids, fast, seed, jobs, cache_dir, timeout, retries, retry_backoff,
    checkpoint_dir, keep_going, telemetry_dir=None,
) -> list[ExperimentResult]:
    done: dict[str, ExperimentResult] = {}
    unique = list(dict.fromkeys(ids))
    if checkpoint_dir is not None:
        for eid in unique:
            cached = load_checkpoint(checkpoint_dir, eid, fast, seed)
            if cached is not None:
                done[eid] = cached
    pending = [eid for eid in unique if eid not in done]
    failures: dict[str, str] = {}
    if pending:
        with ThreadPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(
                    _resilient_task, eid, fast, seed, cache_dir, timeout,
                    retries, retry_backoff, checkpoint_dir, telemetry_dir,
                ): eid
                for eid in pending
            }
            for fut in as_completed(futures):
                eid = futures[fut]
                result, reason = fut.result()
                if result is None:
                    failures[eid] = reason
                    if not keep_going:
                        for other in futures:
                            other.cancel()
                        break
                else:
                    done[eid] = result
    failures.update(_gate_failures(done[eid] for eid in ids if eid in done))
    if failures:
        raise ExperimentFailureError(
            failures, [done[eid] for eid in ids if eid in done]
        )
    return [done[eid] for eid in ids]


def grid_point_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent child seeds derived from ``seed``.

    Uses numpy's SeedSequence spawning, the same discipline as
    :func:`repro.utils.rng.spawn_generators`: child streams are
    statistically independent and a pure function of ``(seed, index)``.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def grid_map(
    fn: Callable,
    points: Sequence,
    seed: int = 0,
    jobs: int = 1,
    cache_dir=None,
) -> list:
    """Map ``fn(point, point_seed)`` over a grid, optionally in parallel.

    Each point gets its own derived seed (see :func:`grid_point_seeds`),
    so results are deterministic in ``(seed, points)`` and independent
    of ``jobs``.  ``fn`` must be picklable (a module-level function).
    """
    points = list(points)
    seeds = grid_point_seeds(seed, len(points))
    jobs = int(jobs)
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    if cache_dir is not None:
        _ensure_directory("cache directory", cache_dir)
        configure_cache(cache_dir=cache_dir)
    if jobs == 1 or len(points) <= 1:
        return [fn(p, s) for p, s in zip(points, seeds)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
        futures = [
            pool.submit(_grid_worker, fn, p, s, cache_dir)
            for p, s in zip(points, seeds)
        ]
        return [f.result() for f in futures]


def _grid_worker(fn, point, point_seed, cache_dir):
    if cache_dir is not None:
        configure_cache(cache_dir=cache_dir)
    return fn(point, point_seed)


# Not imported eagerly by repro.experiments.__init__ to keep the
# registry import cycle-free; prefer `os.cpu_count()`-bounded jobs.
def default_jobs() -> int:
    """A sensible default worker count (half the cores, at least 1)."""
    return max(1, (os.cpu_count() or 2) // 2)
