"""Bench E20 — telemetry overhead on the probe hot path.

Two entry points:

- ``python benchmarks/bench_e20_telemetry.py [--gate]`` — standalone:
  times the batched query hot path in three configurations and writes
  the machine-readable ``BENCH_PR4.json`` at the repo root (the PR-4
  acceptance artifact):

  * **seed** — ``Table.read``/``read_batch``/``read_round``
    monkeypatched with copies of their bodies without the ``BUS.active``
    test (pre-instrumentation copies for the first two; the batched
    query reads through ``read_round``);
  * **disabled** — the instrumented code as shipped, bus inactive (the
    default state of every run);
  * **enabled** — a :class:`~repro.telemetry.hub.BusMetricsCollector`
    subscribed, every probe event constructed and consumed.

  Timings are min-of-repeats (noise-robust).  ``--gate`` exits nonzero
  if the disabled/seed ratio exceeds ``GATE_RATIO`` (2% — the CI
  telemetry job runs this).

- under pytest-benchmark — regenerates the E20 table and asserts its
  headline invariants (byte-identical accounting, zero false alarms,
  in-budget hot-cell detection, stuck-router detection).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

from repro.cellprobe.table import EMPTY_CELL, Table, TableError
from repro.experiments import run_experiment
from repro.experiments.common import make_instance
from repro.telemetry import collect_bus_metrics

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Disabled-path overhead gate: instrumented-but-off may cost at most
#: this factor over the pre-instrumentation seed code.
GATE_RATIO = 1.02

REPEATS = 7
BATCHES = 30
BATCH_SIZE = 4096


def _seed_read(self, row, column, step):
    # Copy of Table.read before the telemetry PR: no BUS guard.
    self._check(row, column)
    self.counter.record(step, row * self.s + column)
    return int(self._cells[row, column])


def _seed_read_batch(self, rows, columns, step):
    # Copy of Table.read_batch before the telemetry PR: no BUS guard.
    columns = np.asarray(columns, dtype=np.int64)
    rows_arr = np.broadcast_to(np.asarray(rows, dtype=np.int64), columns.shape)
    active = columns >= 0
    if bool(np.any(active)):
        r_act = rows_arr[active]
        c_act = columns[active]
        if r_act.size and (
            int(r_act.min()) < 0
            or int(r_act.max()) >= self.rows
            or int(c_act.max()) >= self.s
        ):
            raise TableError(
                f"batch probe out of range for table "
                f"({self.rows} rows x {self.s} cells)"
            )
    flat = np.where(active, rows_arr * self.s + columns, -1)
    self.counter.record_batch(step, flat)
    out = np.full(columns.shape, EMPTY_CELL, dtype=np.uint64)
    if bool(np.any(active)):
        out[active] = self._cells[rows_arr[active], columns[active]]
    return out


def _seed_read_round(self, rows, columns, step):
    # Copy of Table.read_round without its BUS guard: the batched query
    # reads through this primitive, so the seed baseline must swap it too.
    rows = np.asarray(rows, dtype=np.int64)
    columns = np.asarray(columns, dtype=np.int64)
    if rows.ndim != 1 or columns.ndim != 2 or len(columns) != len(rows):
        raise TableError(
            f"round needs rows (k,) and columns (k, batch), got "
            f"{rows.shape} and {columns.shape}"
        )
    row_list = rows.tolist()
    rows_ok = not row_list or (
        min(row_list) >= 0 and max(row_list) < self.rows
    )
    flat = columns + (rows * self.s)[:, None]
    everything = (
        not columns.size or int(columns.view(np.uint64).max()) < self.s
    )
    if everything:
        if not rows_ok and columns.size:
            raise self._round_error()
    else:
        active = columns >= 0
        if int(columns.max()) >= self.s:
            raise self._round_error()
        if not rows_ok:
            live = active.any(axis=1).tolist()
            if any(
                on and not 0 <= r < self.rows
                for r, on in zip(row_list, live)
            ):
                raise self._round_error()
        flat = np.where(active, flat, -1)
    self.counter.record_round(step, flat)
    if everything:
        return self._cells.take(flat)
    out = self._cells.take(flat, mode="clip")
    out[~active] = EMPTY_CELL
    return out


#: The charged read primitives and their seed (unguarded) copies.
_SEED = {
    "read": _seed_read,
    "read_batch": _seed_read_batch,
    "read_round": _seed_read_round,
}


def _build(n=1024, seed=0):
    from repro.core import LowContentionDictionary

    keys, N = make_instance(n, seed)
    d = LowContentionDictionary(keys, N, rng=np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed + 2)
    pos = rng.choice(keys, size=BATCH_SIZE // 2)
    neg = rng.integers(0, N, size=BATCH_SIZE - BATCH_SIZE // 2)
    return d, np.concatenate([pos, neg])


def _time_queries(d, xs) -> float:
    d.query_batch(xs, rng=np.random.default_rng(1))  # untimed warm-up
    best = np.inf
    for rep in range(REPEATS):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(BATCHES):
            d.query_batch(xs, rng=rng)
        best = min(best, time.perf_counter() - t0)
    return best / (BATCHES * len(xs))


def measure(seed: int = 0) -> dict:
    d, xs = _build(seed=seed)

    shipped = {name: getattr(Table, name) for name in _SEED}
    for name, seed_copy in _SEED.items():
        setattr(Table, name, seed_copy)
    try:
        t_seed = _time_queries(d, xs)
    finally:
        for name, method in shipped.items():
            setattr(Table, name, method)

    t_disabled = _time_queries(d, xs)
    with collect_bus_metrics():
        t_enabled = _time_queries(d, xs)

    return {
        "benchmark": "e20_telemetry_overhead",
        "queries_per_timing": BATCHES * len(xs),
        "repeats": REPEATS,
        "seed_s_per_query": t_seed,
        "disabled_s_per_query": t_disabled,
        "enabled_s_per_query": t_enabled,
        "disabled_over_seed": t_disabled / t_seed,
        "enabled_over_seed": t_enabled / t_seed,
        "gate_ratio": GATE_RATIO,
        "gate_passed": bool(t_disabled / t_seed <= GATE_RATIO),
    }


def main(argv) -> int:
    gate = "--gate" in argv
    row = measure()
    out = REPO_ROOT / "BENCH_PR4.json"
    out.write_text(json.dumps(row, indent=2) + "\n")
    print(json.dumps(row, indent=2))
    print(f"wrote {out}")
    if gate and not row["gate_passed"]:
        print(
            f"GATE FAILED: disabled-telemetry path is "
            f"{(row['disabled_over_seed'] - 1) * 100:.2f}% over the seed "
            f"(budget {(GATE_RATIO - 1) * 100:.0f}%)",
            file=sys.stderr,
        )
        return 1
    return 0


def test_bench_e20_telemetry(benchmark, bench_fast, record_result):
    result = benchmark.pedantic(
        run_experiment,
        args=("E20",),
        kwargs={"fast": bench_fast, "seed": 0},
        rounds=1,
        iterations=1,
    )
    record_result(result)
    a, b, c, d = result.rows
    assert a["byte_identical"] is True
    assert b["false_alarms"] == 0 and b["checks"] >= 100
    assert c["alarm_batch"] != "never" and c["alarm_batch"] <= c["budget"]
    assert d["healthy_alarms"] == 0 and d["stuck_alarm_check"] != "never"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
