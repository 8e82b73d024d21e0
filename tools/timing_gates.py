"""Wall-clock gates: the overhead and scaling bounds no experiment can check.

Experiments report only deterministic values (their output is
byte-identical across runs and ``--jobs``), so the three bounds that are
about wall-clock time live here::

    PYTHONPATH=src python tools/timing_gates.py [e20] [e21] [e22]

With no gate named, all three run.  Each gate times two configurations
of the same work in interleaved pairs, alternating which one runs first,
and compares the median of the per-pair time ratios with its bound; the
interquartile range (IQR) of those ratios is printed beside it.  The
exit status is 1 when any gate fails.

- ``e20``: the telemetry-instrumented read path with the bus inactive
  (as shipped) costs at most 1.02x the seed copies of ``Table.read``,
  ``read_batch`` and ``read_round``, which have no ``BUS.active`` test.
- ``e21``: a fault-free serve run with fault hooks armed but inert costs
  at most 1.30x the same run on a plain service (E21 checks that its
  accounting is byte-identical).
- ``e22``: 2 fabric worker processes serve a bulk query stream at least
  1.5x as fast as 1; enforced only on hosts with at least 2 CPUs, since
  two processes on one core can only time-slice it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.cellprobe.table import EMPTY_CELL, Table, TableError
from repro.experiments.common import make_instance

# -- the shared method ---------------------------------------------------------


def paired_ratio(num, den, pairs: int) -> tuple[float, float]:
    """Median and IQR of ``num() / den()`` over interleaved pairs.

    ``num`` and ``den`` are zero-argument callables returning the
    seconds their timed work took.  Even pairs run ``den`` first, odd
    pairs ``num`` first, so drift and warm-up hit both sides alike.
    """
    ratios = []
    for i in range(pairs):
        if i % 2:
            t_num = num()
            t_den = den()
        else:
            t_den = den()
            t_num = num()
        ratios.append(t_num / t_den)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return float(median), float(q3 - q1)


# -- E20: disabled telemetry vs the seed read path ------------------------------


def _seed_read(self, row, column, step):
    # Table.read before the telemetry layer: no BUS guard.
    self._check(row, column)
    self.counter.record(step, row * self.s + column)
    return int(self._cells[row, column])


def _seed_read_batch(self, rows, columns, step):
    # Table.read_batch before the telemetry layer: no BUS guard.
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
    # Table.read_round without its BUS guard: the batched query reads
    # through this primitive, so the seed side must swap it too.
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


_SEED_READS = {
    "read": _seed_read,
    "read_batch": _seed_read_batch,
    "read_round": _seed_read_round,
}


def gate_e20(pairs: int) -> dict:
    from repro.core import LowContentionDictionary

    batches, batch_size = 10, 4096
    keys, N = make_instance(1024, 0)
    d = LowContentionDictionary(keys, N, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    xs = np.concatenate([
        rng.choice(keys, size=batch_size // 2),
        rng.integers(0, N, size=batch_size - batch_size // 2),
    ])

    def queries() -> float:
        q_rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(batches):
            d.query_batch(xs, rng=q_rng)
        return time.perf_counter() - t0

    shipped = {name: getattr(Table, name) for name in _SEED_READS}

    def seed() -> float:
        for name, copy in _SEED_READS.items():
            setattr(Table, name, copy)
        try:
            return queries()
        finally:
            for name, method in shipped.items():
                setattr(Table, name, method)

    queries()  # untimed warm-up
    median, iqr = paired_ratio(queries, seed, pairs)
    return {
        "gate": "e20", "what": "telemetry disabled / seed read path",
        "median": median, "iqr": iqr, "bound": "<= 1.02",
        "passed": median <= 1.02,
    }


# -- E21: armed-but-inert fault hooks vs a plain service ------------------------


def gate_e21(pairs: int) -> dict:
    from repro.experiments.e21_chaos import clean_service, serve_clean

    keys, N = make_instance(96, seed=0)

    def timed(armed: bool):
        def run() -> float:
            service = clean_service(keys, N, armed, 0)
            t0 = time.perf_counter()
            serve_clean(service, keys, N, 0)
            return time.perf_counter() - t0
        return run

    timed(False)()  # untimed warm-up
    timed(True)()
    median, iqr = paired_ratio(timed(True), timed(False), pairs)
    return {
        "gate": "e21", "what": "armed-but-inert hooks / plain service",
        "median": median, "iqr": iqr, "bound": "<= 1.30",
        "passed": median <= 1.30,
    }


# -- E22: 2 fabric workers vs 1 ---------------------------------------------------


def gate_e22(pairs: int) -> dict:
    from repro.parallel import build_parallel_service

    cpus = os.cpu_count() or 1
    keys, N = make_instance(192, seed=0)
    rng = np.random.default_rng(1)
    qs = np.concatenate([
        rng.choice(keys, size=10_000), rng.integers(0, N, size=10_000),
    ])
    rng.shuffle(qs)
    qs = qs.astype(np.int64)
    services = {}
    try:
        for procs in (1, 2):
            services[procs] = build_parallel_service(
                keys, N, procs=procs, num_shards=1, replicas=4,
                router="round-robin", max_batch=64, seed=2,
            )
            services[procs].query_batch(qs[:1024])  # untimed warm-up

        def timed(procs: int):
            def run() -> float:
                t0 = time.perf_counter()
                services[procs].query_batch(qs)
                return time.perf_counter() - t0
            return run

        # time(1 worker) / time(2 workers) is the 2-worker speedup.
        median, iqr = paired_ratio(timed(1), timed(2), pairs)
    finally:
        for svc in services.values():
            svc.close()
    enforced = cpus >= 2
    return {
        "gate": "e22", "what": f"2-worker speedup ({cpus} CPUs)",
        "median": median, "iqr": iqr,
        "bound": ">= 1.5" if enforced else ">= 1.5 (not enforced: 1 CPU)",
        "passed": median >= 1.5 or not enforced,
    }


#: Each gate and its pair count.  On a shared 2-vCPU host one e20 pair's
#: ratio has an IQR near 0.08, so 201 pairs put the median within about
#: 0.5% (one standard error) of its mean; e21 and e22 bound ratios far
#: wider than their spread.
GATES = {"e20": (gate_e20, 201), "e21": (gate_e21, 31), "e22": (gate_e22, 21)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("gates", nargs="*", help=f"any of {list(GATES)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; options: {list(GATES)}")
    failed = 0
    for name in args.gates or list(GATES):
        gate, pairs = GATES[name]
        row = gate(pairs)
        print(
            f"{row['gate']}: {row['what']}: median {row['median']:.3f} "
            f"(IQR {row['iqr']:.3f}), bound {row['bound']}: "
            f"{'PASS' if row['passed'] else 'FAIL'}"
        )
        failed += not row["passed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
