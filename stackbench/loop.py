"""The closed-loop driver shared by every workload.

64 logical clients are multiplexed on one thread.  A client issues its
next operation as soon as its previous ticket completes; when no client
is ready, virtual time jumps to the service's next flush deadline.  Work
is cut into fixed-work rounds (a fixed count of completed operations),
a run is a fixed count of rounds, and the reference kernel runs in
slices spread evenly through each round, so every round carries a
measurement of the host's mean speed across it.  Time spent in the
kernel, or in other work between rounds, is paused out of the round's
wall time and out of the latency clock of requests in flight.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

import numpy as np

from refkernel import NOMINAL, SLICES, time_kernel, time_slice
from repro.errors import (
    DegradedModeError,
    OverloadError,
    ReproError,
    UpdateBacklogError,
)

CLIENTS = 64

#: Latencies per block for tail percentiles (see ``block_percentile_ms``).
BLOCK_SAMPLES = 1000

#: Typed refusals: the operation was shed, not answered.
SHED = (OverloadError, UpdateBacklogError, DegradedModeError)


class Yardstick:
    """Reference-kernel samples taken beside the timed work (set-up,
    restores) or spread through it (rounds, see :meth:`ClosedLoop.run_round`).

    A weights map gives each kernel component's share of a kind of work's
    own time; the slowdown of a stretch of that work is the weighted mean
    of the components' slowdowns against :data:`refkernel.NOMINAL`.
    """

    def __init__(self):
        time_kernel()  # warm-up: first-touch allocation is not host speed
        self.kernels: list[dict[str, float]] = []
        #: ``(label, raw_seconds, kernel beside it)`` for every timed call.
        self.samples: list[tuple[str, float, dict]] = []

    def mark(self) -> dict[str, float]:
        """Time the kernel components once; returns (and records) them."""
        k = time_kernel()
        self.kernels.append(k)
        return k

    @staticmethod
    def beside(before: dict, after: dict) -> dict[str, float]:
        return {c: (before[c] + after[c]) / 2.0 for c in before}

    @staticmethod
    def factor(kernel: dict, weights: dict[str, float]) -> float:
        """Scale factor to reference speed for work timed beside ``kernel``."""
        total = sum(weights.values())
        slowdown = sum(
            w * kernel[c] / NOMINAL[c]
            for c, w in weights.items()
        )
        return total / slowdown

    def timed(self, fn, reps: int, weights: dict[str, float], label: str):
        """Run ``fn`` ``reps`` times, kernel before and after each run.

        Returns ``(raw_seconds, scaled_seconds)``.
        """
        before = self.mark()
        raw, scaled = [], []
        for _ in range(reps):
            # Garbage left by the previous run would otherwise be
            # collected inside some runs and not others.
            gc.collect()
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            after = self.mark()
            kernel = self.beside(before, after)
            raw.append(dt)
            scaled.append(dt * self.factor(kernel, weights))
            self.samples.append((label, dt, kernel))
            before = after
        return raw, scaled

    def median_kernel(self) -> dict[str, float]:
        return {
            c: statistics.median(k[c] for k in self.kernels)
            for c in self.kernels[0]
        }


class Round:
    """Raw measurements of one fixed-work round."""

    __slots__ = ("wall_ns", "reads", "writes", "read_lat", "write_lat",
                 "factor", "kernel")

    def __init__(self):
        self.wall_ns = 0
        self.reads = 0
        self.writes = 0
        self.read_lat: list[int] = []
        self.write_lat: list[int] = []
        self.factor = 1.0
        self.kernel: dict[str, float] = {}


class ClosedLoop:
    """Drives one service with :data:`CLIENTS` closed-loop clients.

    ``source`` supplies operations (``next_op() -> (is_read, key,
    is_insert)``), the oracle (``expect(key) -> bool``, the membership
    every read must return) and learns each admitted update
    (``admit(key, is_insert)``).  Updates are admitted to the oracle the
    moment ``submit_update`` returns, which is exactly read-your-writes:
    a read dispatch first applies every update admitted to its shard.
    """

    def __init__(self, service, source, yardstick: Yardstick,
                 weights: dict[str, float]):
        self.svc = service
        self.source = source
        self.yard = yardstick
        self.weights = weights
        self.now = 0.0
        self.ready: deque[int] = deque(range(CLIENTS))
        self.held: list[int] = []
        self._reads: list = []
        self._writes: list = []
        self._paused = 0
        self._sig = None
        self.reads_done = 0
        self.writes_done = 0
        self.attempted = 0
        self.shed = 0
        self.errors = 0
        self.wrong = 0
        self.rounds: list[Round] = []
        self._cur = Round()

    # -- counters --------------------------------------------------------------

    @property
    def ops_done(self) -> int:
        return self.reads_done + self.writes_done

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.wrong

    def _signature(self):
        st = self.svc.stats
        return (st.completed, getattr(st, "updates_applied", 0))

    # -- one call into the service --------------------------------------------

    def _issue(self, client: int) -> None:
        is_read, key, is_insert = self.source.next_op()
        self.attempted += 1
        t0 = time.perf_counter_ns() - self._paused
        try:
            if is_read:
                ticket = self.svc.submit(key, self.now)
            else:
                ticket = self.svc.submit_update(key, is_insert, self.now)
        except SHED:
            self.shed += 1
            self.held.append(client)
            return
        except ReproError:
            self.errors += 1
            self.held.append(client)
            return
        t1 = time.perf_counter_ns() - self._paused
        if is_read:
            self._reads.append((ticket, client, t0))
        else:
            self.source.admit(key, is_insert)
            self._writes.append((ticket, client, t0))
        self._harvest(t1)

    def _advance(self) -> None:
        deadline = self.svc.next_deadline()
        if deadline is None:
            if not self.held:
                raise RuntimeError("closed loop stalled: nothing in flight")
        else:
            self.now = max(self.now, float(deadline))
            self.svc.advance(self.now)
            self._harvest(time.perf_counter_ns() - self._paused)
        self.ready.extend(self.held)
        self.held.clear()

    def _harvest(self, t1: int) -> None:
        """Complete every ticket the last call finished (stamped at ``t1``)."""
        sig = self._signature()
        if sig == self._sig:
            return
        self._sig = sig
        cur = self._cur
        if self._reads:
            still = []
            expect = self.source.expect
            for item in self._reads:
                ticket, client, t0 = item
                if ticket.completion is None:
                    still.append(item)
                    continue
                cur.read_lat.append(t1 - t0)
                if ticket.answer != expect(ticket.key):
                    self.wrong += 1
                self.ready.append(client)
                self.reads_done += 1
                cur.reads += 1
            self._reads = still
        if self._writes:
            still = []
            for item in self._writes:
                ticket, client, t0 = item
                if ticket.completion is None:
                    still.append(item)
                    continue
                cur.write_lat.append(t1 - t0)
                self.ready.append(client)
                self.writes_done += 1
                cur.writes += 1
            self._writes = still

    # -- rounds ----------------------------------------------------------------

    def run_round(self, ops: int) -> Round:
        """Complete ``ops`` more operations, a kernel slice after each
        :data:`refkernel.SLICES`-th of them."""
        start = self.ops_done
        kernel = dict.fromkeys(NOMINAL, 0.0)
        paused = 0
        t0 = time.perf_counter_ns()
        for part in range(SLICES):
            target = start + (part + 1) * ops // SLICES
            while self.ops_done < target:
                if self.ready:
                    self._issue(self.ready.popleft())
                else:
                    self._advance()
            pause = time.perf_counter_ns()
            for c, t in time_slice(part).items():
                kernel[c] += t
            pause = time.perf_counter_ns() - pause
            paused += pause
            self._paused += pause
        cur = self._cur
        cur.wall_ns = time.perf_counter_ns() - t0 - paused
        cur.kernel = kernel
        cur.factor = self.yard.factor(kernel, self.weights)
        self.yard.kernels.append(kernel)
        self.rounds.append(cur)
        self._cur = Round()
        return cur

    def run(self, rounds: int, round_ops: int, limit_s: float,
            on_round=None) -> None:
        """Run until ``rounds`` rounds are done, or ``limit_s`` has passed.

        ``on_round(n)`` runs after round ``n`` with the latency clock
        paused, like the kernel.
        """
        target = len(self.rounds) + rounds
        deadline = time.perf_counter() + limit_s
        while len(self.rounds) < target and time.perf_counter() < deadline:
            self.run_round(round_ops)
            if on_round is not None:
                pause = time.perf_counter_ns()
                on_round(len(self.rounds))
                self._paused += time.perf_counter_ns() - pause

    def finish(self) -> None:
        """Drain everything in flight and check it (outside any round)."""
        self.svc.drain(self.now)
        self._harvest(time.perf_counter_ns() - self._paused)
        if self._reads or self._writes:
            raise RuntimeError("tickets left in flight after drain")

    # -- summaries (round 0 is warm-up and excluded) ---------------------------

    def timed_rounds(self) -> list[Round]:
        return self.rounds[1:] if len(self.rounds) > 1 else self.rounds

    def rate(self, attr: str, scaled: bool = True) -> float:
        """Completed ``attr`` (reads or writes) per reference second.

        The median over rounds of operations per second, times the share
        of ``attr`` among all operations: rounds hold a fixed count of
        operations but a varying mix, so this stays robust to a slow
        round without inheriting the mix's round-to-round noise.
        """
        rounds = self.timed_rounds()
        ops = statistics.median(
            (r.reads + r.writes) / (r.wall_ns * 1e-9 * (r.factor if scaled else 1.0))
            for r in rounds
        )
        share = sum(getattr(r, attr) for r in rounds) / sum(
            r.reads + r.writes for r in rounds
        )
        return ops * share

    def block_percentile_ms(self, attr: str, q: float,
                            scaled: bool = True) -> float:
        """Median over blocks of rounds of each block's ``q``-th percentile.

        Consecutive rounds are grouped until a block holds
        :data:`BLOCK_SAMPLES` latencies, so a p99 has at least ten
        samples beyond it.  A host hiccup of a few milliseconds then
        spoils the tail of the blocks it lands in, not the whole run's.
        """
        blocks, block = [], []
        for lat in self._scaled(attr, scaled):
            block.extend(lat)
            if len(block) >= BLOCK_SAMPLES:
                blocks.append(float(np.percentile(block, q)))
                block = []
        if not blocks:
            blocks.append(float(np.percentile(block, q)))
        return statistics.median(blocks)

    def _scaled(self, attr: str, scaled: bool):
        for r in self.timed_rounds():
            f = r.factor * 1e-6 if scaled else 1e-6
            yield [x * f for x in getattr(r, attr)]

    def latencies_ms(self, attr: str, scaled: bool = True) -> list[float]:
        return [x for lat in self._scaled(attr, scaled) for x in lat]
