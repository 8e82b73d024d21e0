"""Span recorder for the traced run: wraps layer entry points from outside.

No source file of ``repro`` is edited.  :class:`Tracer` replaces the
named callables on their classes or modules with timing wrappers while a
phase is open and puts the originals back when it closes.  Each wrapper
records one span (name, start ns, end ns, parent span) in memory; the
spans are written out at exit.  A span's *self* time is its duration
minus the time covered by its child spans, so self times of nested
layers add up to the time of the outermost span.

The metric run installs no wrappers.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Per-phase span store plus per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # One flat record per span: id, parent id, name, phase, start, end.
        self.spans = {k: array("q") for k in
                      ("id", "parent", "name", "phase", "start", "end")}
        self.phases: list[str] = []
        self.stats: dict[str, dict[str, list]] = {}
        self._phase = -1
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._targets: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _agg(self, name: str) -> list:
        per = self.stats[self.phases[self._phase]]
        if name not in per:
            per[name] = [0, 0, 0, 0.0]  # calls, total ns, self ns, units
        return per[name]

    def wrap(self, fn, name: str, units=None, pre=None):
        """A timing wrapper around ``fn``.

        ``units(args, kwargs, result, token)`` returns a count added to
        the name's ``units`` total (keys, probes, bytes...); ``pre(args)``
        computes the ``token`` before the call.
        """
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0, nid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg = self._agg(name)
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                spans["id"].append(sid)
                spans["parent"].append(parent)
                spans["name"].append(nid)
                spans["phase"].append(self._phase)
                spans["start"].append(start)
                spans["end"].append(end)
            if units is not None:
                agg[3] += units(args, kwargs, result, token)
            return result

        return wrapper

    def parent(self) -> str | None:
        """Name of the innermost open span; inside ``units``, the caller's."""
        return self.names[self._stack[-1][2]] if self._stack else None

    def tally(self, name: str, units: float) -> None:
        """Count ``units`` under ``name`` in the open phase, without a span."""
        agg = self._agg(name)
        agg[0] += 1
        agg[3] += units

    def add(self, owner, attr: str, name: str, units=None, pre=None):
        """Register ``owner.attr`` (class or module) to be wrapped."""
        self._targets.append((owner, attr, name, units, pre))

    @contextmanager
    def phase(self, label: str):
        """Install every registered wrapper for the duration of a phase."""
        if label not in self.phases:
            self.phases.append(label)
            self.stats[label] = {}
        self._phase = self.phases.index(label)
        saved = []
        for owner, attr, name, units, pre in self._targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, self.wrap(original, name, units, pre))
        try:
            yield self
        finally:
            for owner, attr, own, original in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- reading -----------------------------------------------------------------

    def get(self, phases, name: str) -> list:
        """Aggregate ``[calls, total_ns, self_ns, units]`` over phases."""
        out = [0, 0, 0, 0.0]
        for ph in phases:
            agg = self.stats.get(ph, {}).get(name)
            if agg:
                out = [a + b for a, b in zip(out, agg)]
        return out

    def self_by_name(self, phase: str) -> dict[str, int]:
        return {n: a[2] for n, a in self.stats.get(phase, {}).items()}

    def calibrate(self) -> float:
        """Wrapper time, in ns, that a parent's self time absorbs per child.

        A wrapper spends a little time outside its own start and end
        (bookkeeping before the clock starts and after it stops); that
        time falls inside the parent span and reads as the parent's own.
        Measured as a parent's self time over a loop of wrapped no-op
        calls, less the same loop unwrapped; the median of a few tries.
        """
        n, reps = 20000, 5

        def noop():
            return None

        def loop(fn):
            for _ in range(n):
                fn()

        self.phases.append("calibrate")
        self.stats["calibrate"] = {}
        prev, self._phase = self._phase, len(self.phases) - 1
        child = self.wrap(noop, "tracer.calibrate.child")
        parent = self.wrap(loop, "tracer.calibrate.parent")
        costs = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            loop(noop)
            bare = time.perf_counter_ns() - t0
            before = self.stats["calibrate"].get(
                "tracer.calibrate.parent", [0, 0, 0, 0.0])[2]
            parent(child)
            after = self.stats["calibrate"]["tracer.calibrate.parent"][2]
            costs.append(max(0.0, (after - before - bare) / n))
        self._phase = prev
        return sorted(costs)[reps // 2]

    def coverage(self, phase: str, names, cost_ns: float) -> float:
        """Share of the time inside outermost ``names`` spans that their
        child spans cover, with ``cost_ns`` per direct child (see
        :meth:`calibrate`) taken out of the uncovered self time."""
        ids = [self._name_id[n] for n in names if n in self._name_id]
        if not ids or phase not in self.phases:
            return 0.0
        col = {k: np.frombuffer(v, dtype=np.int64)
               for k, v in self.spans.items()}
        name_of = np.empty(len(col["id"]), dtype=np.int64)
        name_of[col["id"]] = col["name"]
        in_phase = col["phase"] == self.phases.index(phase)
        parent_name = np.where(col["parent"] >= 0,
                               name_of[np.maximum(col["parent"], 0)], -1)
        mine = in_phase & np.isin(col["name"], ids)
        outer = mine & ~np.isin(parent_name, ids)
        total = int((col["end"] - col["start"])[outer].sum())
        children = int((in_phase & np.isin(parent_name, ids)).sum())
        own = sum(self.stats[phase][n][2] for n in names if n in self.stats[phase])
        uncovered = max(0.0, own - children * cost_ns)
        return 1.0 - uncovered / total if total else 0.0

    def dump(self, path: str) -> None:
        """Write every span (and the name/phase tables) to ``path`` (.npz)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            phases=np.asarray(self.phases),
            **{k: np.frombuffer(v, dtype=np.int64) if len(v) else
               np.zeros(0, dtype=np.int64) for k, v in self.spans.items()},
        )
