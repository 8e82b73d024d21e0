"""The host-speed yardstick: fixed CPU kernels that import nothing from repro.

Wall-clock metrics are reported *at reference speed*: each raw time is
divided by the host's slowdown measured right beside the timed work.  On
a guest whose speed drifts for seconds at a time (steal that the guest
cannot see), the kernels slow down with the workload, so the ratio
stays put.

The slowdown has (at least) two independent parts on a shared host:
interpreter/ALU speed and memory bandwidth.  So the yardstick times
three components separately:

- ``py``: a pure-Python dict loop (interpreter dispatch, hashing,
  allocation);
- ``np``: a loop of small NumPy ``add.at`` calls (per-call overhead, as
  in the probe counters);
- ``mem``: a pass over an array larger than the last-level cache
  (memory bandwidth, as in the probe-count reductions).

Each workload weighs the components by how closely its own round times
followed each of them (see ``workloads.py``).  The kernels must never
call repo code: an optimisation of the program would then speed up the
yardstick too and cancel itself out.
"""

from __future__ import annotations

import time

import numpy as np

#: Component times that define "reference speed" (medians on a 2-vCPU
#: KVM guest, Python 3.11, NumPy 2.4).  Frozen: changing them rescales
#: every wall-clock metric.
NOMINAL = {"py": 0.0103, "np": 0.0066, "mem": 0.0040}

_IDX = (np.arange(256, dtype=np.int64) * 40503) & 1023
_PY_ITERS = 40000
_NP_CALLS = 2000
_MEM_WORDS = 1 << 22
_BIG: list[np.ndarray] = []


def _span(total: int, part: int, parts: int) -> range:
    """Slice ``part`` of ``parts`` of ``range(total)``."""
    return range(part * total // parts, (part + 1) * total // parts)


def _py(part: int, parts: int) -> int:
    d: dict[int, int] = {}
    for i in _span(_PY_ITERS, part, parts):
        k = (i * 2654435761) & 0x3FFF
        d[k] = d.get(k, 0) + 1
    return len(d)


def _np(part: int, parts: int) -> int:
    acc = np.zeros(1024, dtype=np.int64)
    for _ in _span(_NP_CALLS, part, parts):
        np.add.at(acc, _IDX, 1)
    return int(acc[7])


def _mem(part: int, parts: int) -> int:
    if not _BIG:
        _BIG.append(np.ones(_MEM_WORDS, dtype=np.int64))
    words = _span(_MEM_WORDS, part, parts)
    return int(_BIG[0][words.start:words.stop].sum())


COMPONENTS = {"py": _py, "np": _np, "mem": _mem}

#: A kernel is run in this many slices; spread over a stretch of work,
#: the slices measure the host's mean speed across it rather than its
#: speed at one instant.
SLICES = 8


def time_slice(part: int) -> dict[str, float]:
    """Seconds slice ``part`` (of :data:`SLICES`) of each component takes."""
    out = {}
    for name, fn in COMPONENTS.items():
        t0 = time.perf_counter()
        fn(part, SLICES)
        out[name] = time.perf_counter() - t0
    return out


def time_kernel() -> dict[str, float]:
    """Seconds each whole component takes now (all slices back to back)."""
    out = dict.fromkeys(COMPONENTS, 0.0)
    for part in range(SLICES):
        for name, t in time_slice(part).items():
            out[name] += t
    return out
