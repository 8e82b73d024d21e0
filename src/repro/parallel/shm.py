"""Shared-memory segments: checksummed headers, zero-copy table views.

The packed :class:`~repro.cellprobe.table.Table` is already a flat
``np.uint64`` array, so a replica set maps onto one named
``multiprocessing.shared_memory`` segment with **no serialization at
all**: the owner copies the cells in once, workers attach the same
physical pages and wrap them in a zero-copy ``np.ndarray`` view.  The
same mechanism carries per-worker probe-counter state back to the
dispatcher (:class:`ShmProbeCounter`) and the request/response rings
(:mod:`repro.parallel.ring`).

Every segment starts with an 8-word (64-byte) **header** — magic,
layout version, kind, geometry, CRC32 — that the attaching side
verifies before trusting a single byte (:func:`verify_header`); table
segments additionally carry a CRC32 of the packed cells so a worker
never serves from a torn or stale copy.  Verification failures raise
the typed :class:`~repro.errors.SegmentFormatError`.

**Ownership protocol** (leak hardening): exactly one process — the
dispatcher that created a segment — ever calls ``unlink``; workers
only ever ``close``.  Owners register every created segment in a
process-wide registry flushed by ``atexit``, so a ``KeyboardInterrupt``
or crashed-worker session still leaves ``/dev/shm`` clean.  Workers
attach through :func:`attach_segment`, which *unregisters* the mapping
from their ``multiprocessing.resource_tracker`` — otherwise a worker's
tracker would unlink segments the owner is still serving from when the
worker exits (a long-standing CPython wart, fixed by ``track=False``
only in 3.13+).
"""

from __future__ import annotations

import atexit
import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.cellprobe.table import Table
from repro.errors import ParameterError, SegmentFormatError
from repro.io.integrity import crc32_bytes
from repro.utils.validation import check_positive_integer

#: First header word of every fabric segment ("replow" + layout rev).
MAGIC = 0x7265706C6F770001

#: Bumped whenever any segment layout changes shape.
LAYOUT_VERSION = 1

#: Segment kinds (header word 2).
KIND_TABLE = 1
KIND_RING = 2
KIND_COUNTER = 3

#: Words per header / control line (64 bytes: one x86 cache line).
LINE_WORDS = 8

_WORD = np.dtype(np.uint64).itemsize


def segment_name(prefix: str, role: str) -> str:
    """A collision-free ``/dev/shm`` name: ``{prefix}-{role}-{nonce}``."""
    return f"{prefix}-{role}-{secrets.token_hex(4)}"


# -- owner registry (atexit leak protection) ---------------------------------

_OWNED: dict[int, shared_memory.SharedMemory] = {}


def _cleanup_owned() -> None:
    """Best-effort close+unlink of every still-registered owned segment."""
    for seg in list(_OWNED.values()):
        for op in (seg.close, seg.unlink):
            try:
                op()
            except (FileNotFoundError, OSError, BufferError):
                pass
    _OWNED.clear()


atexit.register(_cleanup_owned)


def create_segment(name: str, nbytes: int) -> shared_memory.SharedMemory:
    """Create an owned segment and register it for atexit cleanup."""
    seg = shared_memory.SharedMemory(name=name, create=True, size=int(nbytes))
    _OWNED[id(seg)] = seg
    return seg


def destroy_segment(seg: shared_memory.SharedMemory) -> None:
    """Owner-side teardown: close, unlink, drop from the atexit registry."""
    _OWNED.pop(id(seg), None)
    # close() raises BufferError while numpy views are still exported;
    # unlink (the part that actually frees /dev/shm) still succeeds.
    for op in (seg.close, seg.unlink):
        try:
            op()
        except (FileNotFoundError, OSError, BufferError):
            pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment *without* adopting unlink responsibility.

    Unregisters the mapping from this process's resource tracker so a
    worker exiting (cleanly or not) can never unlink a segment the
    owner is still serving from — the owner protocol is the only
    unlink path.
    """
    seg = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker impl detail
        pass
    return seg


# -- headers -----------------------------------------------------------------


def _header_crc(words: np.ndarray) -> int:
    """CRC32 of the first 6 header words (the checksum lives in word 6)."""
    return crc32_bytes(words[:6])


def write_header(
    buf, kind: int, geom0: int = 0, geom1: int = 0, extra: int = 0
) -> None:
    """Write the 8-word verified header at the start of ``buf``.

    Layout: ``[magic, version, kind, geom0, geom1, extra, crc, 0]``
    where the two geometry words and ``extra`` are kind-specific
    (table: rows, s, payload CRC; ring: capacity words; counter:
    max_steps, num_cells).
    """
    words = np.ndarray(LINE_WORDS, dtype=np.uint64, buffer=buf)
    words[0] = MAGIC
    words[1] = LAYOUT_VERSION
    words[2] = int(kind)
    words[3] = int(geom0)
    words[4] = int(geom1)
    words[5] = int(extra)
    words[6] = _header_crc(words)
    words[7] = 0


def verify_header(buf, kind: int, name: str = "segment") -> tuple[int, int, int]:
    """Verify magic/version/kind/CRC; return ``(geom0, geom1, extra)``.

    Raises :class:`~repro.errors.SegmentFormatError` on any mismatch —
    the caller must not touch the payload after a failed verify.
    """
    words = np.ndarray(LINE_WORDS, dtype=np.uint64, buffer=buf).copy()
    if int(words[0]) != MAGIC:
        raise SegmentFormatError(f"{name}: bad magic {int(words[0]):#x}")
    if int(words[1]) != LAYOUT_VERSION:
        raise SegmentFormatError(
            f"{name}: layout version {int(words[1])} != {LAYOUT_VERSION}"
        )
    if int(words[2]) != kind:
        raise SegmentFormatError(
            f"{name}: kind {int(words[2])} != expected {kind}"
        )
    if int(words[6]) != _header_crc(words):
        raise SegmentFormatError(f"{name}: header checksum mismatch")
    return int(words[3]), int(words[4]), int(words[5])


# -- table segments ----------------------------------------------------------


def pack_table(name: str, table: Table) -> shared_memory.SharedMemory:
    """Pack a table's cells into a new owned segment (one copy, ever).

    The header carries ``(rows, s)`` and a CRC32 of the packed payload;
    workers re-verify both before serving, so layout drift or a torn
    copy is caught at attach time, not as silent wrong answers.
    """
    cells = table._cells
    nbytes = LINE_WORDS * _WORD + cells.nbytes
    seg = create_segment(name, nbytes)
    view = np.ndarray(cells.shape, dtype=np.uint64, buffer=seg.buf,
                      offset=LINE_WORDS * _WORD)
    view[:] = cells
    write_header(
        seg.buf, KIND_TABLE, table.rows, table.s,
        crc32_bytes(view),
    )
    return seg


def attach_table(
    seg: shared_memory.SharedMemory,
    counter: ProbeCounter,
    verify_payload: bool = True,
) -> Table:
    """Wrap an attached table segment in a zero-copy :class:`Table`.

    The returned table shares the segment's physical pages (no
    allocation, no copy) and charges probes to ``counter``.  With
    ``verify_payload`` the packed cells are checksummed against the
    header before serving.
    """
    rows, s, payload_crc = verify_header(seg.buf, KIND_TABLE, seg.name)
    view = np.ndarray((rows, s), dtype=np.uint64, buffer=seg.buf,
                      offset=LINE_WORDS * _WORD)
    if verify_payload:
        measured = crc32_bytes(view)
        if measured != payload_crc:
            raise SegmentFormatError(
                f"{seg.name}: table payload checksum mismatch "
                f"({measured:#x} != {payload_crc:#x})"
            )
    if counter.num_cells != rows * s:
        raise ParameterError(
            f"counter tracks {counter.num_cells} cells, segment holds "
            f"{rows * s}"
        )
    table = object.__new__(Table)
    table.rows = rows
    table.s = s
    table._cells = view
    table.writes = 0
    table.counter = counter
    return table


# -- counter segments --------------------------------------------------------

#: Control words (one line after the header): steps used, executions.
_CTRL_STEPS = 0
_CTRL_EXECUTIONS = 1


def counter_segment_size(max_steps: int, num_cells: int) -> int:
    """Bytes needed for a counter segment of the given geometry."""
    return (2 * LINE_WORDS + max_steps * num_cells) * _WORD


def create_counter_segment(
    name: str, max_steps: int, num_cells: int
) -> shared_memory.SharedMemory:
    """Create an owned, zero-filled counter segment with a header."""
    max_steps = check_positive_integer("max_steps", max_steps)
    num_cells = check_positive_integer("num_cells", num_cells)
    seg = create_segment(name, counter_segment_size(max_steps, num_cells))
    write_header(seg.buf, KIND_COUNTER, max_steps, num_cells)
    return seg


class ShmProbeCounter(ProbeCounter):
    """A :class:`ProbeCounter` whose per-step matrices live in shared memory.

    Behaviorally identical to the in-process counter — it inherits every
    recording and reading method, the running probe total included —
    and overrides only the row-allocation hook :meth:`_grow_to`, which
    hands out zero-copy views into a preallocated shared segment.  The
    allocation high-water mark and the execution count are mirrored
    into the segment's control line (by :meth:`_grow_to` and by the
    methods that change the count), so the dispatcher can read the
    exact accounting state back with :func:`read_counter` and fold it
    into a global counter via :meth:`ProbeCounter.merge`.  ``digest()`` equality with the
    in-process service is the E22 deterministic-equivalence gate.
    """

    def __init__(self, seg: shared_memory.SharedMemory):
        max_steps, num_cells, _ = verify_header(
            seg.buf, KIND_COUNTER, seg.name
        )
        super().__init__(num_cells)
        self.max_steps = max_steps
        self._ctrl = np.ndarray(
            LINE_WORDS, dtype=np.uint64, buffer=seg.buf,
            offset=LINE_WORDS * _WORD,
        )
        self._rows = np.ndarray(
            (max_steps, num_cells), dtype=np.int64, buffer=seg.buf,
            offset=2 * LINE_WORDS * _WORD,
        )
        # Resume from whatever a previous attach already recorded (the
        # one O(cells) pass; recording keeps the total from here on).
        steps = int(self._ctrl[_CTRL_STEPS])
        self._per_step = [self._rows[step] for step in range(steps)]
        self._total = int(self._rows[:steps].sum())
        self.executions = int(self._ctrl[_CTRL_EXECUTIONS])

    def _grow_to(self, step: int) -> None:
        if step >= self.max_steps:
            raise ParameterError(
                f"step {step} exceeds segment capacity "
                f"({self.max_steps} steps)"
            )
        while len(self._per_step) <= step:
            self._per_step.append(self._rows[len(self._per_step)])
        self._ctrl[_CTRL_STEPS] = len(self._per_step)

    def finish_execution(self, count: int = 1) -> None:
        super().finish_execution(count)
        self._ctrl[_CTRL_EXECUTIONS] = self.executions

    def merge(self, other: ProbeCounter) -> ShmProbeCounter:
        super().merge(other)
        self._ctrl[_CTRL_EXECUTIONS] = self.executions
        return self

    def reset(self) -> None:
        super().reset()
        self._rows[:] = 0
        self._ctrl[_CTRL_STEPS] = 0
        self._ctrl[_CTRL_EXECUTIONS] = 0


def read_counter(seg: shared_memory.SharedMemory) -> ProbeCounter:
    """Copy a counter segment's state into a plain :class:`ProbeCounter`.

    Used by the dispatcher to fold per-worker accounting into one
    global counter: only the allocated step rows are copied (exactly
    mirroring the in-process counter's lazy allocation), so the merge
    of all workers digests identically to an in-process run of the
    same groups.
    """
    max_steps, num_cells, _ = verify_header(seg.buf, KIND_COUNTER, seg.name)
    ctrl = np.ndarray(
        LINE_WORDS, dtype=np.uint64, buffer=seg.buf,
        offset=LINE_WORDS * _WORD,
    )
    rows = np.ndarray(
        (max_steps, num_cells), dtype=np.int64, buffer=seg.buf,
        offset=2 * LINE_WORDS * _WORD,
    )
    steps = int(ctrl[_CTRL_STEPS])
    out = ProbeCounter(num_cells)
    out._per_step = [rows[i].copy() for i in range(steps)]
    out._total = int(rows[:steps].sum())
    out.executions = int(ctrl[_CTRL_EXECUTIONS])
    return out
