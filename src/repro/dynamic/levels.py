"""The logarithmic method (Bentley–Saxe) over signed entries.

A dynamic operation is an entry ``(key, is_insert)``; entries live in
levels of geometrically growing capacity, newest level first.  Each
non-empty level is backed by a *static* low-contention dictionary over
its entries' keys in the universe ``N``, whose data row holds each
entry's word ``2k + is_insert`` at the key's slot.  One honest lookup
per level (:func:`lookup_levels`) reads the word ``w`` at the queried
key's slot: the level pins key ``k`` iff ``w >> 1 == k``, and the key's
state there is ``w & 1``.  The membership machinery — honest probes,
plans, exact contention — applies per level unchanged.

Level discipline (binary-counter carries):

- an operation is a one-entry unit; it merges with levels 0..j-1 where
  j is the first empty level, landing at level j;
- merges dedupe by key, newest entry winning;
- delete entries are dropped when the merge lands below every other
  non-empty level (nothing older remains for them to cancel);
- when accumulated dead weight makes total entries exceed twice the
  live count, everything is flattened into one level of pure inserts.

A key appears in at most one entry per level; the newest level
containing it determines its state.

The live count is kept exactly as ``LevelStructure._live``: ``apply``
moves it by the one key whose state it changes, so the flatten test
costs O(1) and the Θ(n) ``live_keys()`` scan runs only when a flatten
fires.  Code that assigns ``levels`` directly must call
:meth:`LevelStructure.recount` afterwards.

Replicas that apply one log hold the same entries; only their random
draws differ.  So one :class:`LevelStructure` serves a whole replica
set: each :class:`Level` holds its entries once plus one static
structure per replica, and each replica is a :class:`Stream` (its
generator, cost account and verify seed).  An operation is checked,
carried, flattened and retired once, and each level it installs is
built once for every stream, each drawing from its own generator
(:meth:`LowContentionDictionary.build_lockstep`), so every replica's
tables and generator state are those it would have alone.  The
standalone dictionary is the one-stream case.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.cellprobe.table import EMPTY_CELL, Table
from repro.core import LowContentionDictionary
from repro.dictionaries.base import StaticDictionary
from repro.dynamic.accounting import UpdateCostAccount
from repro.errors import ParameterError, QueryError, VerificationError
from repro.heal import charged_to
from repro.telemetry.events import BUS, RebuildEvent
from repro.utils.rng import as_generator


#: :func:`lookup_levels` state of a key that no level pins.
ABSENT = -1


def encode_insert(key: int) -> int:
    """The data word of an insert entry for key: ``2k + 1``."""
    return 2 * int(key) + 1


def encode_delete(key: int) -> int:
    """The data word of a delete (tombstone) entry for key: ``2k``."""
    return 2 * int(key)


class SingletonDictionary(StaticDictionary):
    """A one-key static dictionary: the key replicated across a row.

    Queries probe one uniformly random cell — contention exactly 1/s,
    the flattest possible profile — so singleton levels never become
    hot spots.  The row holds the key, or the one word in ``data``; given
    ``data`` it is not ``keyed``: only :meth:`lookup_batch` answers, and
    the membership queries raise :class:`QueryError`.
    """

    name = "singleton"
    #: Whether the row holds the key, so that membership queries answer.
    keyed = True

    def __init__(
        self, keys, universe_size: int, rng=None, width: int = 64, data=None
    ):
        self.universe_size = int(universe_size)
        self.keys = self._sorted_keys(keys, self.universe_size)
        if self.keys.size != 1:
            raise ParameterError("SingletonDictionary stores exactly one key")
        (word,) = self.keys if data is None else data
        if data is not None:
            self.keyed = False
        self.table = Table(rows=1, s=int(width))
        self.table.write_row(0, np.full(int(width), int(word), dtype=np.uint64))

    def _check_keyed(self) -> None:
        if not self.keyed:
            raise QueryError(
                "the row holds another word than the key; "
                "read it with lookup_batch"
            )

    def query(self, x: int, rng=None) -> bool:
        self._check_keyed()
        x = self.check_key(x)
        rng = as_generator(rng)
        return self.table.read(0, int(rng.integers(0, self.table.s)), 0) == x

    def query_batch(self, xs, rng=None) -> np.ndarray:
        """The scalar query of every key in one round (see :meth:`lookup_batch`)."""
        self._check_keyed()
        xs = np.asarray(xs, dtype=np.int64)
        return self.lookup_batch(xs, rng) == xs.astype(np.uint64)

    def lookup_batch(self, xs, rng=None) -> np.ndarray:
        """The word each key's scalar query reads, in one round.

        One ``(1, b)`` draw gives the b scalar draws' cells and generator
        state, and one :meth:`~repro.cellprobe.table.Table.read_round`
        charges them at step 0.  A key outside the universe raises the
        scalar query's :class:`QueryError` after the keys before it have
        drawn and been charged, as the scalar loop leaves them.
        """
        rng = as_generator(rng)
        xs = np.asarray(xs, dtype=np.int64)
        flat = xs.ravel()
        outside = (flat < 0) | (flat >= self.universe_size)
        b = int(np.argmax(outside)) if outside.any() else flat.size
        words = np.full(flat.size, EMPTY_CELL, dtype=np.uint64)
        if b:
            words[:b] = self.table.read_round(
                np.zeros(1, dtype=np.int64),
                rng.integers(0, self.table.s, size=(1, b)),
                0,
            )[0]
        if b < flat.size:
            self.check_key(flat[b])
        return words.reshape(xs.shape)

    def probe_plan(self, x):
        from repro.cellprobe.steps import UniformStrided

        self.check_key(x)
        return [UniformStrided(row=0, start=0, stride=1, count=self.table.s)]

    def probe_plan_batch(self, xs):
        from repro.cellprobe.steps import BatchStridedStep

        xs = np.asarray(xs, dtype=np.int64)
        batch = xs.shape[0]
        return [
            BatchStridedStep(
                row=0,
                starts=np.zeros(batch, dtype=np.int64),
                strides=np.ones(batch, dtype=np.int64),
                counts=np.full(batch, self.table.s, dtype=np.int64),
                shared=True,
            )
        ]

    @property
    def max_probes(self) -> int:
        return 1


@dataclasses.dataclass
class Stream:
    """One replica's own state under a shared level list.

    Its generator draws the replica's tables, its cost account records
    the updates, queries and rebuilds the replica sees, and its verify
    seed seeds the canary sweeps of the replica's new tables.
    """

    rng: np.random.Generator
    account: UpdateCostAccount = dataclasses.field(
        default_factory=UpdateCostAccount
    )
    verify_seed: int = 0


@dataclasses.dataclass
class Level:
    """One level: its entries (key -> is_insert) and each replica's table.

    ``structures`` maps a replica to its static structure over the
    entries.  An installed level is never relinked to other structures:
    pinned readers keep walking it, and a rebuilt replica's tables go
    into new levels.
    """

    index: int
    entries: dict  # key -> bool (True = insert)
    structures: dict  # replica -> StaticDictionary

    @property
    def size(self) -> int:
        return len(self.entries)

    def state_of(self, key: int) -> bool | None:
        """True/False if this level pins the key's state; None if absent."""
        return self.entries.get(int(key))


def lookup_levels(levels, xs, rng, replica: int = 0) -> np.ndarray:
    """Each key's state under a newest-first level list, by honest reads.

    Every non-empty level visited makes one static lookup
    (``lookup_batch`` on ``replica``'s structure) for the keys no newer
    level has pinned: it reads the word ``w`` at each key's slot and
    pins key ``k`` iff ``w >> 1 == k``, with state ``w & 1``.  A key
    pinned at a newer level is never probed at an older one.  Returns
    int8 states in the shape of ``xs``: 1 inserted, 0 deleted,
    :data:`ABSENT` in no level.
    """
    xs = np.asarray(xs, dtype=np.int64)
    flat = xs.ravel()
    states = np.full(flat.size, ABSENT, dtype=np.int8)
    pending = np.arange(flat.size)
    for level in levels:
        if level is None:
            continue
        if not pending.size:
            break
        keys = flat[pending]
        words = level.structures[replica].lookup_batch(keys, rng)
        pinned = (words >> 1) == keys.astype(np.uint64)
        states[pending[pinned]] = words[pinned] & 1
        pending = pending[~pinned]
    return states.reshape(xs.shape)


def check_queries(xs, universe_size: int) -> np.ndarray:
    """``xs`` as int64; :class:`QueryError` for a key outside the universe."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (int(xs.min()) < 0 or int(xs.max()) >= universe_size):
        bad = xs[(xs < 0) | (xs >= universe_size)][0]
        raise QueryError(
            f"query {int(bad)} outside universe [0, {universe_size})"
        )
    return xs


def counter_digest(levels, replica: int = 0) -> str:
    """SHA-256 over one replica's query counters, level by level in order."""
    h = hashlib.sha256()
    for lv in levels:
        if lv is not None:
            h.update(lv.index.to_bytes(4, "little"))
            counter = lv.structures[replica].table.counter
            h.update(counter.digest().encode("ascii"))
    return h.hexdigest()


class LevelStructure:
    """The level list plus merge/flatten logic for a set of replicas (no
    probe accounting here; the structures inside levels do their own).

    ``streams`` maps each replica the structure builds for to its
    :class:`Stream`, in replica order.
    """

    def __init__(
        self,
        universe_size: int,
        streams: dict,
        max_trials: int = 500,
        min_level_width: int = 0,
        verify_rebuilds: bool = False,
        on_retire=None,
    ):
        self.universe_size = int(universe_size)
        self.streams: dict[int, Stream] = dict(streams)
        self.levels: list[Level | None] = []
        #: Keys whose newest entry is an insert (== len(live_keys())).
        self._live = 0
        self.max_trials = max_trials
        # Pad every level's table to at least this many cells per row.
        # 0 = paper-pure sizing (s = beta * level size): small levels then
        # dominate query contention at ~1/level_size.  Setting this to
        # Theta(total live size) restores O(1/n) query contention at an
        # O(n log n) space cost — the dynamization trade-off E14 measures.
        self.min_level_width = int(min_level_width)
        # Canary-read every entry after each rebuild, charged to a
        # rebuild counter of its own (never the query counter).  The
        # sweep draws from its own seeded rng, so the construction rng
        # stream — and hence the built tables and the query counters —
        # are byte-identical whether verification is on or off.
        self.verify_rebuilds = bool(verify_rebuilds)
        self._installs = 0
        # Called as ``on_retire(level, replica)`` for each stream's table
        # of a level just before it is unlinked (merge carry or flatten)
        # — the epoch manager's retirement hook.
        self.on_retire = on_retire
        # Telemetry label, settable by the serving wrapper.
        self.shard = 0

    # -- state queries (no probes; used for ground truth & merging) -----------------

    def state_of(self, key: int) -> bool:
        """Current membership of key: newest level containing it wins."""
        for level in self.levels:
            if level is not None:
                state = level.state_of(key)
                if state is not None:
                    return state
        return False

    def _newest_states(self) -> dict[int, bool]:
        """Each key's newest entry: older levels first, newer overwrite."""
        states: dict[int, bool] = {}
        for level in reversed(self.levels):
            if level is not None:
                states.update(level.entries)
        return states

    def live_keys(self) -> list[int]:
        """All keys whose newest entry is an insert, sorted."""
        return sorted(k for k, alive in self._newest_states().items() if alive)

    def recount(self) -> None:
        """Re-derive the live count from the levels (after relinking them)."""
        self._live = sum(self._newest_states().values())

    @property
    def total_entries(self) -> int:
        return sum(lv.size for lv in self.levels if lv is not None)

    @property
    def nonempty_levels(self) -> list[Level]:
        return [lv for lv in self.levels if lv is not None]

    # -- honest reads ----------------------------------------------------------------

    def query_batch(self, xs, rng, replica: int = 0) -> np.ndarray:
        """Honest membership of every key in ``xs`` on one replica's tables.

        A key outside the universe raises :class:`QueryError` before
        any probe; the replica's account counts the queries, and
        :func:`lookup_levels` reads its tables.
        """
        xs = check_queries(xs, self.universe_size)
        self.streams[replica].account.record_query(xs.size)
        return lookup_levels(self.levels, xs, rng, replica) == 1

    # -- structure building ------------------------------------------------------------

    def _build_structures(self, entries: dict, rngs: list) -> list[StaticDictionary]:
        """The static structure over ``entries`` once per generator.

        It is keyed by the entries' keys and its data row holds each
        entry's word ``2k + is_insert``.  Structure ``i`` is the one
        ``rngs[i]`` alone would build; a level of two or more entries is
        built for all of them in one lockstep construction
        (:meth:`LowContentionDictionary.build_lockstep`).
        """
        if not rngs:
            return []
        keys = np.array(sorted(entries), dtype=np.int64)
        words = [
            encode_insert(k) if entries[k] else encode_delete(k)
            for k in keys.tolist()
        ]
        if keys.size == 1:
            width = max(64, self.min_level_width)
            return [
                SingletonDictionary(
                    keys, self.universe_size, rng, width=width, data=words
                )
                for rng in rngs
            ]
        params = None
        if self.min_level_width > 2 * keys.size:
            from repro.core import SchemeParameters

            params = SchemeParameters(
                n=int(keys.size),
                beta=self.min_level_width / keys.size,
            )
        return LowContentionDictionary.build_lockstep(
            keys, self.universe_size, rngs,
            params=params, max_trials=self.max_trials, data=words,
        )

    def _install(self, index: int, entries: dict) -> None:
        """Build ``entries``' table for every stream; link them as level
        ``index``.

        Each stream's table is verified (when on), recorded in its
        account and announced as its own rebuild.
        """
        built = self._build_structures(
            entries, [s.rng for s in self.streams.values()]
        )
        level = Level(index, entries, dict(zip(self.streams, built)))
        for replica, stream in self.streams.items():
            cells = level.structures[replica].table.num_cells
            probes = (
                self._verify_level(level, replica)
                if self.verify_rebuilds else 0
            )
            stream.account.record_rebuild(
                level=index, entries=len(entries), cells_written=cells,
                probes=probes,
            )
            if BUS.active:
                BUS.emit(RebuildEvent(
                    shard=self.shard,
                    replica=replica,
                    level=index,
                    entries=len(entries),
                    cells=cells,
                    probes=probes,
                ))
        self._installs += 1
        while len(self.levels) <= index:
            self.levels.append(None)
        self.levels[index] = level

    def _verify_level(self, level: Level, replica: int) -> int:
        """Canary-read every entry through one replica's live read path;
        return the probes it charged.

        Each entry's key must come back pinned by ``level`` with the
        entry's state bit (:func:`lookup_levels` over the one level).
        All probes are rerouted via :func:`repro.heal.charged_to` to a
        rebuild counter — the same
        :class:`~repro.cellprobe.counters.ProbeCounter` substrate as the
        query counter, but a *separate* instance, so the query counter's
        Binomial(Q, Φ_t) envelope statements stay clean.  The rng is
        seeded from ``(verify_seed, install_sequence)`` so the sweep is
        deterministic and independent of the construction stream.
        """
        stream = self.streams[replica]
        verify_rng = np.random.default_rng((stream.verify_seed, self._installs))
        keys = np.fromiter(level.entries, dtype=np.int64, count=level.size)
        want = np.fromiter(
            level.entries.values(), dtype=np.int8, count=level.size
        )
        table = level.structures[replica].table
        counter = ProbeCounter(table.num_cells)
        with charged_to(table, counter):
            got = lookup_levels([level], keys, verify_rng, replica)
        bad = np.flatnonzero(got != want)
        if bad.size:
            i = int(bad[0])
            raise VerificationError(keys[i], got[i] == 1, bool(want[i]))
        return counter.total_probes()

    def _retire(self, level: Level | None) -> None:
        """Hand each stream's table of a level being unlinked to the
        retirement hook, if any."""
        if level is not None and self.on_retire is not None:
            for replica in self.streams:
                self.on_retire(level, replica)

    def adopt(self, other: "LevelStructure") -> None:
        """Take in ``other``'s streams, which replayed the same log.

        ``other``'s levels hold the same entries as this structure's;
        each non-empty level here is replaced by a new :class:`Level`
        that carries ``other``'s tables besides its own, so a level
        already pinned is left as it was.
        """
        for i, (mine, theirs) in enumerate(zip(self.levels, other.levels)):
            if mine is not None:
                rebuilt = {r: theirs.structures[r] for r in other.streams}
                structures = sorted({**mine.structures, **rebuilt}.items())
                self.levels[i] = Level(i, mine.entries, dict(structures))
        self.streams = dict(sorted({**self.streams, **other.streams}.items()))

    # -- the update path ---------------------------------------------------------------

    def update(self, key: int, is_insert: bool) -> None:
        """One insert or delete: every stream counts it, and it is applied
        (:meth:`apply`) when it changes the key's state."""
        for stream in self.streams.values():
            stream.account.record_update()
        if self.state_of(key) != is_insert:
            self.apply(key, is_insert)

    def apply(self, key: int, is_insert: bool) -> None:
        """Apply one operation via binary-counter carrying."""
        self._carry(int(key), bool(is_insert))
        self._maybe_flatten()

    def _carry(self, key: int, is_insert: bool) -> None:
        """Merge the operation with levels 0..j-1 and install it as level j.

        j is the first empty level.  The merged levels are retired and
        unlinked.
        """
        if not 0 <= key < self.universe_size:
            raise ParameterError(f"key {key} outside universe")
        # Only this key changes state, so the live count moves by its
        # change alone (zero for a no-op update).
        self._live += int(is_insert) - int(self.state_of(key))
        # Find the first empty level; merge everything newer into it.
        j = 0
        while j < len(self.levels) and self.levels[j] is not None:
            j += 1
        merged: dict[int, bool] = {key: is_insert}  # newest wins: seed first
        for i in range(j):
            for k, ins in self.levels[i].entries.items():
                merged.setdefault(k, ins)
            self._retire(self.levels[i])
            self.levels[i] = None
        # Drop deletes when nothing older remains.
        nothing_older = all(
            self.levels[i] is None for i in range(j + 1, len(self.levels))
        )
        if nothing_older:
            merged = {k: ins for k, ins in merged.items() if ins}
        if merged:
            self._install(j, merged)

    def _maybe_flatten(self) -> None:
        """Flatten when dead weight makes the entries exceed twice the
        live count: unlink every level and install one of the live keys."""
        total = self.total_entries
        if total >= 8 and total > 2 * max(self._live, 1):
            live = self.live_keys()
            for i in range(len(self.levels)):
                self._retire(self.levels[i])
                self.levels[i] = None
            if live:
                # Land the flattened set at the level matching its size,
                # keeping the capacity discipline (level j holds ~2^j).
                index = max(0, int(np.ceil(np.log2(len(live)))))
                self._install(index, {k: True for k in live})
