"""Golden identity of the static write path (construction).

``tests/fixtures/build_golden.json`` holds, for seeded builds of the
three perfect-hashing schemes, everything a build leaves behind:

- a SHA-256 over ``table._cells`` and the ``table.writes`` count;
- every occupied bucket's perfect hash ``(bucket, a, c, range_size)``;
- the low-contention scheme's group-histogram words ``hist_words``;
- the final ``rng.bit_generator.state`` of the construction stream.

The builds are low-contention builds of 2-700 keys over 40 seeds each,
one 16k-key low-contention build, and FKS and DM builds of several
sizes.  Any change to the order or number of random draws, to the
perfect-hash search, to the table layout or to its writes moves one of
these values.  The values were recorded from the per-bucket search that
the bulk search (``find_perfect_hashes``) replaced; they are not to be
regenerated to make this test pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.dictionary import LowContentionDictionary
from repro.dictionaries.dm_dict import DMDictionary
from repro.dictionaries.fks import FKSDictionary

GOLDEN = Path(__file__).parent / "fixtures" / "build_golden.json"

LC_SIZES = (2, 3, 8, 33, 100, 257, 512, 700)
LC_SEEDS = 40
BIG_N = 16384
OTHER_SIZES = (2, 50, 700, 4096)
OTHER_SEEDS = 4
UNIVERSES = (1 << 14, 1 << 24, (1 << 31) - 1)


def _keys(n: int, universe: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(10_000 + seed)
    return rng.choice(universe, size=n, replace=False).astype(np.int64)


class _Digest:
    """Running SHA-256s of the pinned fields over a group of builds."""

    FIELDS = ("cells", "inner", "hist", "rng")

    def __init__(self):
        self._h = {f: hashlib.sha256() for f in self.FIELDS}
        self.writes = 0
        self.builds = 0
        self.has_hist = False

    def add(self, table, inner, rng, hist_words=None) -> None:
        self.builds += 1
        self.writes += int(table.writes)
        self._h["cells"].update(np.ascontiguousarray(table._cells).tobytes())
        self._h["cells"].update(int(table.writes).to_bytes(8, "little"))
        pairs = []
        for b, h in enumerate(inner):
            if h is None:
                continue
            # The (a, c) of every bucket are Python ints, as the
            # per-bucket scalar draws made them.
            assert type(h.a) is int and type(h.c) is int
            pairs.append([b, h.a, h.c, h.range_size])
        self._h["inner"].update(json.dumps(pairs).encode())
        if hist_words is not None:
            self.has_hist = True
            arr = np.asarray(hist_words)
            self._h["hist"].update(str((arr.dtype.str, arr.shape)).encode())
            self._h["hist"].update(np.ascontiguousarray(arr).tobytes())
        state = rng.bit_generator.state
        self._h["rng"].update(json.dumps(state, sort_keys=True).encode())

    def record(self) -> dict:
        out = {f: h.hexdigest() for f, h in self._h.items()}
        if not self.has_hist:
            del out["hist"]
        out["writes"] = self.writes
        out["builds"] = self.builds
        return out


def _lc_group(n: int, seeds: range) -> dict:
    dig = _Digest()
    for seed in seeds:
        universe = UNIVERSES[seed % len(UNIVERSES)]
        rng = np.random.default_rng(seed)
        d = LowContentionDictionary(_keys(n, universe, seed), universe, rng=rng)
        con = d.construction
        dig.add(con.table, con.inner, rng, con.hist_words)
    return dig.record()


def _other_group(cls, n: int) -> dict:
    dig = _Digest()
    for seed in range(OTHER_SEEDS):
        universe = UNIVERSES[seed % len(UNIVERSES)]
        rng = np.random.default_rng(500 + seed)
        d = cls(_keys(n, universe, seed), universe, rng=rng)
        dig.add(d.table, d.inner, rng)
    return dig.record()


def compute() -> dict:
    """Every pinned value, keyed by build group."""
    out = {}
    for n in LC_SIZES:
        out[f"lc_n{n}"] = _lc_group(n, range(LC_SEEDS))
    out[f"lc_n{BIG_N}"] = _lc_group(BIG_N, range(1))
    for name, cls in (("fks", FKSDictionary), ("dm", DMDictionary)):
        for n in OTHER_SIZES:
            out[f"{name}_n{n}"] = _other_group(cls, n)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute()


def test_fixture_covers_every_group(golden, computed):
    assert sorted(golden) == sorted(computed)


@pytest.mark.parametrize(
    "group",
    [f"lc_n{n}" for n in LC_SIZES + (BIG_N,)]
    + [f"{s}_n{n}" for s in ("fks", "dm") for n in OTHER_SIZES],
)
def test_build_matches_golden(golden, computed, group):
    assert computed[group] == golden[group]
