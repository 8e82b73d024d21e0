"""Vectorized dynamic queries: probe-accounting equivalence, typed errors.

``DynamicLowContentionDictionary.query_batch`` must be a pure
vectorization of the scalar walk: same answers, same short-circuit
discipline, and — the accounting property — the same per-level probe
*totals* (per-cell placement may differ only by rng draw order).  All
read entry points must reject out-of-universe keys with the same typed
:class:`~repro.errors.QueryError`.
"""

import numpy as np
import pytest

from repro.dynamic import DynamicLowContentionDictionary
from repro.errors import ParameterError, QueryError

UNIVERSE = 1 << 14


def _grown(seed: int, ops: int = 250, **kwargs) -> DynamicLowContentionDictionary:
    """A dictionary grown by one seeded 70/30 insert/delete stream."""
    dyn = DynamicLowContentionDictionary(
        UNIVERSE, rng=np.random.default_rng(seed), **kwargs
    )
    stream = np.random.default_rng(seed + 1)
    for _ in range(ops):
        k = int(stream.integers(0, 400))
        if stream.random() < 0.7:
            dyn.insert(k)
        else:
            dyn.delete(k)
    return dyn


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_per_level_probe_totals_match_scalar(self, seed):
        """The property E24's accounting gate relies on: batch and
        scalar walks charge byte-equal probe totals per level."""
        scalar = _grown(seed)
        batched = _grown(seed)
        xs = np.random.default_rng(seed + 2).integers(
            0, UNIVERSE, size=300
        )
        scalar_answers = np.array([
            scalar.query(int(x), np.random.default_rng(seed + 3))
            for x in xs
        ])
        batch_answers = batched.query_batch(
            xs, np.random.default_rng(seed + 3)
        )
        assert np.array_equal(scalar_answers, batch_answers)
        assert np.array_equal(batch_answers, np.isin(xs, scalar.live_keys()))
        scalar_totals = {
            lv.index: lv.structures[0].table.counter.total_probes()
            for lv in scalar._levels.nonempty_levels
        }
        batch_totals = {
            lv.index: lv.structures[0].table.counter.total_probes()
            for lv in batched._levels.nonempty_levels
        }
        assert scalar_totals == batch_totals
        assert sum(scalar_totals.values()) > 0

    def test_batch_records_one_query_per_key(self):
        dyn = _grown(7, ops=60)
        before = dyn.account.queries
        dyn.query_batch(
            np.arange(25, dtype=np.int64), np.random.default_rng(0)
        )
        assert dyn.account.queries == before + 25

    def test_empty_batch(self):
        dyn = _grown(8, ops=40)
        out = dyn.query_batch(
            np.empty(0, dtype=np.int64), np.random.default_rng(0)
        )
        assert out.shape == (0,)

    def test_contains_batch_matches_live_keys(self):
        dyn = _grown(9, ops=120)
        xs = np.random.default_rng(10).integers(0, UNIVERSE, size=200)
        assert np.array_equal(
            dyn.contains_batch(xs), np.isin(xs, dyn.live_keys())
        )


class TestTypedValidation:
    """Satellite: one QueryError contract across all read entry points."""

    @pytest.fixture()
    def dyn(self):
        d = DynamicLowContentionDictionary(
            UNIVERSE, rng=np.random.default_rng(20)
        )
        d.insert(1)
        return d

    @pytest.mark.parametrize("bad", [-1, UNIVERSE, UNIVERSE + 5])
    def test_query_out_of_universe(self, dyn, bad):
        with pytest.raises(QueryError, match="outside universe"):
            dyn.query(bad, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [-1, UNIVERSE])
    def test_query_batch_out_of_universe(self, dyn, bad):
        with pytest.raises(QueryError, match="outside universe"):
            dyn.query_batch(
                np.array([0, bad, 1]), np.random.default_rng(0)
            )

    def test_contains_out_of_universe(self, dyn):
        with pytest.raises(QueryError, match="outside universe"):
            dyn.contains(UNIVERSE)

    def test_contains_batch_out_of_universe(self, dyn):
        with pytest.raises(QueryError, match="outside universe"):
            dyn.contains_batch(np.array([UNIVERSE]))

    def test_updates_raise_parameter_error(self, dyn):
        with pytest.raises(ParameterError):
            dyn.insert(-1)
        with pytest.raises(ParameterError):
            dyn.delete(UNIVERSE)


class TestRebuildVerification:
    def test_digest_identical_verify_on_and_off(self):
        digests, rebuild_probes = [], []
        for verify in (True, False):
            dyn = _grown(30, ops=200, verify_rebuilds=verify)
            dyn.query_batch(
                np.random.default_rng(31).integers(0, UNIVERSE, size=300),
                np.random.default_rng(32),
            )
            digests.append(dyn.query_counter_digest())
            rebuild_probes.append(dyn.rebuild_probes)
        assert digests[0] == digests[1]
        assert rebuild_probes[0] > 0
        assert rebuild_probes[1] == 0

    def test_rebuild_probes_in_account_row(self):
        dyn = _grown(33, ops=80, verify_rebuilds=True)
        row = dyn.account.row()
        assert row["rebuild_probes"] == dyn.rebuild_probes > 0
