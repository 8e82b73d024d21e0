"""Whole-structure replication wrapper tests."""

import numpy as np
import pytest

from repro.cellprobe import CellProbeMachine
from repro.contention import exact_contention
from repro.dictionaries import (
    FKSDictionary,
    ReplicatedDictionary,
    SortedArrayDictionary,
)
from repro.distributions import UniformOverSet, UniformPositiveNegative
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def replicated(keys, universe_size):
    inner = SortedArrayDictionary(keys, universe_size)
    return ReplicatedDictionary(inner, replicas=8)


class TestCorrectness:
    def test_queries_match_inner(self, replicated, keys, negatives, rng):
        for x in list(keys[:30]) + list(negatives[:30]):
            assert replicated.query(int(x), rng) == replicated.contains(int(x))

    def test_plan_conformance(self, replicated, keys, negatives, rng):
        machine = CellProbeMachine(replicated, check_plan=True)
        for x in list(keys[:10]) + list(negatives[:10]):
            machine.run_query(int(x), rng)

    def test_inner_table_restored_after_query(self, replicated, keys, rng):
        inner_table = replicated.inner.table
        replicated.query(int(keys[0]), rng)
        assert replicated.inner.table is inner_table

    def test_replicas_spread_probes(self, replicated, keys):
        """Across many queries, probes land on multiple replicas."""
        rng = np.random.default_rng(0)
        counter = replicated.table.counter
        counter.reset()
        for _ in range(64):
            replicated.query(int(keys[0]), rng)
        counts = counter.total_counts().reshape(replicated.table.rows, -1)
        inner_rows = replicated.inner.table.rows
        replica_hits = [
            counts[r * inner_rows : (r + 1) * inner_rows].sum()
            for r in range(replicated.replicas)
        ]
        assert sum(1 for h in replica_hits if h > 0) >= 4
        counter.reset()

    def test_probe_total_is_sum_of_replica_loads(self, keys, universe_size):
        rep = ReplicatedDictionary(
            FKSDictionary(keys, universe_size, rng=np.random.default_rng(1)),
            replicas=3,
        )
        rng = np.random.default_rng(2)
        assert rep.probe_total() == 0
        rep.query_batch(keys[:40], rng)
        rep.query_batch_on(keys[40:60], 2, rng)
        rep.query(int(keys[0]), rng)
        assert rep.probe_total() > 0
        assert rep.probe_total() == int(rep.replica_probe_loads().sum())


class TestContention:
    def test_contention_divides_by_R(self, keys, universe_size):
        dist = UniformPositiveNegative(universe_size, keys, 0.5)
        inner = SortedArrayDictionary(keys, universe_size)
        base = exact_contention(inner, dist).max_step_contention()
        for R in (2, 8):
            rep = ReplicatedDictionary(
                SortedArrayDictionary(keys, universe_size), R
            )
            phi = exact_contention(rep, dist).max_step_contention()
            assert phi == pytest.approx(base / R)

    def test_expected_probes_unchanged(self, keys, universe_size):
        dist = UniformOverSet(universe_size, keys)
        inner = FKSDictionary(
            keys, universe_size, rng=np.random.default_rng(1)
        )
        base = exact_contention(inner, dist).expected_probes()
        rep = ReplicatedDictionary(inner, 4)
        rep_probes = exact_contention(rep, dist).expected_probes()
        assert rep_probes == pytest.approx(base)

    def test_space_multiplies(self, replicated):
        assert (
            replicated.space_words
            == replicated.replicas * replicated.inner.space_words
        )


class TestValidation:
    def test_replicas_must_be_positive(self, keys, universe_size):
        inner = SortedArrayDictionary(keys, universe_size)
        with pytest.raises(ParameterError):
            ReplicatedDictionary(inner, 0)

    def test_r1_behaves_like_inner(self, keys, universe_size, rng):
        inner = SortedArrayDictionary(keys, universe_size)
        rep = ReplicatedDictionary(inner, 1)
        dist = UniformOverSet(universe_size, keys)
        assert exact_contention(rep, dist).max_step_contention() == (
            pytest.approx(
                exact_contention(inner, dist).max_step_contention()
            )
        )
