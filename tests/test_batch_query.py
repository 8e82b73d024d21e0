"""Batched query engine: exactness against the scalar cell-probe path.

Two equivalence properties, checked for *every* scheme and several
instance sizes:

1. **Answers** — ``query_batch(xs, rng)`` returns exactly
   ``contains_batch(xs)`` (the ground truth), so batching never changes
   a membership answer.
2. **Probe accounting** — the per-step probe *totals* recorded by the
   counter match the scalar ``query`` path run over the same keys.
   Batch and scalar may consume the RNG in different orders (so the
   random column choices differ), but the number of probes charged to
   each step is a deterministic function of the instance; the contention
   estimator in :mod:`repro.contention.montecarlo` relies on this.

Plus unit coverage for the batched primitives: ``Table.read_batch``
skip semantics, the vectorized unary-histogram decoder (hypothesis
roundtrip against the scalar decoder), ``unpack_pair_batch``,
``horner_eval_batch``, and the typed :class:`VerificationError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellprobe import EMPTY_CELL, Table
from repro.contention import empirical_contention
from repro.core import LowContentionDictionary
from repro.dictionaries import (
    CuckooDictionary,
    DMDictionary,
    FKSDictionary,
    LinearProbingDictionary,
    ReplicatedDictionary,
    SortedArrayDictionary,
)
from repro.distributions import UniformPositiveNegative
from repro.errors import ParameterError, TableError, VerificationError
from repro.experiments.common import make_instance
from repro.hashing.polynomial import horner_eval_batch
from repro.utils.bits import (
    decode_unary_histogram,
    decode_unary_histogram_batch,
    encode_unary_histogram,
    pack_pair,
    unpack_pair_batch,
)
from repro.utils.rng import as_generator, sample_distinct

SCHEMES = [
    LowContentionDictionary,
    FKSDictionary,
    DMDictionary,
    CuckooDictionary,
    LinearProbingDictionary,
    SortedArrayDictionary,
]

SIZES = [16, 64, 256]


def _instance(n: int, seed: int = 7):
    rng = as_generator(seed)
    N = n * n
    keys = np.sort(sample_distinct(rng, N, n))
    return keys, N


def _queries(keys, N, count, seed):
    """Half positives, half uniform over [N) (mostly negatives)."""
    rng = as_generator(seed)
    pos = rng.choice(keys, size=count // 2)
    neg = rng.integers(0, N, size=count - count // 2)
    return np.concatenate([pos, neg])


def _build(cls, n, seed=7):
    keys, N = _instance(n, seed)
    d = cls(keys, N, rng=as_generator(seed + 1))
    return d, keys, N


@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("n", SIZES)
class TestBatchScalarEquivalence:
    def test_answers_match_ground_truth(self, cls, n):
        d, keys, N = _build(cls, n)
        xs = _queries(keys, N, 400, seed=n)
        answers = d.query_batch(xs, as_generator(3))
        expected = d.contains_batch(xs)
        np.testing.assert_array_equal(answers, expected)

    def test_step_probe_totals_match_scalar(self, cls, n):
        d, keys, N = _build(cls, n)
        xs = _queries(keys, N, 300, seed=n + 1)
        counter = d.table.counter

        counter.reset()
        for x in xs:
            d.query(int(x), as_generator(int(x) % 17))
        scalar_totals = counter.counts_per_step().sum(axis=1)

        counter.reset()
        d.query_batch(xs, as_generator(5))
        batch_totals = counter.counts_per_step().sum(axis=1)

        assert batch_totals.shape == scalar_totals.shape
        np.testing.assert_array_equal(batch_totals, scalar_totals)

    def test_batch_probes_stay_in_plan_support(self, cls, n):
        """Every probed cell lies in some queried key's analytic plan."""
        d, keys, N = _build(cls, n)
        xs = _queries(keys, N, 200, seed=n + 2)
        counter = d.table.counter
        counter.reset()
        d.query_batch(xs, as_generator(9))
        counts = counter.counts_per_step()
        support = np.zeros_like(counts, dtype=bool)
        s = d.table.s
        for x in np.unique(xs):
            for step_index, step in enumerate(d.probe_plan(int(x))):
                flat = step.row * s + step.support()
                support[step_index, flat] = True
        assert not np.any(counts[~support])


@pytest.mark.parametrize("n", [32, 128])
def test_replicated_wrappers_equivalent(n):
    for inner_cls in (FKSDictionary, SortedArrayDictionary):
        keys, N = _instance(n)
        inner = inner_cls(keys, N, rng=as_generator(11))
        d = ReplicatedDictionary(inner, replicas=3)
        xs = _queries(keys, N, 300, seed=n)
        np.testing.assert_array_equal(
            d.query_batch(xs, as_generator(2)), d.contains_batch(xs)
        )
        counter = d.table.counter
        counter.reset()
        for x in xs:
            d.query(int(x), as_generator(int(x) % 13))
        scalar = counter.counts_per_step().sum(axis=1)
        counter.reset()
        d.query_batch(xs, as_generator(4))
        np.testing.assert_array_equal(
            counter.counts_per_step().sum(axis=1), scalar
        )


def test_empirical_contention_matches_exact_support(lcd, uniform_dist):
    """The batched estimator still verifies every answer and normalizes."""
    matrix = empirical_contention(lcd, uniform_dist, 2000, rng=as_generator(0))
    assert matrix.phi.shape[1] == lcd.table.num_cells
    # First probe of every query hits a coefficient row: mass exactly 1.
    assert matrix.step_mass()[0] == pytest.approx(1.0)


def test_batched_estimator_first_step_mass_is_exactly_one():
    """On a 256-key instance with 20k batched queries, every query's
    first probe lands on a coefficient row: step 0 carries mass 1.0."""
    keys, N = make_instance(256, 0)
    d = LowContentionDictionary(keys, N, rng=as_generator(1))
    dist = UniformPositiveNegative(N, keys, 0.5)
    matrix = empirical_contention(d, dist, 20_000, rng=as_generator(2))
    assert matrix.step_mass()[0] == 1.0


def test_empirical_contention_raises_typed_error(fks, keys, universe_size):
    """A lying dictionary triggers VerificationError with the evidence."""

    class Liar:
        def __init__(self, inner):
            self._inner = inner
            self.table = inner.table

        def query_batch(self, xs, rng):
            out = self._inner.query_batch(xs, rng)
            out[0] = ~out[0]
            return out

        def contains_batch(self, xs):
            return self._inner.contains_batch(xs)

    dist = UniformPositiveNegative(universe_size, keys, 0.5)
    with pytest.raises(VerificationError) as excinfo:
        empirical_contention(Liar(fks), dist, 64, rng=as_generator(1))
    err = excinfo.value
    assert isinstance(err, AssertionError)  # backwards-compatible catch
    assert err.answer != err.expected
    assert str(err.key) in str(err)


class TestReadBatch:
    def test_skipped_columns_charge_nothing(self):
        t = Table(2, 4)
        t.write(1, 2, 77)
        out = t.read_batch(1, np.array([2, -1, 3, -1]), step=0)
        assert out[0] == 77
        assert out[1] == EMPTY_CELL and out[3] == EMPTY_CELL
        assert t.counter.total_probes() == 2
        counts = t.counter.counts_per_step()[0]
        assert counts[t.flat_index(1, 2)] == 1
        assert counts[t.flat_index(1, 3)] == 1

    def test_rows_broadcast_and_match_scalar_read(self):
        t = Table(3, 5)
        rng = as_generator(0)
        for r in range(3):
            t.write_row(r, rng.integers(0, 1000, size=5).astype(np.uint64))
        rows = np.array([0, 1, 2, 2])
        cols = np.array([4, 0, 3, 1])
        out = t.read_batch(rows, cols, step=2)
        for i in range(4):
            assert out[i] == t.peek(int(rows[i]), int(cols[i]))

    def test_out_of_range_rejected_only_for_active(self):
        t = Table(2, 2)
        with pytest.raises(TableError):
            t.read_batch(0, np.array([0, 2]), step=0)
        # Negative column = skip, never a bounds error.
        t.read_batch(0, np.array([-5, 1]), step=0)
        assert t.counter.total_probes() == 1

    def test_all_skipped_batch_is_a_noop(self):
        t = Table(1, 1)
        out = t.read_batch(0, np.array([-1, -1]), step=0)
        assert np.all(out == EMPTY_CELL)
        assert t.counter.total_probes() == 0


class TestBatchPrimitives:
    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
        st.sampled_from([8, 16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_histogram_decode_batch_roundtrip(self, loads, word_bits):
        words = encode_unary_histogram(loads, word_bits)
        rho = len(words)
        batch = np.array([words, [0] * rho], dtype=np.uint64)
        # Row 1 must also decode: give it a valid all-zeros histogram iff
        # rho words can hold len(loads) separators, else reuse row 0.
        if rho * word_bits < len(loads):
            batch[1] = batch[0]
        decoded = decode_unary_histogram_batch(batch, len(loads), word_bits)
        assert decoded.shape == (2, len(loads))
        assert decoded[0].tolist() == loads
        assert decoded[0].tolist() == decode_unary_histogram(
            words, len(loads), word_bits
        )

    def test_histogram_decode_batch_truncation(self):
        words = np.array([[0xFF]], dtype=np.uint64)  # 8 ones, no separator
        with pytest.raises(ParameterError):
            decode_unary_histogram_batch(words, 2, word_bits=8)

    def test_histogram_decode_batch_empty(self):
        out = decode_unary_histogram_batch(
            np.zeros((3, 0), dtype=np.uint64), 0
        )
        assert out.shape == (3, 0)

    @pytest.mark.parametrize("word_bits", [8, 13, 64])
    def test_histogram_decode_batch_of_no_rows(self, word_bits):
        out = decode_unary_histogram_batch(
            np.zeros((0, 2), dtype=np.uint64), 5, word_bits
        )
        assert out.shape == (0, 5) and out.dtype == np.int64

    def test_low_contention_empty_batch(self):
        d, _, _ = _build(LowContentionDictionary, 64)
        out = d.query_batch(np.array([], dtype=np.int64), rng=as_generator(1))
        assert out.shape == (0,) and out.dtype == bool
        assert d.table.counter.total_probes() == 0

    def test_unpack_pair_batch_matches_scalar(self):
        pairs = [(0, 0), (1, 2), (2**31 - 1, 5), (123456, 2**31 - 1)]
        words = np.array([pack_pair(a, b) for a, b in pairs], dtype=np.uint64)
        a_arr, b_arr = unpack_pair_batch(words)
        assert a_arr.tolist() == [a for a, _ in pairs]
        assert b_arr.tolist() == [b for _, b in pairs]

    @given(
        st.integers(min_value=2, max_value=2**31 - 1),
        st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_horner_eval_batch_matches_python(self, range_size, coeffs, xs):
        # The largest prime the vectorized path permits (MAX_VECTOR_PRIME);
        # field_prime_for_universe rejects anything larger.
        prime = 2**31 - 1
        xs_arr = np.array(xs, dtype=np.int64)
        word_arrays = [
            np.full(len(xs), c, dtype=np.uint64) for c in coeffs
        ]
        got = horner_eval_batch(word_arrays, xs_arr, prime, range_size)
        for i, x in enumerate(xs):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % prime
            assert got[i] == acc % range_size
        # Stacked: two polynomials with their own ranges in one pass.
        other = [(w * np.uint64(3) + np.uint64(1)) % np.uint64(prime)
                 for w in word_arrays]
        stacked = horner_eval_batch(
            [np.stack(pair) for pair in zip(word_arrays, other)],
            xs_arr,
            prime,
            np.array([[range_size], [7]]),
        )
        assert stacked[0].tolist() == got.tolist()
        assert stacked[1].tolist() == horner_eval_batch(
            other, xs_arr, prime, 7
        ).tolist()


def test_verification_error_attributes():
    err = VerificationError(42, True, False)
    assert (err.key, err.answer, err.expected) == (42, True, False)
    assert "42" in str(err)
    assert isinstance(err, AssertionError)
