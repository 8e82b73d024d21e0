"""Construction invariants: property P(S), layout, spans, histograms."""

import numpy as np
import pytest

from repro.cellprobe.table import EMPTY_CELL
from repro.core import SchemeParameters, construct
from repro.core.construction import sample_until_property_p
from repro.errors import ConstructionError
from repro.utils.bits import decode_unary_histogram
from repro.utils.primes import field_prime_for_universe


@pytest.fixture(scope="module")
def con(keys, universe_size):
    return construct(keys, universe_size, rng=np.random.default_rng(11))


class TestPropertyP:
    def test_conditions_hold(self, con, keys):
        p = con.params
        g_loads = np.bincount(con.h.g.eval_batch(keys), minlength=p.r)
        assert int(g_loads.max()) <= p.max_g_load
        assert int(con.group_loads.max()) <= p.max_group_load
        assert int(np.sum(con.loads.astype(np.int64) ** 2)) <= p.fks_budget

    def test_sampler_reports_trials(self, keys, universe_size):
        params = SchemeParameters(n=keys.size)
        prime = field_prime_for_universe(universe_size)
        h, loads, group_loads, hv, trials = sample_until_property_p(
            params, keys, prime, np.random.default_rng(0)
        )
        assert trials >= 1
        assert int(loads.sum()) == keys.size
        assert np.array_equal(hv, h.eval_batch(keys))

    def test_trial_budget_enforced(self, keys, universe_size):
        params = SchemeParameters(n=keys.size)
        prime = field_prime_for_universe(universe_size)
        with pytest.raises(ConstructionError):
            sample_until_property_p(
                params, keys, prime, np.random.default_rng(0), max_trials=0
            )


class TestLayout:
    def test_coefficient_rows_constant(self, con):
        p = con.params
        words = con.h.f.parameter_words() + con.h.g.parameter_words()
        for i, word in enumerate(words):
            row = [con.table.peek(i, j) for j in range(0, p.s, max(p.s // 7, 1))]
            assert all(v == word for v in row)

    def test_z_row_periodic(self, con):
        p = con.params
        for j in range(0, p.s, max(p.s // 23, 1)):
            assert con.table.peek(p.z_row, j) == int(con.h.z[j % p.r])

    def test_gbas_row_periodic_and_bounded(self, con):
        p = con.params
        for j in range(0, p.s, max(p.s // 23, 1)):
            v = con.table.peek(p.gbas_row, j)
            assert v == int(con.gbas[j % p.m])
            assert v <= p.s  # "GBAS(i) <= s for any i" (paper §2.2)

    def test_histograms_decode_to_loads(self, con):
        p = con.params
        for group in range(0, p.m, max(p.m // 11, 1)):
            words = [
                con.table.peek(row, group) for row in p.histogram_rows
            ]
            decoded = decode_unary_histogram(words, p.group_size, p.word_bits)
            member_buckets = group + p.m * np.arange(p.group_size)
            assert decoded == [int(con.loads[b]) for b in member_buckets]

    def test_spans_disjoint_and_within_gbas(self, con):
        p = con.params
        sq = con.loads.astype(np.int64) ** 2
        intervals = sorted(
            (int(con.span_starts[b]), int(con.span_starts[b] + sq[b]))
            for b in range(p.s)
            if sq[b] > 0
        )
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2, "spans overlap"
        assert intervals[-1][1] <= p.s

    def test_data_row_contains_exactly_the_keys(self, con, keys):
        p = con.params
        row = np.array(
            [con.table.peek(p.data_row, j) for j in range(p.s)], dtype=np.uint64
        )
        stored = np.sort(row[row != np.uint64(EMPTY_CELL)].astype(np.int64))
        assert np.array_equal(stored, np.sort(keys))

    def test_phf_row_replicated_within_spans(self, con):
        p = con.params
        nonempty = np.nonzero(con.loads)[0][:10]
        for b in nonempty:
            start = int(con.span_starts[b])
            span = int(con.loads[b]) ** 2
            words = {con.table.peek(p.phf_row, start + j) for j in range(span)}
            assert len(words) == 1  # same word everywhere in the span
            assert words.pop() == con.inner[b].packed_word()

    def test_keys_at_perfect_hash_positions(self, con, keys):
        p = con.params
        hv = con.h.eval_batch(keys)
        for x, b in zip(keys[:30], hv[:30]):
            pos = int(con.span_starts[b]) + con.inner[b](int(x))
            assert con.table.peek(p.data_row, pos) == int(x)


class TestValidation:
    def test_duplicate_keys_rejected(self, universe_size):
        with pytest.raises(ConstructionError):
            construct([1, 1, 2], universe_size)

    def test_too_few_keys_rejected(self, universe_size):
        with pytest.raises(ConstructionError):
            construct([1], universe_size)

    def test_out_of_universe_keys_rejected(self):
        with pytest.raises(ConstructionError):
            construct([1, 100], 50)

    def test_params_n_mismatch(self, keys, universe_size):
        with pytest.raises(ConstructionError):
            construct(keys, universe_size, SchemeParameters(n=keys.size + 1))


def test_histogram_wider_than_rho_names_the_first_group():
    """A group histogram that needs more than rho words is rejected with
    the first such group; the text is the one the per-group encoder
    loop raised."""
    keys = np.random.default_rng(4).choice(1 << 20, size=300, replace=False)
    params = SchemeParameters(n=300, word_bits=8)
    object.__setattr__(params, "rho", 3)  # 7 words fit the bound
    with pytest.raises(
        ConstructionError, match=r"^histogram of group 11 needs 4 words > rho=3$"
    ):
        construct(keys, 1 << 20, params, np.random.default_rng(0))
