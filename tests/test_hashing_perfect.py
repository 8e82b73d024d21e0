"""Per-bucket perfect hashing tests, and the bulk search all builds use."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dictionary import LowContentionDictionary
from repro.errors import ConstructionError, ParameterError
from repro.hashing import PerfectHashFunction, find_perfect_hash
from repro.hashing.perfect import (
    find_perfect_hashes,
    perfect_hash_eval,
    perfect_hash_functions,
)
from repro.utils.primes import MAX_VECTOR_PRIME, next_prime

PRIME = next_prime(1 << 16)


def test_find_perfect_hash_is_injective(rng):
    keys = rng.choice(1 << 16, size=25, replace=False)
    h, trials = find_perfect_hash(keys, PRIME, 25 * 25, rng)
    assert h.is_perfect_on(keys)
    values = h.eval_batch(keys)
    assert np.unique(values).size == keys.size
    assert trials >= 1


def test_expected_trials_small(rng):
    """Quadratic space: mean trials should be < 2 (success prob >= 1/2)."""
    totals = []
    for seed in range(40):
        local = np.random.default_rng(seed)
        keys = local.choice(1 << 16, size=20, replace=False)
        _, trials = find_perfect_hash(keys, PRIME, 400, local)
        totals.append(trials)
    assert np.mean(totals) < 2.5


def test_packed_word_roundtrip(rng):
    keys = rng.choice(1 << 16, size=10, replace=False)
    h, _ = find_perfect_hash(keys, PRIME, 100, rng)
    h2 = PerfectHashFunction.from_packed_word(h.packed_word(), PRIME, 100)
    xs = np.arange(1000)
    assert np.array_equal(h.eval_batch(xs), h2.eval_batch(xs))


def test_singleton_and_empty_buckets(rng):
    h, trials = find_perfect_hash(np.array([42]), PRIME, 1, rng)
    assert h(42) == 0 and trials == 1
    h2, _ = find_perfect_hash(np.array([], dtype=np.int64), PRIME, 1, rng)
    assert h2.is_perfect_on(np.array([], dtype=np.int64))


def test_range_too_small_rejected(rng):
    with pytest.raises(ParameterError):
        find_perfect_hash(np.array([1, 2, 3]), PRIME, 2, rng)


def test_impossible_search_raises(rng):
    # Range = size means only a perfect matching works; with max_trials=1
    # and adversarial luck it can fail — force failure deterministically
    # with colliding keys (x and x + PRIME hash identically).
    keys = np.array([5, 5 + PRIME])
    with pytest.raises(ConstructionError):
        find_perfect_hash(keys, PRIME, 4, rng, max_trials=8)


def test_scalar_matches_batch(rng):
    h = PerfectHashFunction(PRIME, 1234, 567, 89)
    xs = rng.integers(0, 1 << 16, size=300)
    assert all(h(int(x)) == int(v) for x, v in zip(xs, h.eval_batch(xs)))


def test_many_functions_in_one_pass_match_each_function(rng):
    fns = [
        PerfectHashFunction(
            PRIME, int(rng.integers(PRIME)), int(rng.integers(PRIME)), size
        )
        for size in (1, 4, 9, 25, 400)
    ]
    xs = rng.integers(0, 1 << 20, size=200)
    owner = rng.integers(0, len(fns), size=xs.size)
    got = perfect_hash_eval(
        PRIME,
        np.array([f.a for f in fns], dtype=np.uint64)[owner],
        np.array([f.c for f in fns], dtype=np.uint64)[owner],
        np.array([f.range_size for f in fns], dtype=np.uint64)[owner],
        xs,
    )
    assert got.tolist() == [fns[o](int(x)) for x, o in zip(xs, owner)]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        PerfectHashFunction(10, 1, 1, 5)  # composite modulus
    with pytest.raises(ParameterError):
        PerfectHashFunction(PRIME, PRIME, 0, 5)  # a out of range
    with pytest.raises(ParameterError):
        PerfectHashFunction(PRIME, 0, 0, 0)  # empty range


@settings(max_examples=20)
@given(seed=st.integers(0, 10000), size=st.integers(2, 15))
def test_perfect_hash_property(seed, size):
    local = np.random.default_rng(seed)
    keys = local.choice(1 << 16, size=size, replace=False)
    h, _ = find_perfect_hash(keys, PRIME, size * size, local)
    assert h.is_perfect_on(keys)
    assert int(h.eval_batch(keys).max()) < size * size


# -- the bulk search -------------------------------------------------------------

DRAW_PRIMES = [
    next_prime(1 << 10),
    next_prime(1 << 16),
    next_prime(1 << 20),
    next_prime(1 << 24),
    next_prime(1 << 30),
    MAX_VECTOR_PRIME,
]


@pytest.mark.parametrize("prime", DRAW_PRIMES)
def test_bulk_and_split_draws_equal_scalar_draws(prime):
    """What the bulk search rests on: an int64 ``integers`` draw of size k
    gives the values and the end state of k scalar draws, however the k
    are split between calls."""
    k = 257
    gens = [np.random.default_rng(prime % 97) for _ in range(3)]
    for g in gens:
        g.integers(0, 7)  # start mid-word of the bit generator's stream
    scalar = [int(gens[0].integers(0, prime)) for _ in range(k)]
    bulk = gens[1].integers(0, prime, size=k).tolist()
    cuts = sorted(np.random.default_rng(prime).integers(0, k, size=6).tolist())
    split = []
    for lo, hi in zip([0] + cuts, cuts + [k]):
        split += gens[2].integers(0, prime, size=hi - lo).tolist()
    assert scalar == bulk == split
    assert (
        gens[0].bit_generator.state
        == gens[1].bit_generator.state
        == gens[2].bit_generator.state
    )


def _sequential_search(buckets, prime, rng, max_trials, range_sizes):
    """The per-bucket search the bulk search replaced: two scalar draws
    and a NumPy injectivity check per trial, bucket after bucket."""
    out = []
    for keys, size in zip(buckets, range_sizes):
        keys = np.asarray(keys, dtype=np.int64)
        for trial in range(1, max_trials + 1):
            a = int(rng.integers(0, prime))
            c = int(rng.integers(0, prime))
            if PerfectHashFunction(prime, a, c, size).is_perfect_on(keys):
                out.append((a, c, trial))
                break
        else:
            raise ConstructionError(
                f"no perfect hash found for {keys.size} keys into [{size}] "
                f"after {max_trials} trials"
            )
    return out


def _colliding_buckets(seed, prime, count):
    """Buckets of 0-9 keys, distinct mod ``prime`` but far above it, so
    the small prime makes trials fail often."""
    local = np.random.default_rng(seed)
    buckets = []
    for _ in range(count):
        load = int(local.choice([0, 1, 1, 2, 2, 3, 5, 9]))
        residues = local.choice(prime, size=load, replace=False)
        buckets.append(
            (residues + prime * local.integers(1, 1 << 20, size=load)).tolist()
        )
    return buckets


def _run_both(buckets, prime, seed, max_trials, range_sizes=None):
    sizes = (
        [max(len(b) ** 2, 1) for b in buckets]
        if range_sizes is None else range_sizes
    )
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    try:
        ref = _sequential_search(buckets, prime, ref_rng, max_trials, sizes)
    except ConstructionError as exc:
        ref = ("error", str(exc))
    try:
        a, c, trials = find_perfect_hashes(
            [x for b in buckets for x in b], [len(b) for b in buckets],
            prime, new_rng, max_trials, range_sizes,
        )
        new = list(zip(a.tolist(), c.tolist(), trials.tolist()))
    except ConstructionError as exc:
        new = ("error", str(exc))
    assert new == ref
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    return ref


@pytest.mark.parametrize("seed", range(6))
def test_bulk_search_equals_sequential_search_with_retries(seed):
    prime = next_prime(1 << 10)
    result = _run_both(_colliding_buckets(seed, prime, 300), prime, seed, 1000)
    assert sum(t for _, _, t in result) > len(result) + 20  # retries happened


def test_bulk_search_retry_runs_past_the_first_draw():
    """A bucket hashed into exactly ``load`` cells retries hundreds of
    times: the drawn pairs run out mid-search and the singletons after
    it need pairs drawn at the end."""
    prime = next_prime(1 << 16)
    local = np.random.default_rng(3)
    buckets = [local.choice(1 << 20, size=9, replace=False).tolist()]
    buckets += [[int(x)] for x in local.choice(1 << 20, size=40)]
    buckets += [local.choice(1 << 20, size=5, replace=False).tolist()]
    buckets += [[] for _ in range(10)]
    sizes = [9] + [1] * 40 + [5] + [1] * 10
    result = _run_both(buckets, prime, 11, 100_000, sizes)
    assert result[0][2] > 2 * len(buckets)


@pytest.mark.parametrize("where", [0, 150, 299])
def test_bulk_search_exhaustion_matches_sequential_search(where):
    prime = next_prime(1 << 10)
    buckets = _colliding_buckets(where, prime, 300)
    buckets[where] = [5, 5 + prime]  # equal mod prime: never separable
    result = _run_both(buckets, prime, where, 40)
    assert result == (
        "error", "no perfect hash found for 2 keys into [4] after 40 trials"
    )


def test_bulk_search_checks_before_drawing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="invalid prime"):
        find_perfect_hashes([1, 2], [2], 1 << 20, rng)
    with pytest.raises(ParameterError, match="cannot perfectly hash 3 keys"):
        find_perfect_hashes([1, 1, 2, 3], [1, 3], PRIME, rng, range_sizes=[1, 2])
    for keys, loads in [([1, 2, 3], [2]), ([1, 2], [2, 1]), ([1, 2], [3, -1])]:
        with pytest.raises(ParameterError, match="loads"):
            find_perfect_hashes(keys, loads, PRIME, rng)
    assert rng.bit_generator.state == state
    a, c, trials = find_perfect_hashes([], [], PRIME, rng)
    assert a.size == c.size == trials.size == 0
    assert rng.bit_generator.state == state


def test_perfect_hash_functions_match_the_constructor():
    fns = perfect_hash_functions(PRIME, [3, 0], [PRIME - 1, 7], [4, 1])
    assert [(f.a, f.c, f.range_size) for f in fns] == [
        (3, PRIME - 1, 4), (0, 7, 1)
    ]
    assert all(type(f.a) is int and type(f.c) is int for f in fns)
    ref = PerfectHashFunction(PRIME, 3, PRIME - 1, 4)
    assert [fns[0](x) for x in range(50)] == [ref(x) for x in range(50)]
    for args in [(10, [1], [1], [5]), (PRIME, [PRIME], [0], [5]),
                 (PRIME, [0], [-1], [5]), (PRIME, [0], [0], [0])]:
        with pytest.raises(ParameterError):
            perfect_hash_functions(*args)


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls."""

    integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return super().integers(*args, **kwargs)


def test_large_build_draws_in_bulk():
    """The per-bucket search made about two ``integers`` calls per
    occupied bucket; the bulk search makes a handful per build."""
    universe = 1 << 28
    keys = np.random.default_rng(1).choice(universe, size=16384, replace=False)
    rng = _CountingGenerator(np.random.PCG64(0))
    d = LowContentionDictionary(keys, universe, rng=rng)
    occupied = int(np.count_nonzero(d.construction.loads))
    assert rng.integer_calls < occupied / 4
