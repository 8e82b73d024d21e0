"""Construction of the low-contention dictionary (paper Section 2.2).

Repeatedly sample f in H^d_s, g in H^d_r and z in [s]^r, forming
h = (f + z_g) mod s in R^d_{r,s} and h' = h mod m in R^d_{r,m}, until
property P(S) holds:

1. every coarse g-bucket load  <= c n / r          (Lemma 9(1));
2. every group load            <= ceil(c n / m)    (Lemma 9(2) — also
   guarantees the group histogram fits its rho words);
3. sum of squared bucket loads <= s                (Lemma 9(3), FKS).

By Lemma 9 the acceptance probability is >= 1/2 - o(1), so the expected
number of trials is O(1) and total construction time O(n) — E4 measures
both.  The accepted functions define the table layout:

====================  =========================================================
rows [0, d)           f coefficients, each replicated across the whole row
rows [d, 2d)          g coefficients, likewise
row 2d                z vector: T(2d, j) = z[j mod r]
row 2d+1              GBAS:     T(2d+1, j) = GBAS(j mod m)
rows [2d+2, 2d+2+rho) group histograms: word i of group (j mod m)
row 2d+2+rho          per-bucket perfect-hash words (replicated in-span)
row 2d+3+rho          data: key x at span_start(bucket) + h*(x)
====================  =========================================================

Bucket b (in [s]) belongs to group b mod m as its (b // m)-th member;
its owned span has length load(b)**2 and starts at
GBAS(b mod m) + sum of squared loads of earlier members of its group —
the paper's lexicographic arrangement.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cellprobe.table import Table
from repro.core.params import SchemeParameters
from repro.errors import ConstructionError, ParameterError
from repro.hashing.dm import DMHashFunction
from repro.hashing.perfect import perfect_hash_buckets
from repro.hashing.polynomial import PolynomialFamily
from repro.utils.bits import encode_unary_histogram_batch, pack_pair_batch
from repro.utils.primes import field_prime_for_universe
from repro.utils.rng import as_generator


@dataclasses.dataclass
class ConstructionResult:
    """Everything the query algorithm's *analysis* needs (private state).

    The honest query algorithm never touches this object beyond the
    table and the public scheme parameters; the contention engine and
    the plan validator use it for the closed-form probe distributions.
    """

    params: SchemeParameters
    prime: int
    table: Table
    h: DMHashFunction  # level hash with range s
    loads: np.ndarray  # per-bucket loads, len s
    group_loads: np.ndarray  # per-group loads, len m
    gbas: np.ndarray  # group base addresses, len m
    span_starts: np.ndarray  # per-bucket owned-span start, len s
    inner: list  # per-bucket PerfectHashFunction | None, len s
    trials: int  # rejection-sampling trials used
    hist_words: np.ndarray  # (m, rho) uint64 histogram words

    @property
    def g(self):
        return self.h.g

    @property
    def f(self):
        return self.h.f


def _check_property_p(
    params: SchemeParameters, keys: np.ndarray, h: DMHashFunction
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate property P(S).

    Returns ``(ok, bucket_loads, group_loads, hv)`` where ``hv`` is h
    over the keys; f and g are each evaluated once (f only when the
    coarse g-loads pass).
    """
    gx = h.g.eval_batch(keys)
    g_loads = np.bincount(gx, minlength=params.r)
    if int(g_loads.max(initial=0)) > params.max_g_load:
        return False, None, None, None
    hv = (h.f.eval_batch(keys) + h.z[gx]) % params.s
    loads = np.bincount(hv, minlength=params.s).astype(np.int64)
    group_loads = np.bincount(hv % params.m, minlength=params.m).astype(np.int64)
    if int(group_loads.max(initial=0)) > params.max_group_load:
        return False, None, None, None
    if int(np.sum(loads**2)) > params.fks_budget:
        return False, None, None, None
    return True, loads, group_loads, hv


def sample_until_property_p(
    params: SchemeParameters,
    keys: np.ndarray,
    prime: int,
    rng: np.random.Generator,
    max_trials: int = 500,
) -> tuple[DMHashFunction, np.ndarray, np.ndarray, np.ndarray, int]:
    """Rejection-sample (f, g, z) until P(S) holds.

    Returns (h, bucket_loads, group_loads, hv, trials), where ``hv`` is
    h over ``keys``.
    """
    f_family = PolynomialFamily(prime, params.s, params.degree)
    g_family = PolynomialFamily(prime, params.r, params.degree)
    for trial in range(1, max_trials + 1):
        f = f_family.sample(rng)
        g = g_family.sample(rng)
        z = rng.integers(0, params.s, size=params.r)
        h = DMHashFunction(f, g, z)
        ok, loads, group_loads, hv = _check_property_p(params, keys, h)
        if ok:
            return h, loads, group_loads, hv, trial
    raise ConstructionError(
        f"property P(S) not satisfied after {max_trials} trials "
        f"(n={params.n}, s={params.s}, m={params.m}, r={params.r})"
    )


def construct(
    keys,
    universe_size: int,
    params: SchemeParameters | None = None,
    rng=None,
    max_trials: int = 500,
) -> ConstructionResult:
    """Build the low-contention dictionary table for ``keys``.

    ``params`` defaults to :class:`SchemeParameters` with the paper's
    constants for ``n = len(keys)``.
    """
    rng = as_generator(rng)
    if not isinstance(keys, np.ndarray):
        keys = list(keys)
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    if keys.size < 2:
        raise ConstructionError("need at least 2 keys")
    if np.any(keys[1:] == keys[:-1]):
        raise ConstructionError("keys must be distinct")
    universe_size = int(universe_size)
    if int(keys[0]) < 0 or int(keys[-1]) >= universe_size:
        raise ConstructionError("keys must lie in [0, universe_size)")
    if params is None:
        params = SchemeParameters(n=int(keys.size))
    elif params.n != keys.size:
        raise ConstructionError(
            f"params.n={params.n} does not match {keys.size} keys"
        )
    prime = field_prime_for_universe(universe_size)

    h, loads, group_loads, hv, trials = sample_until_property_p(
        params, keys, prime, rng, max_trials
    )
    s, m, r, rho = params.s, params.m, params.r, params.rho
    G = params.group_size

    # Bucket b is member b // m of group b % m, and s = G * m, so the
    # (m, G) transpose of loads.reshape(G, m) lists the buckets in the
    # paper's lexicographic order: group 0's members, then group 1's, ...
    # Bucket b owns load(b)**2 cells; the spans tile [0, sum of squared
    # loads) in that order, so a span starts at the exclusive prefix sum
    # and a group's base address (GBAS) is its first member's start.
    member_loads = loads.reshape(G, m).T
    sq_lex = member_loads.ravel() ** 2
    starts_lex = np.cumsum(sq_lex) - sq_lex
    span_starts = starts_lex.reshape(m, G).T.ravel()
    gbas = starts_lex[::G].copy()

    table = Table(rows=params.num_rows, s=s)

    # Coefficient rows: word i of f then of g, replicated across the row.
    d = params.degree
    coeff_words = list(h.f.parameter_words()) + list(h.g.parameter_words())
    for i, word in enumerate(coeff_words):
        table.write_row(i, np.full(s, word, dtype=np.uint64))

    cols = np.arange(s, dtype=np.int64)
    group_of_col = cols % m
    table.write_row(params.z_row, h.z[cols % r].astype(np.uint64))
    table.write_row(params.gbas_row, gbas[group_of_col].astype(np.uint64))

    # Group histograms: loads of members 0..G-1 of each group, unary.
    try:
        hist_words = encode_unary_histogram_batch(
            member_loads, params.word_bits, rho
        )
    except ParameterError:
        needed = -(-(member_loads.sum(axis=1) + G) // params.word_bits)
        if int(needed.max()) <= rho:
            raise
        j = int(np.argmax(needed > rho))
        raise ConstructionError(
            f"histogram of group {j} needs {int(needed[j])} words > rho={rho}"
        ) from None
    for i, row in enumerate(params.histogram_rows):
        table.write_row(row, hist_words[group_of_col, i])

    # Perfect-hash row and data row.  One bulk search draws every
    # occupied bucket's perfect hash, in bucket order (the construction's
    # RNG order); each row is then written with one scatter.
    key_order = np.argsort(hv, kind="stable")
    sorted_keys = keys[key_order]
    sorted_buckets = hv[key_order]
    inner, inner_a, inner_c, slots = perfect_hash_buckets(
        sorted_keys, loads, prime, rng
    )
    # Bucket b's perfect-hash word fills its whole span of load(b)**2
    # cells; in lexicographic order the spans tile the row's prefix.
    phf_words = np.zeros(s, dtype=np.uint64)
    phf_words[np.flatnonzero(loads)] = pack_pair_batch(inner_a, inner_c)
    table.write_cells(
        params.phf_row,
        np.arange(int(sq_lex.sum())),
        np.repeat(phf_words.reshape(G, m).T.ravel(), sq_lex),
    )
    # Key x of bucket b sits at span_start(b) + h*_b(x).
    table.write_cells(
        params.data_row, span_starts[sorted_buckets] + slots, sorted_keys
    )

    return ConstructionResult(
        params=params,
        prime=prime,
        table=table,
        h=h,
        loads=loads,
        group_loads=group_loads,
        gbas=gbas,
        span_starts=span_starts,
        inner=inner,
        trials=trials,
        hist_words=hist_words,
    )
