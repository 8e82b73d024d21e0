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

from repro.cellprobe.table import EMPTY_CELL, Table
from repro.core.params import SchemeParameters
from repro.errors import ConstructionError
from repro.hashing.dm import DMHashFunction
from repro.hashing.perfect import (
    PerfectHashFunction,
    find_perfect_hash,
    perfect_hash_eval,
)
from repro.hashing.polynomial import PolynomialFamily
from repro.utils.bits import encode_unary_histogram
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

    # Group base addresses and per-bucket span starts (lexicographic:
    # all of group 0's buckets, then group 1's, ...; within a group,
    # member order k = bucket // m).
    sq = loads.astype(np.int64) ** 2
    bucket_ids = np.arange(s, dtype=np.int64)
    groups = bucket_ids % m
    members = bucket_ids // m
    group_sq_totals = np.bincount(groups, weights=sq, minlength=m).astype(np.int64)
    gbas = np.concatenate([[0], np.cumsum(group_sq_totals)[:-1]])
    # Within-group prefix of squared loads: order buckets by (group, member).
    order = np.lexsort((members, groups))
    sq_in_order = sq[order]
    prefix = np.concatenate([[0], np.cumsum(sq_in_order)[:-1]])
    group_of_ordered = groups[order]
    group_first = np.searchsorted(group_of_ordered, np.arange(m))
    within = prefix - prefix[group_first[group_of_ordered]]
    span_starts = np.empty(s, dtype=np.int64)
    span_starts[order] = gbas[group_of_ordered] + within

    table = Table(rows=params.num_rows, s=s)

    # Coefficient rows: word i of f then of g, replicated across the row.
    d = params.degree
    coeff_words = list(h.f.parameter_words()) + list(h.g.parameter_words())
    for i, word in enumerate(coeff_words):
        table.write_row(i, np.full(s, word, dtype=np.uint64))

    cols = np.arange(s, dtype=np.int64)
    table.write_row(params.z_row, h.z[cols % r].astype(np.uint64))
    table.write_row(params.gbas_row, gbas[cols % m].astype(np.uint64))

    # Group histograms: loads of members 0..G-1 of each group, unary.
    # Bucket b is member b // m of group b % m, and s = G * m.
    hist_rows = []
    for j, member_loads in enumerate(loads.reshape(G, m).T.tolist()):
        words = encode_unary_histogram(member_loads, params.word_bits)
        if len(words) > rho:
            raise ConstructionError(
                f"histogram of group {j} needs {len(words)} words > rho={rho}"
            )
        hist_rows.append(words + [0] * (rho - len(words)))
    hist_words = np.array(hist_rows, dtype=np.uint64).reshape(m, rho)
    for i, row in enumerate(params.histogram_rows):
        table.write_row(row, hist_words[cols % m, i])

    # Perfect-hash row and data row.  The loop only draws each occupied
    # bucket's perfect hash, in bucket order (the construction's RNG
    # order); each row is then written with one scatter.
    inner: list = [None] * s
    key_order = np.argsort(hv, kind="stable")
    sorted_keys = keys[key_order]
    sorted_buckets = hv[key_order]
    bounds = np.searchsorted(sorted_buckets, np.arange(s + 1)).tolist()
    nonempty = np.nonzero(loads)[0]
    inner_a, inner_c, phf_words = [], [], []
    for b in nonempty.tolist():
        lo, hi = bounds[b], bounds[b + 1]
        h_star, _ = find_perfect_hash(
            sorted_keys[lo:hi], prime, (hi - lo) ** 2, rng
        )
        inner[b] = h_star
        inner_a.append(h_star.a)
        inner_c.append(h_star.c)
        phf_words.append(h_star.packed_word())
    # Bucket b's perfect-hash word fills its whole span of load(b)**2 cells.
    spans = sq[nonempty]
    span_first = np.repeat(np.cumsum(spans) - spans, spans)
    table.write_cells(
        params.phf_row,
        np.repeat(span_starts[nonempty], spans)
        + np.arange(int(spans.sum())) - span_first,
        np.repeat(np.array(phf_words, dtype=np.uint64), spans),
    )
    # Key x of bucket b sits at span_start(b) + h*_b(x): every bucket's
    # perfect hash evaluated in one pass over the bucket-sorted keys.
    owner = np.repeat(np.arange(nonempty.size), loads[nonempty])
    in_span = perfect_hash_eval(
        prime,
        np.array(inner_a, dtype=np.uint64)[owner],
        np.array(inner_c, dtype=np.uint64)[owner],
        sq[sorted_buckets].astype(np.uint64),
        sorted_keys,
    )
    table.write_cells(
        params.data_row, span_starts[sorted_buckets] + in_span, sorted_keys
    )

    return ConstructionResult(
        params=params,
        prime=prime,
        table=table,
        h=h,
        loads=loads,
        group_loads=group_loads,
        gbas=gbas.astype(np.int64),
        span_starts=span_starts,
        inner=inner,
        trials=trials,
        hist_words=hist_words,
    )
