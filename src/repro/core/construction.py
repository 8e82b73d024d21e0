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
row 2d+3+rho          data: key x's word at span_start(bucket) + h*(x)
====================  =========================================================

A key's data word is the key itself unless the build is given other
words (``data``): a dynamic level stores ``2k + is_insert`` at key k's
slot, so one lookup returns both the key and the state of its entry.

Bucket b (in [s]) belongs to group b mod m as its (b // m)-th member;
its owned span has length load(b)**2 and starts at
GBAS(b mod m) + sum of squared loads of earlier members of its group —
the paper's lexicographic arrangement.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from repro.cellprobe.table import EMPTY_CELL, Table
from repro.core.params import SchemeParameters
from repro.errors import ConstructionError
from repro.hashing.dm import DMHashFunction
from repro.hashing.perfect import (
    find_perfect_hashes,
    perfect_hash_eval,
    perfect_hash_functions,
)
from repro.hashing.polynomial import PolynomialHashFunction
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


def _no_property_p(params: SchemeParameters, max_trials: int) -> str:
    return (
        f"property P(S) not satisfied after {max_trials} trials "
        f"(n={params.n}, s={params.s}, m={params.m}, r={params.r})"
    )


def _level_hash(params: SchemeParameters, prime: int, words, z) -> DMHashFunction:
    """h from the 2d coefficient words of f then g, and z."""
    d = params.degree
    return DMHashFunction(
        PolynomialHashFunction(prime, params.s, words[:d]),
        PolynomialHashFunction(prime, params.r, words[d:]),
        z,
    )


def _sample_lockstep(
    params: SchemeParameters,
    keys: np.ndarray,
    prime: int,
    rngs: list,
    max_trials: int,
) -> tuple:
    """Rejection-sample (f, g, z) from every generator until P(S) holds.

    Every trial draws, from each generator still sampling, the 2d
    coefficients of f then g (one draw of 2d values, which gives the
    values and end state of a draw of d and one of d) and then z: the
    order of one generator sampling alone.  P(S) is then checked for
    all of them in one stacked pass.

    Returns ``(coeffs, zs, loads, group_loads, hv, trials)``: each
    generator's accepted coefficients ``(R, 2d)``, its z array, its
    bucket and group loads ``(R, s)`` and ``(R, m)``, h over ``keys``
    ``(R, n)`` and the trials it took.  A generator that met no P(S)
    within ``max_trials`` has trials 0 and zero rows.
    """
    d, s, r, m = params.degree, params.s, params.r, params.m
    R = len(rngs)
    # Residues and products stay below 2**62, so int64 Horner is exact.
    x = keys % prime
    ranges = np.array([[s], [r]])
    offsets = np.arange(R)[:, None]
    coeffs = np.zeros((R, 2 * d), dtype=np.int64)
    zs: list = [None] * R
    loads = np.zeros((R, s), dtype=np.int64)
    group_loads = np.zeros((R, m), dtype=np.int64)
    hv = np.zeros((R, keys.size), dtype=np.int64)
    trials = np.zeros(R, dtype=np.int64)
    pending = list(range(R))
    for trial in range(1, max_trials + 1):
        # Generators are independent, so drawing every coefficient vector
        # before any z keeps each generator's own order.
        drawn = [rngs[i].integers(0, prime, size=2 * d) for i in pending]
        z_drawn = [rngs[i].integers(0, s, size=r) for i in pending]
        k = len(pending)
        rows = offsets[:k]
        # f and g of every candidate in one Horner pass, shape (k, 2, n).
        c = np.array(drawn).reshape(k, 2, d, 1)
        acc = c[:, :, d - 1]
        for i in range(d - 2, -1, -1):
            acc = (acc * x + c[:, :, i]) % prime
        acc %= ranges
        gx = acc[:, 1]
        gx += rows * r  # each candidate's own z and g-loads
        h = (acc[:, 0] + np.concatenate(z_drawn)[gx]) % s
        g_loads = np.bincount(gx.ravel(), minlength=k * r)
        b_loads = np.bincount((h + rows * s).ravel(), minlength=k * s)
        b_loads = b_loads.reshape(k, s)
        group_sums = b_loads.reshape(k, -1, m).sum(axis=1)
        ok = (
            (g_loads.reshape(k, r).max(axis=1) <= params.max_g_load)
            & (group_sums.max(axis=1) <= params.max_group_load)
            & ((b_loads * b_loads).sum(axis=1) <= params.fks_budget)
        ).tolist()
        still = []
        for j, i in enumerate(pending):
            if ok[j]:
                coeffs[i], zs[i], loads[i], group_loads[i], hv[i] = (
                    drawn[j], z_drawn[j], b_loads[j], group_sums[j], h[j]
                )
                trials[i] = trial
            else:
                still.append(i)
        pending = still
        if not pending:
            break
    return coeffs, zs, loads, group_loads, hv, trials


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
    coeffs, zs, loads, group_loads, hv, trials = _sample_lockstep(
        params, keys, prime, [rng], max_trials
    )
    if not trials[0]:
        raise ConstructionError(_no_property_p(params, max_trials))
    h = _level_hash(params, prime, coeffs[0].tolist(), zs[0])
    return h, loads[0], group_loads[0], hv[0], int(trials[0])


def _checked_input(keys, universe_size, params, data=None):
    """Sorted int64 keys, the universe size, the parameters and the data
    words (the keys by default), checked."""
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
    if data is None:
        data = keys
    else:
        data = np.asarray(data, dtype=np.uint64)
        if data.shape != keys.shape:
            raise ConstructionError(
                f"{data.size} data words for {keys.size} keys"
            )
    return keys, universe_size, params, data


def construct(
    keys,
    universe_size: int,
    params: SchemeParameters | None = None,
    rng=None,
    max_trials: int = 500,
    data=None,
) -> ConstructionResult:
    """Build the low-contention dictionary table for ``keys``.

    ``params`` defaults to :class:`SchemeParameters` with the paper's
    constants for ``n = len(keys)``.  The one-generator case of
    :func:`construct_lockstep`.
    """
    return construct_lockstep(
        keys, universe_size, params, [as_generator(rng)], max_trials, data
    )[0]


def construct_lockstep(
    keys,
    universe_size: int,
    params: SchemeParameters | None,
    rngs,
    max_trials: int = 500,
    data=None,
) -> list[ConstructionResult]:
    """Build one table for ``keys`` per generator in ``rngs``, in one pass.

    The data row holds, at each key's slot, its word in ``data``: the
    i-th word belongs to the i-th smallest key.  ``data`` defaults to
    the keys themselves.  The words change no draw and no other cell.

    Result ``i`` is the one ``construct(keys, universe_size, params,
    rngs[i], max_trials)`` builds: the same cells, ``writes``, functions,
    histogram words and trials, and ``rngs[i]`` ends in the same state.
    Only the draws and each generator's perfect-hash search run per
    generator; the P(S) checks (:func:`_sample_lockstep`), the span
    layout, the histograms and the row writes run once over the stack of
    all of them.  The results share no objects (result ``i > 0`` holds a
    copy of ``params``), so each pickles as a result built alone.

    A failure is that of the builds run one after another: the first
    generator (in order) whose build fails raises its
    :class:`ConstructionError`; the generators before it have made their
    whole builds' draws, and those after it end where they began.
    """
    keys, universe_size, params, data = _checked_input(
        keys, universe_size, params, data
    )
    rngs = [as_generator(g) for g in rngs]
    if not rngs:
        return []
    begun = [g.bit_generator.state for g in rngs[1:]]
    prime = field_prime_for_universe(universe_size)
    coeffs, zs, loads, group_loads, hv, trials = _sample_lockstep(
        params, keys, prime, rngs, max_trials
    )
    R, n = len(rngs), keys.size
    s, m, r, rho = params.s, params.m, params.r, params.rho
    d, G = params.degree, params.group_size

    # Bucket b is member b // m of group b % m, and s = G * m, so the
    # (m, G) transpose of loads.reshape(G, m) lists the buckets in the
    # paper's lexicographic order: group 0's members, then group 1's, ...
    # Bucket b owns load(b)**2 cells; the spans tile [0, sum of squared
    # loads) in that order, so a span starts at the exclusive prefix sum
    # and a group's base address (GBAS) is its first member's start.
    member_loads = loads.reshape(R, G, m).transpose(0, 2, 1)
    sq_lex = (member_loads * member_loads).reshape(R, s)
    starts_lex = np.cumsum(sq_lex, axis=1) - sq_lex
    span_starts = starts_lex.reshape(R, m, G).transpose(0, 2, 1).reshape(R, s)
    gbas = starts_lex[:, ::G].copy()

    # Group histograms: loads of members 0..G-1 of each group, unary, in
    # rho words (P(S) bounds every group's load so that they fit).
    errors = {}
    if not trials.all() or int(group_loads.max()) + G > rho * params.word_bits:
        errors = _failures(params, trials, group_loads, max_trials)

    # Every table's keys grouped by bucket, and its occupied buckets in
    # bucket order: (R, n) and (R, s) stacks, flattened table by table.
    rows = np.arange(R)[:, None]
    order = np.argsort(hv, axis=1, kind="stable")
    sorted_keys = keys[order]
    # Flat indices: bucket b of table i is cell i*s + b of an (R, s) stack.
    sorted_buckets = hv.ravel()[order + rows * n] + rows * s
    occupied = np.flatnonzero(loads)
    counts = loads.ravel()[occupied]
    # The perfect-hash search, table by table: one bulk search draws
    # every occupied bucket's, in bucket order (the construction's RNG
    # order), from that table's generator.  It reads each table's keys
    # by bucket from its row of ``sorted_keys``.
    first_error = min(errors, default=R)
    table_ends = np.searchsorted(occupied, s * np.arange(1, R + 1)).tolist()
    found = []
    for i in range(first_error):
        lo = table_ends[i - 1] if i else 0
        try:
            found.append(find_perfect_hashes(
                sorted_keys[i], counts[lo : table_ends[i]], prime, rngs[i]
            ))
        except ConstructionError:
            _rewind(rngs, begun, i + 1)
            raise
    if errors:
        _rewind(rngs, begun, first_error + 1)
        raise errors[first_error]
    a = np.concatenate([f[0] for f in found])
    c = np.concatenate([f[1] for f in found])
    spans = counts * counts
    functions = perfect_hash_functions(prime, a, c, spans)
    per_key = np.repeat(np.array((a, c, spans), dtype=np.uint64), counts, axis=1)
    slots = perfect_hash_eval(
        prime, per_key[0], per_key[1], per_key[2], sorted_keys.ravel()
    ).reshape(R, n)

    hist_words = encode_unary_histogram_batch(
        member_loads.reshape(R * m, G), params.word_bits, rho
    ).reshape(R, m, rho)
    cells = np.full((R, params.num_rows, s), EMPTY_CELL, dtype=np.uint64)
    cols = np.arange(s)
    group_of_col = cols % m
    # Coefficient rows: word i of f then of g, replicated across the row.
    cells[:, : 2 * d] = coeffs[:, :, None]
    cells[:, params.z_row] = np.array(zs)[:, cols % r]
    cells[:, params.gbas_row] = gbas[:, group_of_col]
    cells[:, params.gbas_row + 1 : params.phf_row] = hist_words[
        :, group_of_col
    ].transpose(0, 2, 1)

    # Bucket b's perfect-hash word fills its whole span of load(b)**2
    # cells; in lexicographic order each table's spans tile the prefix
    # of its row that they cover.
    phf_words = np.zeros(R * s, dtype=np.uint64)
    phf_words[occupied] = pack_pair_batch(a, c)
    covered = sq_lex.sum(axis=1)
    cells[:, params.phf_row][cols < covered[:, None]] = np.repeat(
        phf_words.reshape(R, G, m).transpose(0, 2, 1).ravel(), sq_lex.ravel()
    )
    # Key x of bucket b has its word at span_start(b) + h*_b(x).
    cells.reshape(-1)[
        rows * (params.num_rows * s)
        + params.data_row * s
        + span_starts.ravel()[sorted_buckets]
        + slots
    ] = data[order]

    # Each table's functions and writes, as a build of its own makes
    # them: every cell of the 2d + 2 + rho replicated rows, the covered
    # perfect-hash prefix and the keys.
    inner = [None] * (R * s)
    for b, h in zip(occupied.tolist(), functions):
        inner[b] = h
    writes = ((2 * d + 2 + rho) * s + covered + n).tolist()
    return [
        ConstructionResult(
            params=params if i == 0 else copy.copy(params),
            prime=prime,
            table=Table.from_cells(cells[i], writes[i]),
            h=_level_hash(params, prime, coeffs[i].tolist(), zs[i]),
            loads=loads[i],
            group_loads=group_loads[i],
            gbas=gbas[i],
            span_starts=span_starts[i],
            inner=inner[i * s : (i + 1) * s],
            trials=int(trials[i]),
            hist_words=hist_words[i],
        )
        for i in range(R)
    ]


def _failures(
    params: SchemeParameters,
    trials: np.ndarray,
    group_loads: np.ndarray,
    max_trials: int,
) -> dict:
    """Each failed table's :class:`ConstructionError`, by table index.

    A table failed when it met no P(S) (trials 0) or when a group
    histogram needs more than rho words; the error names its first such
    group.
    """
    rho = params.rho
    errors = {}
    for i, tried in enumerate(trials.tolist()):
        words = -(-(group_loads[i] + params.group_size) // params.word_bits)
        if not tried:
            errors[i] = ConstructionError(_no_property_p(params, max_trials))
        elif int(words.max()) > rho:
            j = int(np.argmax(words > rho))
            errors[i] = ConstructionError(
                f"histogram of group {j} needs {int(words[j])} words > rho={rho}"
            )
    return errors


def _rewind(rngs: list, begun: list, start: int) -> None:
    """Return ``rngs[start:]`` to their states before the build."""
    for i in range(start, len(rngs)):
        rngs[i].bit_generator.state = begun[i - 1]
