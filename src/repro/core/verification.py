"""Independent verification of a built low-contention table.

Deployment scenario: a table arrives from elsewhere (deserialized,
mmap'd, built by another process) and must be trusted to answer
membership correctly with the advertised contention profile.  The
verifier checks the *cells alone* (plus the public scheme parameters)
against every structural invariant of Section 2.2 — it never consults
construction-private state, so it would catch a corrupted or forged
table that the builder-side analytics cannot see:

1. the coefficient rows are constant and encode valid field elements;
2. the z row is r-periodic with entries in [s];
3. the GBAS row is m-periodic, non-decreasing across groups, bounded
   by s, and consistent with the histogram loads;
4. every group histogram decodes to exactly group_size loads whose
   squared sums reproduce the GBAS increments, with total load = n;
5. every perfect-hash span is constantly filled with a word whose
   function is injective on the span's keys;
6. the data row contains each stored key exactly once, at its
   perfect-hash position, with EMPTY everywhere unowned;
7. (optional, given the intended key set) the stored keys equal it.

``verify_table`` returns a list of human-readable violation strings —
empty means the table is valid.
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.table import EMPTY_CELL, Table
from repro.core.params import SchemeParameters
from repro.hashing.perfect import PerfectHashFunction
from repro.hashing.polynomial import PolynomialHashFunction
from repro.utils.bits import decode_unary_histogram


def verify_table(
    table: Table,
    params: SchemeParameters,
    prime: int,
    expected_keys=None,
    max_violations: int = 20,
) -> list[str]:
    """Check all Section 2.2 invariants; returns violations (empty = ok)."""
    problems: list[str] = []

    def report(msg: str) -> bool:
        problems.append(msg)
        return len(problems) >= max_violations

    p = params
    s = p.s
    if table.rows != p.num_rows or table.s != s:
        return [
            f"table shape ({table.rows}, {table.s}) does not match params "
            f"({p.num_rows}, {s})"
        ]
    cells = table._cells

    # 1. Coefficient rows constant + valid residues.
    for row in range(2 * p.degree):
        word = int(cells[row, 0])
        if not (cells[row] == np.uint64(word)).all():
            if report(f"coefficient row {row} is not constant"):
                return problems
        if word >= prime:
            if report(f"coefficient row {row} holds {word} >= prime"):
                return problems

    # Recover f, g, h', h from the cells (what an honest reader gets).
    f = PolynomialHashFunction(
        prime, s, [int(cells[i, 0]) for i in range(p.degree)]
    )
    g = PolynomialHashFunction(
        prime, p.r, [int(cells[p.degree + i, 0]) for i in range(p.degree)]
    )

    # 2. z row periodicity and range.
    z_row = cells[p.z_row].astype(np.int64)
    base_z = z_row[: p.r]
    if np.any(base_z < 0) or np.any(base_z >= s):
        if report("z entries out of [0, s)"):
            return problems
    cols = np.arange(s)
    if not np.array_equal(z_row, base_z[cols % p.r]):
        if report("z row is not r-periodic"):
            return problems

    # 3/4. GBAS + histograms.
    gbas = cells[p.gbas_row].astype(np.int64)
    base_gbas = gbas[: p.m]
    if not np.array_equal(gbas, base_gbas[cols % p.m]):
        if report("GBAS row is not m-periodic"):
            return problems
    loads = np.zeros(s, dtype=np.int64)
    running = 0
    for group in range(p.m):
        if int(base_gbas[group]) != running:
            if report(
                f"GBAS({group}) = {int(base_gbas[group])}, expected {running}"
            ):
                return problems
        words = [int(cells[row, group]) for row in p.histogram_rows]
        # Histogram rows must be m-periodic too.
        for row in p.histogram_rows:
            hist_row = cells[row].astype(np.uint64)
            if not np.array_equal(hist_row, hist_row[cols % p.m]):
                if report(f"histogram row {row} is not m-periodic"):
                    return problems
        try:
            member_loads = decode_unary_histogram(
                words, p.group_size, p.word_bits
            )
        except Exception as exc:  # malformed histogram
            if report(f"group {group} histogram does not decode: {exc}"):
                return problems
            continue
        for k, load in enumerate(member_loads):
            loads[k * p.m + group] = load
            running += load * load
        if running > s:
            if report(f"group {group} pushes span space past s"):
                return problems
    total_load = int(loads.sum())
    if total_load != p.n:
        if report(f"histogram loads sum to {total_load}, expected n = {p.n}"):
            return problems

    # 5/6. Spans: constant perfect-hash words, keys at h* positions.
    span_starts = np.zeros(s, dtype=np.int64)
    order = np.lexsort((np.arange(s) // p.m, np.arange(s) % p.m))
    pos = 0
    for b in order:
        span_starts[b] = pos
        pos += int(loads[b]) ** 2
    data = cells[p.data_row]
    phf = cells[p.phf_row]
    owned = np.zeros(s, dtype=bool)
    seen_keys: list[int] = []
    for b in np.nonzero(loads)[0]:
        start = int(span_starts[b])
        span = int(loads[b]) ** 2
        owned[start : start + span] = True
        words = phf[start : start + span]
        if not (words == words[0]).all():
            if report(f"bucket {b}: perfect-hash span not constant"):
                return problems
        h_star = PerfectHashFunction.from_packed_word(
            int(words[0]), prime, span
        )
        span_keys = data[start : start + span]
        present = span_keys != np.uint64(EMPTY_CELL)
        if int(present.sum()) != int(loads[b]):
            if report(
                f"bucket {b}: {int(present.sum())} keys stored, "
                f"histogram says {int(loads[b])}"
            ):
                return problems
            continue
        for offset in np.nonzero(present)[0]:
            key = int(span_keys[offset])
            seen_keys.append(key)
            if h_star(key) != int(offset):
                if report(f"bucket {b}: key {key} at wrong h* position"):
                    return problems
            # The key must genuinely belong to bucket b under (f, g, z).
            h_val = (f(key) + int(base_z[g(key)])) % s
            if h_val != int(b):
                if report(f"key {key} stored in bucket {b}, hashes to {h_val}"):
                    return problems

    # Unowned data cells must be EMPTY.
    stray = (~owned) & (data != np.uint64(EMPTY_CELL))
    if stray.any():
        if report(f"{int(stray.sum())} unowned data cells are non-empty"):
            return problems

    # 7. Key-set match.
    if expected_keys is not None:
        expected = sorted(int(k) for k in expected_keys)
        if sorted(seen_keys) != expected:
            report("stored key set differs from the expected key set")
    elif len(set(seen_keys)) != len(seen_keys):
        report("a key is stored more than once")

    return problems


def verify_dictionary(dictionary, expected_keys=None) -> list[str]:
    """Convenience wrapper: verify a LowContentionDictionary's own table.

    Its data row must hold its keys: a dictionary built with other data
    words (not ``keyed``) raises :class:`QueryError`.
    """
    dictionary._check_keyed()
    return verify_table(
        dictionary.table,
        dictionary.params,
        dictionary.prime,
        expected_keys=(
            dictionary.keys if expected_keys is None else expected_keys
        ),
    )
