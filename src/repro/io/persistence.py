"""Save/load built low-contention dictionaries (.npz).

A static dictionary is built once and queried many times — possibly by
a different process.  This module serializes everything a
:class:`~repro.core.dictionary.LowContentionDictionary` needs — the
table cells, the scheme constants, and the construction's private
analysis state (hash parameters, loads, span starts, per-bucket perfect
hash parameters) — into one compressed ``.npz`` archive, and rebuilds a
fully functional dictionary (honest queries *and* exact probe plans)
from it.

Round-trip fidelity is tested cell-for-cell and plan-for-plan.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.cellprobe.table import Table
from repro.core.construction import ConstructionResult
from repro.core.dictionary import LowContentionDictionary
from repro.core.params import SchemeParameters
from repro.errors import ParameterError
from repro.hashing.dm import DMHashFunction
from repro.hashing.perfect import perfect_hash_functions
from repro.hashing.polynomial import PolynomialHashFunction

#: Format version written into every archive.
FORMAT_VERSION = 1


def save_dictionary(dictionary: LowContentionDictionary, path) -> None:
    """Serialize a built low-contention dictionary to ``path`` (.npz)."""
    if not isinstance(dictionary, LowContentionDictionary):
        raise ParameterError(
            "save_dictionary supports LowContentionDictionary "
            f"(got {type(dictionary).__name__})"
        )
    con = dictionary.construction
    p = con.params
    meta = {
        "format_version": FORMAT_VERSION,
        "universe_size": dictionary.universe_size,
        "prime": con.prime,
        "trials": con.trials,
        "params": {
            "n": p.n,
            "degree": p.degree,
            "c": p.c,
            "delta": p.delta,
            "alpha": p.alpha,
            "beta": p.beta,
            "word_bits": p.word_bits,
        },
    }
    np.savez_compressed(
        pathlib.Path(path),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        cells=con.table._cells,
        keys=dictionary.keys,
        f_words=np.asarray(con.h.f.parameter_words(), dtype=np.int64),
        g_words=np.asarray(con.h.g.parameter_words(), dtype=np.int64),
        z=con.h.z,
        loads=con.loads,
        group_loads=con.group_loads,
        gbas=con.gbas,
        span_starts=con.span_starts,
        inner_a=dictionary._inner_a.astype(np.int64),
        inner_c=dictionary._inner_c.astype(np.int64),
        hist_words=con.hist_words,
    )


def load_dictionary(path) -> LowContentionDictionary:
    """Rebuild a saved low-contention dictionary from ``path``."""
    path = pathlib.Path(path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        if meta.get("format_version") != FORMAT_VERSION:
            raise ParameterError(
                f"unsupported archive version {meta.get('format_version')}"
            )
        params = SchemeParameters(**meta["params"])
        prime = int(meta["prime"])
        f = PolynomialHashFunction(
            prime, params.s, [int(v) for v in archive["f_words"]]
        )
        g = PolynomialHashFunction(
            prime, params.r, [int(v) for v in archive["g_words"]]
        )
        h = DMHashFunction(f, g, archive["z"])
        table = Table(rows=params.num_rows, s=params.s)
        cells = archive["cells"]
        if cells.shape != (params.num_rows, params.s):
            raise ParameterError(
                f"archive table shape {cells.shape} does not match params"
            )
        for row in range(params.num_rows):
            table.write_row(row, cells[row])
        loads = archive["loads"]
        inner_a = archive["inner_a"].astype(np.uint64)
        inner_c = archive["inner_c"].astype(np.uint64)
        nonempty = np.flatnonzero(loads > 0)
        inner = [None] * len(loads)
        for b, h_star in zip(
            nonempty.tolist(),
            perfect_hash_functions(
                prime,
                inner_a[nonempty],
                inner_c[nonempty],
                loads[nonempty].astype(np.int64) ** 2,
            ),
        ):
            inner[b] = h_star
        con = ConstructionResult(
            params=params,
            prime=prime,
            table=table,
            h=h,
            loads=loads,
            group_loads=archive["group_loads"],
            gbas=archive["gbas"],
            span_starts=archive["span_starts"],
            inner=inner,
            trials=int(meta["trials"]),
            hist_words=archive["hist_words"],
        )
        d = LowContentionDictionary.__new__(LowContentionDictionary)
        d.universe_size = int(meta["universe_size"])
        d.keys = archive["keys"].astype(np.int64)
        d.construction = con
        d.params = params
        d.table = table
        d.prime = prime
        d._inner_a = inner_a
        d._inner_c = inner_c
        return d
