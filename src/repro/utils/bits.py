"""Bit-level codecs used by the low-contention dictionary.

Section 2.2 of the paper stores, for each *group* of ``s/m`` buckets, a
*group-histogram*: "a binary string where the load of each bucket in the
group is represented consecutively in unary code separated by zeros".
The histogram for a group with bucket loads ``(l_0, ..., l_{G-1})`` is the
bit string ``1^{l_0} 0 1^{l_1} 0 ... 1^{l_{G-1}} 0`` packed into
``rho = ceil(bits / b)`` b-bit words.  The query algorithm reads one random
replica of each of the ``rho`` words and decodes all bucket loads of the
group, from which it derives the squared-load prefix sums that address the
bucket's owned cell range (Section 2.3).

Bits are packed little-endian: stream bit ``k`` is bit ``k % word_bits`` of
word ``k // word_bits``.  Unused high bits of the last word are zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError

#: Default cell width in bits (see DESIGN.md conventions).
WORD_BITS = 64


def unary_histogram_bit_length(loads: Sequence[int]) -> int:
    """Number of bits of the unary, zero-separated encoding of ``loads``."""
    return int(sum(loads)) + len(loads)


def encode_unary_histogram(
    loads: Sequence[int], word_bits: int = WORD_BITS
) -> list[int]:
    """Encode bucket ``loads`` as unary-with-separators, packed into words.

    Returns the list of ``ceil(bits/word_bits)`` words (Python ints, each
    ``< 2**word_bits``).  An empty ``loads`` encodes to zero words.
    """
    if word_bits < 1:
        raise ParameterError("word_bits must be positive")
    if any(l < 0 for l in loads):
        raise ParameterError("loads must be non-negative")
    nbits = unary_histogram_bit_length(loads)
    if not loads:
        return []
    # Build the whole bit string as one big Python int, then slice words.
    # Bit positions: for each load l, emit l ones then one zero.
    big = 0
    pos = 0
    for l in loads:
        if l:
            big |= ((1 << l) - 1) << pos
        pos += l + 1
    mask = (1 << word_bits) - 1
    nwords = (nbits + word_bits - 1) // word_bits
    return [(big >> (i * word_bits)) & mask for i in range(nwords)]


def encode_unary_histogram_batch(
    loads: np.ndarray, word_bits: int = WORD_BITS, num_words: int | None = None
) -> np.ndarray:
    """Encode a batch of load vectors at once.

    ``loads`` has shape ``(batch, buckets)``; the return value has shape
    ``(batch, num_words)`` (uint64), row ``i`` holding the words of
    :func:`encode_unary_histogram` of ``loads[i]`` followed by zero words.
    ``num_words`` defaults to the longest row's word count; a row that
    needs more words raises :class:`ParameterError`.  A word with a set
    bit at position 64 or above cannot be stored and raises
    :class:`ParameterError`.
    """
    if word_bits < 1:
        raise ParameterError("word_bits must be positive")
    loads = np.asarray(loads, dtype=np.int64)
    if loads.ndim != 2:
        raise ParameterError(
            f"loads must be 2-D (batch, buckets), got {loads.ndim}-D"
        )
    if loads.size and int(loads.min()) < 0:
        raise ParameterError("loads must be non-negative")
    batch, buckets = loads.shape
    # Row i's stream is nbits[i] bits: all ones except a zero separator
    # after each load, at the running sum of (load + 1) minus one.
    ends = np.cumsum(loads + 1, axis=1)
    nbits = ends[:, -1] if buckets else np.zeros(batch, dtype=np.int64)
    longest = -(-int(nbits.max(initial=0)) // word_bits)
    if num_words is None:
        num_words = longest
    elif longest > num_words:
        row = int(np.argmax(nbits > num_words * word_bits))
        raise ParameterError(
            f"row {row} needs {-(-int(nbits[row]) // word_bits)} words "
            f"> {num_words}"
        )
    width = num_words * word_bits
    bits = np.arange(width) < nbits[:, None]
    bits[np.arange(batch)[:, None], ends - 1] = False
    if word_bits in (8, 16, 32, 64):
        # Little-endian bytes of each row are its words, low word first.
        packed = np.packbits(bits, axis=1, bitorder="little")
        return packed.view(f"<u{word_bits // 8}").astype(np.uint64)
    bits = bits.reshape(batch, num_words, word_bits)
    if word_bits > 64:
        if bits[:, :, 64:].any():
            raise ParameterError("histogram word does not fit in 64 bits")
        bits = bits[:, :, :64]
    shifts = np.arange(bits.shape[2], dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts).sum(axis=2, dtype=np.uint64)


def decode_unary_histogram(
    words: Sequence[int], num_buckets: int, word_bits: int = WORD_BITS
) -> list[int]:
    """Decode ``num_buckets`` loads from packed unary-histogram ``words``.

    Inverse of :func:`encode_unary_histogram`.  Raises
    :class:`ParameterError` if the words do not contain ``num_buckets``
    zero separators.
    """
    if word_bits < 1:
        raise ParameterError("word_bits must be positive")
    if num_buckets == 0:
        return []
    big = 0
    for i, w in enumerate(words):
        if not 0 <= w < (1 << word_bits):
            raise ParameterError(f"word {i} out of range for {word_bits}-bit cells")
        big |= int(w) << (i * word_bits)
    total_bits = len(words) * word_bits
    loads: list[int] = []
    run = 0
    pos = 0
    while len(loads) < num_buckets:
        if pos >= total_bits:
            raise ParameterError(
                f"histogram truncated: decoded {len(loads)} of {num_buckets} buckets"
            )
        if (big >> pos) & 1:
            run += 1
        else:
            loads.append(run)
            run = 0
        pos += 1
    return loads


def decode_unary_histogram_batch(
    words: np.ndarray, num_buckets: int, word_bits: int = WORD_BITS
) -> np.ndarray:
    """Decode a batch of packed unary histograms at once.

    ``words`` has shape ``(batch, rho)`` (uint64); the return value has
    shape ``(batch, num_buckets)`` (int64 loads).  Semantically identical
    to calling :func:`decode_unary_histogram` on each row, including the
    :class:`ParameterError` when any row lacks ``num_buckets`` separators.
    """
    if word_bits < 1:
        raise ParameterError("word_bits must be positive")
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ParameterError(f"words must be 2-D (batch, rho), got {words.ndim}-D")
    batch = words.shape[0]
    if num_buckets == 0:
        return np.zeros((batch, 0), dtype=np.int64)
    # Expand to the little-endian bit stream: bit k of the stream is bit
    # (k % word_bits) of word (k // word_bits).  Byte-aligned word sizes
    # take the fast unpackbits path (the hot loop of batched queries).
    if word_bits % 8 == 0 and word_bits <= 64:
        nbytes = word_bits // 8
        raw = np.ascontiguousarray(words.astype("<u8")).view(np.uint8)
        raw = raw.reshape(batch, words.shape[1], 8)[:, :, :nbytes]
        bits = np.unpackbits(
            np.ascontiguousarray(raw).reshape(batch, words.shape[1] * nbytes),
            axis=1,
            bitorder="little",
        )
        zeros = bits == 0
    else:
        shifts = np.arange(word_bits, dtype=np.uint64)
        bits = (
            (words[:, :, None] >> shifts[None, None, :]) & np.uint64(1)
        ).reshape(batch, words.shape[1] * word_bits)
        zeros = bits == 0
    # Flat positions of every zero separator, row-major; row r's zeros
    # are bounds[r]:bounds[r + 1] of them.
    width = zeros.shape[1]
    flat = np.flatnonzero(zeros)
    row_starts = np.arange(batch + 1) * width
    bounds = np.searchsorted(flat, row_starts)
    counts = bounds[1:] - bounds[:-1]
    if int(counts.min(initial=num_buckets)) < num_buckets:
        bad = int(np.argmax(counts < num_buckets))
        raise ParameterError(
            f"histogram truncated: row {bad} decoded "
            f"{int(counts[bad])} of {num_buckets} buckets"
        )
    # Each row's first num_buckets separators, as columns of that row; a
    # load is the gap before its separator (the first from the row start).
    loads = (
        flat[bounds[:-1, None] + np.arange(num_buckets)]
        - row_starts[:-1, None]
    )
    loads[:, 1:] -= loads[:, :-1] + 1
    return loads


def pack_pair(a: int, b: int, half_bits: int = 31) -> int:
    """Pack two non-negative ints, each ``< 2**half_bits``, into one word.

    Used to store the two parameters of a bucket's perfect hash function
    in a single table cell (the paper stores "the perfect hash function
    h*_i ... repeatedly in the space owned by the bucket"; with primes
    below 2**31 both coefficients fit one 64-bit cell).
    """
    limit = 1 << half_bits
    if not (0 <= a < limit and 0 <= b < limit):
        raise ParameterError(
            f"pack_pair operands must be in [0, 2**{half_bits}): got {a}, {b}"
        )
    return (a << half_bits) | b


def pack_pair_batch(
    a: np.ndarray, b: np.ndarray, half_bits: int = 31
) -> np.ndarray:
    """Vectorized :func:`pack_pair`: one uint64 word per ``(a[i], b[i])``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    # A negative int64 keeps its sign bits after the shift, so one test
    # covers both ends of [0, 2**half_bits).
    if ((a | b) >> half_bits).any():
        raise ParameterError(
            f"pack_pair operands must be in [0, 2**{half_bits})"
        )
    return (a << half_bits | b).astype(np.uint64)


def unpack_pair(word: int, half_bits: int = 31) -> tuple[int, int]:
    """Inverse of :func:`pack_pair`."""
    if word < 0:
        raise ParameterError("packed word must be non-negative")
    mask = (1 << half_bits) - 1
    return (word >> half_bits) & mask, word & mask


def unpack_pair_batch(
    words: np.ndarray, half_bits: int = 31
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`unpack_pair` over a uint64 array of packed words.

    Returns ``(a, b)`` uint64 arrays of the same shape as ``words``.
    Skipped reads that surfaced :data:`~repro.cellprobe.table.EMPTY_CELL`
    unpack to garbage halves; callers must mask such entries out before
    using the result.
    """
    words = np.asarray(words, dtype=np.uint64)
    mask = np.uint64((1 << half_bits) - 1)
    return (words >> np.uint64(half_bits)) & mask, words & mask

