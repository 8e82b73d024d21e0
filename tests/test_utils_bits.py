"""Group-histogram codec and word-packing tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.utils.bits import (
    WORD_BITS,
    decode_unary_histogram,
    encode_unary_histogram,
    encode_unary_histogram_batch,
    pack_pair,
    pack_pair_batch,
    unary_histogram_bit_length,
    unpack_pair,
)


def test_empty_histogram():
    assert encode_unary_histogram([]) == []
    assert decode_unary_histogram([], 0) == []


def test_single_bucket():
    assert decode_unary_histogram(encode_unary_histogram([5]), 1) == [5]
    assert decode_unary_histogram(encode_unary_histogram([0]), 1) == [0]


def test_known_encoding():
    # loads (1, 2): bits 1 0 1 1 0 -> little-endian word 0b01101 = 13.
    assert encode_unary_histogram([1, 2]) == [0b01101]


def test_bit_length():
    assert unary_histogram_bit_length([3, 0, 2]) == 3 + 0 + 2 + 3


def test_word_boundary_crossing():
    # Force the unary string across a word boundary with tiny words.
    loads = [5, 7, 3]
    words = encode_unary_histogram(loads, word_bits=8)
    assert len(words) == (sum(loads) + len(loads) + 7) // 8
    assert decode_unary_histogram(words, 3, word_bits=8) == loads


def test_truncated_histogram_raises():
    # Trailing zero bits of the last word decode as empty buckets, so a
    # "too many buckets" request only fails once the words run out of bits.
    words = encode_unary_histogram([3, 3], word_bits=8)
    with pytest.raises(ParameterError):
        decode_unary_histogram(words, 20, word_bits=8)


def test_negative_load_rejected():
    with pytest.raises(ParameterError):
        encode_unary_histogram([1, -1])


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
    st.sampled_from([8, 16, 64]),
)
def test_histogram_roundtrip(loads, word_bits):
    words = encode_unary_histogram(loads, word_bits)
    assert all(0 <= w < (1 << word_bits) for w in words)
    assert decode_unary_histogram(words, len(loads), word_bits) == loads


@given(
    st.integers(min_value=0, max_value=(1 << 31) - 1),
    st.integers(min_value=0, max_value=(1 << 31) - 1),
)
def test_pack_pair_roundtrip(a, b):
    word = pack_pair(a, b)
    assert 0 <= word < (1 << WORD_BITS)
    assert unpack_pair(word) == (a, b)


def test_pack_pair_range_check():
    with pytest.raises(ParameterError):
        pack_pair(1 << 31, 0)
    with pytest.raises(ParameterError):
        pack_pair(0, -1)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=12), min_size=5, max_size=5),
        min_size=0,
        max_size=6,
    ),
    st.sampled_from([8, 13, 31, 64]),
)
def test_histogram_batch_equals_per_row_encoding(rows, word_bits):
    loads = np.array(rows, dtype=np.int64).reshape(len(rows), 5)
    words = [encode_unary_histogram(r, word_bits) for r in rows]
    longest = max((len(w) for w in words), default=0)
    got = encode_unary_histogram_batch(loads, word_bits)
    assert got.dtype == np.uint64 and got.shape == (len(rows), longest)
    assert got.tolist() == [w + [0] * (longest - len(w)) for w in words]
    padded = encode_unary_histogram_batch(loads, word_bits, longest + 2)
    assert padded[:, :longest].tolist() == got.tolist()
    assert not padded[:, longest:].any()


def test_histogram_batch_errors():
    loads = np.array([[3, 0, 2], [9, 9, 9]])
    with pytest.raises(ParameterError, match="row 1 needs 4 words > 2"):
        encode_unary_histogram_batch(loads, 8, 2)
    with pytest.raises(ParameterError, match="non-negative"):
        encode_unary_histogram_batch(np.array([[1, -1]]), 8)
    with pytest.raises(ParameterError, match="2-D"):
        encode_unary_histogram_batch(np.array([1, 2]), 8)
    # Cells are 64-bit: a wider word is stored only while its set bits fit.
    assert encode_unary_histogram_batch(np.array([[3, 4]]), 128).tolist() == [
        encode_unary_histogram([3, 4], 128)
    ]
    with pytest.raises(ParameterError, match="64 bits"):
        encode_unary_histogram_batch(np.array([[70, 1]]), 128)


def test_pack_pair_batch_equals_pack_pair():
    a = np.array([0, 1, (1 << 31) - 1, 12345])
    b = np.array([(1 << 31) - 1, 0, 7, 678])
    got = pack_pair_batch(a, b)
    assert got.dtype == np.uint64
    assert got.tolist() == [pack_pair(int(x), int(y)) for x, y in zip(a, b)]
    with pytest.raises(ParameterError):
        pack_pair_batch(np.array([1 << 31]), np.array([0]))
    with pytest.raises(ParameterError):
        pack_pair_batch(np.array([0]), np.array([-1]))
