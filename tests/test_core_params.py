"""SchemeParameters: constraint validation and derived sizes."""

import math

import pytest

from repro.core import SchemeParameters
from repro.errors import ParameterError


def test_defaults_valid_across_sizes():
    for n in (2, 16, 128, 1024, 1 << 15):
        p = SchemeParameters(n=n)
        assert p.s % p.m == 0, "m must divide s"
        assert p.s >= 2 * n, "beta >= 2"
        assert p.group_size == p.s // p.m
        assert p.rho >= 1
        assert p.num_rows == 2 * p.degree + p.rho + 4


def test_row_layout_is_contiguous():
    p = SchemeParameters(n=256)
    rows = (
        list(range(p.coefficient_rows))
        + [p.z_row, p.gbas_row]
        + list(p.histogram_rows)
        + [p.phf_row, p.data_row]
    )
    assert rows == list(range(p.num_rows))


def test_histogram_capacity_sufficient():
    """rho words must hold the worst-case histogram P(S) allows."""
    for n in (64, 256, 4096):
        p = SchemeParameters(n=n)
        worst_bits = p.group_size + p.max_group_load
        assert p.rho * p.word_bits >= worst_bits


def test_delta_interval_enforced():
    SchemeParameters(n=100, degree=3, delta=0.5)  # inside (0.4, 0.667)
    with pytest.raises(ParameterError):
        SchemeParameters(n=100, degree=3, delta=0.4)
    with pytest.raises(ParameterError):
        SchemeParameters(n=100, degree=3, delta=0.7)


def test_degree_must_exceed_two():
    with pytest.raises(ParameterError):
        SchemeParameters(n=100, degree=2)


def test_alpha_floor():
    d, c = 3, 2 * math.e
    alpha_min = d / (c * (math.log(c) - 1))
    with pytest.raises(ParameterError):
        SchemeParameters(n=100, alpha=alpha_min * 0.99)
    SchemeParameters(n=100, alpha=alpha_min * 1.01)


def test_beta_floor():
    with pytest.raises(ParameterError):
        SchemeParameters(n=100, beta=1.9)


def test_c_floor():
    with pytest.raises(ParameterError):
        SchemeParameters(n=100, c=math.e)


def test_n_floor():
    with pytest.raises(ParameterError):
        SchemeParameters(n=1)


def test_z_copies_geometry():
    p = SchemeParameters(n=256)
    total = sum(p.z_copies(i) for i in range(p.r))
    assert total == p.s  # the z row is exactly covered
    with pytest.raises(ParameterError):
        p.z_copies(p.r)


def test_group_size_tracks_log_n():
    """Groups contain Theta(log n) buckets."""
    for n in (256, 1024, 4096, 1 << 14):
        p = SchemeParameters(n=n)
        ratio = p.group_size / math.log(n)
        assert 1.0 <= ratio <= 8.0


def test_space_is_linear():
    per_key = [
        SchemeParameters(n=n).space_words / n for n in (256, 1024, 4096)
    ]
    assert max(per_key) / min(per_key) < 1.3  # flat words/key


def test_word_bits_bounded_by_cell_width():
    """A histogram word must fit a 64-bit table cell whatever the keys."""
    assert SchemeParameters(n=100, word_bits=64).word_bits == 64
    for bits in (65, 128):
        with pytest.raises(ParameterError, match=r"word_bits must be <= 64"):
            SchemeParameters(n=100, word_bits=bits)
    with pytest.raises(ParameterError, match=r"word_bits must be >= 8"):
        SchemeParameters(n=100, word_bits=7)
