"""Independent table verification: valid builds pass, corruption is caught."""

import numpy as np
import pytest

from repro.cellprobe.table import EMPTY_CELL
from repro.core import LowContentionDictionary
from repro.core.verification import verify_dictionary, verify_table


@pytest.fixture()
def fresh(keys, universe_size):
    return LowContentionDictionary(
        keys, universe_size, rng=np.random.default_rng(77)
    )


class TestValidTables:
    def test_fresh_build_verifies(self, fresh, keys):
        assert verify_dictionary(fresh, keys) == []

    def test_session_fixture_verifies(self, lcd, keys):
        assert verify_dictionary(lcd, keys) == []

    def test_loaded_dictionary_verifies(self, lcd, keys, tmp_path):
        from repro.io import load_dictionary, save_dictionary

        path = tmp_path / "d.npz"
        save_dictionary(lcd, path)
        assert verify_dictionary(load_dictionary(path), keys) == []

    def test_wrong_expected_keys_flagged(self, fresh, keys):
        wrong = list(keys[:-1]) + [int(keys[-1]) + 1]
        problems = verify_dictionary(fresh, wrong)
        assert any("key set" in p for p in problems)


    def test_thousand_key_build_verifies(self):
        universe = 1024 * 1024
        keys = np.sort(
            np.random.default_rng(0).choice(universe, size=1024, replace=False)
        )
        d = LowContentionDictionary(keys, universe, rng=np.random.default_rng(7))
        assert verify_dictionary(d) == []


class TestCorruptionDetection:
    def _corrupt(self, fresh, row, col, value):
        fresh.table._cells[row, col] = np.uint64(value)

    def test_coefficient_row_tamper(self, fresh, keys):
        self._corrupt(fresh, 0, 5, fresh.table.peek(0, 5) + 1)
        problems = verify_dictionary(fresh, keys)
        assert any("coefficient row 0" in p for p in problems)

    def test_z_row_tamper(self, fresh, keys):
        p = fresh.params
        self._corrupt(
            fresh, p.z_row, p.r + 3, (fresh.table.peek(p.z_row, p.r + 3) + 1) % p.s
        )
        problems = verify_dictionary(fresh, keys)
        assert any("z row" in p_ for p_ in problems)

    def test_gbas_tamper(self, fresh, keys):
        p = fresh.params
        self._corrupt(fresh, p.gbas_row, 0, fresh.table.peek(p.gbas_row, 0) + 1)
        problems = verify_dictionary(fresh, keys)
        assert any("GBAS" in p_ for p_ in problems)

    def test_histogram_tamper(self, fresh, keys):
        p = fresh.params
        row = next(iter(p.histogram_rows))
        self._corrupt(fresh, row, 0, fresh.table.peek(row, 0) ^ 1)
        problems = verify_dictionary(fresh, keys)
        assert problems  # periodicity, load total, or GBAS mismatch

    def test_data_key_swap(self, fresh, keys):
        p = fresh.params
        con = fresh.construction
        b = int(np.nonzero(con.loads)[0][0])
        start = int(con.span_starts[b])
        offset = next(
            j
            for j in range(int(con.loads[b]) ** 2)
            if fresh.table.peek(p.data_row, start + j) != EMPTY_CELL
        )
        key = fresh.table.peek(p.data_row, start + offset)
        self._corrupt(fresh, p.data_row, start + offset, key + 1)
        problems = verify_dictionary(fresh, keys)
        assert problems

    def test_stray_data_cell(self, fresh, keys):
        p = fresh.params
        con = fresh.construction
        total_span = int((con.loads.astype(np.int64) ** 2).sum())
        if total_span >= p.s:
            pytest.skip("no unowned data cells in this instance")
        self._corrupt(fresh, p.data_row, p.s - 1, 12345)
        problems = verify_dictionary(fresh, keys)
        assert any("unowned" in p_ for p_ in problems)

    def test_phf_span_tamper(self, fresh, keys):
        p = fresh.params
        con = fresh.construction
        multi = np.nonzero(con.loads >= 2)[0]
        if multi.size == 0:
            pytest.skip("no multi-key buckets in this instance")
        b = int(multi[0])
        start = int(con.span_starts[b])
        self._corrupt(
            fresh, p.phf_row, start + 1, fresh.table.peek(p.phf_row, start) + 1
        )
        problems = verify_dictionary(fresh, keys)
        assert any("span not constant" in p_ for p_ in problems)

    def test_shape_mismatch(self, fresh, keys):
        from repro.cellprobe import Table

        wrong = Table(rows=2, s=4)
        problems = verify_table(wrong, fresh.params, fresh.prime)
        assert any("shape" in p_ for p_ in problems)
