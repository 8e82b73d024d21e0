"""Dictionary serialization round-trip tests."""

import numpy as np
import pytest

from repro.cellprobe import CellProbeMachine
from repro.contention import exact_contention
from repro.errors import ParameterError
from repro.io import load_dictionary, save_dictionary


@pytest.fixture()
def saved_path(lcd, tmp_path):
    path = tmp_path / "dict.npz"
    save_dictionary(lcd, path)
    return path


class TestRoundTrip:
    def test_queries_identical(self, lcd, saved_path, keys, negatives):
        loaded = load_dictionary(saved_path)
        rng = np.random.default_rng(0)
        for x in list(keys[:30]) + list(negatives[:30]):
            assert loaded.query(int(x), rng) == lcd.contains(int(x))

    def test_plans_identical(self, lcd, saved_path, keys, negatives):
        loaded = load_dictionary(saved_path)
        for x in list(keys[:15]) + list(negatives[:15]):
            a = lcd.probe_plan(int(x))
            b = loaded.probe_plan(int(x))
            assert len(a) == len(b)
            for sa, sb in zip(a, b):
                assert sa.row == sb.row
                assert np.array_equal(sa.support(), sb.support())

    def test_table_cells_identical(self, lcd, saved_path):
        loaded = load_dictionary(saved_path)
        assert np.array_equal(loaded.table._cells, lcd.table._cells)

    def test_contention_identical(self, lcd, saved_path, uniform_dist):
        loaded = load_dictionary(saved_path)
        a = exact_contention(lcd, uniform_dist)
        b = exact_contention(loaded, uniform_dist)
        assert np.allclose(a.phi, b.phi)

    def test_machine_validates_loaded(self, saved_path, keys, rng):
        loaded = load_dictionary(saved_path)
        machine = CellProbeMachine(loaded, check_plan=True)
        for x in keys[:10]:
            assert machine.run_query(int(x), rng).answer

    def test_perfect_hashes_identical(self, lcd, saved_path):
        loaded = load_dictionary(saved_path)
        for name in ("_inner_a", "_inner_c"):
            got, want = getattr(loaded, name), getattr(lcd, name)
            assert got.dtype == want.dtype == np.uint64
            assert np.array_equal(got, want)
        got, want = loaded.construction.inner, lcd.construction.inner
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert (g.prime, g.a, g.c, g.range_size) == (
                    w.prime, w.a, w.c, w.range_size
                )
                assert type(g.a) is int and type(g.c) is int

    def test_params_preserved(self, lcd, saved_path):
        loaded = load_dictionary(saved_path)
        assert loaded.params == lcd.params
        assert loaded.prime == lcd.prime
        assert loaded.construction_trials == lcd.construction_trials


class TestValidation:
    def test_wrong_type_rejected(self, fks, tmp_path):
        with pytest.raises(ParameterError):
            save_dictionary(fks, tmp_path / "x.npz")

    def test_corrupt_version_rejected(self, lcd, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "bad.npz"
        save_dictionary(lcd, path)
        with np.load(path) as archive:
            data = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        meta["format_version"] = 999
        data["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **data)
        with pytest.raises(ParameterError):
            load_dictionary(path)
