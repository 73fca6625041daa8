"""File format loaders, writers, and the synthetic generator."""

import numpy as np
import pytest

from repen.data import Dataset
from repen.ingest import (
    downsample_to_rate,
    load_csv,
    load_libsvm,
    minmax_scale,
    synth_gaussian_with_outliers,
    write_csv,
    write_libsvm,
)

from conftest import datasets_equal


class TestLoadLibsvm:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "a.libsvm"
        path.write_text("1 3:0.5 7:1.0\n0 1:2.0\n")
        ds = load_libsvm(path)
        # 1-based on disk, 0-based in memory.
        assert (ds.n_objects, ds.n_features) == (2, 7)
        dense = ds.to_dense()
        assert dense[0, 2] == 0.5 and dense[0, 6] == 1.0
        assert dense[1, 0] == 2.0
        assert ds.labels.tolist() == [True, False]

    def test_zero_based_switch(self, tmp_path):
        path = tmp_path / "a.libsvm"
        path.write_text("1 3:0.5 7:1.0\n0 1:2.0\n")
        ds = load_libsvm(path, zero_based=True)
        assert ds.n_features == 8
        dense = ds.to_dense()
        assert dense[0, 3] == 0.5 and dense[0, 7] == 1.0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.libsvm"
        path.write_text("")
        with pytest.raises(ValueError, match="no records"):
            load_libsvm(path)

    def test_out_of_order_indices_resorted(self, tmp_path):
        unsorted = tmp_path / "u.libsvm"
        unsorted.write_text("1 7:0.5 3:1.0\n")
        sorted_file = tmp_path / "s.libsvm"
        sorted_file.write_text("1 3:1.0 7:0.5\n")
        a = load_libsvm(unsorted)
        b = load_libsvm(sorted_file)
        assert datasets_equal(a, b)
        assert np.all(np.diff(a.values.indices) > 0)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 3:0.5\n0 nonsense\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.libsvm"
        path.write_text("1 3:0.5 3:0.7\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_libsvm(path)

    def test_hint_bound_enforced(self, tmp_path):
        path = tmp_path / "h.libsvm"
        path.write_text("1 9:1.0\n")
        with pytest.raises(ValueError, match="exceeds"):
            load_libsvm(path, n_features_hint=5)
        ds = load_libsvm(path, n_features_hint=20)
        assert ds.n_features == 20

    def test_round_trip(self, tmp_path, rng):
        values = rng.standard_normal((15, 9))
        values[rng.random((15, 9)) < 0.7] = 0.0
        ds = Dataset(values, labels=rng.random(15) < 0.3).as_sparse()
        path = tmp_path / "rt.libsvm"
        write_libsvm(ds, path)
        back = load_libsvm(path, n_features_hint=9)
        assert datasets_equal(ds, back)


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        ds = load_csv(path)
        assert (ds.n_objects, ds.n_features) == (3, 4)
        assert ds.labels is None

    def test_header_with_label_column(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("f1,f2,y\n0.5,1.5,1\n2.5,3.5,0\n")
        ds = load_csv(path, label_column="y")
        assert ds.n_features == 2
        assert ds.labels.tolist() == [True, False]

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,2,3,4\n5,6,7\n")
        with pytest.raises(ValueError, match="expected 4 cells"):
            load_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    def test_non_numeric_cell_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n\n3,oops\n")
        with pytest.raises(ValueError, match=r"^line 3: non-numeric cell 'oops'$"):
            load_csv(path)

    def test_ragged_row_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b\n\n1,2\n3\n")
        with pytest.raises(ValueError, match=r"^line 4: expected 2 cells, got 1$"):
            load_csv(path)

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("f1,f2\n1,2\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, label_column="y")

    def test_csv_round_trip(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((6, 3)), labels=rng.random(6) < 0.5)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = load_csv(path, label_column="label")
        assert datasets_equal(ds, back)


class TestSynthGenerator:
    def test_shape_contract(self):
        ds = synth_gaussian_with_outliers(100, 5, 5, 9995, 8.0, 42)
        assert (ds.n_objects, ds.n_features) == (105, 10000)
        assert int(ds.labels.sum()) == 5

    def test_deterministic(self):
        a = synth_gaussian_with_outliers(50, 5, 4, 16, 6.0, 42)
        b = synth_gaussian_with_outliers(50, 5, 4, 16, 6.0, 42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_outliers_farther_from_inlier_centroid(self):
        ds = synth_gaussian_with_outliers(200, 20, 5, 0, 8.0, 7)
        centroid = ds.values[~ds.labels].mean(axis=0)
        d_out = np.linalg.norm(ds.values[ds.labels] - centroid, axis=1).mean()
        d_in = np.linalg.norm(ds.values[~ds.labels] - centroid, axis=1).mean()
        assert d_out > d_in

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n_inliers"):
            synth_gaussian_with_outliers(0, 1, 1, 0, 1.0, 0)
        with pytest.raises(ValueError, match="separation"):
            synth_gaussian_with_outliers(5, 1, 1, 0, 0.0, 0)


class TestDownsample:
    def test_target_rate_reached(self):
        ds = synth_gaussian_with_outliers(980, 200, 3, 0, 5.0, 1)
        down = downsample_to_rate(ds, 0.02, seed=3)
        kept = int(down.labels.sum())
        assert kept == 20  # floor(0.02 * 980 / 0.98)
        assert down.n_objects == 1000
        assert not np.any(down.labels[: down.n_objects - kept])

    def test_deterministic(self):
        ds = synth_gaussian_with_outliers(100, 50, 3, 0, 5.0, 1)
        a = downsample_to_rate(ds, 0.05, seed=9)
        b = downsample_to_rate(ds, 0.05, seed=9)
        assert datasets_equal(a, b)

    def test_insufficient_outliers_rejected(self):
        ds = synth_gaussian_with_outliers(100, 1, 3, 0, 5.0, 1)
        with pytest.raises(ValueError, match="need"):
            downsample_to_rate(ds, 0.25, seed=0)


class TestMinmaxScale:
    def test_unit_range(self, rng):
        ds = Dataset(rng.standard_normal((30, 4)) * 9 + 3)
        scaled = minmax_scale(ds)
        assert np.allclose(scaled.values.min(axis=0), 0.0)
        assert np.allclose(scaled.values.max(axis=0), 1.0)

    def test_sparse_rejected(self, rng):
        ds = Dataset(rng.standard_normal((5, 3))).as_sparse()
        with pytest.raises(ValueError, match="dense"):
            minmax_scale(ds)
