"""File format loaders, writers, and the synthetic generator."""

import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repen import ingest
from repen.data import Dataset
from repen.ingest import (
    downsample_to_rate,
    load_csv,
    load_libsvm,
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
        dense = ds.values.toarray()
        assert dense[0, 2] == 0.5 and dense[0, 6] == 1.0
        assert dense[1, 0] == 2.0
        assert ds.labels.tolist() == [True, False]

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
        ds = Dataset(sp.csr_matrix(values), labels=rng.random(15) < 0.3)
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


# Files on which numpy's reader and the per-cell loop must agree: each is
# loaded with no label column and with "y", normally and with np.loadtxt
# refusing, so the loop parses it.
DIFFERENTIAL_CASES = {
    "whitespace_only_line": "a,y\n1,2\n   \n3,4\n",
    "trailing_comma": "a,y\n1,2,\n3,4,\n",
    "quoted_cell": 'a,y\n"1",2\n3,4\n',
    "hash_in_cell": "a,y\n1,2#3\n",
    "underscore_digits": "a,y\n1_0,2\n",
    "nan_inf_infinity": "a,b,y\nnan,inf,Infinity\n-nan,-inf,-Infinity\n",
    "crlf": "a,y\r\n1,2\r\n3,4\r\n",
    "cr_only": "a,y\r1,2\r3,4\r",
    "cr_header_then_lf": "a,y\r1,2\n3,4\n5,6\n",
    "lone_cr_in_data": "a,y\n1,2\n3,4\r5,6\n",
    "no_final_newline": "a,y\n1,2\n3,4",
    "blank_lines_before_header": "\n\n\na,y\n\n1,2\n3,4\n",
    "header_only": "a,y\n",
    "single_row": "a,y\n1.5,0\n",
    "single_column": "y\n1\n0\n2\n",
    "ragged_row": "a,y\n1,2\n3\n",
    "rows_wider_than_header": "a,y\n1,2,3\n4,5,6\n",
    "hex_float": "a,y\n0x1p3,1\n",
    "bom": "\ufeffa,y\n1,2\n",
    "overflow_1e400": "a,y\n1e400,-1e400\n",
    "label_column_in_the_middle": "a,y,b\n1,0,3\n4,5,6\n",
    "no_header": "\n0.1,2\n\n3,4e-320\n",
}


def _outcome(path, label_column):
    """Values (bitwise) and labels of a load, or its exception type and message."""
    try:
        ds = load_csv(path, label_column=label_column)
    except ValueError as exc:
        return type(exc), str(exc)
    labels = None if ds.labels is None else ds.labels.tolist()
    return ds.values.shape, ds.values.view(np.int64).tolist(), labels


class TestCsvReaderPaths:
    @pytest.mark.parametrize("label_column", [None, "y"])
    @pytest.mark.parametrize(
        "text", DIFFERENTIAL_CASES.values(), ids=DIFFERENTIAL_CASES.keys()
    )
    def test_numpy_reader_matches_the_loop(self, tmp_path, monkeypatch, text, label_column):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(path, label_column)

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert _outcome(path, label_column) == fast

    @pytest.mark.parametrize("label_column", [None, "y"])
    @pytest.mark.parametrize(
        "text", DIFFERENTIAL_CASES.values(), ids=DIFFERENTIAL_CASES.keys()
    )
    def test_forked_reader_matches_in_process(self, tmp_path, monkeypatch, text, label_column):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        in_process = _outcome(path, label_column)
        _force_workers(monkeypatch)
        assert _outcome(path, label_column) == in_process
        assert multiprocessing.active_children() == []

    def test_well_formed_file_skips_the_loop(self, tmp_path, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("the per-cell loop ran")

        monkeypatch.setattr(ingest, "_parse_rows", unused)
        path = tmp_path / "ok.csv"
        path.write_text("\n\nf1,f2,y\n0.5,1.5,1\n\n2.5,-3e-5,0\n")
        ds = load_csv(path, label_column="y")
        assert ds.values.tolist() == [[0.5, 1.5], [2.5, -3e-5]]
        assert ds.labels.tolist() == [True, False]

    @pytest.mark.parametrize("block_cells", [1, 7, 1 << 16])
    def test_label_column_is_dropped_as_np_delete_drops_it(self, rng, monkeypatch, block_cells):
        monkeypatch.setattr(ingest, "BLOCK_CELLS", block_cells)
        values = rng.standard_normal((23, 5))
        for pos in range(5):
            expected = np.delete(values, pos, axis=1)
            dropped = ingest._drop_column(values.copy(), pos)
            assert dropped.shape == expected.shape
            assert dropped.tobytes() == expected.tobytes()
        assert ingest._drop_column(values[:, :1].copy(), 0).shape == (23, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_label_column_costs_no_second_table(self, tmp_path, rng, monkeypatch, workers):
        n, d = 1000, 300
        path = tmp_path / "l.csv"
        write_csv(Dataset(rng.standard_normal((n, d)), labels=rng.random(n) < 0.1), path)
        if workers > 1:
            if "fork" not in multiprocessing.get_all_start_methods():
                pytest.skip("no fork start method")
            monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", 0)
        monkeypatch.setattr(ingest, "_fork_workers", lambda: workers)

        def peak(label_column):
            tracemalloc.start()
            try:
                load_csv(path, label_column=label_column)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        unlabeled, labeled = peak(None), peak("label")
        block = max(1, ingest.BLOCK_CELLS // (d + 1)) * d * 8
        # np.delete on the whole table put the labeled peak near 2.06x the
        # table's bytes, against 1.41x unlabeled.
        assert labeled <= unlabeled + n + block, (labeled - unlabeled) / (n * d * 8)

    def test_missing_label_column_reported_before_parsing(self, tmp_path, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("np.loadtxt ran")

        monkeypatch.setattr(np, "loadtxt", unused)
        path = tmp_path / "e.csv"
        path.write_text("f1,f2\n1,2\n")
        with pytest.raises(ValueError, match="^label column 'y' not found in header$"):
            load_csv(path, label_column="y")


EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1, 1.7976931348623157e308]


def _csr(rng, n, d, per_row, empty_rows=()):
    """A CSR matrix with ``per_row`` random nonzeros in each row but ``empty_rows``."""
    counts = [0 if i in empty_rows else per_row for i in range(n)]
    cols = np.concatenate([np.sort(rng.choice(d, k, replace=False)) for k in counts])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((rng.standard_normal(cols.size), cols, indptr), shape=(n, d))


def _force_workers(monkeypatch, cores=2):
    """Send every write and CSV parse to ``cores`` forked workers, in blocks of a few cells."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    monkeypatch.setattr(ingest, "POOL_MIN_CELLS", 0)
    monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", 0)
    monkeypatch.setattr(ingest, "BLOCK_CELLS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


@pytest.fixture
def forked(monkeypatch):
    _force_workers(monkeypatch)


def _pids(path) -> set:
    return {int(line) for line in path.read_text().splitlines()[1:]}


class TestWriterWorkers:
    """Writers give the same bytes in-process and from forked workers."""

    @pytest.mark.parametrize("writer", [write_csv, write_libsvm])
    @pytest.mark.parametrize(
        "case", ["dense", "dense_unlabeled", "csr", "csr_unlabeled", "one_row", "empty_rows"]
    )
    def test_forked_bytes_match_in_process(self, tmp_path, rng, monkeypatch, writer, case):
        values = {
            "dense": lambda: rng.standard_normal((23, 5)),
            "dense_unlabeled": lambda: rng.standard_normal((23, 5)),
            "csr": lambda: _csr(rng, 23, 40, 3),
            "csr_unlabeled": lambda: _csr(rng, 23, 40, 3),
            "one_row": lambda: rng.standard_normal((1, 9)),
            "empty_rows": lambda: _csr(rng, 12, 30, 4, empty_rows={0, 5, 6, 11}),
        }[case]()
        labels = None if case.endswith("unlabeled") else rng.random(values.shape[0]) < 0.4
        # One row is one block, so the one-row table stays in-process.
        ds = Dataset(values, labels=labels)
        writer(ds, tmp_path / "in_process")
        _force_workers(monkeypatch)
        writer(ds, tmp_path / "forked")
        assert (tmp_path / "forked").read_bytes() == (tmp_path / "in_process").read_bytes()
        assert multiprocessing.active_children() == []

    def test_edge_floats_round_trip_from_workers(self, tmp_path, forked):
        values = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]])
        labels = np.array([True, False])
        write_csv(Dataset(values, labels=labels), tmp_path / "e.csv")
        back = load_csv(tmp_path / "e.csv", label_column="label")
        assert back.values.view(np.int64).tolist() == values.view(np.int64).tolist()
        assert back.labels.tolist() == [True, False]
        # Built by hand, so the CSR stores -0.0 rather than dropping it.
        csr = sp.csr_matrix(
            (values.ravel(), np.tile(np.arange(6), 2), np.array([0, 6, 12])), shape=(2, 6)
        )
        write_libsvm(Dataset(csr, labels=labels), tmp_path / "e.svm")
        back = load_libsvm(tmp_path / "e.svm")
        assert back.values.data.view(np.int64).tolist() == csr.data.view(np.int64).tolist()
        assert back.values.indices.tolist() == csr.indices.tolist()
        assert back.labels.tolist() == [True, False]

    def test_workers_format_blocks_in_row_order(self, tmp_path, rng, monkeypatch, forked):
        def bounds_and_pid(dataset, lo, hi):
            return f"{lo} {hi} {os.getpid()}\n"

        monkeypatch.setattr(ingest, "_csv_rows", bounds_and_pid)
        write_csv(Dataset(rng.standard_normal((40, 3))), tmp_path / "b.csv")
        lines = [line.split() for line in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        edges = [(int(lo), int(hi)) for lo, hi, _ in lines]
        assert edges[0][0] == 0 and edges[-1][1] == 40
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        assert os.getpid() not in {int(pid) for _, _, pid in lines}

    @pytest.mark.parametrize("where", ["worker", "dead_worker", "file"])
    def test_errors_propagate_and_no_worker_outlives_the_write(
        self, tmp_path, rng, monkeypatch, forked, where
    ):
        ds = Dataset(rng.standard_normal((40, 3)))
        if where == "worker":
            def broken(dataset, lo, hi):
                raise RuntimeError(f"block {lo} failed in {os.getpid()}")

            monkeypatch.setattr(ingest, "_csv_rows", broken)
            with pytest.raises(RuntimeError, match="^block 0 failed in ") as caught:
                write_csv(ds, tmp_path / "x.csv")
            assert str(os.getpid()) not in str(caught.value)
        elif where == "dead_worker":
            monkeypatch.setattr(ingest, "_csv_rows", lambda dataset, lo, hi: os._exit(3))
            with pytest.raises(RuntimeError, match="^a writer worker exited with code 3$"):
                write_csv(ds, tmp_path / "x.csv")
        else:
            with pytest.raises(IsADirectoryError):
                write_csv(ds, tmp_path)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("host", ["one_core", "no_fork", "other_thread"])
    def test_formats_in_process_without_a_second_core_fork_or_sole_thread(
        self, tmp_path, rng, monkeypatch, forked, host
    ):
        if host == "one_core":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif host == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(ingest, "_csv_rows", lambda dataset, lo, hi: f"{os.getpid()}\n")
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        if host == "other_thread":
            other.start()
        try:
            write_csv(Dataset(rng.standard_normal((40, 3))), tmp_path / "p.csv")
        finally:
            release.set()
            if other.is_alive():
                other.join()
        assert _pids(tmp_path / "p.csv") == {os.getpid()}

    def test_small_tables_stay_in_process(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(ingest, "_csv_rows", lambda dataset, lo, hi: f"{os.getpid()}\n")
        rows = ingest.POOL_MIN_CELLS // 10 - 1
        write_csv(Dataset(np.zeros((rows, 10))), tmp_path / "s.csv")
        assert _pids(tmp_path / "s.csv") == {os.getpid()}

    def test_wide_csr_is_densified_one_block_at_a_time(self, tmp_path, rng, monkeypatch):
        n, d = 50, 100_000
        ds = Dataset(_csr(rng, n, d, 3), labels=np.arange(n) % 2 == 0)
        # In-process, so tracemalloc sees every block being formatted.
        monkeypatch.setattr(ingest, "POOL_MIN_CELLS", n * d + 1)
        path = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            write_csv(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * d * 8, peak / (n * d * 8)
        assert datasets_equal(load_csv(path, label_column="label"), ds)


def _parent_ranges(monkeypatch) -> list:
    """Record the byte ranges this process parses itself; workers' calls are not seen."""
    calls, parse = [], ingest._parse_range

    def recorded(path, lo, hi, width):
        calls.append((lo, hi))
        return parse(path, lo, hi, width)

    monkeypatch.setattr(ingest, "_parse_range", recorded)
    return calls


class TestReaderWorkers:
    """``load_csv`` gives the same values in-process and with forked workers."""

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_forked_values_match_in_process(self, tmp_path, rng, monkeypatch, cores, label_column):
        values = rng.standard_normal((41, 6))
        values[-len(EDGE_FLOATS) :, 2] = EDGE_FLOATS  # in the last range
        path = tmp_path / "t.csv"
        write_csv(Dataset(values, labels=rng.random(41) < 0.3), path)
        with open(path, "ab") as handle:
            handle.write(b"\n\n")  # blank lines at the end of the last range
        in_process, table = _outcome(path, label_column), _outcome(path, None)
        _force_workers(monkeypatch, cores)
        assert _outcome(path, label_column) == in_process
        # The forked path itself gave them: no range was refused.
        forked = ingest._parse_forked(path, 1, 7)
        assert (forked.shape, forked.view(np.int64).tolist(), None) == table
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["worker", "dead_worker"])
    def test_worker_errors_propagate_and_no_worker_outlives_the_load(
        self, tmp_path, rng, monkeypatch, forked, where
    ):
        write_csv(Dataset(rng.standard_normal((40, 3))), tmp_path / "x.csv")
        parent, parse = os.getpid(), ingest._parse_range

        def broken(path, lo, hi, width):
            if os.getpid() == parent:
                return parse(path, lo, hi, width)
            if where == "dead_worker":
                os._exit(3)
            raise RuntimeError(f"range {lo} failed in {os.getpid()}")

        monkeypatch.setattr(ingest, "_parse_range", broken)
        if where == "worker":
            with pytest.raises(RuntimeError, match="^range [0-9]+ failed in ") as caught:
                load_csv(tmp_path / "x.csv")
            assert str(parent) not in str(caught.value)
        else:
            with pytest.raises(RuntimeError, match="^a reader worker exited with code 3$"):
                load_csv(tmp_path / "x.csv")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("host", ["one_core", "no_fork", "other_thread"])
    def test_parses_in_process_without_a_second_core_fork_or_sole_thread(
        self, tmp_path, rng, monkeypatch, forked, host
    ):
        if host == "one_core":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif host == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        values = rng.standard_normal((40, 3))
        write_csv(Dataset(values), tmp_path / "p.csv")
        parsed = _parent_ranges(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        if host == "other_thread":
            other.start()
        try:
            back = load_csv(tmp_path / "p.csv")
        finally:
            release.set()
            if other.is_alive():
                other.join()
        assert parsed == []
        assert back.values.view(np.int64).tolist() == values.view(np.int64).tolist()

    def test_only_data_bytes_at_the_threshold_fork(self, tmp_path, rng, monkeypatch, forked):
        path = tmp_path / "s.csv"
        write_csv(Dataset(rng.standard_normal((40, 3))), path)
        data_bytes = path.stat().st_size - len("f0,f1,f2\n")
        parsed = _parent_ranges(monkeypatch)
        # Above the data rows' size, though not the file's: in-process.
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", data_bytes + 1)
        load_csv(path)
        assert parsed == []
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", data_bytes)
        load_csv(path)
        assert len(parsed) == 1
        assert multiprocessing.active_children() == []

    def test_forks_exactly_when_this_host_has_a_second_core(self, tmp_path, rng, monkeypatch):
        # No affinity patch: under `taskset -c 0` this takes the one-core path.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method")
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", 0)
        values = rng.standard_normal((40, 3))
        write_csv(Dataset(values), tmp_path / "h.csv")
        parsed = _parent_ranges(monkeypatch)
        back = load_csv(tmp_path / "h.csv")
        assert len(parsed) == (ingest._fork_workers() > 1)
        assert back.values.view(np.int64).tolist() == values.view(np.int64).tolist()
        assert multiprocessing.active_children() == []

    def test_parent_holds_the_table_and_its_own_range_only(self, tmp_path, rng, monkeypatch):
        n, d = 8000, 50
        values = rng.standard_normal((n, d))
        write_csv(Dataset(values), tmp_path / "m.csv")
        _force_workers(monkeypatch)
        parsed = _parent_ranges(monkeypatch)
        tracemalloc.start()
        try:
            back = load_csv(tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The result plus the parent's half while it is copied in; a copy
        # of a worker's range or of the range's text would exceed this.
        assert peak < 1.55 * n * d * 8, peak / (n * d * 8)
        assert len(parsed) == 1
        assert back.values.view(np.int64).tolist() == values.view(np.int64).tolist()


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
        for separation in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="separation"):
                synth_gaussian_with_outliers(5, 1, 1, 0, separation, 0)


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

