"""Dataset loading, writing, and synthetic benchmark generation.

Supported file formats:

* svmlight/libsvm text: ``<label> <index>:<value> ...`` with 1-based,
  ascending feature indices; label 1 marks an outlier.
* numeric CSV with an optional header row and an optional label column.

The writers format a table of ``POOL_MIN_CELLS`` cells or more, and
``load_csv`` parses a CSV file with ``PARSE_MIN_BYTES`` bytes of data rows
or more, in one ``fork`` worker process per usable core; smaller files (or
any file in a process that runs other threads) are handled in-process. The
values read and the bytes written do not depend on that count, so
``--deterministic`` and ``--threads`` (the BLAS thread count) do not govern
the CSV reader or the writers.
"""

from __future__ import annotations

import contextlib
import csv
import math
import multiprocessing
import os
import threading
import warnings
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .data import Dataset

# Writers format a table in blocks of about this many cells (values, or
# nonzeros for libsvm), which bounds the Python objects alive at a time;
# the CSV reader's workers send their values, and ``load_csv`` moves the
# cells left of a label column, in blocks of this many.
BLOCK_CELLS = 1 << 16
# Tables with fewer cells are formatted in-process: forking workers
# costs more than it saves on them.
POOL_MIN_CELLS = 100_000
# CSV files with fewer bytes of data rows are parsed in-process. On a
# shared 2-vCPU host, two parsers broke even at 4 to 15 MiB, depending on
# the load, and saved a quarter of the time at 8 MiB on a quiet host.
PARSE_MIN_BYTES = 1 << 23


def load_libsvm(path, n_features_hint: Optional[int] = None) -> Dataset:
    """Load a sparse dataset from a libsvm-format text file.

    Feature indices are 1-based on disk and 0-based in memory. Out-of-order
    indices within a line are accepted and re-sorted; duplicate indices are
    an error. The feature count is ``max observed index + 1`` or
    ``n_features_hint``, whichever is larger. Label 1 marks an outlier; any
    other label an inlier.

    Args:
        path: file to read.
        n_features_hint: lower bound on the feature count, the width of the
            model that will read the data; an index at or beyond it is an
            error.

    Raises:
        ValueError: on an empty file or a malformed line (the message names
            the 1-based line number).
    """
    indptr = [0]
    col_indices: list[np.ndarray] = []
    row_values: list[np.ndarray] = []
    labels = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from None
            idx = np.empty(len(tokens) - 1, dtype=np.int64)
            val = np.empty(len(tokens) - 1, dtype=np.float64)
            for k, tok in enumerate(tokens[1:]):
                left, sep, right = tok.partition(":")
                if not sep:
                    raise ValueError(f"line {lineno}: bad feature token {tok!r}")
                try:
                    idx[k] = int(left)
                    val[k] = float(right)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad feature token {tok!r}"
                    ) from None
            idx -= 1
            if idx.size and idx.min() < 0:
                raise ValueError(f"line {lineno}: feature index below 1 not allowed")
            if n_features_hint is not None and idx.size and idx.max() >= n_features_hint:
                raise ValueError(
                    f"line {lineno}: feature index {idx.max() + 1} exceeds "
                    f"the model's {n_features_hint} features"
                )
            order = np.argsort(idx, kind="stable")
            idx, val = idx[order], val[order]
            if idx.size > 1 and np.any(np.diff(idx) == 0):
                raise ValueError(f"line {lineno}: duplicate feature index")
            if idx.size:
                max_index = max(max_index, int(idx[-1]))
            col_indices.append(idx)
            row_values.append(val)
            indptr.append(indptr[-1] + idx.size)
            labels.append(label)
    if not labels:
        raise ValueError("no records")
    d = max(max_index + 1, n_features_hint or 0, 1)
    matrix = sp.csr_matrix(
        (
            np.concatenate(row_values) if row_values else np.empty(0),
            np.concatenate(col_indices) if col_indices else np.empty(0, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(labels), d),
    )
    label_arr = np.asarray(labels) == 1.0
    return Dataset(matrix, labels=label_arr)


def write_libsvm(dataset: Dataset, path) -> None:
    """Write a dataset in libsvm format with 1-based indices.

    Outliers get label ``1``, inliers ``-1``; datasets without labels are
    written with label ``0`` (which loads back as all-inlier labels, so only
    labeled datasets round-trip exactly).
    """
    cells = dataset.values.nnz if dataset.is_sparse else dataset.values.size
    _write_table(path, "", dataset, cells, _libsvm_rows)


def _libsvm_rows(dataset: Dataset, lo: int, hi: int) -> str:
    """The libsvm lines of rows ``[lo, hi)``."""
    matrix = dataset.values[lo:hi]
    if not dataset.is_sparse:
        matrix = sp.csr_matrix(matrix)
    indices, data = matrix.indices.tolist(), matrix.data.tolist()
    lines = []
    for i in range(hi - lo):
        if dataset.labels is None:
            label = "0"
        else:
            label = "1" if dataset.labels[lo + i] else "-1"
        a, b = matrix.indptr[i], matrix.indptr[i + 1]
        pairs = " ".join(f"{j + 1}:{v!r}" for j, v in zip(indices[a:b], data[a:b]))
        lines.append(f"{label} {pairs}".rstrip() + "\n")
    return "".join(lines)


def _parse_rows(rows: list, width: int) -> np.ndarray:
    """Parse ``(line number, cells)`` rows one cell at a time with ``float()``."""
    values = np.empty((len(rows), width), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric cell {cell!r}") from None
    return values


def load_csv(path, label_column: Optional[str] = None) -> Dataset:
    """Load a dense dataset from a rectangular numeric CSV file.

    A header row is detected when the first non-empty row contains any
    non-numeric cell. When ``label_column`` names a header column, that
    column is stripped into boolean labels (nonzero = outlier).

    The header is read with the ``csv`` module. The data rows are parsed by
    numpy's C reader, which converts each cell with the same correctly
    rounded routine as ``float()``. Files that reader refuses fall back to
    a per-cell ``float()`` loop over the ``csv`` rows. Such files include
    quoted cells, ``1_0``-style digits and any malformed file. So every
    accepted file loads to the same values, and every rejected one raises
    the same message, whichever path parses it.

    Data rows of ``PARSE_MIN_BYTES`` or more, on a host with a second usable
    core, are cut at line ends into one byte range per core, and forked
    workers parse all ranges but the first with the same C reader call. A
    range that reader refuses (a line with a lone carriage return inside
    it among them), or a lone carriage return in the header lines, sends
    the whole file down the in-process path above, so values and error
    messages do not depend on the worker count.

    Raises:
        ValueError: on ragged rows, non-numeric data cells, a cell the
            ``csv`` module refuses, an empty file, or a missing label
            column; messages name the 1-based line.
    """

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    def _records(reader):
        # (line number, cells) of each non-empty row, for error messages.
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except csv.Error as exc:  # e.g. a cell over the csv module's field limit
            raise ValueError(f"line {reader.line_num}: {exc}") from None

    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = _records(reader)
        first = next(rows, None)
        if first is None:
            raise ValueError("no records")
        header: Optional[list[str]] = None
        skiprows = 0  # np.loadtxt skips empty lines by itself
        if not all(_numeric(c) for c in first[1]):
            header = [c.strip() for c in first[1]]
            skiprows = first[0]
            first = next(rows, None)
            if first is None:
                raise ValueError("no records")
        label_pos = None
        if label_column is not None:
            if header is None or label_column not in header:
                raise ValueError(f"label column {label_column!r} not found in header")
            label_pos = header.index(label_column)

        width = len(first[1]) if header is None else len(header)
        values = _parse_forked(path, skiprows, width)
        if values is None:
            values = _loadtxt(path, skiprows)
        if values is None or values.shape[0] == 0 or values.shape[1] != width:
            values = _parse_rows([first, *rows], width)
    labels = None
    if label_pos is not None:
        labels = values[:, label_pos] != 0
        values = _drop_column(values, label_pos)
    return Dataset(values, labels=labels)


def _drop_column(values: np.ndarray, pos: int) -> np.ndarray:
    """``np.delete(values, pos, axis=1)`` in the array's own buffer.

    Rows move to the front one block of about ``BLOCK_CELLS`` cells at a
    time, so no second table is made; the result is a view of the leading
    n * (d - 1) cells.
    """
    n, d = values.shape
    flat = values.reshape(-1)
    rows = max(1, BLOCK_CELLS // d)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # Each block lands at or before where it was read from.
        flat[lo * (d - 1) : hi * (d - 1)] = np.delete(values[lo:hi], pos, axis=1).ravel()
    return flat[: n * (d - 1)].reshape(n, d - 1)


def _loadtxt(source, skiprows: int = 0) -> Optional[np.ndarray]:
    """numpy's C reader on a path or an iterable of lines; None if it refuses."""
    try:
        with warnings.catch_warnings():
            # "input contained no data" becomes a refusal.
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(
                source, delimiter=",", skiprows=skiprows, comments=None,
                ndmin=2, dtype=np.float64, encoding="utf-8",
            )
    except (ValueError, UserWarning):
        return None


class _Refused(Exception):
    """A byte range the forked reader leaves to the in-process path."""


def _parse_forked(path, skiprows: int, width: int) -> Optional[np.ndarray]:
    """The data rows after ``skiprows`` lines, parsed by forked workers; None to parse in-process.

    The data bytes are cut at line feeds into one range per usable core.
    This process parses range 0 while worker k parses range k + 1 and sends
    its row count, then its values' bytes, which are read into one
    preallocated array.
    """
    with open(path, "rb") as handle:
        for _ in range(skiprows):
            line = handle.readline()
            # Lines are counted at \n here, but the csv module that counted
            # the header's lines also ends one at a lone \r.
            if line.count(b"\r") > line.endswith(b"\r\n"):
                return None
        start = handle.tell()
        end = handle.seek(0, os.SEEK_END)
        parts = _fork_workers() if end - start >= PARSE_MIN_BYTES else 1
        cuts = [start]
        for k in range(1, parts):
            # Cut at the first line start at or after the k-th share.
            handle.seek(max(start + (end - start) * k // parts - 1, cuts[-1]))
            handle.readline()
            cuts.append(handle.tell())
    cuts.append(end)
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    if len(ranges) < 2:
        return None
    shares = [(path, lo, hi, width) for lo, hi in ranges[1:]]
    try:
        with _forked(_send_range, shares, "reader") as receive:
            first = _parse_range(path, *ranges[0], width)
            counts = [len(first)] + [receive(k) for k in range(len(shares))]
            values = np.empty((sum(counts), width), dtype=np.float64)
            values[: counts[0]] = first
            del first
            row = counts[0]
            for k, count in enumerate(counts[1:]):
                block = memoryview(values[row : row + count]).cast("B")
                while block:
                    block = block[receive(k, into=block) :]
                row += count
            return values
    except _Refused:
        return None


def _parse_range(path, lo: int, hi: int, width: int) -> np.ndarray:
    """Parse the lines in bytes ``[lo, hi)``; raise ``_Refused`` unless all are ``width`` numbers."""
    with open(path, "rb") as handle:
        handle.seek(lo)
        values = _loadtxt(_decoded_lines(handle, hi - lo))
    if values is None or values.shape[0] == 0 or values.shape[1] != width:
        raise _Refused
    return values


def _decoded_lines(handle, size: int):
    """The lines in the next ``size`` bytes, as text.

    numpy refuses a line with a lone carriage return inside it, and reads
    one at the end of the file as a line end, as the in-process path does.
    """
    while size > 0:
        line = handle.readline(size)
        if not line:
            break
        size -= len(line)
        yield line.decode("utf-8")


def _send_range(sender, path, lo: int, hi: int, width: int) -> None:
    """Worker: send the row count of its range, then the values' bytes in blocks.

    ``recv_bytes_into`` stages each message whole before copying it out, so
    blocks keep the receiver's copy to one block rather than the range.
    """
    values = _parse_range(path, lo, hi, width)
    sender.send(len(values))
    data, step = memoryview(values).cast("B"), BLOCK_CELLS * values.itemsize
    for i in range(0, len(data), step):
        sender.send_bytes(data[i : i + step])


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with a header; labels become a trailing ``label`` column."""
    n, d = dataset.values.shape
    _write_table(path, _csv_header(dataset), dataset, n * d, _csv_rows)


def _csv_header(dataset: Dataset) -> str:
    # Its own function, so the list of names is gone before rows are formatted.
    names = [f"f{j}" for j in range(dataset.n_features)]
    if dataset.labels is not None:
        names.append("label")
    return ",".join(names) + "\n"


def _csv_rows(dataset: Dataset, lo: int, hi: int) -> str:
    """The CSV lines of rows ``[lo, hi)``; CSR rows are densified here only."""
    block = dataset.values[lo:hi]
    if dataset.is_sparse:
        block = block.toarray()
    lines = []
    for i, row in enumerate(block, start=lo):
        # A row wider than a block goes in block-sized pieces, so one
        # block's worth of Python floats and strings exists at a time.
        cells = [
            ",".join(map(repr, row[j : j + BLOCK_CELLS].tolist()))
            for j in range(0, row.size, BLOCK_CELLS)
        ]
        if dataset.labels is not None:
            cells.append("1" if dataset.labels[i] else "0")
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def _write_table(path, header: str, dataset: Dataset, n_cells: int, format_rows) -> None:
    """Write ``header``, then ``format_rows(dataset, lo, hi)`` for contiguous row blocks."""
    n = dataset.n_objects
    step = max(1, BLOCK_CELLS * n // max(n_cells, 1))
    bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    # The workers fork before the file opens, so none of them holds its buffer.
    with _formatted_blocks(format_rows, dataset, bounds, n_cells) as blocks:
        with open(path, "wb") as handle:
            handle.write(header.encode("utf-8"))
            for block in blocks:
                handle.write(block)


@contextlib.contextmanager
def _formatted_blocks(format_rows, dataset: Dataset, bounds: list, n_cells: int):
    """Yield an iterator over the encoded blocks, in row order.

    A table of at least ``POOL_MIN_CELLS`` cells, where ``_fork_workers``
    allows two or more, is formatted by one forked worker per usable core.
    Worker k formats blocks k, k + W, ... and sends each through its own
    pipe, so the table reaches it through the fork and the parent holds
    about one block at a time. Each block is formatted the same way wherever
    it runs, so the bytes do not depend on the worker count.
    """
    workers = min(_fork_workers(), len(bounds)) if n_cells >= POOL_MIN_CELLS else 1
    if workers < 2:
        yield (format_rows(dataset, lo, hi).encode("utf-8") for lo, hi in bounds)
        return
    shares = [(format_rows, dataset, bounds[k::workers]) for k in range(workers)]
    with _forked(_send_blocks, shares, "writer") as receive:
        yield (receive(i % workers) for i in range(len(bounds)))


def _send_blocks(sender, format_rows, dataset: Dataset, bounds: list) -> None:
    """Worker: send each block's encoded text."""
    for lo, hi in bounds:
        sender.send(format_rows(dataset, lo, hi).encode("utf-8"))


def _fork_workers() -> int:
    """How many forked workers may share a job here: one per usable core.

    1 (work in-process) without the ``fork`` start method or while another
    thread runs: a fork copies only this thread, so a lock another thread
    holds would stay held in the worker forever.
    """
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@contextlib.contextmanager
def _forked(work, shares: list, role: str):
    """Run ``work(sender, *share)`` in one forked worker per share.

    Yields ``receive(k, into=None)``: worker k's next message, or with
    ``into`` the byte count of its next bytes message, read into that
    writable buffer. A message that is an exception is raised, as a
    ``RuntimeError`` is for a worker that died. The workers are terminated
    on any error and always joined before the block exits.
    """
    context = multiprocessing.get_context("fork")
    processes, pipes = [], []

    def receive(k: int, into=None):
        try:
            message = pipes[k].recv() if into is None else pipes[k].recv_bytes_into(into)
        except EOFError:
            processes[k].join()
            raise RuntimeError(
                f"a {role} worker exited with code {processes[k].exitcode}"
            ) from None
        if isinstance(message, Exception):
            raise message
        return message

    try:
        for share in shares:
            receiver, sender = context.Pipe(duplex=False)
            pipes.append(receiver)
            process = context.Process(target=_run_worker, args=(sender, work, share))
            try:
                process.start()
            finally:
                sender.close()
            processes.append(process)
        yield receive
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for process in processes:
            process.join()
        for receiver in pipes:
            receiver.close()


def _run_worker(sender, work, share: tuple) -> None:
    """Worker: run ``work``, or send the error that stopped it."""
    try:
        work(sender, *share)
    except Exception as exc:
        sender.send(exc)


def synth_gaussian_with_outliers(
    n_inliers: int,
    n_outliers: int,
    d_relevant: int,
    d_noise: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Generate a labeled Gaussian benchmark with a shifted outlier cluster.

    Inliers are standard normal in the ``d_relevant`` leading features.
    Outliers are standard normal shifted along a random direction of that
    subspace, with per-relevant-feature shift magnitude ``separation``
    (shift vector norm ``separation * sqrt(d_relevant)``). Both groups are
    padded with ``d_noise`` standard-normal noise features. Rows are ordered
    inliers first, then outliers; output is deterministic given ``seed``.
    """
    if n_inliers < 1:
        raise ValueError(f"n_inliers >= 1 required, got {n_inliers}")
    if n_outliers < 0:
        raise ValueError(f"n_outliers >= 0 required, got {n_outliers}")
    if d_relevant < 1:
        raise ValueError(f"d_relevant >= 1 required, got {d_relevant}")
    if d_noise < 0:
        raise ValueError(f"d_noise >= 0 required, got {d_noise}")
    if not (math.isfinite(separation) and separation > 0):
        raise ValueError(f"finite separation > 0 required, got {separation}")
    if seed < 0:
        raise ValueError(f"seed >= 0 required, got {seed}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d_relevant)
    direction /= np.linalg.norm(direction)
    shift = separation * np.sqrt(d_relevant) * direction
    n = n_inliers + n_outliers
    relevant = rng.standard_normal((n, d_relevant))
    relevant[n_inliers:] += shift
    if d_noise:
        values = np.hstack([relevant, rng.standard_normal((n, d_noise))])
    else:
        values = relevant
    labels = np.zeros(n, dtype=bool)
    labels[n_inliers:] = True
    return Dataset(values, labels=labels)


def check_downsample_settings(rate: float, seed: int) -> None:
    """Raise ValueError unless ``rate`` is in (0, 1) and ``seed`` >= 0."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate in (0, 1) required, got {rate}")
    if seed < 0:
        raise ValueError(f"seed >= 0 required, got {seed}")


def downsample_to_rate(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Subsample the outlier class so outliers make up ``rate`` of the data.

    Keeps every inlier and a uniform random subset of the outliers sized to
    hit the target rate (rounded down). Row order of kept objects is
    preserved.
    """
    check_downsample_settings(rate, seed)
    if dataset.labels is None:
        raise ValueError("downsampling requires labels")
    outliers = np.flatnonzero(dataset.labels)
    inliers = np.flatnonzero(~dataset.labels)
    keep = int(np.floor(rate * inliers.size / (1.0 - rate)))
    if keep < 1:
        raise ValueError("target rate keeps no outliers; increase rate")
    if keep > outliers.size:
        raise ValueError(
            f"need {keep} outliers for rate {rate}, dataset has {outliers.size}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(outliers, size=keep, replace=False)
    kept = np.sort(np.concatenate([inliers, chosen]))
    return dataset.take(kept)

