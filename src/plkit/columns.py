"""CSV rows to checked numpy columns, and numpy columns to CSV lines.

The readers (logs, bin tables, antenna patterns, sample files) read the
lines after the header in chunks of at most ``CHUNK_ROWS``. A chunk that
``csv.reader`` would split at every comma (no quote, carriage return or NUL,
every line ending in a newline with exactly one comma fewer than the row has
fields, and no line longer than ``csv.field_size_limit()``) is split with
``str.split``; from the first chunk that is not, the rest of the file goes
through ``csv.reader``. Each column of a chunk is converted with one ``map``
of ``int``/``float`` and checked as a whole. A reader must still reject a
bad file the way a row-by-row pass would: at the first offending line, with
the message of the first check that line fails. :class:`RowChecks` gives
that answer when the conversions and checks of a chunk are made in the
order a row-by-row pass makes them, and a reader stops at the first chunk
that fails (earlier chunks were clean).

:func:`write_csv` writes columns back with one format string per table,
cell for cell as ``csv.writer`` writes the rows.
"""

from __future__ import annotations

import csv
import itertools
import re
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

CHUNK_ROWS = 512


class RowChecks:
    """The first failure over the rows of one chunk.

    ``n`` is the number of leading rows still clean: a failure is kept only
    if it lies before every failure found so far, so a later conversion or
    check replaces an earlier one's failure only on an earlier row.
    Conversions and checks take an optional ``rows`` (increasing chunk row
    numbers) when they run on a subset of the rows.
    """

    def __init__(self, lines: Sequence[int], n: Optional[int] = None,
                 error: Optional[str] = None):
        self.lines = lines  # file line of each row
        self.n = len(lines) if n is None else n
        self.error = error

    def fail(self, row: int, message: str) -> None:
        if row < self.n:
            self.n, self.error = row, message

    def _row(self, k: int, rows) -> int:
        return k if rows is None else int(rows[k])

    def parse(self, kind: Callable, cells: Sequence[str], rows=None, fill=0) -> list:
        """``kind`` of every cell; from the first cell it rejects on, the
        rest of the list is ``fill``."""
        try:
            return list(map(kind, cells))
        except ValueError:
            pass
        values = []
        for k, cell in enumerate(cells):
            try:
                values.append(kind(cell))
            except ValueError as exc:
                self.fail(self._row(k, rows), str(exc))
                return values + [fill] * (len(cells) - k)
        return values

    def check(self, bad: np.ndarray, message: Callable[[int], str], rows=None) -> None:
        """Record the first row where ``bad`` holds; ``message`` gets its
        position in ``bad``."""
        k = np.flatnonzero(bad)
        if k.size:
            self.fail(self._row(int(k[0]), rows), message(int(k[0])))

    def raise_first(self, prefix: str = "") -> None:
        if self.error is not None:
            raise ValueError(f"{prefix}line {self.lines[self.n]}: {self.error}")


def read_chunks(
    fh, width: int, field_error: Callable[[list], str]
) -> Iterator[tuple[list[str], RowChecks]]:
    """Rows of ``fh``, a file (or stream) already past its header line, as
    (cells of the chunk row after row, checks).

    Blank rows are dropped but counted in the line numbers (line 2 is the
    first row after the header; a row is a line until ``csv.reader`` takes
    over, which numbers rows). A row with a field count other than
    ``width`` ends the stream: the rows before it come with checks that
    already hold ``field_error(row)`` on the line after them.
    """
    line, limit = 2, csv.field_size_limit()
    while True:
        batch = list(itertools.islice(fh, CHUNK_ROWS))
        if not batch:
            return
        text = "".join(batch)
        if not (text.endswith("\n") and '"' not in text and "\r" not in text
                and "\0" not in text and max(map(len, batch)) <= limit
                and set(map(str.count, batch, itertools.repeat(","))) == {width - 1}):
            yield from _csv_chunks(csv.reader(itertools.chain(batch, fh)), line, width,
                                   field_error)
            return
        yield text[:-1].replace("\n", ",").split(","), RowChecks(range(line, line + len(batch)))
        line += len(batch)


def _csv_chunks(reader, line: int, width: int, field_error: Callable[[list], str]):
    """:func:`read_chunks` over the rows of a ``csv.reader``, the first
    numbered ``line``."""
    while True:
        batch = list(itertools.islice(reader, CHUNK_ROWS))
        if not batch:
            return
        lines = range(line, line + len(batch))
        line += len(batch)
        sizes = set(map(len, batch))
        if sizes == {width}:
            yield list(itertools.chain.from_iterable(batch)), RowChecks(lines)
            continue
        rows, kept = [], []
        for k, row in enumerate(batch):
            if not row:
                continue
            kept.append(lines[k])
            if len(row) != width:
                yield list(itertools.chain.from_iterable(rows)), RowChecks(
                    kept, len(rows), field_error(row))
                return
            rows.append(row)
        if rows:
            yield list(itertools.chain.from_iterable(rows)), RowChecks(kept)


def int_array(values: Sequence[int]) -> np.ndarray:
    """int64 column, or an object column of Python ints where a value does
    not fit in 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


# a string csv.writer may quote (a superset of what it quotes)
_QUOTABLE = re.compile('[,"\r\n]')


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length numpy columns as a CSV file, one line per row
    after the header, cell for cell as ``csv.writer`` writes them: floats
    with ``repr``, ints with ``str``, None as an empty cell, and strings
    quoted where they need it. Rows go out ``CHUNK_ROWS`` at a time, so
    that only a chunk of the table is ever held as Python objects.
    """
    kinds = [c.dtype.kind for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            _write_lines(fh, kinds, [c[start:start + CHUNK_ROWS].tolist() for c in columns])


def _write_lines(fh, kinds: list[str], values: list[list]) -> None:
    """Rows of one chunk, from one format string; a chunk with a string that
    may need quotes, a column mixing None and values, no column of values or
    a single column (whose empty cells csv quotes) goes to ``csv.writer``."""
    fields, args, plain = [], [], len(values) > 1
    for kind, cells in zip(kinds, values):
        if kind == "O" and None in cells:
            plain = plain and cells.count(None) == len(cells)
            fields.append("")
            continue
        if kind in "UO":
            plain = plain and not any(_QUOTABLE.search(v) for v in set(cells) if isinstance(v, str))
        fields.append("{!r}" if kind == "f" else "{}")
        args.append(cells)
    if plain and args:
        fh.writelines(map((",".join(fields) + "\n").format, *args))
    else:
        csv.writer(fh, lineterminator="\n").writerows(zip(*values))
