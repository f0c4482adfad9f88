"""Streaming CSV rows into checked numpy columns.

The readers (logs, bin tables, antenna patterns) take rows from a
``csv.reader`` in chunks of at most ``CHUNK_ROWS``, convert each column of a
chunk with one ``map`` of ``int``/``float`` and check whole columns at once.
A reader must still reject a bad file the way a row-by-row pass would: at
the first offending line, with the message of the first check that line
fails. :class:`RowChecks` gives that answer when the conversions and checks
of a chunk are made in the order a row-by-row pass makes them, and a reader
stops at the first chunk that fails (earlier chunks were clean).
"""

from __future__ import annotations

import itertools
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
    reader, width: int, field_error: Callable[[list], str]
) -> Iterator[tuple[list[str], RowChecks]]:
    """Rows after the header as (cells of the chunk row after row, checks).

    Blank rows are dropped but counted in the line numbers (line 2 is the
    first row after the header). A row with a field count other than
    ``width`` ends the stream: the rows before it come with checks that
    already hold ``field_error(row)`` on the line after them.
    """
    line = 2
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
