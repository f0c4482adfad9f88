"""CSV rows to checked numpy columns, and numpy columns to CSV lines.

Every CSV reader (logs, bin tables, antenna patterns, sample files) reads
through :func:`read_csv`, which opens a path or takes a stream, checks the
header with the reader's rule and hands the lines after it to the reader's
conversion in chunks of at most ``CHUNK_ROWS``; a file read by path is
named in any refusal. One rule, checked with numpy on a chunk's bytes,
says whether ``csv.reader`` would split it at every comma (no quote, CR or
NUL, a newline ending every line, ``width - 1`` commas on each, no line
over ``csv.field_size_limit()``) and yields the offset of the separator
after each cell. In an ASCII chunk with no byte <= 32 but its newlines,
the log parsers read only the cells they keep at those offsets; the other
readers, and any other clean chunk, split it with ``str.split``. From the
first chunk that is not clean, the rest of the file goes through
``csv.reader``. Each column of a chunk is converted with one ``map`` of
``int``/``float`` into a numpy column and checked as a whole. A reader
must still reject a bad file the way a row-by-row pass would: at the
first offending line, with the message of the first check that line
fails. A :class:`Chunk` keeps that answer when its conversions and checks
are made in the order a row-by-row pass makes them, and :func:`read_csv`
raises it after the chunk's conversion (earlier chunks were clean). A
reader's conversion returns one chunk's columns; :func:`read_csv` joins
each column once and returns the file's columns, and a file with no rows
is converted as one empty chunk, so every column keeps its dtype.

:func:`read_json` reads a JSON object, naming its file when it cannot;
:func:`number`, :func:`whole` and :func:`string` are the rules of its
values, which :func:`json_value` applies; :func:`write_json` writes a JSON
document, refusing NaN and infinity.
:func:`write_csv` writes columns back with one format string per table,
cell for cell as ``csv.writer`` writes the rows.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import re
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

CHUNK_ROWS = 512

# the least positive and the largest float: [POSITIVE, inf] holds exactly the
# ints and floats > 0, [POSITIVE, FINITE] the finite ones
POSITIVE, FINITE = math.ulp(0.0), math.nextafter(math.inf, 0.0)


class Rule(NamedTuple):
    """A field's rule: the value lies in [low, high] (NaN never does) or is
    one of ``allowed``; ``message`` formats a refused ``{value}`` (a numpy
    scalar as its Python value) and the ``{allowed}`` members."""

    message: str
    low: float = -math.inf
    high: float = math.inf
    allowed: tuple = ()

    def fails(self, column) -> np.ndarray:
        """Where a numpy column (a list of cells, for a set rule) breaks the rule."""
        if self.allowed:
            return ~np.fromiter(map(self.allowed.__contains__, column), bool, len(column))
        inside = column >= self.low
        return ~(inside & (column <= self.high)) if self.high < math.inf else ~inside

    def check(self, column) -> None:
        """Refuse the first value of a column that breaks the rule."""
        bad = np.flatnonzero(self.fails(column))
        if bad.size:
            raise ValueError(self.refusal(column[bad[0]]))

    def refusal(self, value) -> str:
        value = value.item() if isinstance(value, np.generic) else value
        return self.message.format(value=value, allowed=self.allowed)


def within(name: str, high: float) -> Rule:
    """The rule of a value in (0, high]."""
    return Rule(f"{name} {{value}} outside (0, {high:g}]", POSITIVE, high)


def check_record(record, rules: dict[str, Rule]) -> None:
    """Test each field of ``record`` by its rule, with plain comparisons, in
    the table's order."""
    for field, rule in rules.items():
        value = getattr(record, field)
        if not (value in rule.allowed if rule.allowed else rule.low <= value <= rule.high):
            raise ValueError(rule.refusal(value))


class Chunk:
    """The ``rows`` of one chunk, ``width`` cells each, from the file
    ``lines``, and the first failure over them: ``n`` rows are still clean,
    and a conversion or check replaces an earlier one's failure only on an
    earlier row. Conversions and checks take an optional ``rows``
    (increasing chunk row numbers) when they run on a subset of the rows.
    A chunk read at offsets keeps its text and the separator offsets
    (``ends``) until its ``cells`` are asked for; any other chunk is split
    at once."""

    def __init__(self, width: int, lines: Sequence[int], cells: Optional[list[str]] = None,
                 text: Optional[str] = None, ends: Optional[np.ndarray] = None):
        self.width, self.lines = width, lines
        self.n, self.error = len(lines), None
        self._cells, self._text, self._ends = cells, text, ends
        self.rows = len(self.cells if ends is None else ends) // width

    def fail(self, row: int, message: str) -> None:
        if row < self.n:
            self.n, self.error = row, message

    def _row(self, k: int, rows) -> int:
        return k if rows is None else int(rows[k])

    def parse(self, kind: Callable, cells: Sequence[str], rows=None) -> np.ndarray:
        """The column of ``kind`` (``float`` or ``int``, see :func:`int_array`)
        of every cell; from the first cell it rejects on, the rest is 0."""
        try:
            values = list(map(kind, cells))
        except ValueError:
            values = []
            for k, cell in enumerate(cells):
                try:
                    values.append(kind(cell))
                except ValueError as exc:
                    self.fail(self._row(k, rows), str(exc))
                    values += [0] * (len(cells) - k)
                    break
        return int_array(values) if kind is int else np.array(values, dtype=float)

    def check(self, bad: np.ndarray, message: Callable[[int], str], rows=None) -> None:
        """Record the first row where ``bad`` holds; ``message`` gets its
        position in ``bad``."""
        k = np.flatnonzero(bad)
        if k.size:
            self.fail(self._row(int(k[0]), rows), message(int(k[0])))

    def check_rules(self, rules: dict[str, Rule], columns: dict, rows=None) -> None:
        """Check the given columns, by field, with the rules of a record's
        table, in the table's order (the order the record checks them)."""
        for field, rule in rules.items():
            if field in columns:
                column = columns[field]
                self.check(rule.fails(column), lambda k: rule.refusal(column[k]), rows)

    def raise_first(self) -> None:
        if self.error is not None:
            raise ValueError(f"line {self.lines[self.n]}: {self.error}")

    @property
    def cells(self) -> list[str]:
        """Every cell, row after row."""
        if self._cells is None:
            self._cells = self._text[:-1].replace("\n", ",").split(",")
            self._text = self._ends = None  # keep one copy of the chunk
        return self._cells

    def take(self, index: np.ndarray, strip: bool = False) -> list[str]:
        """The cells at ``index.ravel()`` (row * width + column), stripped if
        asked (a chunk read at offsets holds no whitespace)."""
        index = index.ravel()
        if self._ends is None:
            cells = list(map(self.cells.__getitem__, index.tolist()))
            return list(map(str.strip, cells)) if strip else cells
        starts = np.where(index > 0, self._ends[index - 1] + 1, 0)
        sizes = self._ends[index] + 1 - starts  # each cell with its separator
        at = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        data = np.frombuffer(self._text.encode(), np.uint8)[at]
        return data.tobytes().decode().replace("\n", ",").split(",")[:-1]

    def filled(self) -> np.ndarray:
        """(rows, width) mask of the cells with more than whitespace."""
        if self._ends is None:
            return np.array([bool(c.strip()) for c in self.cells], bool).reshape(-1, self.width)
        ends = self._ends
        return np.concatenate(([ends[0] > 0], np.diff(ends) > 1)).reshape(-1, self.width)


def _cell_ends(text: str, rows: int, width: int, limit: int):
    """The clean-chunk rule on the ``rows`` lines of ``text``: None if
    ``csv.reader`` must read them, else the offset of the separator after
    each cell and whether these offsets index ``text``."""
    # surrogatepass: a stream of str may hold lone surrogates, which are not ASCII either
    data = np.frombuffer(text.encode(errors="surrogatepass"), np.uint8)
    ends = np.flatnonzero(data <= 44)  # separators, spaces, quotes, control bytes, !#$%&'()*+
    byte = data[ends]
    sep = (byte == 44) | (byte == 10)
    other = byte[~sep]
    if other.size:
        ends, byte = ends[sep], byte[sep]
    newline = byte == 10
    if (((other == 34) | (other == 13) | (other == 0)).any() or not text.endswith("\n")
            or ends.size != rows * width or not newline[width - 1::width].all()):
        return None
    lines = ends[newline] if len(text) > limit else None  # else no line is over the limit
    if lines is not None and (lines[0] > limit or (np.diff(lines) > limit + 1).any()):
        return None
    return ends, text.isascii() and not (other <= 32).any()


def read_csv(source, header, field_error: str,
             convert: Callable[[Chunk], Sequence[np.ndarray]]) -> list[np.ndarray]:
    """The columns of a CSV file, given by path or as a stream.

    ``header`` is the list of column names, or a rule that gets the stripped
    names of the header line (None if the file is empty) and returns the
    row width. ``field_error``, formatted with the ``width`` and the field
    count ``got``, refuses a row of the wrong width. ``convert`` returns
    one chunk's columns (of any lengths); each chunk's first failure is
    raised after its ``convert``. Each column is the join of its chunks'
    pieces, made once; a file with no rows is converted as one empty
    chunk. A ``ValueError`` from a file read by path names the path.
    """
    if not hasattr(source, "read"):
        with open(source, newline="", encoding="utf-8") as fh:
            try:
                return read_csv(fh, header, field_error, convert)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
    names = next(csv.reader(source), None)
    names = None if names is None else [h.strip() for h in names]
    if callable(header):
        width = header(names)
    elif names == header:
        width = len(header)
    else:
        raise ValueError(f"expected header {','.join(header)}")
    chunks = []
    for chunk in read_chunks(source, width, field_error):
        chunks.append(convert(chunk))
        chunk.raise_first()
    pieces = list(zip(*(chunks or [convert(Chunk(width, [], []))])))[::-1]
    chunks.clear()  # from here on, a column's pieces go once it is joined
    return [np.concatenate(pieces.pop()) for _ in range(len(pieces))]


def read_json(path, not_object: str) -> dict:
    """The JSON object in the file at ``path``. A decode error, or a top
    level that is not an object (refused with ``not_object``), names the
    path."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or a byte that is not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {not_object}")
    return data


# The rules of a JSON input value: each returns the value it reads or raises
# ValueError naming what it takes (JSON gives exact types: a boolean is no int).
def number(value) -> float:
    """A finite int or float, or a string ``float`` reads as finite (``"100"``)."""
    with contextlib.suppress(ValueError, OverflowError):
        if type(value) in (int, float, str) and math.isfinite(float(value)):
            return float(value)
    raise ValueError("a finite number")


def whole(value) -> int:
    """An int, an integral float or a string ``int`` reads (``"2"``, not ``"2.0"``)."""
    with contextlib.suppress(ValueError):
        if type(value) in (int, str) or type(value) is float and value.is_integer():
            return int(value)
    raise ValueError("a whole number")


def string(value) -> str:
    if type(value) is not str:
        raise ValueError("a string")
    return value


def json_value(rule: Callable, value, name: str):
    """``value`` read by ``rule``; a value it refuses is refused as
    ``{name} must be <what the rule takes>, got <value>``."""
    try:
        return rule(value)
    except ValueError as kind:
        raise ValueError(f"{name} must be {kind}, got {value!r}") from None


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON and a final newline; a NaN or an
    infinity, which JSON cannot hold, is refused before the file opens."""
    Path(path).write_text(json.dumps(data, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def read_chunks(fh, width: int, field_error: str) -> Iterator[Chunk]:
    """Rows of ``fh``, a file (or stream) already past its header line, as
    :class:`Chunk` objects.

    Blank rows are dropped but counted in the line numbers (line 2 is the
    first row after the header; a row is a line until ``csv.reader`` takes
    over, which numbers rows). A row with a field count other than
    ``width`` ends the stream: the rows before it come in a chunk that
    already holds ``field_error`` on the line after them.
    """
    line, limit = 2, csv.field_size_limit()
    while True:
        batch = list(itertools.islice(fh, CHUNK_ROWS))
        if not batch:
            return
        text = "".join(batch)
        clean = _cell_ends(text, len(batch), width, limit)
        if clean is None:
            yield from _csv_chunks(csv.reader(itertools.chain(batch, fh)), line, width,
                                   field_error)
            return
        ends, indexed = clean
        yield Chunk(width, range(line, line + len(batch)), text=text,
                    ends=ends if indexed else None)
        line += len(batch)


def _csv_chunks(reader, line: int, width: int, field_error: str):
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
            yield Chunk(width, lines, list(itertools.chain.from_iterable(batch)))
            continue
        rows, kept = [], []
        for k, row in enumerate(batch):
            if not row:
                continue
            kept.append(lines[k])
            if len(row) != width:
                chunk = Chunk(width, kept, list(itertools.chain.from_iterable(rows)))
                chunk.fail(len(rows), field_error.format(width=width, got=len(row)))
                yield chunk
                return
            rows.append(row)
        if rows:
            yield Chunk(width, kept, list(itertools.chain.from_iterable(rows)))


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
