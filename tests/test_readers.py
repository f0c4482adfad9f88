"""The columnar readers against the row-by-row loops they replaced.

``read_bins_csv``, ``parse_testbed_log``, ``parse_scanner_log`` and
``read_samples_csv`` convert and check whole columns. The oracles below are
the per-row loops of the readers before that change, copied here unchanged
apart from returning plain lists and counts. On generated files, clean and
dirty, both must give the same records and counts, or fail with the same
message and line. The generated files also take the readers off their
``str.split`` path onto ``csv.reader``: quoted cells, CRLF line ends, no
final newline, whitespace-only lines and NULs.
"""

import contextlib
import csv
import io
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plkit.columns
from plkit.analysis import BIN_FIELDS, GridBin, read_bins_csv
from plkit.geo import GeodeticPoint, GridIndex
from plkit.ingest import (
    SAMPLE_FIELDS,
    MeasurementSample,
    parse_scanner_log,
    parse_testbed_log,
    read_samples_csv,
)

SETTINGS = settings(max_examples=120, deadline=None)


# -- oracles: the per-row readers as they were ----------------------------------

def oracle_read_bins_csv(path, grid_size=5.0):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != BIN_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(BIN_FIELDS)}")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(BIN_FIELDS):
                raise ValueError(f"{path}: line {lineno}: wrong field count")
            try:
                position = GeodeticPoint(float(row[2]), float(row[3])) if row[2] else None
                d2d, d3d, pl = float(row[4]), float(row[5]), float(row[6])
                if not (math.isfinite(pl) and 0.0 < d2d <= d3d < math.inf):
                    raise ValueError("need a finite pl_db and finite 0 < d2d_m <= d3d_m, "
                                     f"got pl_db={row[6]}, d2d_m={row[4]}, d3d_m={row[5]}")
                out.append(
                    GridBin(
                        index=GridIndex(int(row[0]), int(row[1]), grid_size),
                        path_loss_db=pl,
                        distance_3d_m=d3d,
                        distance_2d_m=d2d,
                        sample_count=int(row[7]),
                        los=row[8],
                        band=row[9],
                        position=position,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return out


def oracle_parse_testbed_log(fh, band="3.5GHz"):
    reader = csv.reader(fh)
    header = next(reader, None)
    header = [h.strip() for h in header]
    beam_cols = [(idx, int(name[len("mrsrp_"):])) for idx, name in enumerate(header[3:], start=3)]
    samples, rows, skipped = [], 0, 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        rows += 1
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            ts = int(row[0])
            lat = float(row[1])
            lon = float(row[2])
            best_power = None
            best_beam = None
            for idx, beam in beam_cols:
                cell = row[idx].strip()
                if not cell:
                    continue
                power = float(cell)
                if best_power is None or power > best_power:
                    best_power = power
                    best_beam = beam
            if best_power is None:
                skipped += 1
                continue
            samples.append(
                MeasurementSample(
                    timestamp_ms=ts,
                    position=GeodeticPoint(lat, lon),
                    received_power_dbm=best_power,
                    band=band,
                    source="TESTBED",
                    beam_id=best_beam,
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return samples, rows, skipped, 0


def oracle_parse_scanner_log(fh, cells_of_interest, band="800MHz"):
    cells = set(int(c) for c in cells_of_interest)
    reader = csv.reader(fh)
    next(reader, None)
    samples, rows, filtered = [], 0, 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        rows += 1
        if len(row) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields")
        try:
            cell = int(row[3])
            if cell not in cells:
                filtered += 1
                continue
            samples.append(
                MeasurementSample(
                    timestamp_ms=int(row[0]),
                    position=GeodeticPoint(float(row[1]), float(row[2])),
                    received_power_dbm=float(row[4]),
                    band=band,
                    source="SCANNER",
                    cell_id=cell,
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return samples, rows, 0, filtered


def oracle_read_samples_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SAMPLE_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(SAMPLE_FIELDS)}")
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SAMPLE_FIELDS):
                raise ValueError(f"{path}: line {lineno}: wrong field count")
            try:
                samples.append(
                    MeasurementSample(
                        timestamp_ms=int(row[0]),
                        position=GeodeticPoint(float(row[1]), float(row[2]), float(row[3])),
                        received_power_dbm=float(row[4]),
                        band=row[5],
                        source=row[6],
                        beam_id=int(row[7]) if row[7] else None,
                        cell_id=int(row[8]) if row[8] else None,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return samples


def outcome(fn, *args):
    """(records, rows, skipped, filtered) or the error message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except ValueError as exc:
            return str(exc)


@contextlib.contextmanager
def chunk_rows(n):
    """Readers take rows in chunks of n, so that small files span several."""
    saved = plkit.columns.CHUNK_ROWS
    plkit.columns.CHUNK_ROWS = n
    try:
        yield
    finally:
        plkit.columns.CHUNK_ROWS = saved


CHUNKS = st.sampled_from([2, 3, 4096])


# -- generated files -------------------------------------------------------------

def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def padded(cells):
    """Cells, sometimes with spaces around (int() and float() accept them)."""
    return st.one_of(cells, cells, cells, cells.map(lambda c: f" {c} "))


@st.composite
def dirty_rows(draw, rows, bad_cells):
    """The clean rows with up to three bad cells, blank lines and rows of
    the wrong width put in."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(bad_cells) - 1))
            rows[i][j] = draw(bad_cells[j])
    if len(rows) > 1 and draw(st.integers(0, 4)) == 0:
        # one row a field short, another a field long: the file has as
        # many commas as if both were right
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[j].append(rows[i].pop())
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(st.sampled_from(["", "", "", "1,2", ",".join(["1"] * 12)])))
    return lines


QUOTED = ['"1,5"', '"x"', '""']


@st.composite
def file_text(draw, header, lines):
    """The file: header and lines, sometimes with CRLF ends, no final
    newline, whitespace-only lines, a NUL in a first cell, or a quoted cell
    (its own value, or one of ``QUOTED``)."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            cells = lines[i].split(",")
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = draw(st.sampled_from([f'"{cells[j]}"'] * 3 + QUOTED))
            lines[i] = ",".join(cells)
    if lines and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = "\0" + lines[i]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t", "  "])))
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n"]))
    text = "".join(f"{line}{end}" for line in [header] + lines)
    if lines and draw(st.integers(0, 5)) == 0:
        text = text[:-len(end)]
    return text


BIN_BAD = [
    st.sampled_from(["1.5", "x", "", "7e2"]),
    st.sampled_from(["-0.5", "y", ""]),
    st.sampled_from(["nan", "91", "-90.5", "x", " "]),
    st.sampled_from(["181", "nan", "x", "", "-inf"]),
    st.sampled_from(["0", "-1", "nan", "inf", "x", "9e9"]),
    st.sampled_from(["inf", "nan", "x", "0.5"]),
    st.sampled_from(["nan", "inf", "-5", "0", "x"]),
    st.sampled_from(["0", "-3", "1.0", "x"]),
    st.sampled_from(["los", "", "MAYBE"]),
    st.sampled_from(["", "3.5GHz"]),
]


@st.composite
def bin_row(draw):
    d2d = draw(st.floats(1.0, 5000.0))
    has_pos = draw(st.integers(0, 5)) > 0
    return [
        draw(padded(st.one_of(ints(-300, 300), st.just("-99999999999999999999")))),
        draw(padded(ints(-300, 300))),
        draw(padded(floats(-90.0, 90.0))) if has_pos else "",
        draw(padded(floats(-180.0, 180.0))) if has_pos else draw(st.sampled_from(["", "x"])),
        repr(d2d),
        repr(d2d + draw(st.sampled_from([0.0, 0.25, 30.0]))),
        draw(padded(floats(30.0, 200.0))),
        draw(padded(ints(1, 40))),
        draw(st.sampled_from(["LOS", "NLOS", "UNKNOWN"])),
        draw(st.sampled_from(["3.5GHz", "800MHz", ""])),
    ]


def bin_files():
    return st.lists(bin_row(), max_size=10).flatmap(
        lambda rows: dirty_rows(rows, BIN_BAD)).flatmap(
        lambda lines: file_text(",".join(BIN_FIELDS), lines))


GOOD_BIN = "1,2,47.0,8.0,100.0,101.0,90.0,1,LOS,3.5GHz"


@SETTINGS
@given(text=bin_files(), grid_size=st.sampled_from([5.0, 5.0, 2.5, 0.0]), chunk=CHUNKS)
@example(text=",".join(BIN_FIELDS) + "\n1,2,47.0,8.0,100.0,101.0,90.0,0,LOS,\n",
         grid_size=5.0, chunk=2)
@example(text=",".join(BIN_FIELDS) + "\n1,2,,x,100.0,101.0,-5,1,LOS,\n3,4,91,8,1,1,1,1,LOS,\n",
         grid_size=5.0, chunk=2)
@example(text=",".join(BIN_FIELDS) + "\n\n1,2,47.0,8.0,100.0,101.0,90.0,1,NLOS,\n",
         grid_size=0.0, chunk=2)
# a quoted cell after two clean chunks, then a short row and a long one
@example(text="\n".join([",".join(BIN_FIELDS)] + [GOOD_BIN] * 4
                        + ['1,"2",47.0,8.0,100.0,101.0,90.0,1,LOS,"3.5,GHz"', GOOD_BIN,
                           "1,2", GOOD_BIN + ",x,y"]) + "\n", grid_size=5.0, chunk=2)
@example(text=",".join(BIN_FIELDS) + "\n" + GOOD_BIN + "\n" + GOOD_BIN, grid_size=5.0, chunk=3)
@example(text="\r\n".join([",".join(BIN_FIELDS), GOOD_BIN, GOOD_BIN[:-6]]) + "\r\n",
         grid_size=5.0, chunk=4096)
# a row a field short, then one a field long
@example(text="\n".join([",".join(BIN_FIELDS), GOOD_BIN[:-7], GOOD_BIN + ",x"]) + "\n",
         grid_size=5.0, chunk=4096)
def test_read_bins_csv_matches_per_row_reader(tmp_path_factory, text, grid_size, chunk):
    path = tmp_path_factory.mktemp("bins") / "bins.csv"
    path.write_bytes(text.encode())
    want = outcome(oracle_read_bins_csv, path, grid_size)
    with chunk_rows(chunk):
        got = outcome(lambda: list(read_bins_csv(path, grid_size=grid_size)))
    assert got == want


TESTBED_BAD = [
    st.sampled_from(["0", "-5", "x", "1.5", ""]),
    st.sampled_from(["nan", "95", "x", ""]),
    st.sampled_from(["-181", "inf", "x", ""]),
] + [st.sampled_from(["x", "5.0", "nan", "inf", "-inf", "-170.5", "1e400", " "])] * 5


def beam_cells():
    """Mostly empty or received (ties are frequent); a NaN or -inf is
    skipped unless it is the first received cell of its row."""
    received = ["-70.25", "-70.25", "-80", "-95.5", "-40", "-80.0", "-159.5"] * 3
    return st.one_of(
        st.just(""), st.just(""), st.just(" "),
        padded(st.sampled_from(received + ["nan", "-inf"])),
    )


@st.composite
def make_testbed_log(draw):
    beams = draw(st.lists(st.integers(0, 47), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 10))
    rows = [
        [draw(padded(ints(1, 10**6))), draw(padded(floats(-90.0, 90.0))),
         draw(padded(floats(-180.0, 180.0)))] + [draw(beam_cells()) for _ in beams]
        for _ in range(n)
    ]
    # an empty position is a bad latitude or longitude cell
    lines = draw(dirty_rows(rows, TESTBED_BAD[:3 + len(beams)]))
    header = ",".join(["timestamp_ms", "lat", "lon"] + [f"mrsrp_{b:02d}" for b in beams])
    return draw(file_text(header, lines))


@SETTINGS
@given(text=make_testbed_log(), chunk=CHUNKS)
@example(text="timestamp_ms,lat,lon,mrsrp_00,mrsrp_01\n1,47,8,-70,-70\n\n2,47,8, ,-71\n", chunk=2)
@example(text="timestamp_ms,lat,lon,mrsrp_00,mrsrp_01\n1,47,8,nan,-70\n", chunk=2)
@example(text="timestamp_ms,lat,lon,mrsrp_00,mrsrp_01\n1,,8,-70,\n", chunk=2)
def test_parse_testbed_log_matches_per_row_parser(text, chunk):
    want = outcome(oracle_parse_testbed_log, io.StringIO(text))
    with chunk_rows(chunk):
        got = outcome(parse_testbed_log, io.StringIO(text))
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert (got.samples, got.rows, got.skipped, got.filtered) == want


SCANNER_BAD = [
    st.sampled_from(["0", "-5", "x", "1.5"]),
    st.sampled_from(["nan", "95", "x", ""]),
    st.sampled_from(["-181", "inf", "x", ""]),
    st.sampled_from(["twelve", "12.0", "", "x"]),
    st.sampled_from(["x", "5.0", "nan", "inf", ""]),
]


@st.composite
def make_scanner_log(draw):
    rows = [
        [draw(padded(ints(1, 10**6))), draw(padded(floats(-90.0, 90.0))),
         draw(padded(floats(-180.0, 180.0))), draw(padded(ints(10, 14))),
         draw(padded(floats(-140.0, -40.0)))]
        for _ in range(draw(st.integers(0, 12)))
    ]
    lines = draw(dirty_rows(rows, SCANNER_BAD))
    return draw(file_text("timestamp_ms,lat,lon,cell_id,rsrp_dbm", lines))


@SETTINGS
@given(text=make_scanner_log(), chunk=CHUNKS)
@example(text="timestamp_ms,lat,lon,cell_id,rsrp_dbm\n1,47,8,12,-80\n2,47,8,x,-80\n", chunk=2)
@example(text="timestamp_ms,lat,lon,cell_id,rsrp_dbm\n1,47,8,10,nan\n2,47,8,1.5,-80\n", chunk=2)
@example(text="timestamp_ms,lat,lon,cell_id,rsrp_dbm\n1,95,8,12,x\n", chunk=2)
@example(text="timestamp_ms,lat,lon,cell_id,rsrp_dbm\n1,47,8,12\n2,47,8,12,-80,5\n", chunk=2)
def test_parse_scanner_log_matches_per_row_parser(text, chunk):
    want = outcome(oracle_parse_scanner_log, io.StringIO(text), {12, 13})
    with chunk_rows(chunk):
        got = outcome(parse_scanner_log, io.StringIO(text), {12, 13})
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert (got.samples, got.rows, got.skipped, got.filtered) == want


SAMPLE_BAD = [
    st.sampled_from(["0", "-5", "x", "1.5", ""]),
    st.sampled_from(["nan", "95", "x", ""]),
    st.sampled_from(["-181", "inf", "x", ""]),
    st.sampled_from(["x", "", "inf"]),
    st.sampled_from(["x", "5.0", "nan", "-inf", "-161", ""]),
    st.sampled_from(["", "3.5 GHz"]),
    st.sampled_from(["testbed", "", "OTHER"]),
    st.sampled_from(["x", "1.5", " ", "-1"]),
    st.sampled_from(["x", "12.0", " "]),
]


def optional_ints():
    return st.one_of(st.just(""), st.just(""), padded(ints(-5, 400)),
                     st.just("99999999999999999999"))


@st.composite
def make_samples_file(draw):
    rows = [
        [draw(padded(ints(1, 10**13))), draw(padded(floats(-90.0, 90.0))),
         draw(padded(floats(-180.0, 180.0))), draw(padded(floats(0.0, 30.0))),
         draw(padded(floats(-160.0, 0.0))), draw(st.sampled_from(["3.5GHz", "800MHz", ""])),
         draw(st.sampled_from(["TESTBED", "SCANNER"])), draw(optional_ints()),
         draw(optional_ints())]
        for _ in range(draw(st.integers(0, 10)))
    ]
    lines = draw(dirty_rows(rows, SAMPLE_BAD))
    return draw(file_text(",".join(SAMPLE_FIELDS), lines))


@SETTINGS
@given(text=make_samples_file(), chunk=CHUNKS)
@example(text=",".join(SAMPLE_FIELDS) + "\n1,47,8,0,-80,b,TESTBED,,\n2,47,8,0,-80,b,SCANNER,,x\n",
         chunk=2)
@example(text=",".join(SAMPLE_FIELDS) + "\n1,95,8,x,-80,b,TESTBED,,\n", chunk=2)
@example(text=",".join(SAMPLE_FIELDS) + "\n0,47,8,0,5,b,OTHER,x,\n", chunk=2)
@example(text=",".join(SAMPLE_FIELDS) + '\n1,47,8,0,-80,"a,b",TESTBED,3,\n', chunk=2)
@example(text=",".join(SAMPLE_FIELDS) + "\r\n1,47,8,0,-80,b,TESTBED,3,\r\n", chunk=2)
def test_read_samples_csv_matches_per_row_reader(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("samples") / "samples.csv"
    path.write_bytes(text.encode())
    want = outcome(oracle_read_samples_csv, path)
    with chunk_rows(chunk):
        got = outcome(lambda: list(read_samples_csv(path)))
    assert got == want


def test_a_field_over_the_csv_limit_fails_as_csv_reader_does(tmp_path):
    path = tmp_path / "bins.csv"
    path.write_text(",".join(BIN_FIELDS) + "\n" + GOOD_BIN + "\n" + GOOD_BIN + "x" * 40 + "\n")
    saved = csv.field_size_limit(40)
    try:
        with pytest.raises(csv.Error) as want:
            oracle_read_bins_csv(path)
        with pytest.raises(csv.Error) as got:
            read_bins_csv(path)
    finally:
        csv.field_size_limit(saved)
    assert str(got.value) == str(want.value)


def test_a_label_with_a_nul_is_rejected(tmp_path):
    path = tmp_path / "bins.csv"
    path.write_text(",".join(BIN_FIELDS) + "\n1,2,47.0,8.0,100.0,101.0,90.0,1,LOS\0,3.5GHz\n")
    with pytest.raises(ValueError, match=r"line 2: los must be one of"):
        read_bins_csv(path)
    path.write_text(",".join(SAMPLE_FIELDS) + "\n1,47,8,0,-80,b,TESTBED\0,,\n")
    with pytest.raises(ValueError, match=r"line 2: source must be one of"):
        read_samples_csv(path)


# -- the first offending line wins, whatever column it is in ----------------------

def test_two_bad_rows_report_the_first_line(tmp_path):
    good = "1,2,47.0,8.0,100.0,101.0,90.0,1,LOS,3.5GHz"
    late_column = "1,2,47.0,8.0,100.0,101.0,90.0,1,MAYBE,3.5GHz"  # label: checked last
    early_column = "x,2,47.0,8.0,100.0,101.0,90.0,1,LOS,3.5GHz"
    path = tmp_path / "bins.csv"
    path.write_text("\n".join([",".join(BIN_FIELDS), good, late_column, good, early_column]) + "\n")
    with pytest.raises(ValueError, match=r"line 3: los must be one of"):
        read_bins_csv(path)

    header = "timestamp_ms,lat,lon,mrsrp_00"
    text = "\n".join([header, "1,47,8,-70", "2,47,8,5.0", "x,47,8,-70"]) + "\n"
    with pytest.raises(ValueError, match=r"line 3: received power 5.0 dBm"):
        parse_testbed_log(io.StringIO(text))
    text = "\n".join([header, "1,47,8,-70", "2,47,8,abc", "0,95,8,-70"]) + "\n"
    with pytest.raises(ValueError, match=r"line 3: could not convert string to float: 'abc'"):
        parse_testbed_log(io.StringIO(text))


def test_errors_in_a_later_chunk_keep_their_line(tmp_path, monkeypatch):
    import plkit.columns
    monkeypatch.setattr(plkit.columns, "CHUNK_ROWS", 4)
    good = "1,2,47.0,8.0,100.0,101.0,90.0,1,LOS,3.5GHz"
    lines = [",".join(BIN_FIELDS)] + [good] * 9 + ["", good, good.replace("LOS", "los")]
    path = tmp_path / "bins.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 13: los must be one of"):
        read_bins_csv(path)
    lines[-1] = "1,2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 13: wrong field count"):
        read_bins_csv(path)
