"""Records and column readers share one rule table per record.

For every rule of ``geo.POSITION_RULES``, ``ingest.SAMPLE_RULES`` and
``analysis.BIN_RULES`` and every file reader that holds its field, a value
the record constructor refuses is refused by the reader at its line with the
constructor's message, and a value the constructor accepts reads. A rule
added to a table is taken up here once its field names its file columns in
``COLUMNS`` (``test_every_rule_names_its_readers`` fails until it does).
``SiteConfig``'s rules have no column reader.
"""

import csv
import io
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plkit.analysis import BIN_FIELDS, BIN_RULES, GridBin, read_bins_csv
from plkit.geo import POSITION_RULES, GeodeticPoint, GridIndex
from plkit.ingest import (
    SAMPLE_FIELDS,
    SAMPLE_RULES,
    SCANNER_HEADER,
    MeasurementSample,
    parse_scanner_log,
    parse_testbed_log,
    read_samples_csv,
)

HERE = GeodeticPoint(47.0, 8.0)
# each table with a valid record of its owner
TABLES = [
    (POSITION_RULES, HERE),
    (SAMPLE_RULES, MeasurementSample(1000, HERE, -80.0, "3.5GHz", "SCANNER", cell_id=301)),
    (BIN_RULES, GridBin(GridIndex(1, 2), 90.0, 101.0, 100.0, 1, los="LOS", band="3.5GHz",
                        position=HERE)),
]

# each reader: a valid row by column, and the function reading a stream
READERS = {
    "samples": (dict(zip(SAMPLE_FIELDS, ["1000", "47.0", "8.0", "0.0", "-80.0", "3.5GHz",
                                         "SCANNER", "", "301"])), read_samples_csv),
    "bins": (dict(zip(BIN_FIELDS, ["1", "2", "47.0", "8.0", "100.0", "101.0", "90.0", "1", "LOS",
                                   "3.5GHz"])), read_bins_csv),
    "testbed": ({"timestamp_ms": "1000", "lat": "47.0", "lon": "8.0", "mrsrp_00": "-80.0",
                 "mrsrp_01": ""}, parse_testbed_log),
    "scanner": (dict(zip(SCANNER_HEADER, ["1000", "47.0", "8.0", "301", "-80.0"])),
                lambda stream: parse_scanner_log(stream, [301])),
}

# record field: the (reader, column) pairs that hold it
COLUMNS = {
    "latitude": [("samples", "lat"), ("bins", "lat"), ("testbed", "lat"), ("scanner", "lat")],
    "longitude": [("samples", "lon"), ("bins", "lon"), ("testbed", "lon"), ("scanner", "lon")],
    "altitude_agl": [("samples", "alt_agl_m")],
    "timestamp_ms": [("samples", "timestamp_ms"), ("testbed", "timestamp_ms"),
                     ("scanner", "timestamp_ms")],
    "received_power_dbm": [("samples", "rx_power_dbm"), ("testbed", "mrsrp_00"),
                           ("scanner", "rsrp_dbm")],
    "source": [("samples", "source")],
    "path_loss_db": [("bins", "pl_db")],
    "sample_count": [("bins", "count")],
    "los": [("bins", "los")],
}
# the bin reader refuses a path loss that is not finite before the GridBin rules
FINITE_ONLY = {("bins", "pl_db")}

CASES = [(rules[field], record, field, reader, column)
         for rules, record in TABLES for field in rules
         for reader, column in COLUMNS.get(field, [])]


def test_every_rule_names_its_readers():
    assert set(COLUMNS) == {field for rules, _ in TABLES for field in rules}


@st.composite
def values(draw, rule, valid):
    """Values around the rule: its members and any text, or its bounds,
    their neighbours and any number of the field's type."""
    if rule.allowed:
        return draw(st.one_of(st.sampled_from(rule.allowed),
                              st.text(st.characters(blacklist_characters="\0"), max_size=8)))
    if isinstance(valid, int):
        return draw(st.one_of(st.integers(-3, 3), st.integers()))
    edges = [v for bound in (rule.low, rule.high)
             for v in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))
             if math.isfinite(v)]
    return draw(st.one_of(st.sampled_from(edges), st.floats()))


def refusal(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def read_with(reader: str, column: str, value) -> None:
    """The reader on two valid rows, a row whose ``column`` holds ``value``
    (line 4) and one more valid row."""
    row, read = READERS[reader]
    stream = io.StringIO(newline="")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(row)
    bad = {**row, column: value if isinstance(value, str) else repr(value)}
    writer.writerows(r.values() for r in (row, row, bad, row))
    read(io.StringIO(stream.getvalue(), newline=""))


@pytest.mark.parametrize("rule, record, field, reader, column", CASES,
                         ids=[f"{c[2]}-{c[3]}" for c in CASES])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_record_and_reader_refuse_alike(data, rule, record, field, reader, column):
    value = data.draw(values(rule, getattr(record, field)))
    if (reader, column) in FINITE_ONLY:
        assume(math.isfinite(value))
    expected = refusal(lambda: replace(record, **{field: value}))
    got = refusal(lambda: read_with(reader, column, value))
    assert got == (None if expected is None else f"line 4: {expected}")
