"""Measurement-log and configuration parsing.

Vendor export formats vary, so everything funnels through two canonical
CSV schemas: a beam-resolved testbed log (one row per reporting period,
one column per beam) and a per-cell scanner log. The beam-max selection
(the receiver rides the strongest beam) happens here at ingest.
"""

from __future__ import annotations

import contextlib
import operator
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .columns import (POSITIVE, Chunk, Rule, check_record, int_array, json_value, number,
                      read_csv, read_json, string, whole, write_csv, write_json)
from .geo import POSITION_RULES, GeodeticPoint

SOURCES = ("TESTBED", "SCANNER")

# what a MeasurementSample checks, and every reader of sample columns
SAMPLE_RULES = {
    "timestamp_ms": Rule("timestamp_ms must be positive, got {value}", POSITIVE),
    "received_power_dbm": Rule("received power {value} dBm outside [-160, 0]", -160.0, 0.0),
    "source": Rule("source must be one of {allowed}, got {value!r}", allowed=SOURCES),
}


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    """One timestamped, geolocated received-power observation."""

    timestamp_ms: int
    position: GeodeticPoint
    received_power_dbm: float
    band: str
    source: str
    beam_id: Optional[int] = None
    cell_id: Optional[int] = None

    def __post_init__(self):
        check_record(self, SAMPLE_RULES)


@dataclass(frozen=True)
class SampleTable:
    """Measurement samples as equal-length numpy columns, one per
    :class:`MeasurementSample` field (the position as lat/lon/alt).

    ``beam_id`` and ``cell_id`` are int columns, or object columns holding
    None for samples without one. The parsers fill a table without building
    a record per row; iterating yields the records.
    """

    timestamp_ms: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray  # receiver altitude above ground, m
    rx_dbm: np.ndarray
    band: np.ndarray
    source: np.ndarray
    beam_id: np.ndarray
    cell_id: np.ndarray

    @classmethod
    def from_samples(cls, samples: Iterable[MeasurementSample]) -> "SampleTable":
        rows = [
            (s.timestamp_ms, s.position.latitude, s.position.longitude,
             s.position.altitude_agl, s.received_power_dbm, s.band, s.source,
             s.beam_id, s.cell_id)
            for s in samples
        ]
        ts, lat, lon, alt, rx, band, source, beam, cell = zip(*rows) if rows else [()] * 9
        return cls(int_array(ts), *(np.array(c, dtype=float) for c in (lat, lon, alt, rx)),
                   np.array(band, dtype=str), np.array(source, dtype=str),
                   np.array(beam, dtype=object), np.array(cell, dtype=object))

    @classmethod
    def concat(cls, tables: Sequence["SampleTable"]) -> "SampleTable":
        """The tables one after another; a single table comes back as is."""
        if len(tables) < 2:
            return tables[0] if tables else cls.from_samples([])
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables])
                     for f in fields(cls)))

    def __len__(self) -> int:
        return self.rx_dbm.size

    def __iter__(self) -> Iterator[MeasurementSample]:
        for ts, lat, lon, alt, rx, band, source, beam, cell in zip(
            *(getattr(self, f.name).tolist() for f in fields(self))
        ):
            yield MeasurementSample(ts, GeodeticPoint(lat, lon, alt), rx, band, source, beam, cell)


@dataclass
class ParseResult:
    """A parsed log plus row accounting: rows == samples + skipped + filtered."""

    table: SampleTable
    rows: int = 0
    skipped: int = 0
    filtered: int = 0

    @property
    def samples(self) -> list[MeasurementSample]:
        """The table as MeasurementSample records, built on each access."""
        return list(self.table)

    @classmethod
    def concat(cls, parts: Sequence["ParseResult"]) -> "ParseResult":
        """The parts one after another; a single part's table comes back as is."""
        return cls(SampleTable.concat([p.table for p in parts]), sum(p.rows for p in parts),
                   sum(p.skipped for p in parts), sum(p.filtered for p in parts))


def check_band(chunk: Chunk, band: list[str]) -> None:
    """Refuse a band cell holding a NUL, which a numpy string column drops."""
    if "\0" in "".join(band):
        chunk.check(np.fromiter(("\0" in b for b in band), bool, len(band)),
                    lambda k: f"band must not hold a NUL, got {band[k]!r}")


def _log_result(columns: list, band: str, source: str, dropped: str) -> ParseResult:
    """A log's result from its per-row kept mask and kept (ts, lat, lon, rx,
    beam or cell id) columns; the columns all its samples share are built once."""
    kept, ts, lat, lon, rx, ids = columns
    n, unset = len(rx), np.full(len(rx), None)
    beam, cell = (ids, unset) if source == "TESTBED" else (unset, ids)
    table = SampleTable(ts, lat, lon, np.zeros(n), rx, np.full(n, band), np.full(n, source),
                        beam, cell)
    return ParseResult(table, len(kept), **{dropped: len(kept) - n})


def _strongest_beams(chunk: Chunk):
    """Per row of a testbed chunk: whether any beam was received, the
    strongest power and the column of its beam (0 = first beam column).

    As the per-row rule reads: cells are stripped and empty ones skipped;
    the running maximum starts at the first received cell and takes a cell
    only if strictly greater, so ties go to the first column and a NaN
    in the first received cell is the result.
    """
    received = chunk.filled()[:, 3:]
    n = len(received)
    r, c = np.nonzero(received)
    power = np.full(received.shape, -np.inf)
    power[r, c] = chunk.parse(float, chunk.take(r * chunk.width + 3 + c, strip=True), r)
    nan = np.isnan(power)
    power[nan] = -np.inf
    best = power.max(axis=1)
    column = power.argmax(axis=1)  # first maximum; its beam matters only if finite
    first = received.argmax(axis=1)
    nan_first = nan[np.arange(n), first]
    best[nan_first] = np.nan
    column[nan_first] = first[nan_first]
    return received.any(axis=1), best, column


# the testbed-log layout: these columns, then one column per beam
TESTBED_COLUMNS = ["timestamp_ms", "lat", "lon"]
BEAM_PREFIX = "mrsrp_"


def write_testbed_log(path, timestamp_ms, lat, lon, beam_powers: Sequence[np.ndarray]) -> None:
    """Write a testbed log with one column per beam, ``mrsrp_00`` on; None
    in a beam's (object) column means the beam was not received."""
    write_csv(path, TESTBED_COLUMNS + [f"{BEAM_PREFIX}{i:02d}" for i in range(len(beam_powers))],
              [timestamp_ms, lat, lon, *beam_powers])


def parse_testbed_log(stream_or_path, band: str = "3.5GHz") -> ParseResult:
    """Parse a beam-resolved testbed log.

    Expected header: ``timestamp_ms,lat,lon,mrsrp_00..mrsrp_NN``; an empty
    beam cell means the beam was not received. Each row becomes one sample
    whose power is the strongest beam (ties resolved to the lowest beam
    index); rows with no received beam at all are skipped and counted.
    A bad row is reported with its line number.
    """
    beams = None  # the beam of each beam column

    def header(names: Optional[list[str]]) -> int:
        nonlocal beams
        if names is None:
            raise ValueError("empty log: missing header")
        if names[:3] != TESTBED_COLUMNS:
            raise ValueError(f"testbed log must start with {','.join(TESTBED_COLUMNS)}")
        ids = []
        for name in names[3:]:
            if not name.startswith(BEAM_PREFIX):
                raise ValueError(f"unexpected column {name!r} in testbed log")
            try:
                ids.append(int(name[len(BEAM_PREFIX):]))
            except ValueError:
                raise ValueError(f"bad beam column name {name!r}") from None
        if not ids:
            raise ValueError(f"testbed log has no {BEAM_PREFIX}* columns")
        beams = int_array(ids)
        return len(names)

    def convert(chunk: Chunk) -> tuple:
        position = chunk.take(np.arange(chunk.rows)[:, None] * chunk.width + np.arange(3))
        ts, lat, lon = (chunk.parse(kind, position[j::3])
                        for j, kind in enumerate((int, float, float)))
        heard, power, column = _strongest_beams(chunk)
        keep = np.flatnonzero(heard)
        ts, lat, lon, power = (c[keep] for c in (ts, lat, lon, power))
        chunk.check_rules(POSITION_RULES, {"latitude": lat, "longitude": lon}, keep)
        # the source is the parser's own
        chunk.check_rules(SAMPLE_RULES, {"timestamp_ms": ts, "received_power_dbm": power}, keep)
        return heard, ts, lat, lon, power, beams[column[keep]]

    return _log_result(read_csv(stream_or_path, header, "expected {width} fields, got {got}",
                                convert), band, "TESTBED", "skipped")


SCANNER_HEADER = ["timestamp_ms", "lat", "lon", "cell_id", "rsrp_dbm"]


def parse_scanner_log(
    stream_or_path, cells_of_interest: Iterable[int], band: str = "800MHz"
) -> ParseResult:
    """Parse a network-scanner log, keeping only the cells of interest."""
    wanted = set(int(c) for c in cells_of_interest)
    if not wanted:
        warnings.warn("empty cells-of-interest set: every row will be filtered out")
    width = len(SCANNER_HEADER)

    def convert(chunk: Chunk) -> tuple:
        # the other cells of a filtered row are never read
        cell = chunk.parse(int, chunk.take(np.arange(3, chunk.rows * width, width)))
        wanted_row = np.fromiter(map(wanted.__contains__, cell.tolist()), bool, len(cell))
        keep = np.flatnonzero(wanted_row)
        kept = chunk.take(keep[:, None] * width + np.arange(width))
        ts, lat, lon = (chunk.parse(kind, kept[j::width], keep)
                        for j, kind in enumerate((int, float, float)))
        chunk.check_rules(POSITION_RULES, {"latitude": lat, "longitude": lon}, keep)
        power = chunk.parse(float, kept[4::width], keep)
        chunk.check_rules(SAMPLE_RULES, {"timestamp_ms": ts, "received_power_dbm": power}, keep)
        return wanted_row, ts, lat, lon, power, cell[keep]

    result = _log_result(read_csv(stream_or_path, SCANNER_HEADER, "expected {width} fields",
                                  convert), band, "SCANNER", "filtered")
    if not len(result.table):
        warnings.warn("scanner log yielded no samples for the requested cells")
    return result


# what a SiteConfig checks, of its own values or of a site-config file's
SITE_RULES = {
    "tx_power_dbm": Rule("tx_power_dbm {value} outside (0, 90]", POSITIVE, 90.0),
    "antenna_height_agl_m": Rule("antenna_height_agl_m must be > 0", POSITIVE),
    "ue_height_m": Rule("ue_height_m must be > 0", POSITIVE),
    "carrier_freq_ghz": Rule("carrier_freq_ghz must be > 0", POSITIVE),
    "feeder_loss_db": Rule("feeder_loss_db must be >= 0", 0.0),
}


@dataclass(frozen=True)
class SiteConfig:
    """Transmit-side description needed to turn received power into loss."""

    site_position: GeodeticPoint
    antenna_height_agl_m: float
    boresight_azimuth_deg: float
    tx_power_dbm: float
    carrier_freq_ghz: float
    pattern_ref: str
    rx_gain_dbi: float
    ue_height_m: float
    feeder_loss_db: float = 0.0

    def __post_init__(self):
        check_record(self, SITE_RULES)

    @property
    def effective_tx_power_dbm(self) -> float:
        """Port power after feeder losses (relevant for scanner-side sites)."""
        return self.tx_power_dbm - self.feeder_loss_db


# site-config JSON key: (SiteConfig attribute, default; None where the key is required)
SITE_KEYS = {
    "latitude": ("site_position.latitude", None),
    "longitude": ("site_position.longitude", None),
    "altitude_agl_m": ("site_position.altitude_agl", 0.0),
    "antenna_height_agl_m": ("antenna_height_agl_m", None),
    "boresight_azimuth_deg": ("boresight_azimuth_deg", None),
    "tx_power_dbm": ("tx_power_dbm", None),
    "carrier_freq_ghz": ("carrier_freq_ghz", None),
    "pattern": ("pattern_ref", None),
    "rx_gain_dbi": ("rx_gain_dbi", None),
    "ue_height_m": ("ue_height_m", None),
    "feeder_loss_db": ("feeder_loss_db", 0.0),
}


def load_site_config(path) -> SiteConfig:
    """Load and validate a site-config JSON document: ``pattern`` by the
    string rule, every other field by the number rule (``columns``)."""
    path = Path(path)
    data = read_json(path, "site config must be a JSON object")
    for key, (_, default) in SITE_KEYS.items():
        if default is None and key not in data:
            raise ValueError(f"{path}: site config missing field {key!r}")
    values = {attr: json_value(string if key == "pattern" else number, data.get(key, default),
                               f"{path}: site config field {key!r}")
              for key, (attr, default) in SITE_KEYS.items()}
    position = GeodeticPoint(*(values.pop(f"site_position.{f.name}")
                               for f in fields(GeodeticPoint)))
    return SiteConfig(position, **values)


def save_site_config(site: SiteConfig, path) -> None:
    write_json(path, {key: operator.attrgetter(attr)(site)
                      for key, (attr, _) in SITE_KEYS.items()})


SAMPLE_FIELDS = [
    "timestamp_ms", "lat", "lon", "alt_agl_m",
    "rx_power_dbm", "band", "source", "beam_id", "cell_id",
]


def write_samples_csv(samples: Union[SampleTable, Iterable[MeasurementSample]], path) -> None:
    """Serialize samples to the canonical sample CSV (full float precision)."""
    if not isinstance(samples, SampleTable):
        samples = SampleTable.from_samples(samples)
    write_csv(path, SAMPLE_FIELDS, [getattr(samples, f.name) for f in fields(SampleTable)])


def _optional_ints(chunk: Chunk, cells: list[str]) -> np.ndarray:
    """Object column: ``int`` of each non-empty cell, None for empty ones."""
    present = np.flatnonzero(np.fromiter(map(bool, cells), bool, len(cells)))
    column = np.full(len(cells), None, dtype=object)
    column[present] = chunk.parse(int, list(filter(None, cells)), present)
    return column


def _read_sample_rows(chunk: Chunk) -> list:
    """The columns of one chunk of sample-file rows, checked in the order a
    MeasurementSample built from each row checks them."""
    ts, lat, lon, alt, rx, band, source, beam, cell = (
        chunk.cells[j::len(SAMPLE_FIELDS)] for j in range(len(SAMPLE_FIELDS)))
    ts = chunk.parse(int, ts)
    lat, lon, alt = (chunk.parse(float, c) for c in (lat, lon, alt))
    chunk.check_rules(POSITION_RULES, {"latitude": lat, "longitude": lon})
    rx = chunk.parse(float, rx)
    beam, cell = _optional_ints(chunk, beam), _optional_ints(chunk, cell)
    # the source on its cells: a numpy string column drops trailing NULs
    chunk.check_rules(SAMPLE_RULES, {"timestamp_ms": ts, "received_power_dbm": rx,
                                     "source": source})
    check_band(chunk, band)
    return [ts, lat, lon, alt, rx, np.array(band, dtype=str), np.array(source, dtype=str),
            beam, cell]


def read_samples_csv(path) -> SampleTable:
    """Read the canonical sample CSV back as a SampleTable (iterating it
    yields the samples); a bad row is reported with its line number."""
    return SampleTable(*read_csv(path, SAMPLE_FIELDS, "wrong field count", _read_sample_rows))


@dataclass
class IndoorSession:
    """Indoor walk plus its outdoor reference for one building/floor, as
    SampleTables (lists of MeasurementSample are turned into tables)."""

    building_id: str
    floor: int
    indoor_samples: SampleTable
    outdoor_reference: SampleTable

    def __post_init__(self):
        for name in ("indoor_samples", "outdoor_reference"):
            if not isinstance(getattr(self, name), SampleTable):
                setattr(self, name, SampleTable.from_samples(getattr(self, name)))
        if not len(self.indoor_samples):
            raise ValueError(f"building {self.building_id}: no indoor samples")
        if not len(self.outdoor_reference):
            raise ValueError(f"building {self.building_id}: no outdoor reference samples")


def _building_id(value) -> str:
    """The string or the whole-number rule: a building_id, as its file names spell it."""
    for rule in (string, whole):
        with contextlib.suppress(ValueError):
            return str(rule(value))
    raise ValueError("a string or a whole number")


def load_indoor_sessions(manifest_path) -> list[IndoorSession]:
    """Load indoor/outdoor session pairs from a JSON manifest.

    Manifest shape: ``{"sessions": [{"building_id", "floor", "indoor_log",
    "outdoor_log"}, ...]}`` with log paths relative to the manifest and in
    the canonical sample CSV schema.
    """
    manifest_path = Path(manifest_path)
    data = read_json(manifest_path, "manifest must be a JSON object")
    entries = data.get("sessions")
    if not entries:
        raise ValueError(f"{manifest_path}: manifest lists no sessions")
    if not isinstance(entries, list):
        raise ValueError(f"{manifest_path}: 'sessions' must be a list")
    sessions = {}  # (building, floor) -> entry; each key names one output file
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{manifest_path}: session {i} must be an object")
        where = f"{manifest_path}: building {entry.get('building_id', '?')}"
        for key in ("building_id", "indoor_log", "outdoor_log"):
            if key not in entry:
                raise ValueError(f"{where}: missing {key!r}")
            if key != "building_id":
                json_value(string, entry[key], f"{where}: {key!r}")
        session = (json_value(_building_id, entry["building_id"], f"{where}: building_id"),
                   json_value(whole, entry.get("floor", 0), f"{where}: floor"))
        if any(c in session[0] for c in "/\\\0"):
            raise ValueError(f"{where}: building_id must not hold '/', '\\' or NUL")
        if session in sessions:
            raise ValueError(f"{where}: floor {session[1]} is listed twice")
        sessions[session] = entry
    return [IndoorSession(building, floor,
                          read_samples_csv(manifest_path.parent / entry["indoor_log"]),
                          read_samples_csv(manifest_path.parent / entry["outdoor_log"]))
            for (building, floor), entry in sessions.items()]
