"""Measurement-log and configuration parsing.

Vendor export formats vary, so everything funnels through two canonical
CSV schemas: a beam-resolved testbed log (one row per reporting period,
one column per beam) and a per-cell scanner log. The beam-max selection
(the receiver rides the strongest beam) happens here at ingest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .columns import Chunk, int_array, read_csv, read_json, write_csv, write_json
from .geo import GeodeticPoint

SOURCES = ("TESTBED", "SCANNER")


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
        if self.timestamp_ms <= 0:
            raise ValueError(f"timestamp_ms must be positive, got {self.timestamp_ms}")
        if not -160.0 <= self.received_power_dbm <= 0.0:
            raise ValueError(
                f"received power {self.received_power_dbm} dBm outside [-160, 0]"
            )
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")


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


def _check_position(chunk: Chunk, rows, lat: np.ndarray, lon: np.ndarray) -> None:
    """What a GeodeticPoint checks, over the given rows."""
    chunk.check(~((lat >= -90.0) & (lat <= 90.0)),
                lambda k: f"latitude {lat[k].item()!r} outside [-90, 90]", rows)
    chunk.check(~((lon >= -180.0) & (lon <= 180.0)),
                lambda k: f"longitude {lon[k].item()!r} outside [-180, 180]", rows)


def _check_sample(chunk: Chunk, rows, ts: np.ndarray, power: np.ndarray) -> None:
    """What a MeasurementSample checks, over the given rows (its source is
    the parser's own)."""
    chunk.check(~(ts > 0), lambda k: f"timestamp_ms must be positive, got {ts[k]}", rows)
    chunk.check(~((power >= -160.0) & (power <= 0.0)),
                lambda k: f"received power {power[k].item()} dBm outside [-160, 0]", rows)


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


def parse_testbed_log(stream_or_path, band: str = "3.5GHz") -> ParseResult:
    """Parse a beam-resolved testbed log.

    Expected header: ``timestamp_ms,lat,lon,mrsrp_00..mrsrp_NN``; an empty
    beam cell means the beam was not received. Each row becomes one sample
    whose power is the strongest beam (ties resolved to the lowest beam
    index); rows with no received beam at all are skipped and counted.
    A bad row is reported with its line number.
    """
    beams = None  # the beam of each mrsrp_* column

    def header(names: Optional[list[str]]) -> int:
        nonlocal beams
        if names is None:
            raise ValueError("empty log: missing header")
        if names[:3] != ["timestamp_ms", "lat", "lon"]:
            raise ValueError("testbed log must start with timestamp_ms,lat,lon")
        ids = []
        for name in names[3:]:
            if not name.startswith("mrsrp_"):
                raise ValueError(f"unexpected column {name!r} in testbed log")
            try:
                ids.append(int(name[len("mrsrp_"):]))
            except ValueError:
                raise ValueError(f"bad beam column name {name!r}") from None
        if not ids:
            raise ValueError("testbed log has no mrsrp_* columns")
        beams = int_array(ids)
        return len(names)

    def convert(chunk: Chunk) -> tuple:
        position = chunk.take(np.arange(chunk.rows)[:, None] * chunk.width + np.arange(3))
        ts, lat, lon = (chunk.parse(kind, position[j::3])
                        for j, kind in enumerate((int, float, float)))
        heard, power, column = _strongest_beams(chunk)
        keep = np.flatnonzero(heard)
        ts, lat, lon, power = (c[keep] for c in (ts, lat, lon, power))
        _check_position(chunk, keep, lat, lon)
        _check_sample(chunk, keep, ts, power)
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
        _check_position(chunk, keep, lat, lon)
        power = chunk.parse(float, kept[4::width], keep)
        _check_sample(chunk, keep, ts, power)
        return wanted_row, ts, lat, lon, power, cell[keep]

    result = _log_result(read_csv(stream_or_path, SCANNER_HEADER, "expected {width} fields",
                                  convert), band, "SCANNER", "filtered")
    if not len(result.table):
        warnings.warn("scanner log yielded no samples for the requested cells")
    return result


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
        if not 0.0 < self.tx_power_dbm <= 90.0:
            raise ValueError(f"tx_power_dbm {self.tx_power_dbm} outside (0, 90]")
        if self.antenna_height_agl_m <= 0:
            raise ValueError("antenna_height_agl_m must be > 0")
        if self.ue_height_m <= 0:
            raise ValueError("ue_height_m must be > 0")
        if self.carrier_freq_ghz <= 0:
            raise ValueError("carrier_freq_ghz must be > 0")
        if self.feeder_loss_db < 0:
            raise ValueError("feeder_loss_db must be >= 0")

    @property
    def effective_tx_power_dbm(self) -> float:
        """Port power after feeder losses (relevant for scanner-side sites)."""
        return self.tx_power_dbm - self.feeder_loss_db


_SITE_REQUIRED = [
    "latitude",
    "longitude",
    "antenna_height_agl_m",
    "boresight_azimuth_deg",
    "tx_power_dbm",
    "carrier_freq_ghz",
    "pattern",
    "rx_gain_dbi",
    "ue_height_m",
]


def load_site_config(path) -> SiteConfig:
    """Load and validate a site-config JSON document: every numeric field
    must convert to a finite float, and the pattern reference is a string."""
    path = Path(path)
    data = read_json(path, "site config must be a JSON object")
    for key in _SITE_REQUIRED:
        if key not in data:
            raise ValueError(f"{path}: site config missing field {key!r}")
    if not isinstance(data["pattern"], str):
        raise ValueError(f"{path}: site config field 'pattern' must be a string")

    def number(key, default=None):
        value = data.get(key, default)
        try:
            result = float(value)
        except (TypeError, ValueError, OverflowError):
            result = math.nan
        if not math.isfinite(result):
            raise ValueError(f"{path}: site config field {key!r} must be a finite number, "
                             f"got {value!r}")
        return result

    return SiteConfig(
        site_position=GeodeticPoint(
            number("latitude"), number("longitude"), number("altitude_agl_m", 0.0)),
        antenna_height_agl_m=number("antenna_height_agl_m"),
        boresight_azimuth_deg=number("boresight_azimuth_deg"),
        tx_power_dbm=number("tx_power_dbm"),
        carrier_freq_ghz=number("carrier_freq_ghz"),
        pattern_ref=data["pattern"],
        rx_gain_dbi=number("rx_gain_dbi"),
        ue_height_m=number("ue_height_m"),
        feeder_loss_db=number("feeder_loss_db", 0.0),
    )


def save_site_config(site: SiteConfig, path) -> None:
    data = {
        "latitude": site.site_position.latitude,
        "longitude": site.site_position.longitude,
        "altitude_agl_m": site.site_position.altitude_agl,
        "antenna_height_agl_m": site.antenna_height_agl_m,
        "boresight_azimuth_deg": site.boresight_azimuth_deg,
        "tx_power_dbm": site.tx_power_dbm,
        "carrier_freq_ghz": site.carrier_freq_ghz,
        "pattern": site.pattern_ref,
        "rx_gain_dbi": site.rx_gain_dbi,
        "ue_height_m": site.ue_height_m,
        "feeder_loss_db": site.feeder_loss_db,
    }
    write_json(path, data)


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
    _check_position(chunk, None, lat, lon)
    rx = chunk.parse(float, rx)
    beam, cell = _optional_ints(chunk, beam), _optional_ints(chunk, cell)
    _check_sample(chunk, None, ts, rx)
    # on the cells: a numpy string column drops trailing NULs
    chunk.check(~np.fromiter(map(SOURCES.__contains__, source), bool, len(source)),
                lambda k: f"source must be one of {SOURCES}, got {source[k]!r}")
    if "\0" in "".join(band):
        chunk.check(np.fromiter(("\0" in b for b in band), bool, len(band)),
                    lambda k: f"band must not hold a NUL, got {band[k]!r}")
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
            if key != "building_id" and not isinstance(entry[key], str):
                raise ValueError(f"{where}: {key!r} must be a path string, got {entry[key]!r}")
        floor = entry.get("floor", 0)
        try:  # an int, an integral float or a string int() reads, such as "2"
            whole = not isinstance(floor, bool) and int(floor) == float(floor)
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"{where}: floor must be an integer, got {floor!r}")
        session = (str(entry["building_id"]), int(floor))
        if any(c in session[0] for c in "/\\\0"):
            raise ValueError(f"{where}: building_id must not hold '/', '\\' or NUL")
        if session in sessions:
            raise ValueError(f"{where}: floor {session[1]} is listed twice")
        sessions[session] = entry
    return [IndoorSession(building, floor,
                          read_samples_csv(manifest_path.parent / entry["indoor_log"]),
                          read_samples_csv(manifest_path.parent / entry["outdoor_log"]))
            for (building, floor), entry in sessions.items()]
