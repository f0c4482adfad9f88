"""Measurement-log and configuration parsing.

Vendor export formats vary, so everything funnels through two canonical
CSV schemas: a beam-resolved testbed log (one row per reporting period,
one column per beam) and a per-cell scanner log. The beam-max selection
(the receiver rides the strongest beam) happens here at ingest.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional

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


@dataclass
class ParseResult:
    """Samples plus row accounting: rows == samples + skipped + filtered."""

    samples: list[MeasurementSample]
    rows: int = 0
    skipped: int = 0
    filtered: int = 0


def _open_stream(stream_or_path) -> tuple[IO, bool]:
    if hasattr(stream_or_path, "read"):
        return stream_or_path, False
    return open(stream_or_path, newline="", encoding="utf-8"), True


def parse_testbed_log(stream_or_path, band: str = "3.5GHz") -> ParseResult:
    """Parse a beam-resolved testbed log.

    Expected header: ``timestamp_ms,lat,lon,mrsrp_00..mrsrp_NN``; an empty
    beam cell means the beam was not received. Each row becomes one sample
    whose power is the strongest beam (ties resolved to the lowest beam
    index); rows with no received beam at all are skipped and counted.
    """
    fh, should_close = _open_stream(stream_or_path)
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty log: missing header")
        header = [h.strip() for h in header]
        if header[:3] != ["timestamp_ms", "lat", "lon"]:
            raise ValueError("testbed log must start with timestamp_ms,lat,lon")
        beam_cols = []
        for idx, name in enumerate(header[3:], start=3):
            if not name.startswith("mrsrp_"):
                raise ValueError(f"unexpected column {name!r} in testbed log")
            try:
                beam_cols.append((idx, int(name[len("mrsrp_"):])))
            except ValueError:
                raise ValueError(f"bad beam column name {name!r}") from None
        if not beam_cols:
            raise ValueError("testbed log has no mrsrp_* columns")

        result = ParseResult(samples=[])
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            result.rows += 1
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
                    result.skipped += 1
                    continue
                result.samples.append(
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
        return result
    finally:
        if should_close:
            fh.close()


SCANNER_HEADER = ["timestamp_ms", "lat", "lon", "cell_id", "rsrp_dbm"]


def parse_scanner_log(
    stream_or_path, cells_of_interest: Iterable[int], band: str = "800MHz"
) -> ParseResult:
    """Parse a network-scanner log, keeping only the cells of interest."""
    cells = set(int(c) for c in cells_of_interest)
    if not cells:
        warnings.warn("empty cells-of-interest set: every row will be filtered out")
    fh, should_close = _open_stream(stream_or_path)
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SCANNER_HEADER:
            raise ValueError(f"scanner log must have header {','.join(SCANNER_HEADER)}")
        result = ParseResult(samples=[])
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            result.rows += 1
            if len(row) != len(SCANNER_HEADER):
                raise ValueError(f"line {lineno}: expected {len(SCANNER_HEADER)} fields")
            try:
                cell = int(row[3])
                if cell not in cells:
                    result.filtered += 1
                    continue
                result.samples.append(
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
        if not result.samples:
            warnings.warn("scanner log yielded no samples for the requested cells")
        return result
    finally:
        if should_close:
            fh.close()


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
    """Load and validate a site-config JSON document."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in _SITE_REQUIRED:
        if key not in data:
            raise ValueError(f"{path}: site config missing field {key!r}")
    return SiteConfig(
        site_position=GeodeticPoint(
            float(data["latitude"]), float(data["longitude"]),
            float(data.get("altitude_agl_m", 0.0)),
        ),
        antenna_height_agl_m=float(data["antenna_height_agl_m"]),
        boresight_azimuth_deg=float(data["boresight_azimuth_deg"]),
        tx_power_dbm=float(data["tx_power_dbm"]),
        carrier_freq_ghz=float(data["carrier_freq_ghz"]),
        pattern_ref=str(data["pattern"]),
        rx_gain_dbi=float(data["rx_gain_dbi"]),
        ue_height_m=float(data["ue_height_m"]),
        feeder_loss_db=float(data.get("feeder_loss_db", 0.0)),
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
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


SAMPLE_FIELDS = [
    "timestamp_ms", "lat", "lon", "alt_agl_m",
    "rx_power_dbm", "band", "source", "beam_id", "cell_id",
]


def write_samples_csv(samples: Iterable[MeasurementSample], path) -> None:
    """Serialize samples to the canonical sample CSV (full float precision)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SAMPLE_FIELDS)
        for s in samples:
            writer.writerow([
                s.timestamp_ms,
                repr(s.position.latitude),
                repr(s.position.longitude),
                repr(s.position.altitude_agl),
                repr(s.received_power_dbm),
                s.band,
                s.source,
                "" if s.beam_id is None else s.beam_id,
                "" if s.cell_id is None else s.cell_id,
            ])


def read_samples_csv(path) -> list[MeasurementSample]:
    """Read the canonical sample CSV back into samples."""
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


@dataclass
class IndoorSession:
    """Indoor walk plus its outdoor reference for one building/floor."""

    building_id: str
    floor: int
    indoor_samples: list[MeasurementSample]
    outdoor_reference: list[MeasurementSample]

    def __post_init__(self):
        if not self.indoor_samples:
            raise ValueError(f"building {self.building_id}: no indoor samples")
        if not self.outdoor_reference:
            raise ValueError(f"building {self.building_id}: no outdoor reference samples")


def load_indoor_sessions(manifest_path) -> list[IndoorSession]:
    """Load indoor/outdoor session pairs from a JSON manifest.

    Manifest shape: ``{"sessions": [{"building_id", "floor", "indoor_log",
    "outdoor_log"}, ...]}`` with log paths relative to the manifest and in
    the canonical sample CSV schema.
    """
    manifest_path = Path(manifest_path)
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    entries = data.get("sessions")
    if not entries:
        raise ValueError(f"{manifest_path}: manifest lists no sessions")
    sessions = []
    for entry in entries:
        building = str(entry.get("building_id", "?"))
        for key in ("building_id", "indoor_log", "outdoor_log"):
            if key not in entry:
                raise ValueError(f"{manifest_path}: building {building}: missing {key!r}")
        sessions.append(
            IndoorSession(
                building_id=building,
                floor=int(entry.get("floor", 0)),
                indoor_samples=read_samples_csv(manifest_path.parent / entry["indoor_log"]),
                outdoor_reference=read_samples_csv(manifest_path.parent / entry["outdoor_log"]),
            )
        )
    return sessions
