"""Directional antenna gain handling.

A pattern is a rectangular gain grid over azimuth (full circle, wrapping)
and elevation. Beamforming arrays are represented as a set of per-beam
patterns; the composite coverage pattern is their pointwise-maximum
envelope, which is how a grid-of-beams antenna behaves when the receiver
always latches onto the strongest beam.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .columns import int_array, read_csv, read_json, whole, write_csv, write_json


@dataclass
class AntennaPattern:
    """Gain grid in dBi over a full azimuth circle and an elevation span.

    azimuth_deg must be uniformly spaced and cover the full circle
    (n * step == 360); elevation_deg is uniformly spaced within [-90, 90].
    gain_dbi has shape (n_azimuth, n_elevation). boresight_azimuth rotates
    the pattern toward its mounting direction; mechanical_tilt is the
    elevation of the pattern's zero-elevation plane (negative = downtilt).
    """

    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    gain_dbi: np.ndarray
    boresight_azimuth: float = 0.0
    mechanical_tilt: float = 0.0
    name: str = ""

    def __post_init__(self):
        self.azimuth_deg = np.asarray(self.azimuth_deg, dtype=float)
        self.elevation_deg = np.asarray(self.elevation_deg, dtype=float)
        self.gain_dbi = np.asarray(self.gain_dbi, dtype=float)
        az, el = self.azimuth_deg, self.elevation_deg
        if az.ndim != 1 or az.size < 2 or el.ndim != 1 or el.size < 2:
            raise ValueError("pattern needs at least 2 azimuth and 2 elevation samples")
        daz = np.diff(az)
        if np.any(daz <= 0) or not np.allclose(daz, daz[0]):
            raise ValueError("azimuth samples must be uniformly ascending")
        if abs(az.size * daz[0] - 360.0) > 1e-6:
            raise ValueError("azimuth samples must cover the full circle")
        dele = np.diff(el)
        if np.any(dele <= 0) or not np.allclose(dele, dele[0]):
            raise ValueError("elevation samples must be uniformly ascending")
        if el[0] < -90.0 or el[-1] > 90.0:
            raise ValueError("elevation samples must lie within [-90, 90]")
        if self.gain_dbi.shape != (az.size, el.size):
            raise ValueError(
                f"gain grid shape {self.gain_dbi.shape} does not match "
                f"({az.size}, {el.size}) sample grid"
            )
        if not np.isfinite(self.gain_dbi.max()):
            raise ValueError("gain grid must have a finite maximum")

    @property
    def azimuth_step(self) -> float:
        return float(self.azimuth_deg[1] - self.azimuth_deg[0])

    @property
    def elevation_step(self) -> float:
        return float(self.elevation_deg[1] - self.elevation_deg[0])

    def grids_match(self, other: "AntennaPattern") -> bool:
        return (
            self.azimuth_deg.shape == other.azimuth_deg.shape
            and self.elevation_deg.shape == other.elevation_deg.shape
            and np.array_equal(self.azimuth_deg, other.azimuth_deg)
            and np.array_equal(self.elevation_deg, other.elevation_deg)
        )


@dataclass
class BeamSet:
    """Per-beam patterns of a grid-of-beams array, all on one sample grid."""

    beams: list[AntennaPattern]
    rows: int = 1
    cols: int = 0

    def __post_init__(self):
        if not self.beams:
            raise ValueError("beam set must contain at least one beam")
        ref = self.beams[0]
        for b in self.beams[1:]:
            if not ref.grids_match(b):
                raise ValueError("all beams must share identical sample grids")
        if self.cols == 0:
            self.cols = len(self.beams)


def envelope(beams) -> AntennaPattern:
    """Pointwise-maximum pattern over a BeamSet or iterable of patterns."""
    if isinstance(beams, BeamSet):
        patterns = beams.beams
    else:
        patterns = list(beams)
    if not patterns:
        raise ValueError("envelope of an empty beam set is undefined")
    ref = patterns[0]
    for b in patterns[1:]:
        if not ref.grids_match(b):
            raise ValueError("envelope requires beams on identical sample grids")
        if b.boresight_azimuth != ref.boresight_azimuth or b.mechanical_tilt != ref.mechanical_tilt:
            raise ValueError("envelope requires a common boresight and tilt")
    gain = np.maximum.reduce([b.gain_dbi for b in patterns])
    return AntennaPattern(
        ref.azimuth_deg.copy(),
        ref.elevation_deg.copy(),
        gain,
        boresight_azimuth=ref.boresight_azimuth,
        mechanical_tilt=ref.mechanical_tilt,
        name="envelope",
    )


def gain_at(pattern: AntennaPattern, azimuth_deg, elevation_deg):
    """Bilinearly interpolated gain toward arbitrary directions.

    Takes floats (returns a float) or equal-shape numpy arrays (returns an
    array). The query is taken relative to the pattern's boresight azimuth
    and mechanical tilt. Azimuth wraps across 360 -> 0; elevation outside
    the sampled span is clamped to the nearest edge (steep depression
    angles right under a mast routinely exceed pattern files), with one
    warning per call that gives the number of clamped directions and the
    most extreme elevation.
    """
    az_grid = pattern.azimuth_deg
    el_grid = pattern.elevation_deg
    az = np.asarray(azimuth_deg, dtype=float) - pattern.boresight_azimuth
    el = np.asarray(elevation_deg, dtype=float) - pattern.mechanical_tilt

    excess = np.maximum(el_grid[0] - el, el - el_grid[-1])
    clamped = np.count_nonzero(excess > 0.0)
    if clamped:
        warnings.warn(
            f"{clamped} elevation(s) outside sampled range "
            f"[{el_grid[0]:.1f}, {el_grid[-1]:.1f}] deg, most extreme "
            f"{el.flat[np.argmax(excess)]:.2f} deg; clamping",
            stacklevel=2,
        )
        el = np.clip(el, el_grid[0], el_grid[-1])

    n_az = az_grid.size
    t = ((az - az_grid[0]) % 360.0) / pattern.azimuth_step
    i0 = np.minimum(t.astype(int), n_az - 1)
    fa = t - i0
    i1 = (i0 + 1) % n_az

    n_el = el_grid.size
    u = (el - el_grid[0]) / pattern.elevation_step
    j0 = np.minimum(u.astype(int), n_el - 2)
    fe = np.clip(u - j0, 0.0, 1.0)
    j1 = j0 + 1

    g = pattern.gain_dbi
    gain = (
        (1.0 - fa) * (1.0 - fe) * g[i0, j0]
        + fa * (1.0 - fe) * g[i1, j0]
        + (1.0 - fa) * fe * g[i0, j1]
        + fa * fe * g[i1, j1]
    )
    return float(gain) if gain.ndim == 0 else gain


def peak_gain(pattern: AntennaPattern) -> float:
    """Maximum gain over the grid, in dBi."""
    return float(pattern.gain_dbi.max())


def isotropic(gain_dbi: float = 0.0) -> AntennaPattern:
    """Constant-gain pattern, handy for calibration and synthetic data."""
    az = np.arange(0.0, 360.0, 45.0)
    el = np.arange(-90.0, 90.1, 45.0)
    return AntennaPattern(az, el, np.full((az.size, el.size), gain_dbi), name="isotropic")


def synthetic_beam(
    center_azimuth: float,
    center_elevation: float,
    peak_dbi: float = 27.0,
    az_beamwidth: float = 9.0,
    el_beamwidth: float = 11.0,
    floor_dbi: float = -3.0,
    azimuth_step: float = 1.0,
    elevation_range: tuple[float, float] = (-30.0, 30.0),
    elevation_step: float = 1.0,
    name: str = "",
) -> AntennaPattern:
    """Parabolic-in-dB lobe, a stand-in for unpublished per-beam data."""
    az = np.arange(0.0, 360.0, azimuth_step)
    el = np.arange(elevation_range[0], elevation_range[1] + 1e-9, elevation_step)
    daz = (az[:, None] - center_azimuth + 180.0) % 360.0 - 180.0
    dele = el[None, :] - center_elevation
    gain = peak_dbi - 12.0 * ((daz / az_beamwidth) ** 2 + (dele / el_beamwidth) ** 2)
    return AntennaPattern(az, el, np.maximum(gain, floor_dbi), name=name)


def synthetic_aas_beamset(
    peak_dbi: float = 27.0, rows: int = 3, cols: int = 16
) -> BeamSet:
    """Synthetic grid-of-beams array: ``rows`` elevation rows of ``cols``
    azimuth-steered lobes covering roughly a 120 x 30 degree sector."""
    az_centers = np.linspace(-(cols - 1) * 4.0, (cols - 1) * 4.0, cols)
    el_centers = np.linspace((rows - 1) * 5.0, -(rows - 1) * 5.0, rows)
    beams = [
        synthetic_beam(a, e, peak_dbi=peak_dbi, name=f"r{ri}c{ci}")
        for ri, e in enumerate(el_centers)
        for ci, a in enumerate(az_centers)
    ]
    return BeamSet(beams, rows=rows, cols=cols)


PATTERN_FIELDS = ["azimuth_deg", "elevation_deg", "gain_dbi"]


def save_pattern_csv(pattern: AntennaPattern, path) -> None:
    """Write a pattern as one CSV row per (azimuth, elevation) node."""
    az, el = pattern.azimuth_deg, pattern.elevation_deg
    write_csv(path, PATTERN_FIELDS,
              [np.repeat(az, el.size), np.tile(el, az.size), pattern.gain_dbi.ravel()])


def load_pattern_csv(
    path, boresight_azimuth: float = 0.0, mechanical_tilt: float = 0.0
) -> AntennaPattern:
    """Read a pattern CSV (header azimuth_deg,elevation_deg,gain_dbi), one
    row per grid node; a node given twice is rejected with its line."""
    path = Path(path)
    lines, azimuth, elevation, gain_dbi = read_csv(
        path, PATTERN_FIELDS, "expected {width} fields", lambda chunk: [
            int_array(chunk.lines), *(chunk.parse(float, chunk.cells[j::3]) for j in range(3))])
    if not lines.size:
        raise ValueError(f"{path}: empty pattern file")
    az, ai = np.unique(azimuth, return_inverse=True)
    el, ei = np.unique(elevation, return_inverse=True)
    node = ai * el.size + ei
    order = np.argsort(node, kind="stable")
    repeats = order[1:][node[order][1:] == node[order][:-1]]
    if repeats.size:
        k = int(repeats.min())
        raise ValueError(f"{path}: line {lines[k]}: duplicate node "
                         f"(azimuth {azimuth[k].item()!r}, elevation {elevation[k].item()!r})")
    gain = np.full((az.size, el.size), np.nan)
    gain[ai, ei] = gain_dbi
    if np.isnan(gain).any():
        raise ValueError(f"{path}: pattern grid is incomplete")
    return AntennaPattern(
        az, el, gain,
        boresight_azimuth=boresight_azimuth,
        mechanical_tilt=mechanical_tilt,
        name=path.stem,
    )


def save_beamset(beams: BeamSet, directory) -> Path:
    """Write per-beam CSVs plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, beam in enumerate(beams.beams):
        name = beam.name or f"beam_{i:02d}"
        fname = f"{name}.csv"
        save_pattern_csv(beam, directory / fname)
        entries.append({"name": name, "file": fname})
    manifest = {"layout": {"rows": beams.rows, "cols": beams.cols}, "beams": entries}
    manifest_path = directory / "beams.json"
    write_json(manifest_path, manifest)
    return manifest_path


def load_beamset(manifest_path) -> BeamSet:
    """Load a beam set from a JSON manifest naming per-beam CSV files:
    ``{"layout": {"rows", "cols"}, "beams": [{"name", "file"}, ...]}``,
    with file paths relative to the manifest. The manifest's shape is
    checked before any beam file is read."""
    manifest_path = Path(manifest_path)
    data = read_json(manifest_path, "beam-set manifest must be a JSON object")
    layout = data.get("layout", {})
    entries = data.get("beams")
    if not (entries and isinstance(entries, list)):
        raise ValueError(f"{manifest_path}: 'beams' must be a non-empty list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise ValueError(f"{manifest_path}: beam {i} must be an object with a 'file' "
                             f"path string, got {entry!r}")
    try:
        rows, cols = whole(layout.get("rows", 1)), whole(layout.get("cols", 0))
    except (AttributeError, ValueError):  # not an object, or a value not whole
        rows = cols = None
    if rows is None or rows < 1 or cols < 0 or rows * (cols or len(entries)) != len(entries):
        raise ValueError(f"{manifest_path}: 'layout' must be an object of integer rows and "
                         f"cols with rows x cols = {len(entries)} beams, got {layout!r}")
    beams = []
    for entry in entries:
        pattern = load_pattern_csv(manifest_path.parent / entry["file"])
        pattern.name = entry.get("name", pattern.name)
        beams.append(pattern)
    return BeamSet(beams, rows=rows, cols=cols)
