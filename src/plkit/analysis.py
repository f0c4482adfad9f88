"""Drive-test analysis pipeline.

Samples are binned onto a square grid (median per bin kills fast fading
and de-weights stops), converted to path loss through the link budget,
optionally labeled LOS/NLOS by polygon, and then fed into log-distance
regression, per-model error statistics, band-offset comparison,
shadow-fading distribution checks, and outdoor-to-indoor CDFs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import models
from .columns import FINITE, POSITIVE, Chunk, Rule, check_record, int_array, read_csv, write_csv
from .antenna import AntennaPattern, gain_at
from .geo import (
    MAX_DISTANCE_M,
    POSITION_RULES,
    GeodeticPoint,
    GridIndex,
    LocalPoint,
    Polygon,
    check_grid_size,
    hypot,
    link_angles,
    points_in_ring,
    project,
    project_polygon,
    unproject,
)

# unused here, but perfbench/tracing.py wraps these names in this module
from .geo import from_local, point_in_ring, to_local  # noqa: F401
from .ingest import IndoorSession, MeasurementSample, SampleTable, SiteConfig, check_band

LOS_LABELS = ("LOS", "NLOS", "UNKNOWN")

# what a GridBin checks, and every path that fills bin columns
BIN_RULES = {
    "path_loss_db": Rule("path loss must be finite and > 0, got {value}", POSITIVE, FINITE),
    "sample_count": Rule("sample_count must be >= 1", 1),
    "los": Rule("los must be one of {allowed}", allowed=LOS_LABELS),
}


@dataclass(frozen=True, slots=True)
class BinAggregate:
    """One grid cell after median aggregation, before the link budget."""

    index: GridIndex
    centroid: LocalPoint
    median_rx_power_dbm: float
    sample_count: int


@dataclass(frozen=True, slots=True)
class GridBin:
    """One grid cell with extracted path loss and link geometry."""

    index: GridIndex
    path_loss_db: float
    distance_3d_m: float
    distance_2d_m: float
    sample_count: int
    centroid: Optional[LocalPoint] = None
    median_rx_power_dbm: Optional[float] = None
    los: str = "UNKNOWN"
    band: str = ""
    position: Optional[GeodeticPoint] = None

    def __post_init__(self):
        check_record(self, BIN_RULES)


@dataclass(frozen=True)
class BinTable:
    """Grid bins as equal-length numpy columns, plus the grid size.

    A column not given is unset: NaN, with one sample per bin, "UNKNOWN"
    labels and "" bands. The ``bin`` command runs on one table:
    :func:`aggregate_bins` fills the cell index, the centroid (east/north/up
    in m on the tangent plane at the site), the median received power and
    the sample count; :func:`extract_path_loss` the path loss, the 2D/3D
    distances, the centroid's lat/lon and the band; :func:`classify_los`
    the labels. :func:`read_bins_csv` fills the columns a bin-table file
    holds (lat/lon NaN where the file has no position); the synthesizers
    fill every column but the median power. ``band`` is a column of
    per-bin labels, so a file whose rows name different bands reads back
    row for row. Iterating yields :class:`GridBin` records, whose
    positions have altitude 0.
    """

    ix: np.ndarray
    iy: np.ndarray
    east: Optional[np.ndarray] = None
    north: Optional[np.ndarray] = None
    up: Optional[np.ndarray] = None
    rx_dbm: Optional[np.ndarray] = None
    count: Optional[np.ndarray] = None
    pl_db: Optional[np.ndarray] = None
    d2d_m: Optional[np.ndarray] = None
    d3d_m: Optional[np.ndarray] = None
    lat: Optional[np.ndarray] = None
    lon: Optional[np.ndarray] = None
    los: Optional[np.ndarray] = None
    band: Optional[np.ndarray] = None
    grid_size: float = 5.0

    def __post_init__(self):
        for name in _BIN_COLUMNS:
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.full(self.ix.size, _UNSET.get(name, np.nan)))

    @classmethod
    def from_records(cls, bins: Iterable[Union[GridBin, BinAggregate]]) -> "BinTable":
        """A table of GridBin or BinAggregate records, with the first record's
        grid size: NaN where a record has no centroid, median power, path
        loss, distances or position, "UNKNOWN" and "" where it has no label
        or band."""
        bins = list(bins)
        nan = math.nan
        rows = [
            (b.index.ix, b.index.iy,
             *((b.centroid.east, b.centroid.north, b.centroid.up) if b.centroid else (nan,) * 3),
             nan if b.median_rx_power_dbm is None else b.median_rx_power_dbm, b.sample_count,
             *(getattr(b, f, nan) for f in ("path_loss_db", "distance_2d_m", "distance_3d_m")),
             *((b.position.latitude, b.position.longitude)
               if getattr(b, "position", None) else (nan, nan)),
             getattr(b, "los", "UNKNOWN"), getattr(b, "band", ""))
            for b in bins
        ]
        ix, iy, e, n, u, rx, c, pl, d2, d3, la, lo, los, band = zip(*rows) if rows else [()] * 14
        return cls(int_array(ix), int_array(iy),
                   *(np.array(v, dtype=float) for v in (e, n, u, rx)), int_array(c),
                   *(np.array(v, dtype=float) for v in (pl, d2, d3, la, lo)),
                   np.array(los, dtype=str), np.array(band, dtype=str),
                   grid_size=bins[0].index.grid_size if bins else 5.0)

    def __eq__(self, other) -> bool:
        """Column by column, NaN equal to NaN, and the same grid size."""
        if not isinstance(other, BinTable):
            return NotImplemented
        return self.grid_size == other.grid_size and all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f" and b.dtype.kind == "f")
            for a, b in ((getattr(self, c), getattr(other, c)) for c in _BIN_COLUMNS))

    def __len__(self) -> int:
        return self.ix.size

    def __iter__(self) -> Iterator[GridBin]:
        for i, j, e, n, u, rx, c, pl, d2, d3, la, lo, los, band in zip(
            *(getattr(self, c).tolist() for c in _BIN_COLUMNS)
        ):
            yield GridBin(
                GridIndex(i, j, self.grid_size), pl, d3, d2, c,
                centroid=None if math.isnan(e) else LocalPoint(e, n, u),
                median_rx_power_dbm=None if math.isnan(rx) else rx,
                los=los, band=band,
                position=None if math.isnan(la) else GeodeticPoint(la, lo),
            )

    def take(self, rows) -> "BinTable":
        """The bins selected by a boolean mask or an index array."""
        return replace(self, **{c: getattr(self, c)[rows] for c in _BIN_COLUMNS})


_BIN_COLUMNS = [f.name for f in fields(BinTable) if f.name != "grid_size"]
_UNSET = {"count": 1, "los": "UNKNOWN", "band": ""}  # else NaN


@dataclass(frozen=True)
class FitResult:
    """Log-distance regression output: intercept, exponent, residual sigma."""

    a0_db: float
    gamma: float
    sigma_db: float
    d0_m: float
    n_bins: int
    distance_range_m: tuple[float, float]

    def to_json_dict(self) -> dict:
        """JSON shape: a0 [dB], gamma, sigma [dB], d0 [m], n_bins,
        distance_range [m]."""
        return {
            "a0": self.a0_db,
            "gamma": self.gamma,
            "sigma": self.sigma_db,
            "d0": self.d0_m,
            "n_bins": self.n_bins,
            "distance_range": list(self.distance_range_m),
        }


@dataclass(frozen=True)
class ErrorStats:
    """Model-vs-measurement error statistics in dB (positive mean =
    over-prediction)."""

    mu_e: float
    sigma_e: float
    rmse: float
    n: int

    def to_json_dict(self) -> dict:
        """JSON shape: mu_e, sigma_e, rmse (all dB) and sample count n."""
        return {"mu_e": self.mu_e, "sigma_e": self.sigma_e, "rmse": self.rmse, "n": self.n}


def rmse_identity(mu_e: float, sigma_e: float, n: int) -> float:
    """RMSE implied by a mean and a sample (n-1) standard deviation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(mu_e * mu_e + sigma_e * sigma_e * (n - 1) / n)


@dataclass(frozen=True)
class CdfSeries:
    """Empirical CDF: sorted values with probabilities ending at 1, as
    float arrays."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probabilities = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probabilities)
        if values.shape != probabilities.shape:
            raise ValueError("values and probabilities must have equal length")
        if not values.size:
            raise ValueError("empty CDF")
        if (np.diff(values) < 0).any():
            raise ValueError("values must be sorted non-decreasing")
        if (np.diff(probabilities) < 0).any():
            raise ValueError("probabilities must be non-decreasing")
        if abs(probabilities[-1] - 1.0) > 1e-12:
            raise ValueError("probabilities must end at 1.0")


@dataclass
class ShadowFading:
    """Regression residuals with their Gaussian moment fit and histogram."""

    residuals_db: np.ndarray
    mean_db: float
    sigma_db: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def _cell_means(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each cell's run of ``values`` summed in member order, as
    ``np.mean`` sums: left to right below 8 members, numpy's pairwise sum
    from 8 on (few cells), so centroids match a per-cell ``mean`` exactly."""
    small = counts < 8
    sums = np.zeros(starts.size)
    for k in range(7):
        rows = small & (counts > k)
        sums[rows] += values[starts[rows] + k]
    means = sums / counts
    for g in np.flatnonzero(~small):
        means[g] = values[starts[g]:starts[g] + counts[g]].mean()
    return means


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal rows in ``keys``, sorted together."""
    first = np.ones(keys[0].size, dtype=bool)
    first[1:] = keys[0][1:] != keys[0][:-1]
    for key in keys[1:]:
        first[1:] = first[1:] | (key[1:] != key[:-1])
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, first.size))


def _medians(ranked: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Median of each run of ``ranked``, sorted within runs: the middle
    member, or the mean of the middle two for even counts."""
    mid = starts + counts // 2
    return np.where(counts % 2 == 1, ranked[mid], (ranked[mid - 1] + ranked[mid]) / 2.0)


def _table(records, kind: type = BinTable):
    """The one conversion of list input: a table of ``kind`` unchanged,
    MeasurementSample records through SampleTable.from_samples, GridBin or
    BinAggregate records through BinTable.from_records."""
    if isinstance(records, kind):
        return records
    if kind is SampleTable:
        return SampleTable.from_samples(records)
    return BinTable.from_records(records)


def _like(given, table: BinTable):
    """``table`` if the caller gave a table, else its GridBin records: lists
    in, lists out."""
    return table if isinstance(given, (BinTable, SampleTable)) else list(table)


def _cells(east: np.ndarray, north: np.ndarray, grid_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid cell indices of tangent-plane points. The grid size must be
    finite and > 0, and small enough sizes that an index leaves int64 are
    refused."""
    check_grid_size(grid_size)
    reach = max(-east.min(initial=0.0), east.max(initial=0.0),
                -north.min(initial=0.0), north.max(initial=0.0))
    if not reach / grid_size < 2.0**63:
        raise ValueError(f"grid_size {grid_size!r} is too small: cell indices overflow int64")
    return (np.floor(east / grid_size).astype(np.int64),
            np.floor(north / grid_size).astype(np.int64))


def _aggregate(samples: SampleTable, origin: GeodeticPoint, grid_size: float) -> BinTable:
    east, north = project(origin, samples.lat, samples.lon)
    up = samples.alt - origin.altitude_agl
    power = samples.rx_dbm
    ix, iy = _cells(east, north, grid_size)
    # cells in (ix, iy) order; members sorted by (east, north, up, power)
    order = np.lexsort((power, up, north, east, iy, ix))
    by_power = np.lexsort((power, iy, ix))
    ix, iy = ix[order], iy[order]
    starts, counts = _runs(ix, iy)
    return BinTable(
        ix[starts], iy[starts],
        *(_cell_means(v[order], starts, counts) for v in (east, north, up)),
        _medians(power[by_power], starts, counts), counts, grid_size=grid_size,
    )


def aggregate_bins(
    samples: Union[SampleTable, Iterable[MeasurementSample]],
    origin: GeodeticPoint,
    grid_size: float = 5.0,
) -> Union[BinTable, list[BinAggregate]]:
    """Median received power per square grid cell.

    The median uses the mean-of-middle-two convention for even counts; the
    centroid is the mean member position. Members are sorted before
    reducing so the result is exactly independent of input order. A
    :class:`SampleTable` gives a :class:`BinTable` in cell order;
    MeasurementSample objects give the same bins as BinAggregate objects.
    """
    table = _aggregate(_table(samples, SampleTable), origin, grid_size)
    if isinstance(samples, SampleTable):
        return table
    return [
        BinAggregate(GridIndex(i, j, grid_size), LocalPoint(e, n, u), rx, c)
        for i, j, e, n, u, rx, c in zip(*(getattr(table, name).tolist() for name in (
            "ix", "iy", "east", "north", "up", "rx_dbm", "count")))
    ]


def extract_path_loss(
    aggregates: Union[BinTable, Sequence[BinAggregate]],
    site: SiteConfig,
    pattern: AntennaPattern,
    band: str = "",
) -> Union[BinTable, list[GridBin]]:
    """Link-budget path loss per bin: PL = P_T + G_T(az, el) + G_R - P_R.

    Uses the feeder-corrected transmit power, the pattern gain toward the
    bin centroid, and the configured receive gain. Bins right at the site
    (zero horizontal distance) have no defined azimuth and are dropped,
    with one warning for all of them. A BinTable gives a BinTable;
    BinAggregate objects give GridBin objects.
    """
    table = _table(aggregates)
    dz = (table.up + site.ue_height_m) - site.antenna_height_agl_m
    d2d, azimuth, elevation = link_angles(table.east, table.north, dz)
    at_site = d2d <= 1e-9
    if at_site.any():
        k = np.flatnonzero(at_site)
        warnings.warn(
            f"{k.size} bin(s) at the site location, first ({table.ix[k[0]]}, "
            f"{table.iy[k[0]]}); excluded from path loss"
        )
        keep = ~at_site
        table, dz, d2d = table.take(keep), dz[keep], d2d[keep]
        azimuth, elevation = azimuth[keep], elevation[keep]
    gain = gain_at(pattern, azimuth, elevation)
    pl = site.effective_tx_power_dbm + gain + site.rx_gain_dbi - table.rx_dbm
    BIN_RULES["path_loss_db"].check(pl)
    lat, lon = unproject(site.site_position, table.east, table.north)
    return _like(aggregates, replace(table, pl_db=pl, d2d_m=d2d, d3d_m=hypot(d2d, dz),
                                     lat=lat, lon=lon, band=np.full(len(table), band)))


Bins = Union[BinTable, Sequence[GridBin]]


def _inside_any(table: BinTable, polygons: Sequence[Polygon], origin: GeodeticPoint,
                purpose: str) -> np.ndarray:
    """Whether each bin's centroid lies in any of the polygons, projected
    onto the tangent plane at ``origin``."""
    if np.isnan(table.east).any():
        raise ValueError(f"bins must carry centroids for {purpose}")
    inside = np.zeros(len(table), dtype=bool)
    for poly in polygons:
        inside |= points_in_ring(table.east, table.north, project_polygon(origin, poly))
    return inside


def classify_los(bins: Bins, polygons: Sequence[Polygon], origin: GeodeticPoint) -> Bins:
    """Label every bin LOS if its centroid falls in any LOS polygon and in
    no NLOS polygon: an NLOS polygon forces NLOS inside it.

    Polygons are projected onto the same tangent plane as the bins. With
    no polygons at all, everything is NLOS.
    """
    table = _table(bins)
    los, nlos = ([p for p in polygons if p.label == label] for label in ("LOS", "NLOS"))
    inside = _inside_any(table, los, origin, "LOS classification")
    if nlos:
        inside &= ~_inside_any(table, nlos, origin, "LOS classification")
    return _like(bins, replace(table, los=np.where(inside, "LOS", "NLOS")))


def apply_exclusion_mask(bins: Bins, polygons: Sequence[Polygon], origin: GeodeticPoint) -> Bins:
    """Drop bins whose centroid falls inside any mask polygon (label is
    ignored); used to cut out known-bad street segments."""
    table = _table(bins)
    return _like(bins, table.take(~_inside_any(table, polygons, origin, "exclusion masking")))


def fit_log_distance(
    bins: Bins,
    d0_m: float = 100.0,
    min_d_m: Optional[float] = None,
    max_d_m: Optional[float] = None,
    use_2d: bool = False,
    pin_a0_db: Optional[float] = None,
) -> FitResult:
    """Least-squares fit of path loss against 10 log10(d/d0).

    Estimates the intercept a0 and exponent gamma jointly unless
    pin_a0_db fixes the intercept. sigma is the (n-1) standard deviation
    of the residuals. Bins closer than min_d (default d0, where the
    log-distance form does not apply) or farther than max_d are ignored.
    Like the other consumers of bin tables, it takes a BinTable or GridBin
    records (converted to a table once).
    """
    models.check_positive(d0_m=d0_m)
    lo = d0_m if min_d_m is None else min_d_m
    hi = math.inf if max_d_m is None else max_d_m
    for name, value in (("min_d_m", lo), ("max_d_m", hi)):
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got nan")
    if pin_a0_db is not None and not math.isfinite(pin_a0_db):
        raise ValueError(f"pin_a0_db must be finite, got {pin_a0_db}")
    table = _table(bins)
    d_all, pl_all = table.d2d_m if use_2d else table.d3d_m, table.pl_db
    keep = (d_all >= lo) & (d_all <= hi)
    d, pl = d_all[keep], pl_all[keep]
    if d.size < 2:
        raise ValueError(f"need at least 2 bins within [{lo:g}, {hi:g}] m, have {d.size}")
    x = 10.0 * np.log10(d / d0_m)
    if np.ptp(x) == 0.0:
        raise ValueError("all bins at one distance: exponent is unidentifiable")
    if pin_a0_db is None:
        xm = x - x.mean()
        gamma = float(np.dot(xm, pl - pl.mean()) / np.dot(xm, xm))
        a0 = float(pl.mean() - gamma * x.mean())
    else:
        a0 = float(pin_a0_db)
        gamma = float(np.dot(x, pl - a0) / np.dot(x, x))
    residuals = pl - (a0 + gamma * x)
    if d.size == 2 and pin_a0_db is None:
        warnings.warn("only 2 bins: line is exact, sigma reported as 0")
        sigma = 0.0
    else:
        sigma = float(np.std(residuals, ddof=1))
    return FitResult(
        a0_db=a0,
        gamma=gamma,
        sigma_db=sigma,
        d0_m=d0_m,
        n_bins=int(d.size),
        distance_range_m=(float(d.min()), float(d.max())),
    )


def prediction_errors(bins: Bins, model_id: str, template: models.LinkGeometry) -> ErrorStats:
    """Error statistics of one model against binned measurements.

    e_i = model(d_i) - PL_i, so a positive mean is over-prediction. All
    statistics are computed in the dB domain; sigma_e uses the (n-1)
    sample deviation and rmse is sqrt(mean(e^2)).
    """
    table = _table(bins)
    d2d, d3d, pl = table.d2d_m, table.d3d_m, table.pl_db
    if not pl.size:
        raise ValueError("no bins to compare against")
    info = models.evaluable_model(model_id)
    errors = info.evaluate(template.with_distances(d2d, d3d)) - pl
    n = errors.size
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mu = float(errors.mean())
        sigma = float(np.std(errors, ddof=1)) if n > 1 else 0.0
        rmse = float(np.sqrt(np.mean(errors**2)))
    if not (math.isfinite(mu) and math.isfinite(sigma) and math.isfinite(rmse)):
        link = ", ".join(f"{key} {getattr(template, key):g}" for key in models.LINK_RULES)
        raise ValueError(f"{info.model_id}: error statistics are not finite (mu_e {mu:g}, "
                         f"sigma_e {sigma:g}, rmse {rmse:g}) at {link}")
    return ErrorStats(mu_e=mu, sigma_e=sigma, rmse=rmse, n=n)


def _path_loss_by_cell(table: BinTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells in (ix, iy) order with their mean path loss; a cell's rows are
    summed in table order with Python's ``sum``, as a per-cell list was."""
    order = np.lexsort((table.iy, table.ix))
    ix, iy, pl = table.ix[order], table.iy[order], table.pl_db[order]
    starts, counts = _runs(ix, iy)
    means = pl[starts]
    for g in np.flatnonzero(counts > 1).tolist():
        means[g] = sum(pl[starts[g]:starts[g] + counts[g]].tolist()) / int(counts[g])
    return ix[starts], iy[starts], means


def pair_bins_by_index(bins_high: Bins, bins_low: Bins):
    """Per-grid-cell (PL_high, PL_low) pairs for two bands, in (ix, iy)
    order: an (n, 2) array for two BinTables, else a list of tuples.

    Only cells present in both tables are used; duplicate cells within one
    table are averaged first.
    """
    hx, hy, hpl = _path_loss_by_cell(_table(bins_high))
    lx, ly, lpl = _path_loss_by_cell(_table(bins_low))
    # each side's cells are unique, so a shared cell is two adjacent rows
    # of the merged, sorted keys: the high band's first
    ix, iy = np.concatenate([hx, lx]), np.concatenate([hy, ly])
    order = np.lexsort((np.arange(ix.size), iy, ix))
    ix, iy = ix[order], iy[order]
    k = np.flatnonzero((ix[1:] == ix[:-1]) & (iy[1:] == iy[:-1]))
    pairs = np.column_stack([hpl[order[k]], lpl[order[k + 1] - hx.size]])
    if isinstance(bins_high, BinTable) and isinstance(bins_low, BinTable):
        return pairs
    return list(map(tuple, pairs.tolist()))


def frequency_offset(pairs) -> tuple[float, float]:
    """Mean and sample sigma of per-cell path-loss differences, from an
    (n, 2) array or a sequence of (PL_high, PL_low) pairs.

    The slope between the bands is fixed at one; only the offset is
    estimated.
    """
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 paired bins, have {len(pairs)}")
    pairs = np.asarray(pairs, dtype=float)
    diffs = pairs[:, 0] - pairs[:, 1]
    return float(diffs.mean()), float(np.std(diffs, ddof=1))


def shadow_fading(bins: Bins, fit: FitResult, use_2d: bool = False) -> ShadowFading:
    """Residuals around a fitted log-distance line, with Gaussian moments
    and a 1 dB histogram (pass the same bins the fit was made from)."""
    table = _table(bins)
    d, pl = table.d2d_m if use_2d else table.d3d_m, table.pl_db
    residuals = pl - models.log_distance(d, fit.a0_db, fit.gamma, fit.d0_m)
    mean = float(residuals.mean())
    sigma = float(np.std(residuals, ddof=1)) if residuals.size > 1 else 0.0
    lo = math.floor(residuals.min())
    hi = math.ceil(residuals.max())
    if hi <= lo:
        hi = lo + 1
    edges = np.arange(lo, hi + 1, 1.0)
    counts, _ = np.histogram(residuals, bins=edges)
    return ShadowFading(residuals, mean, sigma, edges, counts)


def o2i_cdf(session: IndoorSession) -> CdfSeries:
    """Empirical CDF of indoor power relative to the outdoor reference.

    The reference is the median of the outdoor walk (robust to its own
    fading); values are indoor minus reference, so more-negative means
    more penetration loss.
    """
    reference = float(np.median(session.outdoor_reference.rx_dbm))
    values = np.sort(session.indoor_samples.rx_dbm - reference, kind="stable")
    return CdfSeries(values, np.arange(1, values.size + 1) / values.size)


def distance_profile(
    bins: Bins, step_m: float = 5.0, use_2d: bool = False
) -> list[tuple[float, float]]:
    """Median path loss per distance ring of width step_m, sorted by
    distance; returns (ring center, median PL) points."""
    models.check_positive(step_m=step_m)
    table = _table(bins)
    d, pl = table.d2d_m if use_2d else table.d3d_m, table.pl_db
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    ring = np.floor(d / step_m)
    order = np.lexsort((pl, ring))
    ring, pl = ring[order], pl[order]
    starts, counts = _runs(ring)
    return [((g + 0.5) * step_m, m)
            for g, m in zip(ring[starts].tolist(), _medians(pl, starts, counts).tolist())]


DEFAULT_SYNTH_ORIGIN = GeodeticPoint(47.0, 8.0)


def _bins_from_arrays(
    d3d: np.ndarray,
    pl: np.ndarray,
    bearings_deg: np.ndarray,
    h_bs_m: float,
    h_ut_m: float,
    origin: GeodeticPoint,
    band: str,
    grid_size: float,
    los: str,
) -> BinTable:
    """One single-sample bin per draw, at its bearing and 2D distance from
    ``origin`` (``up`` 0, no median power), checked as GridBin checks."""
    BIN_RULES["los"].check([los])
    BIN_RULES["path_loss_db"].check(pl)
    dh = h_bs_m - h_ut_m
    d2d = np.sqrt(d3d**2 - dh**2)
    if not float(np.min(d2d, initial=np.inf)) > 0.0:  # lost in d3d**2 below about 1e-8 |dh|
        raise ValueError("minimum distance too small: a bin's d2d_m rounds to 0")
    east = d2d * np.sin(np.radians(bearings_deg))
    north = d2d * np.cos(np.radians(bearings_deg))
    ix, iy = _cells(east, north, grid_size)
    lat, lon = unproject(origin, east, north)
    n = d3d.size
    return BinTable(ix, iy, east, north, np.zeros(n), pl_db=pl, d2d_m=d2d, d3d_m=d3d, lat=lat,
                    lon=lon, los=np.full(n, los), band=np.full(n, band), grid_size=grid_size)


def _draws(distance_range_m: tuple[float, float], n: int, sigma_db: float, seed: int):
    """``n`` log-uniform distances over the range, Gaussian shadowing
    (sigma in dB) and uniform bearings, in that order from ``seed``."""
    lo, hi = distance_range_m
    if not (0 < lo < hi <= MAX_DISTANCE_M):
        raise ValueError(f"invalid distance range ({lo}, {hi}): "
                         f"need 0 < min < max <= {MAX_DISTANCE_M:g} m")
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_db < 0:
        raise ValueError("sigma_db must be >= 0")
    rng = np.random.default_rng(seed)
    distances = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)
    return distances, rng.normal(0.0, sigma_db, n), rng.uniform(0.0, 360.0, n)


def synthesize_samples(
    a0_db: float,
    gamma: float,
    sigma_db: float,
    d0_m: float,
    n: int,
    distance_range_m: tuple[float, float],
    seed: int,
    h_bs_m: float = 25.0,
    h_ut_m: float = 1.5,
    origin: GeodeticPoint = DEFAULT_SYNTH_ORIGIN,
    band: str = "3.5GHz",
    grid_size: float = 5.0,
    los: str = "UNKNOWN",
) -> BinTable:
    """Synthetic bins from a log-distance law plus Gaussian shadow fading.

    Slant distances are log-uniform over the range, bearings uniform, and
    the Gaussian term is drawn in dB. Fully reproducible from the seed.
    """
    models.check_link(h_bs_m=h_bs_m, h_ut_m=h_ut_m)
    d3d, shadow, bearings = _draws(distance_range_m, n, sigma_db, seed)
    if distance_range_m[0] <= abs(h_bs_m - h_ut_m):
        raise ValueError("minimum distance must exceed the antenna height difference")
    pl = models.log_distance(d3d, a0_db, gamma, d0_m) + shadow
    return _bins_from_arrays(d3d, pl, bearings, h_bs_m, h_ut_m, origin, band, grid_size, los)


def synthesize_from_model(
    model_id: str,
    template: models.LinkGeometry,
    sigma_db: float,
    n: int,
    distance_range_m: tuple[float, float],
    seed: int,
    origin: GeodeticPoint = DEFAULT_SYNTH_ORIGIN,
    band: str = "3.5GHz",
    grid_size: float = 5.0,
    los: str = "UNKNOWN",
) -> BinTable:
    """Synthetic bins whose mean path loss follows a catalog model."""
    info = models.evaluable_model(model_id)
    d2d, shadow, bearings = _draws(distance_range_m, n, sigma_db, seed)
    d3d = np.hypot(d2d, template.h_bs_m - template.h_ut_m)
    pl = info.evaluate(template.with_distances(d2d, d3d)) + shadow
    return _bins_from_arrays(
        d3d, pl, bearings, template.h_bs_m, template.h_ut_m, origin, band, grid_size, los
    )


BIN_FIELDS = ["ix", "iy", "lat", "lon", "d2d_m", "d3d_m", "pl_db", "count", "los", "band"]


BIN_ROW_RULE = ("need a finite pl_db and finite 0 < d2d_m <= d3d_m, "
                "got pl_db={}, d2d_m={}, d3d_m={}")


def _bad_bin_rows(pl: np.ndarray, d2d: np.ndarray, d3d: np.ndarray) -> np.ndarray:
    """Where a bin-table row breaks ``BIN_ROW_RULE``, which the writer and
    the reader hold each row to."""
    return ~(np.isfinite(pl) & (0.0 < d2d) & (d2d <= d3d) & (d3d < math.inf))


def write_bins_csv(bins: Union[BinTable, Sequence[GridBin]], path) -> None:
    """Write the bin table (full float precision so re-parsing is lossless);
    a bin without a position has empty lat/lon cells. A bin the reader would
    refuse, by its path-loss and distance rule or by ``BIN_RULES``, is
    refused before the file opens: the first such bin, by its cell, with the
    first rule it breaks."""
    bins = _table(bins)
    if np.isnan(bins.pl_db).any():
        raise ValueError("bin table has no path loss yet; run extract_path_loss first")
    pl, d2d, d3d = bins.pl_db, bins.d2d_m, bins.d3d_m
    first = Chunk(len(BIN_FIELDS), range(len(bins)), [])  # keeps the first bin's first failure
    first.check(_bad_bin_rows(pl, d2d, d3d), lambda k: BIN_ROW_RULE.format(pl[k], d2d[k], d3d[k]))
    first.check_rules(BIN_RULES, {"path_loss_db": pl, "sample_count": bins.count,
                                  "los": bins.los.tolist()})
    if first.error is not None:
        raise ValueError(f"bin ({bins.ix[first.n]}, {bins.iy[first.n]}): {first.error}")
    lat, lon = (np.where(np.isnan(c), None, c) if np.isnan(c).any() else c
                for c in (bins.lat, bins.lon))
    bins = replace(bins, lat=lat, lon=lon)
    write_csv(path, BIN_FIELDS, [getattr(bins, name) for name in BIN_FIELDS])


def _read_bin_rows(chunk: Chunk) -> list:
    """The columns of one chunk of bin-table rows, in file order, checked in
    the order a GridBin built from each row checks them."""
    width = len(BIN_FIELDS)
    ix_s, iy_s, lat_s, lon_s, d2d_s, d3d_s, pl_s, count_s, los, band = (
        chunk.cells[j::width] for j in range(width))
    has_pos = np.flatnonzero(np.fromiter(map(bool, lat_s), bool, len(lat_s)))
    pick = has_pos.tolist()
    lat, lon = (chunk.parse(float, [c[k] for k in pick], has_pos) for c in (lat_s, lon_s))
    chunk.check_rules(POSITION_RULES, {"latitude": lat, "longitude": lon}, has_pos)
    d2d, d3d, pl = (chunk.parse(float, c) for c in (d2d_s, d3d_s, pl_s))
    chunk.check(_bad_bin_rows(pl, d2d, d3d),
                lambda k: BIN_ROW_RULE.format(pl_s[k], d2d_s[k], d3d_s[k]))
    ix, iy = (chunk.parse(int, c) for c in (ix_s, iy_s))
    count = chunk.parse(int, count_s)
    # the labels on their cells: a numpy string column drops trailing NULs
    chunk.check_rules(BIN_RULES, {"path_loss_db": pl, "sample_count": count, "los": los})
    check_band(chunk, band)
    full_lat, full_lon = np.full(len(ix), np.nan), np.full(len(ix), np.nan)
    full_lat[has_pos], full_lon[has_pos] = lat, lon
    return [ix, iy, full_lat, full_lon, d2d, d3d, pl, count, np.array(los, dtype=str),
            np.array(band, dtype=str)]


def read_bins_csv(path, grid_size: float = 5.0) -> BinTable:
    """Read a bin table back as a BinTable (the file holds no centroids or
    median powers; those columns are NaN).

    Rejects, with the line number, rows whose path loss is not finite or
    whose distances are not finite with 0 < d2d_m <= d3d_m.
    """
    check_grid_size(grid_size)
    read = read_csv(path, BIN_FIELDS, "wrong field count", _read_bin_rows)
    return BinTable(**dict(zip(BIN_FIELDS, read)), grid_size=grid_size)
