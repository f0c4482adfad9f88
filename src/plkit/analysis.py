"""Drive-test analysis pipeline.

Samples are binned onto a square grid (median per bin kills fast fading
and de-weights stops), converted to path loss through the link budget,
optionally labeled LOS/NLOS by polygon, and then fed into log-distance
regression, per-model error statistics, band-offset comparison,
shadow-fading distribution checks, and outdoor-to-indoor CDFs.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import models
from .antenna import AntennaPattern, gain_at
from .geo import (
    GeodeticPoint,
    GridIndex,
    LocalPoint,
    Polygon,
    azimuth_elevation,
    bin_index,
    distance_2d,
    distance_3d,
    earth_radii,
    from_local,
    point_in_ring,
    project_polygon,
    to_local,
)
from .ingest import IndoorSession, MeasurementSample, SiteConfig

LOS_LABELS = ("LOS", "NLOS", "UNKNOWN")


@dataclass(frozen=True)
class BinAggregate:
    """One grid cell after median aggregation, before the link budget."""

    index: GridIndex
    centroid: LocalPoint
    median_rx_power_dbm: float
    sample_count: int


@dataclass(frozen=True)
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
        if not self.path_loss_db > 0:
            raise ValueError(f"path loss must be positive, got {self.path_loss_db}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.los not in LOS_LABELS:
            raise ValueError(f"los must be one of {LOS_LABELS}")


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
    """Empirical CDF: sorted values with probabilities ending at 1."""

    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        if len(self.values) != len(self.probabilities):
            raise ValueError("values and probabilities must have equal length")
        if not self.values:
            raise ValueError("empty CDF")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be sorted non-decreasing")
        if any(b < a for a, b in zip(self.probabilities, self.probabilities[1:])):
            raise ValueError("probabilities must be non-decreasing")
        if abs(self.probabilities[-1] - 1.0) > 1e-12:
            raise ValueError("probabilities must end at 1.0")

    def to_json_dict(self) -> dict:
        return {"values": list(self.values), "probabilities": list(self.probabilities)}


@dataclass
class ShadowFading:
    """Regression residuals with their Gaussian moment fit and histogram."""

    residuals_db: np.ndarray
    mean_db: float
    sigma_db: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def aggregate_bins(
    samples: Iterable[MeasurementSample],
    origin: GeodeticPoint,
    grid_size: float = 5.0,
) -> list[BinAggregate]:
    """Median received power per square grid cell.

    The median uses the mean-of-middle-two convention for even counts; the
    centroid is the mean member position. Members are sorted before
    reducing so the result is exactly independent of input order.
    """
    groups: dict[tuple[int, int], list[tuple[float, float, float, float]]] = {}
    for s in samples:
        lp = to_local(origin, s.position)
        key = bin_index(lp, grid_size).key
        groups.setdefault(key, []).append((lp.east, lp.north, lp.up, s.received_power_dbm))
    out = []
    for key in sorted(groups):
        members = sorted(groups[key])
        arr = np.array(members)
        east, north, up = arr[:, 0].mean(), arr[:, 1].mean(), arr[:, 2].mean()
        median = float(np.median(arr[:, 3]))
        out.append(
            BinAggregate(
                index=GridIndex(key[0], key[1], grid_size),
                centroid=LocalPoint(float(east), float(north), float(up)),
                median_rx_power_dbm=median,
                sample_count=len(members),
            )
        )
    return out


def extract_path_loss(
    aggregates: Sequence[BinAggregate],
    site: SiteConfig,
    pattern: AntennaPattern,
    band: str = "",
) -> list[GridBin]:
    """Link-budget path loss per bin: PL = P_T + G_T(az, el) + G_R - P_R.

    Uses the feeder-corrected transmit power, the pattern gain toward the
    bin centroid, and the configured receive gain. Bins right at the site
    (zero horizontal distance) have no defined azimuth and are dropped
    with a warning.
    """
    origin = site.site_position
    bs = LocalPoint(0.0, 0.0, 0.0)
    out = []
    for agg in aggregates:
        d2d = distance_2d(bs, agg.centroid)
        if d2d <= 1e-9:
            warnings.warn(
                f"bin {agg.index.key} sits at the site location; excluded from path loss"
            )
            continue
        az, el = azimuth_elevation(
            bs, agg.centroid,
            bs_height=site.antenna_height_agl_m, ue_height=site.ue_height_m,
        )
        g_t = gain_at(pattern, az, el)
        pl = site.effective_tx_power_dbm + g_t + site.rx_gain_dbi - agg.median_rx_power_dbm
        d3d = distance_3d(
            bs, agg.centroid,
            height_a=site.antenna_height_agl_m, height_b=site.ue_height_m,
        )
        out.append(
            GridBin(
                index=agg.index,
                path_loss_db=pl,
                distance_3d_m=d3d,
                distance_2d_m=d2d,
                sample_count=agg.sample_count,
                centroid=agg.centroid,
                median_rx_power_dbm=agg.median_rx_power_dbm,
                band=band,
                position=from_local(origin, agg.centroid),
            )
        )
    return out


def classify_los(
    bins: Sequence[GridBin], polygons: Sequence[Polygon], origin: GeodeticPoint
) -> list[GridBin]:
    """Label every bin LOS if its centroid falls in any LOS polygon.

    Polygons are projected onto the same tangent plane as the bins. With
    no polygons at all, everything is NLOS.
    """
    los_rings = [project_polygon(origin, p) for p in polygons if p.label == "LOS"]
    out = []
    for b in bins:
        if b.centroid is None:
            raise ValueError("bins must carry centroids for LOS classification")
        inside = any(point_in_ring(b.centroid.east, b.centroid.north, r) for r in los_rings)
        out.append(replace(b, los="LOS" if inside else "NLOS"))
    return out


def apply_exclusion_mask(
    bins: Sequence[GridBin], polygons: Sequence[Polygon], origin: GeodeticPoint
) -> list[GridBin]:
    """Drop bins whose centroid falls inside any mask polygon (label is
    ignored); used to cut out known-bad street segments."""
    rings = [project_polygon(origin, p) for p in polygons]
    kept = []
    for b in bins:
        if b.centroid is None:
            raise ValueError("bins must carry centroids for exclusion masking")
        if any(point_in_ring(b.centroid.east, b.centroid.north, r) for r in rings):
            continue
        kept.append(b)
    return kept


def _bin_distances(bins: Sequence[GridBin], use_2d: bool) -> np.ndarray:
    return np.array([b.distance_2d_m if use_2d else b.distance_3d_m for b in bins])


def fit_log_distance(
    bins: Sequence[GridBin],
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
    """
    if d0_m <= 0:
        raise ValueError("d0_m must be > 0")
    lo = d0_m if min_d_m is None else min_d_m
    hi = math.inf if max_d_m is None else max_d_m
    d_all = _bin_distances(bins, use_2d)
    pl_all = np.array([b.path_loss_db for b in bins])
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


def prediction_errors(
    bins: Sequence[GridBin], model_id: str, template: models.LinkGeometry
) -> ErrorStats:
    """Error statistics of one model against binned measurements.

    e_i = model(d_i) - PL_i, so a positive mean is over-prediction. All
    statistics are computed in the dB domain; sigma_e uses the (n-1)
    sample deviation and rmse is sqrt(mean(e^2)).
    """
    if not bins:
        raise ValueError("no bins to compare against")
    info = models.get_model(model_id)
    if info.evaluate is None:
        raise ValueError(f"{info.model_id} has free parameters; fit it instead")
    g = template.with_distances(_bin_distances(bins, True), _bin_distances(bins, False))
    errors = info.evaluate(g) - np.array([b.path_loss_db for b in bins])
    n = errors.size
    mu = float(errors.mean())
    sigma = float(np.std(errors, ddof=1)) if n > 1 else 0.0
    rmse = float(np.sqrt(np.mean(errors**2)))
    return ErrorStats(mu_e=mu, sigma_e=sigma, rmse=rmse, n=n)


def pair_bins_by_index(
    bins_high: Sequence[GridBin], bins_low: Sequence[GridBin]
) -> list[tuple[float, float]]:
    """Per-grid-cell (PL_high, PL_low) pairs for two bands.

    Only cells present in both tables are used; duplicate cells within one
    table are averaged first.
    """

    def _by_key(bins):
        acc: dict[tuple[int, int], list[float]] = {}
        for b in bins:
            acc.setdefault(b.index.key, []).append(b.path_loss_db)
        return {k: sum(v) / len(v) for k, v in acc.items()}

    high = _by_key(bins_high)
    low = _by_key(bins_low)
    common = sorted(set(high) & set(low))
    return [(high[k], low[k]) for k in common]


def frequency_offset(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Mean and sample sigma of per-cell path-loss differences.

    The slope between the bands is fixed at one; only the offset is
    estimated.
    """
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 paired bins, have {len(pairs)}")
    diffs = np.array([hi - lo for hi, lo in pairs])
    return float(diffs.mean()), float(np.std(diffs, ddof=1))


def shadow_fading(
    bins: Sequence[GridBin], fit: FitResult, use_2d: bool = False
) -> ShadowFading:
    """Residuals around a fitted log-distance line, with Gaussian moments
    and a 1 dB histogram (pass the same bins the fit was made from)."""
    d = _bin_distances(bins, use_2d)
    pl = np.array([b.path_loss_db for b in bins])
    residuals = pl - (fit.a0_db + 10.0 * fit.gamma * np.log10(d / fit.d0_m))
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
    reference = float(np.median([s.received_power_dbm for s in session.outdoor_reference]))
    values = sorted(s.received_power_dbm - reference for s in session.indoor_samples)
    n = len(values)
    probabilities = [(i + 1) / n for i in range(n)]
    return CdfSeries(tuple(values), tuple(probabilities))


def distance_profile(
    bins: Sequence[GridBin], step_m: float = 5.0, use_2d: bool = False
) -> list[tuple[float, float]]:
    """Median path loss per distance ring of width step_m, sorted by
    distance; returns (ring center, median PL) points."""
    if step_m <= 0:
        raise ValueError("step_m must be > 0")
    groups: dict[int, list[float]] = {}
    for b in bins:
        d = b.distance_2d_m if use_2d else b.distance_3d_m
        groups.setdefault(math.floor(d / step_m), []).append(b.path_loss_db)
    return [
        ((g + 0.5) * step_m, float(np.median(values)))
        for g, values in sorted(groups.items())
    ]


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
) -> list[GridBin]:
    dh = h_bs_m - h_ut_m
    d2d = np.sqrt(d3d**2 - dh**2)
    east = d2d * np.sin(np.radians(bearings_deg))
    north = d2d * np.cos(np.radians(bearings_deg))
    ix = np.floor(east / grid_size).astype(int)
    iy = np.floor(north / grid_size).astype(int)
    # vectorized equivalent of geo.from_local for the whole batch
    meridional, normal = earth_radii(origin.latitude)
    lat = origin.latitude + np.degrees(north / meridional)
    lon = origin.longitude + np.degrees(
        east / (normal * math.cos(math.radians(origin.latitude)))
    )
    columns = (ix, iy, pl, d3d, d2d, east, north, lat, lon)
    return [
        GridBin(
            index=GridIndex(i, j, grid_size),
            path_loss_db=p,
            distance_3d_m=d3,
            distance_2d_m=d2,
            sample_count=1,
            centroid=LocalPoint(e, n, 0.0),
            band=band,
            position=GeodeticPoint(la, lo, origin.altitude_agl),
            los=los,
        )
        for i, j, p, d3, d2, e, n, la, lo in zip(*(c.tolist() for c in columns))
    ]


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
) -> list[GridBin]:
    """Synthetic bins from a log-distance law plus Gaussian shadow fading.

    Slant distances are log-uniform over the range, bearings uniform, and
    the Gaussian term is drawn in dB. Fully reproducible from the seed.
    """
    lo, hi = distance_range_m
    if not (0 < lo < hi):
        raise ValueError(f"invalid distance range ({lo}, {hi})")
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_db < 0:
        raise ValueError("sigma_db must be >= 0")
    if lo <= abs(h_bs_m - h_ut_m):
        raise ValueError("minimum distance must exceed the antenna height difference")
    rng = np.random.default_rng(seed)
    d3d = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)
    pl = a0_db + 10.0 * gamma * np.log10(d3d / d0_m) + rng.normal(0.0, sigma_db, n)
    bearings = rng.uniform(0.0, 360.0, n)
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
) -> list[GridBin]:
    """Synthetic bins whose mean path loss follows a catalog model."""
    info = models.get_model(model_id)
    if info.evaluate is None:
        raise ValueError(f"{info.model_id} has free parameters; use synthesize_samples")
    lo, hi = distance_range_m
    if not (0 < lo < hi):
        raise ValueError(f"invalid distance range ({lo}, {hi})")
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_db < 0:
        raise ValueError("sigma_db must be >= 0")
    rng = np.random.default_rng(seed)
    d2d = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)
    d3d = np.hypot(d2d, template.h_bs_m - template.h_ut_m)
    pl = info.evaluate(template.with_distances(d2d, d3d)) + rng.normal(0.0, sigma_db, n)
    bearings = rng.uniform(0.0, 360.0, n)
    return _bins_from_arrays(
        d3d, pl, bearings, template.h_bs_m, template.h_ut_m, origin, band, grid_size, los
    )


BIN_FIELDS = ["ix", "iy", "lat", "lon", "d2d_m", "d3d_m", "pl_db", "count", "los", "band"]


def write_bins_csv(bins: Sequence[GridBin], path) -> None:
    """Write the bin table (full float precision so re-parsing is lossless)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BIN_FIELDS)
        for b in bins:
            lat = repr(b.position.latitude) if b.position else ""
            lon = repr(b.position.longitude) if b.position else ""
            writer.writerow([
                b.index.ix, b.index.iy, lat, lon,
                repr(b.distance_2d_m), repr(b.distance_3d_m), repr(b.path_loss_db),
                b.sample_count, b.los, b.band,
            ])


def read_bins_csv(path, grid_size: float = 5.0) -> list[GridBin]:
    """Read a bin table back (centroids are not part of the table).

    Rejects, with the line number, rows whose path loss is not finite or
    whose distances are not finite with 0 < d2d_m <= d3d_m.
    """
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
