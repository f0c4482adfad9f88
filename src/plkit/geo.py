"""Geodetic helpers for site-local link geometry.

Positions come in as WGS84 latitude/longitude and are projected onto a
local east/north/up tangent plane at the site, which is accurate well below
the 5 m bin resolution for typical macro-cell drive radii (a few km).
Also provides 2D/3D link distances, azimuth/elevation toward a receiver,
square-grid binning, and polygon containment for LOS classification.
``project``/``unproject``, ``link_angles``, ``hypot`` and ``points_in_ring``
take floats or numpy arrays; the point-object functions wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .columns import Rule, check_record, read_json

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

# max angular offset from the projection origin before the tangent-plane
# approximation is refused
_MAX_OFFSET_DEG = 1.0


# what a GeodeticPoint checks, and every reader of a position column
POSITION_RULES = {
    "latitude": Rule("latitude {value!r} outside [-90, 90]", -90.0, 90.0),
    "longitude": Rule("longitude {value!r} outside [-180, 180]", -180.0, 180.0),
}


@dataclass(frozen=True, slots=True)
class GeodeticPoint:
    """WGS84 position; altitude is meters above local ground level."""

    latitude: float
    longitude: float
    altitude_agl: float = 0.0

    def __post_init__(self):
        check_record(self, POSITION_RULES)


@dataclass(frozen=True, slots=True)
class LocalPoint:
    """East/north/up offset in meters from a projection origin."""

    east: float
    north: float
    up: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.east) and math.isfinite(self.north) and math.isfinite(self.up)):
            raise ValueError("local coordinates must be finite")


def check_grid_size(grid_size: float) -> None:
    """The one grid-size rule: finite and > 0 (NaN and inf are refused)."""
    if not 0.0 < grid_size < math.inf:
        raise ValueError(f"grid_size must be finite and > 0, got {grid_size!r}")


@dataclass(frozen=True, slots=True)
class GridIndex:
    """Index of one square grid cell (ix eastward, iy northward)."""

    ix: int
    iy: int
    grid_size: float = 5.0

    def __post_init__(self):
        check_grid_size(self.grid_size)

    @property
    def key(self) -> tuple[int, int]:
        return (self.ix, self.iy)


@dataclass(frozen=True)
class Polygon:
    """Simple (non-self-intersecting) geodetic ring with an LOS/NLOS label.

    The first vertex must not be repeated at the end.
    """

    vertices: tuple[GeodeticPoint, ...]
    label: str = "LOS"

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        first, last = self.vertices[0], self.vertices[-1]
        if first.latitude == last.latitude and first.longitude == last.longitude:
            raise ValueError("polygon ring must not repeat its first vertex")
        if self.label not in ("LOS", "NLOS"):
            raise ValueError(f"polygon label must be LOS or NLOS, got {self.label!r}")


def earth_radii(latitude_deg: float) -> tuple[float, float]:
    """Meridional and prime-vertical curvature radii (m) at a latitude."""
    s2 = math.sin(math.radians(latitude_deg)) ** 2
    w = math.sqrt(1.0 - WGS84_E2 * s2)
    meridional = WGS84_A * (1.0 - WGS84_E2) / w**3
    normal = WGS84_A / w
    return meridional, normal


_RAD = math.pi / 180.0  # math.radians(x) is x * _RAD, bit for bit
_DEG = 180.0 / math.pi  # math.degrees(x) is x * _DEG, as is np.degrees


def _wrap180(deg):
    """Angle(s) in degrees wrapped into [-180, 180); values already inside
    come back unchanged, bit for bit. Works on floats and arrays alike."""
    return deg - 360.0 * (deg >= 180.0) + 360.0 * (deg < -180.0)


def project(origin: GeodeticPoint, lat, lon):
    """(east, north) in meters of latitude/longitude on the tangent plane at
    ``origin``: the one projection formula, for floats or numpy arrays.

    Equirectangular projection with the WGS84 curvature radii evaluated at
    the origin latitude; the longitude difference is wrapped into
    [-180, 180) so points across the antimeridian land next to the origin.
    Only valid near the origin: refused beyond 1 degree of
    latitude/longitude offset (the first offending point is named).
    """
    dlat = lat - origin.latitude
    dlon = _wrap180(lon - origin.longitude)
    far = (abs(dlat) >= _MAX_OFFSET_DEG) | (abs(dlon) >= _MAX_OFFSET_DEG)
    # np.any would cost a microsecond per float; keep the scalar path pure math
    if far.any() if isinstance(far, np.ndarray) else far:
        k = np.flatnonzero(far)[0]
        raise ValueError(
            f"point ({np.ravel(lat)[k]}, {np.ravel(lon)[k]}) too far from origin "
            f"({origin.latitude}, {origin.longitude}) for tangent-plane projection"
        )
    meridional, normal = earth_radii(origin.latitude)
    north = meridional * (dlat * _RAD)
    east = normal * math.cos(origin.latitude * _RAD) * (dlon * _RAD)
    return east, north


def unproject(origin: GeodeticPoint, east, north):
    """Inverse of :func:`project` for the same origin: (latitude,
    longitude) of east/north offsets in meters, floats or numpy arrays.
    Longitudes are wrapped into [-180, 180)."""
    meridional, normal = earth_radii(origin.latitude)
    lat = origin.latitude + (north / meridional) * _DEG
    lon = origin.longitude + (east / (normal * math.cos(origin.latitude * _RAD))) * _DEG
    return lat, _wrap180(lon)


def to_local(origin: GeodeticPoint, p: GeodeticPoint) -> LocalPoint:
    """Project a geodetic point onto the tangent plane at ``origin`` (see
    :func:`project`); up is the altitude difference."""
    east, north = project(origin, p.latitude, p.longitude)
    return LocalPoint(east, north, p.altitude_agl - origin.altitude_agl)


def from_local(origin: GeodeticPoint, p: LocalPoint) -> GeodeticPoint:
    """Inverse of :func:`to_local` for the same origin."""
    lat, lon = unproject(origin, p.east, p.north)
    return GeodeticPoint(lat, lon, origin.altitude_agl + p.up)


def hypot(x, y):
    """math.hypot of floats, or elementwise of numpy arrays."""
    return _elementwise(math.hypot, x, y)


def _elementwise(fn, x, y):
    # numpy's hypot and arctan2 differ from libm's in the last bit on a few
    # percent of inputs; mapping the math function keeps array results
    # bitwise equal to scalar ones, and bin tables byte-stable
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return fn(x, y)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    flat = map(fn, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(flat, dtype=float, count=x.size).reshape(x.shape)


def distance_2d(a: LocalPoint, b: LocalPoint) -> float:
    """Horizontal (ground) distance in meters."""
    return math.hypot(b.east - a.east, b.north - a.north)


def distance_3d(
    a: LocalPoint, b: LocalPoint, height_a: float = 0.0, height_b: float = 0.0
) -> float:
    """Slant distance in meters including antenna heights above each point.

    Heights are added to the points' up coordinates, so ``a`` at height 10
    and ``b`` at height 10 on the same spot are 0 m apart.
    """
    if height_a < 0 or height_b < 0:
        raise ValueError("antenna heights must be >= 0")
    dz = (b.up + height_b) - (a.up + height_a)
    return math.hypot(distance_2d(a, b), dz)


def azimuth_elevation(
    bs: LocalPoint, ue: LocalPoint, bs_height: float = 0.0, ue_height: float = 0.0
) -> tuple[float, float]:
    """Angles from the BS antenna toward the UE antenna.

    Returns (azimuth, elevation) in degrees: azimuth clockwise from true
    north in [0, 360), elevation in [-90, 90] and negative when the UE sits
    below the BS antenna.
    """
    dz = (ue.up + ue_height) - (bs.up + bs_height)
    horiz, azimuth, elevation = link_angles(ue.east - bs.east, ue.north - bs.north, dz)
    if horiz == 0.0 and dz == 0.0:
        raise ValueError("azimuth/elevation undefined for coincident points")
    return azimuth, elevation


def link_angles(de, dn, dz):
    """Ground distance, azimuth and elevation (degrees, as in
    :func:`azimuth_elevation`) of east/north/up offsets from the BS
    antenna; floats or equal-shape numpy arrays."""
    horiz = hypot(de, dn)
    azimuth = _elementwise(math.atan2, de, dn) * _DEG % 360.0
    elevation = _elementwise(math.atan2, dz, horiz) * _DEG
    return horiz, azimuth, elevation


def bin_index(p: LocalPoint, grid_size: float = 5.0) -> GridIndex:
    """Square-grid cell containing a local point (floor convention)."""
    check_grid_size(grid_size)
    return GridIndex(math.floor(p.east / grid_size), math.floor(p.north / grid_size), grid_size)


def _on_segment(x, y, x1, y1, x2, y2, eps=1e-9):
    seg = math.hypot(x2 - x1, y2 - y1)
    if seg == 0.0:
        return hypot(x - x1, y - y1) <= eps
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
    return (abs(cross) / seg <= eps) & (-eps * seg <= dot) & (dot <= seg * seg + eps * seg)


def points_in_ring(x, y, ring) -> np.ndarray:
    """Even-odd (ray crossing) containment test on planar coordinates, one
    boolean per point (x[k], y[k]) of equal-shape arrays.

    ``ring`` is a sequence of (x, y) vertices without the closing repeat.
    Points on the boundary (within 1e-9 of an edge) count as inside. Each
    edge is tested at once against the points in the ring's bounding box
    widened by 1e-6; a point farther out is neither inside nor on the
    boundary, and the crossings of its ray pair up.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    vertices = [(float(vx), float(vy)) for vx, vy in ring]
    if len(vertices) < 3:
        raise ValueError("ring needs at least 3 vertices")
    lo, hi = np.min(vertices, axis=0) - 1e-6, np.max(vertices, axis=0) + 1e-6
    # "not outside": where a vertex is NaN, so are the bounds, and every point is tested
    near = ~((x < lo[0]) | (x > hi[0]) | (y < lo[1]) | (y > hi[1]))
    x, y = x[near], y[near]
    on_boundary = np.zeros(x.shape, dtype=bool)
    odd = np.zeros_like(on_boundary)
    for (x1, y1), (x2, y2) in zip(vertices[-1:] + vertices[:-1], vertices):
        on_boundary |= _on_segment(x, y, x1, y1, x2, y2)
        if y1 != y2:
            x_cross = (x1 - x2) * (y - y2) / (y1 - y2) + x2
            odd ^= ((y2 > y) != (y1 > y)) & (x < x_cross)
    inside = np.zeros(near.shape, dtype=bool)
    inside[near] = on_boundary | odd
    return inside


def point_in_ring(x: float, y: float, ring) -> bool:
    """:func:`points_in_ring` for a single point."""
    return bool(points_in_ring(x, y, ring))


def project_polygon(origin: GeodeticPoint, poly: Polygon) -> list[tuple[float, float]]:
    """Polygon vertices as (east, north) pairs on the tangent plane at origin."""
    return [(lp.east, lp.north) for lp in (to_local(origin, v) for v in poly.vertices)]


def point_in_polygon(p: GeodeticPoint, poly: Polygon) -> bool:
    """Geodetic containment test; projects everything onto one tangent plane."""
    origin = poly.vertices[0]
    ring = project_polygon(origin, poly)
    lp = to_local(origin, p)
    return point_in_ring(lp.east, lp.north, ring)


def _is_position(p) -> bool:
    """A GeoJSON position: a list of at least two numbers (not booleans)."""
    return isinstance(p, list) and len(p) >= 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)


def load_polygons(path) -> list[Polygon]:
    """Read LOS/NLOS polygons from a GeoJSON FeatureCollection.

    Each feature must be a Polygon with one (outer) ring; holes and
    MultiPolygons are rejected rather than ignored. The feature property
    ``los``, true or false, selects the label (missing defaults to LOS).
    """
    collection = "polygon file must be a GeoJSON FeatureCollection"
    data = read_json(path, collection)
    if data.get("type") != "FeatureCollection":
        raise ValueError(f"{path}: {collection}")
    features = data.get("features", [])
    if not isinstance(features, list):
        raise ValueError(f"{path}: 'features' must be a list")
    polygons = []
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ValueError(f"feature {i}: must be a GeoJSON Feature object")
        geom = feature.get("geometry") or {}
        properties = feature.get("properties") or {}
        if not (isinstance(geom, dict) and isinstance(properties, dict)):
            raise ValueError(f"feature {i}: geometry and properties must be objects")
        if geom.get("type") == "MultiPolygon":
            raise ValueError(f"feature {i}: MultiPolygon is not supported; "
                             "split it into Polygon features")
        if geom.get("type") != "Polygon":
            raise ValueError(f"feature {i}: geometry type must be Polygon")
        rings = geom.get("coordinates") or []
        if not rings:
            raise ValueError(f"feature {i}: polygon has no rings")
        if isinstance(rings, list) and len(rings) > 1:
            raise ValueError(f"feature {i}: interior rings (holes) are not supported")
        outer = rings[0] if isinstance(rings, list) else None
        if not isinstance(outer, list) or not all(map(_is_position, outer)):
            raise ValueError(f"feature {i}: coordinates must be one ring of [lon, lat] numbers")
        # GeoJSON rings repeat the first coordinate at the end
        if len(outer) >= 2 and outer[0] == outer[-1]:
            outer = outer[:-1]
        vertices = tuple(GeodeticPoint(lat, lon) for lon, lat, *_ in outer)
        los = properties.get("los", True)
        if not isinstance(los, bool):
            raise ValueError(f"feature {i}: property 'los' must be true or false, got {los!r}")
        polygons.append(Polygon(vertices, "LOS" if los else "NLOS"))
    return polygons
