"""Seeded workloads for the plkit benchmark.

A workload is three things: a generator that writes the input files from a
seed, the chain of ``plkit`` command lines one pass runs, and the checks made
on the outputs after every pass. Generators use only numpy and plkit's public
helpers; plkit itself receives nothing but the generated files.

Sizes are fixed per workload (``scale`` exists only for the smoke test), so
a pass does the same work on every seed and ``wall_s`` is also a throughput
at the stated size.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from plkit.analysis import synthesize_from_model, write_bins_csv
from plkit.antenna import envelope, isotropic, save_pattern_csv, synthetic_aas_beamset
from plkit.geo import GeodeticPoint, LocalPoint, from_local
from plkit.ingest import MeasurementSample, SiteConfig, save_site_config, write_samples_csv
from plkit.models import LinkGeometry, comparable_models

SITE_ORIGIN = GeodeticPoint(47.37, 8.54)
H_BS_M = 25.0
H_UT_M = 1.5
GRID_M = 5.0
D0_M = 100.0  # the fit's default reference and minimum distance


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, float, Path], dict]
    chain: Callable[[Path, Path], list[list[str]]]
    check: Callable[[Path, dict, list[str]], list[tuple[str, bool, str]]]


def _scaled(n: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(n * scale)))


def _latlon(east: float, north: float) -> tuple[float, float]:
    p = from_local(SITE_ORIGIN, LocalPoint(float(east), float(north)))
    return p.latitude, p.longitude


def _save_site(path: Path, boresight_deg: float, tx_power_dbm: float, freq_ghz: float) -> None:
    save_site_config(
        SiteConfig(
            site_position=SITE_ORIGIN,
            antenna_height_agl_m=H_BS_M,
            boresight_azimuth_deg=boresight_deg,
            tx_power_dbm=tx_power_dbm,
            carrier_freq_ghz=freq_ghz,
            pattern_ref="pattern.csv",
            rx_gain_dbi=0.0,
            ue_height_m=H_UT_M,
        ),
        path,
    )


def _save_polygons(path: Path, rings: list[list[tuple[float, float]]]) -> None:
    """GeoJSON FeatureCollection of LOS polygons given in local metres."""
    features = []
    for ring in rings:
        coords = [list(reversed(_latlon(e, n))) for e, n in ring]
        coords.append(coords[0])
        features.append({
            "type": "Feature",
            "properties": {"los": True},
            "geometry": {"type": "Polygon", "coordinates": [coords]},
        })
    doc = {"type": "FeatureCollection", "features": features}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _bin_summary(stdout: str) -> dict:
    """Row accounting from the summary line ``bin`` prints."""
    m = re.search(r"samples: (\d+) \(rows (\d+), skipped (\d+), filtered (\d+)\)", stdout)
    if m is None:
        raise ValueError("bin printed no row accounting line")
    return dict(zip(("samples", "rows", "skipped", "filtered"), map(int, m.groups())))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# drive_survey, testbed leg
#
# The bin stage does almost all of the work and models never runs. The log
# is wide (48 beam columns, a few filled per row), bins are dense (several
# samples each), ~40 polygons make LOS labelling point-in-ring heavy, and
# one stretch passes the mast closely enough to clamp the pattern's
# elevation. Received power follows a per-label log-distance law plus the
# pattern gain, so both fits have a known answer.
#
# The street layout, polygons and mask come from a fixed layout seed, so
# every run does the same amount of LOS-labelling work; the run's seed draws
# the measurement: the jitter along the streets, shadowing, which beams are
# heard and which rows are empty.

DRIVE_ROWS = 15000
DRIVE_BEAMS = 48
DRIVE_POLYGONS = 40
DRIVE_MASKS = 3
DRIVE_EMPTY_SHARE = 0.03
DRIVE_STEP_M = 1.25
DRIVE_BORESIGHT_DEG = 30.0
DRIVE_TX_DBM = 30.0
# (a0 at d0 [dB], exponent, shadow sigma [dB]) per label
DRIVE_LAW = {"LOS": (79.0, 2.1, 4.0), "NLOS": (95.0, 3.5, 6.0)}
DRIVE_GAMMA_TOL = 0.15
DRIVE_LAYOUT_SEED = 20210514


def _drive_route(layout, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned street segments sampled every 1.25 m; the first one
    passes 20 m from the mast. Returns the points and, per point, the
    index of the axis across the street."""
    xs = np.arange(-150.0, 150.0, DRIVE_STEP_M)
    parts = [np.column_stack([xs, np.full(xs.size, 20.0)])]
    across = [np.ones(xs.size, dtype=int)]
    total = xs.size
    while total < n:
        r = layout.uniform(100.0, 1100.0)
        phi = layout.uniform(0.0, 2.0 * math.pi)
        axis = int(layout.integers(2))
        sign = 1.0 if layout.random() < 0.5 else -1.0
        s = np.arange(0.0, layout.uniform(150.0, 450.0), DRIVE_STEP_M)
        seg = np.tile([r * math.sin(phi), r * math.cos(phi)], (s.size, 1))
        seg[:, axis] += sign * s
        radius = np.hypot(seg[:, 0], seg[:, 1])
        seg = seg[(radius > 60.0) & (radius < 1200.0)]
        parts.append(seg)
        across.append(np.full(len(seg), 1 - axis))
        total += len(seg)
    return np.concatenate(parts)[:n], np.concatenate(across)[:n]


def _plus_ring(cx, cy, a, b) -> list[tuple[float, float]]:
    """12-vertex plus shape: the union of a 2a x 2b and a 2b x 2a box."""
    return [
        (cx - b, cy - a), (cx + b, cy - a), (cx + b, cy - b), (cx + a, cy - b),
        (cx + a, cy + b), (cx + b, cy + b), (cx + b, cy + a), (cx - b, cy + a),
        (cx - b, cy + b), (cx - a, cy + b), (cx - a, cy - b), (cx - b, cy - b),
    ]


def _pattern_gain(pattern, azimuth_deg, elevation_deg, boresight_deg):
    """Bilinear gain with elevation clamping, vectorized; independent of
    the code under test so the fits have a known answer."""
    az_grid, el_grid, g = pattern.azimuth_deg, pattern.elevation_deg, pattern.gain_dbi
    el = np.clip(elevation_deg, el_grid[0], el_grid[-1])
    t = ((azimuth_deg - boresight_deg - az_grid[0]) % 360.0) / (az_grid[1] - az_grid[0])
    i0 = np.minimum(t.astype(int), az_grid.size - 1)
    fa = t - i0
    i1 = (i0 + 1) % az_grid.size
    u = (el - el_grid[0]) / (el_grid[1] - el_grid[0])
    j0 = np.minimum(u.astype(int), el_grid.size - 2)
    fe = np.clip(u - j0, 0.0, 1.0)
    j1 = j0 + 1
    return ((1 - fa) * (1 - fe) * g[i0, j0] + fa * (1 - fe) * g[i1, j0]
            + (1 - fa) * fe * g[i0, j1] + fa * fe * g[i1, j1])


def generate_testbed(seed: int, scale: float, out: Path) -> dict:
    layout = np.random.default_rng(DRIVE_LAYOUT_SEED)
    rng = np.random.default_rng(seed)
    n = _scaled(DRIVE_ROWS, scale, 6000)
    route, across = _drive_route(layout, n)
    pluses = []
    for k in layout.choice(n, DRIVE_POLYGONS, replace=False):
        cx, cy = np.round(route[k] / GRID_M) * GRID_M
        a = GRID_M * int(layout.integers(8, 25))
        b = GRID_M * int(layout.integers(2, int(a // GRID_M) - 2))
        pluses.append((cx, cy, a, b))
    masks = []
    for k in layout.choice(n, DRIVE_MASKS, replace=False):
        cx, cy = np.round(route[k] / GRID_M) * GRID_M
        h = GRID_M * int(layout.integers(4, 9))
        masks.append([(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)])
    route[np.arange(n), across] += rng.normal(0.0, 0.7, n)
    x, y = route[:, 0], route[:, 1]

    # Polygon edges lie on grid lines, so a whole cell is in or out and the
    # label of each sample is the label the pipeline gives its bin.
    cx_cell = (np.floor(x / GRID_M) + 0.5) * GRID_M
    cy_cell = (np.floor(y / GRID_M) + 0.5) * GRID_M
    los = np.zeros(n, dtype=bool)
    for px, py, a, b in pluses:
        dx, dy = np.abs(cx_cell - px), np.abs(cy_cell - py)
        los |= ((dx <= a) & (dy <= b)) | ((dx <= b) & (dy <= a))

    pattern = envelope(synthetic_aas_beamset())
    d2d = np.hypot(x, y)
    d3d = np.hypot(d2d, H_BS_M - H_UT_M)
    azimuth = np.degrees(np.arctan2(x, y)) % 360.0
    elevation = np.degrees(np.arctan2(H_UT_M - H_BS_M, d2d))
    gain = _pattern_gain(pattern, azimuth, elevation, DRIVE_BORESIGHT_DEG)
    a0 = np.where(los, DRIVE_LAW["LOS"][0], DRIVE_LAW["NLOS"][0])
    gamma = np.where(los, DRIVE_LAW["LOS"][1], DRIVE_LAW["NLOS"][1])
    sigma = np.where(los, DRIVE_LAW["LOS"][2], DRIVE_LAW["NLOS"][2])
    path_loss = a0 + 10.0 * gamma * np.log10(d3d / D0_M) + rng.normal(0.0, 1.0, n) * sigma
    rx = DRIVE_TX_DBM + gain - path_loss

    empty = rng.random(n) < DRIVE_EMPTY_SHARE
    n_beams = rng.integers(2, 6, n)
    beam_order = np.argsort(rng.random((n, DRIVE_BEAMS)), axis=1)
    weaker = rx[:, None] - rng.uniform(0.5, 20.0, (n, DRIVE_BEAMS))

    out.mkdir(parents=True, exist_ok=True)
    save_pattern_csv(pattern, out / "pattern.csv")
    _save_site(out / "site.json", DRIVE_BORESIGHT_DEG, DRIVE_TX_DBM, 3.5)
    _save_polygons(out / "los.geojson", [_plus_ring(*p) for p in pluses])
    _save_polygons(out / "mask.geojson", masks)
    with open(out / "testbed_log.csv", "w", newline="", encoding="utf-8") as fh:
        beam_cols = ",".join(f"mrsrp_{i:02d}" for i in range(DRIVE_BEAMS))
        fh.write(f"timestamp_ms,lat,lon,{beam_cols}\n")
        for i in range(n):
            cells = [""] * DRIVE_BEAMS
            if not empty[i]:
                chosen = beam_order[i, : n_beams[i]]
                cells[chosen[0]] = f"{rx[i]:.2f}"
                for beam in chosen[1:]:
                    cells[beam] = f"{weaker[i, beam]:.2f}"
            lat, lon = _latlon(x[i], y[i])
            fh.write(f"{1000 * (i + 1)},{lat!r},{lon!r},{','.join(cells)}\n")
    return {
        "rows": n,
        "empty_rows": int(empty.sum()),
        "gamma_los": DRIVE_LAW["LOS"][1],
        "gamma_nlos": DRIVE_LAW["NLOS"][1],
        "gamma_tol": DRIVE_GAMMA_TOL,
    }


def chain_testbed(inp: Path, out: Path) -> list[list[str]]:
    bins = str(out / "bins.csv")
    return [
        ["bin", str(inp / "testbed_log.csv"), "--site", str(inp / "site.json"),
         "--polygons", str(inp / "los.geojson"),
         "--exclusion-mask", str(inp / "mask.geojson"), "--out", bins],
        ["fit", bins, "--split", "los", "--out", str(out / "fit_los.json")],
        ["fit", bins, "--split", "nlos", "--out", str(out / "fit_nlos.json")],
    ]


def check_testbed(out: Path, expected: dict, stdout: list[str]):
    acc = _bin_summary(stdout[0])
    counts = [int(r["count"]) for r in _read_csv(out / "bins.csv")]
    results = [
        ("rows == samples + skipped",
         acc["rows"] == acc["samples"] + acc["skipped"] and acc["filtered"] == 0,
         f"{acc}"),
        ("rows and skipped match the generator",
         acc["rows"] == expected["rows"] and acc["skipped"] == expected["empty_rows"],
         f"rows {acc['rows']}/{expected['rows']}, "
         f"skipped {acc['skipped']}/{expected['empty_rows']}"),
        ("every bin count >= 1", bool(counts) and min(counts) >= 1, f"{len(counts)} bins"),
    ]
    for label in ("los", "nlos"):
        got = _read_json(out / f"fit_{label}.json")["gamma"]
        want = expected[f"gamma_{label}"]
        results.append((
            f"{label.upper()} fit recovers the exponent",
            abs(got - want) <= expected["gamma_tol"],
            f"gamma {got:.3f}, generated {want}, tolerance {expected['gamma_tol']}",
        ))
    return results


# ---------------------------------------------------------------------------
# catalog_compare
#
# Why: the time goes to models, analysis.prediction_errors and the per-bin
# validity loop in cli.compare, while ingest, geo and antenna sit idle. The
# table is drawn from TR38901_UMA_NLOS with 6 dB shadowing, so that model
# must rank first with zero mean error and a 6 dB sigma.

CATALOG_BINS = 6000
CATALOG_MODEL = "TR38901_UMA_NLOS"
CATALOG_SIGMA_DB = 6.0
CATALOG_FREQ_GHZ = 3.55  # compare's default carrier, as are the heights
CATALOG_RANGE_M = (35.0, 3000.0)
CATALOG_CURVE_POINTS = 200  # compare's default
# UMa NLOS is 13.54 + 39.08 log10(d3d) + 20 log10(f) wherever it exceeds LOS
CATALOG_GAMMA = 3.908
CATALOG_A0_DB = 13.54 + 39.08 * 2.0 + 20.0 * math.log10(CATALOG_FREQ_GHZ)


def generate_catalog_compare(seed: int, scale: float, out: Path) -> dict:
    template = LinkGeometry.at(CATALOG_RANGE_M[0], CATALOG_FREQ_GHZ, H_BS_M, H_UT_M)
    bins = synthesize_from_model(
        CATALOG_MODEL, template, CATALOG_SIGMA_DB, _scaled(CATALOG_BINS, scale, 1500),
        CATALOG_RANGE_M, seed, origin=SITE_ORIGIN,
    )
    out.mkdir(parents=True, exist_ok=True)
    write_bins_csv(bins, out / "bins.csv")
    return {"bins": len(bins), "models": len(comparable_models())}


def chain_catalog_compare(inp: Path, out: Path) -> list[list[str]]:
    return [
        ["compare", str(inp / "bins.csv"), "--out", str(out / "compare")],
        ["fit", str(inp / "bins.csv"), "--out", str(out / "fit.json")],
    ]


def check_catalog_compare(out: Path, expected: dict, stdout: list[str]):
    stats = _read_json(out / "compare" / "errors.json")
    best = stats[0]
    worst_identity = max(
        abs(e["rmse"] ** 2 - (e["mu_e"] ** 2 + e["sigma_e"] ** 2 * (e["n"] - 1) / e["n"]))
        for e in stats
    )
    curves = _read_csv(out / "compare" / "model_curves.csv")
    fit = _read_json(out / "fit.json")
    want_rows = expected["models"] * CATALOG_CURVE_POINTS
    return [
        (f"{CATALOG_MODEL} ranks first", best["model"] == CATALOG_MODEL,
         f"first: {best['model']} rmse {best['rmse']:.3f}"),
        ("its mu_e ~ 0", abs(best["mu_e"]) <= 0.5, f"mu_e {best['mu_e']:.3f}, tolerance 0.5 dB"),
        ("its sigma_e ~ 6 dB", abs(best["sigma_e"] - CATALOG_SIGMA_DB) <= 0.4,
         f"sigma_e {best['sigma_e']:.3f}, tolerance 0.4 dB"),
        ("every model row compared all bins",
         len(stats) == expected["models"] and all(e["n"] == expected["bins"] for e in stats),
         f"{len(stats)} models"),
        ("rmse^2 = mu_e^2 + sigma_e^2 (n-1)/n", worst_identity <= 1e-9,
         f"worst deviation {worst_identity:.3g}"),
        ("curves file has models x points rows", len(curves) == want_rows,
         f"{len(curves)} rows, want {want_rows}"),
        ("fit recovers the UMa NLOS law",
         abs(fit["gamma"] - CATALOG_GAMMA) <= 0.1 and abs(fit["a0"] - CATALOG_A0_DB) <= 0.6,
         f"gamma {fit['gamma']:.3f} (want {CATALOG_GAMMA}), "
         f"a0 {fit['a0']:.2f} (want {CATALOG_A0_DB:.2f})"),
    ]


# ---------------------------------------------------------------------------
# drive_survey, scanner leg
#
# The same positions logged at 3.5 GHz and 800 MHz by a scanner that
# reports 6 cells, 1 of interest: narrow rows that are mostly filtered, and
# ~1 sample per bin, so ingest and aggregate_bins are used unlike in the
# testbed leg. offset re-reads both bin tables, o2i reads sample CSVs. A
# columnar change tuned to the testbed leg that slows these paths shows here.
# Shadowing is shared by the bands, so the offset is 20 log10(3.5/0.8).

MULTI_POSITIONS = 7000
MULTI_CELLS = 6
MULTI_HIGH = (3.5, "3.5GHz", 301)  # (GHz, band label, first cell id)
MULTI_LOW = (0.8, "800MHz", 101)
MULTI_TX_DBM = 43.0
MULTI_OFFSET_DB = 20.0 * math.log10(MULTI_HIGH[0] / MULTI_LOW[0])
O2I_BUILDINGS = 4
O2I_FLOORS = 2
O2I_INDOOR = 1000
O2I_OUTDOOR = 400
O2I_TOL_DB = 2.5


def _write_scanner_log(path: Path, lat, lon, rx_interest, rng, first_cell: int) -> None:
    n = len(lat)
    others = rng.uniform(-125.0, -70.0, (n, MULTI_CELLS))
    order = np.argsort(rng.random((n, MULTI_CELLS)), axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp_ms,lat,lon,cell_id,rsrp_dbm\n")
        ts = 0
        for i in range(n):
            for k in order[i]:
                ts += 100
                power = rx_interest[i] if k == 0 else others[i, k]
                fh.write(f"{ts},{lat[i]!r},{lon[i]!r},{first_cell + k},{float(power)!r}\n")


def generate_scanner(seed: int, scale: float, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    n = _scaled(MULTI_POSITIONS, scale, 500)
    r = np.sqrt(rng.uniform(100.0**2, 2000.0**2, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    east, north = r * np.sin(phi), r * np.cos(phi)
    d3d = np.hypot(r, H_BS_M - H_UT_M)
    shadow = rng.normal(0.0, 5.0, n)
    latlon = np.array([_latlon(e, nn) for e, nn in zip(east, north)])
    lat, lon = latlon[:, 0].tolist(), latlon[:, 1].tolist()

    out.mkdir(parents=True, exist_ok=True)
    save_pattern_csv(isotropic(0.0), out / "pattern.csv")
    _save_site(out / "site.json", 0.0, MULTI_TX_DBM, MULTI_HIGH[0])
    for name, (freq, _, first_cell) in (("high", MULTI_HIGH), ("low", MULTI_LOW)):
        path_loss = 32.45 + 20.0 * math.log10(freq) + 32.0 * np.log10(d3d) + shadow
        _write_scanner_log(out / f"scanner_{name}.csv", lat, lon,
                           MULTI_TX_DBM - path_loss, rng, first_cell)

    sessions, losses = [], {}
    for b in range(O2I_BUILDINGS):
        for floor in range(O2I_FLOORS):
            building = f"B{b + 1:02d}"
            loss = 10.0 + 2.5 * (b * O2I_FLOORS + floor)
            bx, by = rng.uniform(-800.0, 800.0, 2)
            n_in = _scaled(O2I_INDOOR, scale, 400)
            n_out = _scaled(O2I_OUTDOOR, scale, 150)
            outdoor = rng.normal(-75.0, 4.0, n_out)
            indoor = -75.0 - loss + rng.normal(0.0, 5.0, n_in)
            files = {}
            for kind, powers in (("indoor", indoor), ("outdoor", outdoor)):
                samples = []
                for i, p in enumerate(powers):
                    plat, plon = _latlon(bx + rng.uniform(-20, 20), by + rng.uniform(-20, 20))
                    samples.append(MeasurementSample(
                        timestamp_ms=1000 * (i + 1),
                        position=GeodeticPoint(plat, plon),
                        received_power_dbm=float(p),
                        band=MULTI_HIGH[1],
                        source="SCANNER",
                        cell_id=MULTI_HIGH[2],
                    ))
                files[kind] = f"{kind}_{building}_f{floor}.csv"
                write_samples_csv(samples, out / files[kind])
            sessions.append({"building_id": building, "floor": floor,
                             "indoor_log": files["indoor"], "outdoor_log": files["outdoor"]})
            losses[f"o2i_{building}_floor{floor}.csv"] = loss
    (out / "manifest.json").write_text(json.dumps({"sessions": sessions}, indent=2) + "\n",
                                       encoding="utf-8")
    return {"positions": n, "losses": losses}


def chain_scanner(inp: Path, out: Path) -> list[list[str]]:
    site = str(inp / "site.json")
    return [
        ["bin", str(inp / "scanner_high.csv"), "--source", "scanner",
         "--cells", str(MULTI_HIGH[2]), "--band", MULTI_HIGH[1],
         "--site", site, "--out", str(out / "bins_high.csv")],
        ["bin", str(inp / "scanner_low.csv"), "--source", "scanner",
         "--cells", str(MULTI_LOW[2]), "--band", MULTI_LOW[1],
         "--site", site, "--out", str(out / "bins_low.csv")],
        ["offset", str(out / "bins_high.csv"), str(out / "bins_low.csv"),
         "--out", str(out / "offset.json")],
        ["o2i", str(inp / "manifest.json"), "--out", str(out / "o2i")],
    ]


def check_scanner(out: Path, expected: dict, stdout: list[str]):
    results = []
    for label, text in (("high", stdout[0]), ("low", stdout[1])):
        acc = _bin_summary(text)
        results.append((
            f"{label} band: filtered is 5/6 of the rows",
            acc["rows"] == MULTI_CELLS * expected["positions"]
            and acc["filtered"] * MULTI_CELLS == acc["rows"] * (MULTI_CELLS - 1)
            and acc["rows"] == acc["samples"] + acc["skipped"] + acc["filtered"],
            f"{acc}",
        ))
    offset = _read_json(out / "offset.json")["offset_db"]
    results.append(("offset_db = 20 log10(3.5/0.8)", abs(offset - MULTI_OFFSET_DB) <= 0.01,
                    f"offset {offset:.4f} dB, want {MULTI_OFFSET_DB:.4f}"))
    for name, loss in sorted(expected["losses"].items()):
        rows = _read_csv(out / "o2i" / name)
        values = [float(r["loss_db"]) for r in rows]
        median = values[len(values) // 2]
        results.append((
            f"{name}: CDF ends at 1, median near -{loss:g} dB",
            float(rows[-1]["probability"]) == 1.0 and abs(median + loss) <= O2I_TOL_DB,
            f"median {median:.2f} dB, tolerance {O2I_TOL_DB} dB",
        ))
    return results


# ---------------------------------------------------------------------------
# drive_survey: both legs in one pass, each leg's inputs in its own directory.

TESTBED_COMMANDS = 3  # bin, fit los, fit nlos; the scanner leg's follow


def generate_drive_survey(seed: int, scale: float, out: Path) -> dict:
    return {"testbed": generate_testbed(seed, scale, out / "testbed"),
            "scanner": generate_scanner(seed, scale, out / "scanner")}


def chain_drive_survey(inp: Path, out: Path) -> list[list[str]]:
    return chain_testbed(inp / "testbed", out) + chain_scanner(inp / "scanner", out)


def check_drive_survey(out: Path, expected: dict, stdout: list[str]):
    return (check_testbed(out, expected["testbed"], stdout[:TESTBED_COMMANDS])
            + check_scanner(out, expected["scanner"], stdout[TESTBED_COMMANDS:]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "drive_survey",
            "a 48-beam testbed log with dense bins and 40 LOS polygons, then two scanner logs "
            "with sparse bins, offset and o2i: the bin stage does the work, models never runs",
            generate_drive_survey, chain_drive_survey, check_drive_survey,
        ),
        Workload(
            "catalog_compare",
            "a bin table drawn from TR38901_UMA_NLOS compared against all 18 models: "
            "models, prediction_errors and the validity loop do the work, the bin stage is idle",
            generate_catalog_compare, chain_catalog_compare, check_catalog_compare,
        ),
    )
}
