"""Command-line pipeline driver.

Chains ingest -> bin -> classify -> fit -> compare and writes plot-ready
tables (CSV) and result documents (JSON). A synth command generates
reproducible synthetic inputs so the whole pipeline can be exercised
without proprietary drive logs.

Commands: synth, bin, fit, compare, offset, o2i, models. A JSON config
file can pre-set most options; explicit flags win over the config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis, antenna, ingest, models
from .columns import read_json, write_csv
from .geo import GeodeticPoint, load_polygons


def _number(value) -> bool:
    """A JSON number, or a string ``float`` reads as a finite one (as in a site config)."""
    try:
        return type(value) in (int, float) or isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        return False


# key: (what its value must be, whether a value is that)
_PATH, _NUMBER = ("a path string", lambda v: isinstance(v, str)), ("a number", _number)
CONFIG_KEYS = {
    "site": _PATH, "pattern": _PATH, "polygons": _PATH, "exclusion_mask": _PATH,
    "grid_size": _NUMBER, "d0": _NUMBER, "min_d": _NUMBER, "max_d": _NUMBER,
    "models": ("a string or a list of strings", lambda v: isinstance(v, str) or (
        isinstance(v, list) and all(isinstance(m, str) for m in v))),
    "output_dir": _PATH, "seed": _NUMBER,
}


def _load_config(path) -> dict:
    data = read_json(path, "config must be a JSON object")
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        kind, check = CONFIG_KEYS[key]
        if not check(value):
            raise ValueError(f"{path}: config key {key!r} must be {kind}, got {value!r}")
    return data


def _opt(args, name, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "_config", None) or {}
    if name in config:
        return config[name]
    return default


def _geometry_from_args(args, bins=None) -> models.LinkGeometry:
    """Link-geometry template for model evaluation, from --site or flags."""
    freq = args.freq
    h_bs = args.h_bs
    h_ut = args.h_ut
    site_path = _opt(args, "site")
    if site_path:
        site = ingest.load_site_config(site_path)
        freq = freq if freq is not None else site.carrier_freq_ghz
        h_bs = h_bs if h_bs is not None else site.antenna_height_agl_m
        h_ut = h_ut if h_ut is not None else site.ue_height_m
    freq = freq if freq is not None else 3.55
    h_bs = h_bs if h_bs is not None else 25.0
    h_ut = h_ut if h_ut is not None else 1.5
    d_ref = bins.d2d_m[0].item() if bins is not None and len(bins) else 1000.0
    return models.LinkGeometry.at(
        d_ref, freq, h_bs, h_ut,
        avg_building_height_m=args.avg_building_height if args.avg_building_height is not None else 5.0,
        avg_street_width_m=args.avg_street_width if args.avg_street_width is not None else 20.0,
    )


def cmd_models(args) -> int:
    catalog = models.catalog_json()
    if args.out:
        Path(args.out).write_text(json.dumps(catalog, indent=2, allow_nan=False) + "\n", encoding="utf-8")
        print(f"wrote {args.out} ({len(catalog)} models)")
    else:
        for entry in catalog:
            sigma = entry["published_sigma_db"]
            print(
                f"{entry['id']:<18} {entry['condition']:<5} "
                f"f={entry['freq_range_ghz']} GHz d={entry['dist_range_m']} m "
                f"sigma={'-' if sigma is None else sigma}"
            )
    return 0


def cmd_synth(args) -> int:
    seed = int(_opt(args, "seed", 0))
    grid_size = float(_opt(args, "grid_size", 5.0))
    d0 = float(_opt(args, "d0", 100.0))
    origin = GeodeticPoint(args.lat, args.lon)
    a0 = args.a0 if args.a0 is not None else models.fspl_db(d0, args.freq)

    if args.model:
        template = models.LinkGeometry.at(
            args.d_min, args.freq, args.h_bs, args.h_ut,
            avg_building_height_m=args.avg_building_height if args.avg_building_height is not None else 5.0,
            avg_street_width_m=args.avg_street_width if args.avg_street_width is not None else 20.0,
        )
        bins = analysis.synthesize_from_model(
            args.model, template, args.sigma, args.n, (args.d_min, args.d_max),
            seed, origin=origin, band=args.band, grid_size=grid_size,
            los=args.los.upper(),
        )
    else:
        bins = analysis.synthesize_samples(
            a0, args.gamma, args.sigma, d0, args.n, (args.d_min, args.d_max),
            seed, h_bs_m=args.h_bs, h_ut_m=args.h_ut, origin=origin,
            band=args.band, grid_size=grid_size, los=args.los.upper(),
        )

    if args.emit == "bins":
        analysis.write_bins_csv(bins, args.out)
        print(f"wrote {args.out}: {len(bins)} synthetic bins (seed {seed})")
        return 0

    # emit a raw testbed log plus the matching site/pattern files, so the
    # full bin -> fit -> compare chain can run on synthetic data
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pattern = antenna.isotropic(0.0)
    pattern_path = out_dir / "pattern.csv"
    antenna.save_pattern_csv(pattern, pattern_path)
    site = ingest.SiteConfig(
        site_position=origin,
        antenna_height_agl_m=args.h_bs,
        boresight_azimuth_deg=0.0,
        tx_power_dbm=args.tx_power,
        carrier_freq_ghz=args.freq,
        pattern_ref="pattern.csv",
        rx_gain_dbi=args.rx_gain,
        ue_height_m=args.h_ut,
    )
    ingest.save_site_config(site, out_dir / "site.json")
    rx = site.tx_power_dbm + site.rx_gain_dbi - bins.pl_db
    out_of_range = ~((rx >= -160.0) & (rx <= 0.0))
    if out_of_range.any():
        raise ValueError(
            f"synthetic received power {rx[out_of_range][0]:.1f} dBm out of range; "
            "adjust --tx-power or the loss parameters"
        )
    # one sample per bin, received on the first of 48 beams
    log_path = out_dir / "testbed_log.csv"
    header = ["timestamp_ms", "lat", "lon"] + [f"mrsrp_{i:02d}" for i in range(48)]
    unheard = np.full(len(bins), None)
    write_csv(log_path, header,
              [1000 * np.arange(1, len(bins) + 1), bins.lat, bins.lon, rx] + [unheard] * 47)
    print(f"wrote {log_path}, {out_dir / 'site.json'}, {pattern_path} "
          f"({len(bins)} samples, seed {seed})")
    return 0


def cmd_bin(args) -> int:
    site_path = _opt(args, "site")
    if not site_path:
        raise ValueError("a site config is required (--site or config file)")
    site = ingest.load_site_config(site_path)
    pattern_path = _opt(args, "pattern")
    if not pattern_path:
        pattern_path = Path(site_path).parent / site.pattern_ref
    pattern = antenna.load_pattern_csv(
        pattern_path,
        boresight_azimuth=site.boresight_azimuth_deg,
    )
    grid_size = float(_opt(args, "grid_size", 5.0))

    if args.source == "testbed":
        results = [ingest.parse_testbed_log(p, band=args.band or "3.5GHz") for p in args.logs]
    else:
        if not args.cells:
            raise ValueError("--cells is required for scanner logs")
        cells = [int(c) for c in args.cells.split(",") if c.strip()]
        results = [ingest.parse_scanner_log(p, cells, band=args.band or "800MHz")
                   for p in args.logs]
    parsed = ingest.ParseResult.concat(results)
    samples = parsed.table
    if not len(samples):
        raise ValueError("no samples")

    origin = site.site_position
    bins = analysis.aggregate_bins(samples, origin, grid_size)
    bins = analysis.extract_path_loss(bins, site, pattern, band=samples.band[0].item())

    polygons_path = _opt(args, "polygons")
    if polygons_path:
        bins = analysis.classify_los(bins, load_polygons(polygons_path), origin)
    mask_path = _opt(args, "exclusion_mask")
    if mask_path:
        bins = analysis.apply_exclusion_mask(bins, load_polygons(mask_path), origin)
    if not len(bins):
        raise ValueError("no bins left after extraction/masking")

    analysis.write_bins_csv(bins, args.out)
    print(f"samples: {len(samples)} (rows {parsed.rows}, "
          f"skipped {parsed.skipped}, filtered {parsed.filtered})")
    print(f"bins: {len(bins)}")
    if polygons_path:
        los_weighted = int(bins.count[bins.los == "LOS"].sum())
        print(f"LOS fraction: {los_weighted / int(bins.count.sum()):.2f}")
    print(f"distance range: {bins.d3d_m.min():.1f} - {bins.d3d_m.max():.1f} m")
    print(f"wrote {args.out}")
    return 0


def _filter_split(bins: analysis.BinTable, split: str) -> analysis.BinTable:
    if split == "all":
        return bins
    if not (bins.los != "UNKNOWN").any():
        raise ValueError("no LOS labels in bin table; run bin with --polygons first")
    return bins.take(bins.los == split.upper())


def cmd_fit(args) -> int:
    bins = analysis.read_bins_csv(args.bins, grid_size=float(_opt(args, "grid_size", 5.0)))
    bins = _filter_split(bins, args.split)
    if not len(bins):
        raise ValueError(f"no bins with label {args.split!r}")
    d0 = float(_opt(args, "d0", 100.0))
    min_d = _opt(args, "min_d")
    max_d = _opt(args, "max_d")
    fit = analysis.fit_log_distance(
        bins,
        d0_m=d0,
        min_d_m=float(min_d) if min_d is not None else None,
        max_d_m=float(max_d) if max_d is not None else None,
        use_2d=args.distance == "2d",
        pin_a0_db=args.pin_a0,
    )
    doc = fit.to_json_dict()
    doc["split"] = args.split
    doc["distance"] = args.distance
    Path(args.out).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    print(f"fit ({args.split}, {args.distance}): a0={fit.a0_db:.2f} dB "
          f"gamma={fit.gamma:.2f} sigma={fit.sigma_db:.2f} dB n={fit.n_bins}")
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    bins = analysis.read_bins_csv(args.bins, grid_size=float(_opt(args, "grid_size", 5.0)))
    if not len(bins):
        raise ValueError("empty bin table")
    model_ids = _opt(args, "models")
    if isinstance(model_ids, str):
        model_ids = [m.strip().upper() for m in model_ids.split(",") if m.strip()]
    if not model_ids:
        model_ids = models.comparable_models()
    if args.curve_points < 1:
        raise ValueError("--curve-points must be >= 1")
    out_dir = args.out or _opt(args, "output_dir")
    if not out_dir:
        raise ValueError("an output directory is required (--out or output_dir in the config)")
    template = _geometry_from_args(args, bins)
    if any(m.startswith("TR38901_RMA") for m in model_ids) and (
        args.avg_building_height is None or args.avg_street_width is None
    ):
        print(
            "note: rural-macro clutter defaults in use "
            f"(building height {template.avg_building_height_m:g} m, "
            f"street width {template.avg_street_width_m:g} m)",
            file=sys.stderr,
        )

    links = template.with_distances(bins.d2d_m, bins.d3d_m)
    mismatched = int(np.count_nonzero(
        np.abs(bins.d3d_m - np.hypot(bins.d2d_m, template.h_bs_m - template.h_ut_m)) > 0.01))
    if mismatched:
        print(
            f"warning: {mismatched} of {len(bins)} bins have d3d_m != hypot(d2d_m, h_bs - h_ut) "
            f"by more than 0.01 m with h_bs {template.h_bs_m:g} m, h_ut {template.h_ut_m:g} m; "
            "the table may come from other antenna heights",
            file=sys.stderr,
        )
    stats = []
    for mid in model_ids:
        es = analysis.prediction_errors(bins, mid, template)
        n_flagged = int(np.count_nonzero(models.out_of_validity(mid, links)))
        entry = {"model": models.get_model(mid).model_id, "out_of_validity_bins": n_flagged}
        entry.update(es.to_json_dict())
        stats.append(entry)
    stats.sort(key=lambda e: e["rmse"])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    errors_path = out_dir / "errors.json"
    errors_path.write_text(json.dumps(stats, indent=2, allow_nan=False) + "\n", encoding="utf-8")

    sweep = np.geomspace(links.d2d_m.min(), links.d2d_m.max(), args.curve_points)
    sweep[-1] = links.d2d_m.max()
    curves_path = out_dir / "model_curves.csv"
    names, losses = [], []
    for mid in model_ids:
        series = models.predict_series(mid, template, sweep)
        names.append(series.model_id)
        losses.append(np.array(series.path_loss_db))
    # an object column of names, not a fixed-width string array 4x its size
    write_csv(curves_path, ["model", "d2d_m", "pl_db"],
              [np.repeat(np.array(names, dtype=object), sweep.size), np.tile(sweep, len(names)),
               np.concatenate(losses)])

    for entry in stats:
        print(f"{entry['model']:<18} mu_e={entry['mu_e']:+7.2f} "
              f"sigma_e={entry['sigma_e']:6.2f} rmse={entry['rmse']:6.2f} dB")
    print(f"wrote {errors_path} and {curves_path}")
    return 0


def cmd_offset(args) -> int:
    grid_size = float(_opt(args, "grid_size", 5.0))
    bins_high = analysis.read_bins_csv(args.bins_high, grid_size=grid_size)
    bins_low = analysis.read_bins_csv(args.bins_low, grid_size=grid_size)
    pairs = analysis.pair_bins_by_index(bins_high, bins_low)
    if not len(pairs):
        raise ValueError("the two bin tables share no grid cells")
    offset, sigma = analysis.frequency_offset(pairs)
    doc = {"offset_db": offset, "sigma_db": sigma, "n_pairs": len(pairs)}
    Path(args.out).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    print(f"offset: {offset:.2f} dB (sigma {sigma:.2f} dB, {len(pairs)} paired bins)")
    print(f"wrote {args.out}")
    return 0


def cmd_o2i(args) -> int:
    sessions = ingest.load_indoor_sessions(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for session in sessions:
        cdf = analysis.o2i_cdf(session)
        name = f"o2i_{session.building_id}_floor{session.floor}.csv"
        path = out_dir / name
        write_csv(path, ["loss_db", "probability"], [cdf.values, cdf.probabilities])
        median = cdf.values[len(cdf.values) // 2]
        print(f"building {session.building_id} floor {session.floor}: "
              f"{len(cdf.values)} samples, median {median:.1f} dB -> {path}")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The plkit parser: every command with its help, and the arguments
    of ``command`` only, if one is given."""
    parser = argparse.ArgumentParser(
        prog="plkit",
        description="Path-loss model evaluation and drive-test analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, config=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if command not in (None, name):  # another command runs: drop these arguments unbuilt
            return SimpleNamespace(add_argument=lambda *args, **kwargs: None)
        if config:
            p.add_argument("--config", help="JSON config file; explicit flags win")
        return p

    p = add("synth", cmd_synth, "generate synthetic bins or a synthetic testbed log")
    p.add_argument("--emit", choices=["bins", "log"], default="bins")
    p.add_argument("--out", required=True,
                   help="bin CSV path (emit=bins) or output directory (emit=log)")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d-min", dest="d_min", type=float, default=100.0)
    p.add_argument("--d-max", dest="d_max", type=float, default=2000.0)
    p.add_argument("--a0", type=float, default=None,
                   help="reference loss at d0 (default: free-space at d0)")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--d0", type=float, default=None)
    p.add_argument("--model", default=None,
                   help="draw the mean loss from a catalog model instead of a0/gamma")
    p.add_argument("--freq", type=float, default=3.55)
    p.add_argument("--h-bs", dest="h_bs", type=float, default=25.0)
    p.add_argument("--h-ut", dest="h_ut", type=float, default=1.5)
    p.add_argument("--avg-building-height", type=float, default=None)
    p.add_argument("--avg-street-width", type=float, default=None)
    p.add_argument("--band", default="3.5GHz")
    p.add_argument("--los", choices=["unknown", "los", "nlos"], default="unknown")
    p.add_argument("--grid-size", dest="grid_size", type=float, default=None)
    p.add_argument("--lat", type=float, default=47.0)
    p.add_argument("--lon", type=float, default=8.0)
    p.add_argument("--tx-power", dest="tx_power", type=float, default=43.0)
    p.add_argument("--rx-gain", dest="rx_gain", type=float, default=4.0)

    p = add("bin", cmd_bin, "parse logs and write the binned path-loss table")
    p.add_argument("logs", nargs="+", help="measurement log CSV files")
    p.add_argument("--site", default=None, help="site config JSON")
    p.add_argument("--pattern", default=None,
                   help="antenna pattern CSV (default: the site's pattern ref)")
    p.add_argument("--polygons", default=None, help="LOS polygons GeoJSON")
    p.add_argument("--exclusion-mask", dest="exclusion_mask", default=None,
                   help="GeoJSON polygons of bins to drop")
    p.add_argument("--source", choices=["testbed", "scanner"], default="testbed")
    p.add_argument("--cells", default=None, help="scanner cells of interest, e.g. 301,302")
    p.add_argument("--band", default=None)
    p.add_argument("--grid-size", dest="grid_size", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("fit", cmd_fit, "log-distance regression on a bin table")
    p.add_argument("bins", help="bin table CSV")
    p.add_argument("--d0", type=float, default=None)
    p.add_argument("--min-d", dest="min_d", type=float, default=None)
    p.add_argument("--max-d", dest="max_d", type=float, default=None)
    p.add_argument("--split", choices=["all", "los", "nlos"], default="all")
    p.add_argument("--distance", choices=["2d", "3d"], default="3d")
    p.add_argument("--pin-a0", dest="pin_a0", type=float, default=None,
                   help="fix the intercept instead of estimating it")
    p.add_argument("--grid-size", dest="grid_size", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("compare", cmd_compare, "model error statistics and plot curves")
    p.add_argument("bins", help="bin table CSV")
    p.add_argument("--models", default=None,
                   help="comma-separated model ids (default: whole catalog)")
    p.add_argument("--site", default=None, help="site config supplying freq/heights")
    p.add_argument("--freq", type=float, default=None)
    p.add_argument("--h-bs", dest="h_bs", type=float, default=None)
    p.add_argument("--h-ut", dest="h_ut", type=float, default=None)
    p.add_argument("--avg-building-height", type=float, default=None)
    p.add_argument("--avg-street-width", type=float, default=None)
    p.add_argument("--curve-points", dest="curve_points", type=int, default=200)
    p.add_argument("--grid-size", dest="grid_size", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="output directory (default: the config's output_dir)")

    p = add("offset", cmd_offset, "band-to-band path-loss offset on shared bins")
    p.add_argument("bins_high", help="bin table of the higher band")
    p.add_argument("bins_low", help="bin table of the lower band")
    p.add_argument("--grid-size", dest="grid_size", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("o2i", cmd_o2i, "outdoor-to-indoor penetration CDFs")
    p.add_argument("manifest", help="indoor session manifest JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = add("models", cmd_models, "dump the model catalog", config=False)
    p.add_argument("--out", default=None, help="write JSON here instead of printing")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the command's own arguments are built (an option first: all of them)
    parser = build_parser(argv[0] if argv and not argv[0].startswith("-") else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args._config = _load_config(args.config)
        return args.func(args)
    except (ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
