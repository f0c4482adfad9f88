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
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis, antenna, ingest, models
from .columns import (json_value, number, read_json, string, whole, within, write_csv,
                      write_json)
from .geo import MAX_DISTANCE_M, GeodeticPoint, load_polygons


def _models(value) -> str:
    """The ``--models`` form: a comma-separated string, a list joined into one."""
    if isinstance(value, list) and all(isinstance(m, str) for m in value):
        return ",".join(value)
    if not isinstance(value, str):
        raise ValueError("a string or a list of strings")
    return value


# key: its value's rule, which converts the value or names what it must be
CONFIG_KEYS = {
    "site": string, "pattern": string, "polygons": string, "exclusion_mask": string,
    "grid_size": number, "d0": number, "min_d": number, "max_d": number,
    "models": _models, "output_dir": string, "seed": whole,
}


def _load_config(path) -> dict:
    """The config file's values, each converted by its key's rule, by the
    dest of the option it sets (``output_dir`` sets ``--out``)."""
    data = read_json(path, "config must be a JSON object")
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    defaults = {}
    for key, value in data.items():
        defaults["out" if key == "output_dir" else key] = json_value(
            CONFIG_KEYS[key], value, f"{path}: config key {key!r}")
    return defaults


# each link flag: the LinkGeometry keyword it sets (its dest)
LINK_FLAGS = {"--freq": "f_ghz", "--h-bs": "h_bs_m", "--h-ut": "h_ut_m",
              "--avg-building-height": "avg_building_height_m",
              "--avg-street-width": "avg_street_width_m"}


def _add_link_flags(p) -> None:
    for flag, key in LINK_FLAGS.items():
        p.add_argument(flag, dest=key, type=float, default=None)


def _link(args, site: ingest.SiteConfig | None = None) -> dict:
    """``LinkGeometry`` keywords for the link flags: each value from its
    flag, else from ``site``, else its default (LinkGeometry's for the
    clutter terms)."""
    link = ({"f_ghz": 3.55, "h_bs_m": 25.0, "h_ut_m": 1.5} if site is None else
            {"f_ghz": site.carrier_freq_ghz, "h_bs_m": site.antenna_height_agl_m,
             "h_ut_m": site.ue_height_m})
    link.update((key, getattr(args, key)) for key in LINK_FLAGS.values()
                if getattr(args, key) is not None)
    return link


def cmd_models(args) -> int:
    catalog = models.catalog_json()
    if args.out:
        write_json(args.out, catalog)
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
    origin = GeodeticPoint(args.lat, args.lon)
    link = _link(args)
    distances = {"--d-min": args.d_min, "--d-max": args.d_max}
    if not args.model:  # a model run ignores --d0
        distances["--d0"] = args.d0
    for flag, value in distances.items():
        if value > MAX_DISTANCE_M:
            raise ValueError(within(flag, MAX_DISTANCE_M).refusal(value))
    if args.model:
        # the draws place the links: the template carries only the link parameters
        template = models.LinkGeometry(np.empty(0), np.empty(0), **link)
        bins = analysis.synthesize_from_model(
            args.model, template, args.sigma, args.n, (args.d_min, args.d_max), args.seed,
            origin=origin, band=args.band, grid_size=args.grid_size, los=args.los.upper(),
        )
    else:
        models.check_positive(**{"--d0": args.d0})
        a0 = args.a0 if args.a0 is not None else models.fspl_db(args.d0, link["f_ghz"])
        bins = analysis.synthesize_samples(
            a0, args.gamma, args.sigma, args.d0, args.n, (args.d_min, args.d_max),
            args.seed, h_bs_m=link["h_bs_m"], h_ut_m=link["h_ut_m"], origin=origin,
            band=args.band, grid_size=args.grid_size, los=args.los.upper(),
        )

    if args.emit == "bins":
        analysis.write_bins_csv(bins, args.out)
        print(f"wrote {args.out}: {len(bins)} synthetic bins (seed {args.seed})")
        return 0

    # emit a raw testbed log plus the matching site/pattern files, so the
    # full bin -> fit -> compare chain can run on synthetic data; every
    # check runs before the first file is written
    site = ingest.SiteConfig(
        site_position=origin,
        antenna_height_agl_m=link["h_bs_m"],
        boresight_azimuth_deg=0.0,
        tx_power_dbm=args.tx_power,
        carrier_freq_ghz=link["f_ghz"],
        pattern_ref="pattern.csv",
        rx_gain_dbi=args.rx_gain,
        ue_height_m=link["h_ut_m"],
    )
    rx = site.tx_power_dbm + site.rx_gain_dbi - bins.pl_db
    out_of_range = ingest.SAMPLE_RULES["received_power_dbm"].fails(rx)
    if out_of_range.any():
        raise ValueError(
            f"synthetic received power {rx[out_of_range][0]:.1f} dBm out of range; "
            "adjust --tx-power or the loss parameters"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pattern_path = out_dir / "pattern.csv"
    antenna.save_pattern_csv(antenna.isotropic(0.0), pattern_path)
    ingest.save_site_config(site, out_dir / "site.json")
    # one sample per bin, received on the first of 48 beams
    log_path = out_dir / "testbed_log.csv"
    ingest.write_testbed_log(log_path, 1000 * np.arange(1, len(bins) + 1), bins.lat, bins.lon,
                             [rx] + [np.full(len(bins), None)] * 47)
    print(f"wrote {log_path}, {out_dir / 'site.json'}, {pattern_path} "
          f"({len(bins)} samples, seed {args.seed})")
    return 0


def cmd_bin(args) -> int:
    if not args.site:
        raise ValueError("a site config is required (--site or config file)")
    site = ingest.load_site_config(args.site)
    pattern = antenna.load_pattern_csv(
        args.pattern or Path(args.site).parent / site.pattern_ref,
        boresight_azimuth=site.boresight_azimuth_deg,
    )

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
    bins = analysis.aggregate_bins(samples, origin, args.grid_size)
    bins = analysis.extract_path_loss(bins, site, pattern, band=samples.band[0].item())

    if args.polygons:
        bins = analysis.classify_los(bins, load_polygons(args.polygons), origin)
    if args.exclusion_mask:
        bins = analysis.apply_exclusion_mask(bins, load_polygons(args.exclusion_mask), origin)
    if not len(bins):
        raise ValueError("no bins left after extraction/masking")

    analysis.write_bins_csv(bins, args.out)
    print(f"samples: {len(samples)} (rows {parsed.rows}, "
          f"skipped {parsed.skipped}, filtered {parsed.filtered})")
    print(f"bins: {len(bins)}")
    if args.polygons:
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
    bins = analysis.read_bins_csv(args.bins)
    bins = _filter_split(bins, args.split)
    if not len(bins):
        raise ValueError(f"no bins with label {args.split!r}")
    fit = analysis.fit_log_distance(
        bins,
        d0_m=args.d0,
        min_d_m=args.min_d,
        max_d_m=args.max_d,
        use_2d=args.distance == "2d",
        pin_a0_db=args.pin_a0,
    )
    doc = fit.to_json_dict()
    doc["split"] = args.split
    doc["distance"] = args.distance
    write_json(args.out, doc)
    print(f"fit ({args.split}, {args.distance}): a0={fit.a0_db:.2f} dB "
          f"gamma={fit.gamma:.2f} sigma={fit.sigma_db:.2f} dB n={fit.n_bins}")
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    bins = analysis.read_bins_csv(args.bins)
    if not len(bins):
        raise ValueError("empty bin table")
    model_ids = [m.strip().upper() for m in (args.models or "").split(",") if m.strip()]
    if not model_ids:
        model_ids = models.comparable_models()
    if args.curve_points < 1:
        raise ValueError("--curve-points must be >= 1")
    if not args.out:
        raise ValueError("an output directory is required (--out or output_dir in the config)")
    site = ingest.load_site_config(args.site) if args.site else None
    links = models.LinkGeometry(bins.d2d_m, bins.d3d_m, **_link(args, site))
    if any(m.startswith("TR38901_RMA") for m in model_ids) and (
        args.avg_building_height_m is None or args.avg_street_width_m is None
    ):
        print(
            "note: rural-macro clutter defaults in use "
            f"(building height {links.avg_building_height_m:g} m, "
            f"street width {links.avg_street_width_m:g} m)",
            file=sys.stderr,
        )

    mismatched = int(np.count_nonzero(
        np.abs(bins.d3d_m - np.hypot(bins.d2d_m, links.h_bs_m - links.h_ut_m)) > 0.01))
    if mismatched:
        print(
            f"warning: {mismatched} of {len(bins)} bins have d3d_m != hypot(d2d_m, h_bs - h_ut) "
            f"by more than 0.01 m with h_bs {links.h_bs_m:g} m, h_ut {links.h_ut_m:g} m; "
            "the table may come from other antenna heights",
            file=sys.stderr,
        )
    stats = []
    for mid in model_ids:
        es = analysis.prediction_errors(bins, mid, links)
        n_flagged = int(np.count_nonzero(models.out_of_validity(mid, links)))
        entry = {"model": mid, "out_of_validity_bins": n_flagged}
        entry.update(es.to_json_dict())
        stats.append(entry)
    stats.sort(key=lambda e: e["rmse"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    errors_path = out_dir / "errors.json"
    write_json(errors_path, stats)

    sweep = np.geomspace(links.d2d_m.min(), links.d2d_m.max(), args.curve_points)
    sweep[-1] = links.d2d_m.max()
    curves_path = out_dir / "model_curves.csv"
    losses = [models.predict_series(mid, links, sweep).path_loss_db for mid in model_ids]
    # an object column of names, not a fixed-width string array 4x its size
    write_csv(curves_path, ["model", "d2d_m", "pl_db"],
              [np.repeat(np.array(model_ids, dtype=object), sweep.size),
               np.tile(sweep, len(model_ids)), np.concatenate(losses)])

    for entry in stats:
        print(f"{entry['model']:<18} mu_e={entry['mu_e']:+7.2f} "
              f"sigma_e={entry['sigma_e']:6.2f} rmse={entry['rmse']:6.2f} dB")
    print(f"wrote {errors_path} and {curves_path}")
    return 0


def cmd_offset(args) -> int:
    bins_high = analysis.read_bins_csv(args.bins_high)
    bins_low = analysis.read_bins_csv(args.bins_low)
    pairs = analysis.pair_bins_by_index(bins_high, bins_low)
    if not len(pairs):
        raise ValueError("the two bin tables share no grid cells")
    offset, sigma = analysis.frequency_offset(pairs)
    doc = {"offset_db": offset, "sigma_db": sigma, "n_pairs": len(pairs)}
    write_json(args.out, doc)
    print(f"offset: {offset:.2f} dB (sigma {sigma:.2f} dB, {len(pairs)} paired bins)")
    print(f"wrote {args.out}")
    return 0


def cmd_o2i(args) -> int:
    sessions = ingest.load_indoor_sessions(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for session in sessions:
        cdf = analysis.o2i_cdf(session)
        path = out_dir / ingest.o2i_file_name(session.building_id, session.floor)
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
        p.set_defaults(func=func, parser=p)
        if command not in (None, name):  # another command runs: drop these arguments unbuilt
            return SimpleNamespace(add_argument=lambda *args, **kwargs: None)
        if config:
            p.add_argument("--config", help="JSON config file; explicit flags win")
        return p

    d0 = {"type": float, "default": 100.0}

    p = add("synth", cmd_synth, "generate synthetic bins or a synthetic testbed log")
    p.add_argument("--grid-size", type=float, default=5.0)
    p.add_argument("--emit", choices=["bins", "log"], default="bins")
    p.add_argument("--out", required=True,
                   help="bin CSV path (emit=bins) or output directory (emit=log)")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-min", dest="d_min", type=float, default=100.0)
    p.add_argument("--d-max", dest="d_max", type=float, default=2000.0)
    p.add_argument("--a0", type=float, default=None,
                   help="reference loss at d0 (default: free-space at d0)")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--d0", **d0)
    p.add_argument("--model", default=None,
                   help="draw the mean loss from a catalog model instead of a0/gamma")
    _add_link_flags(p)
    p.add_argument("--band", default="3.5GHz")
    p.add_argument("--los", choices=["unknown", "los", "nlos"], default="unknown")
    p.add_argument("--lat", type=float, default=47.0)
    p.add_argument("--lon", type=float, default=8.0)
    p.add_argument("--tx-power", dest="tx_power", type=float, default=43.0)
    p.add_argument("--rx-gain", dest="rx_gain", type=float, default=4.0)

    p = add("bin", cmd_bin, "parse logs and write the binned path-loss table")
    p.add_argument("--grid-size", type=float, default=5.0)
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
    p.add_argument("--out", required=True)

    p = add("fit", cmd_fit, "log-distance regression on a bin table")
    p.add_argument("bins", help="bin table CSV")
    p.add_argument("--d0", **d0)
    p.add_argument("--min-d", dest="min_d", type=float, default=None)
    p.add_argument("--max-d", dest="max_d", type=float, default=None)
    p.add_argument("--split", choices=["all", "los", "nlos"], default="all")
    p.add_argument("--distance", choices=["2d", "3d"], default="3d")
    p.add_argument("--pin-a0", dest="pin_a0", type=float, default=None,
                   help="fix the intercept instead of estimating it")
    p.add_argument("--out", required=True)

    p = add("compare", cmd_compare, "model error statistics and plot curves")
    p.add_argument("bins", help="bin table CSV")
    p.add_argument("--models", default=None,
                   help="comma-separated model ids (default: whole catalog)")
    p.add_argument("--site", default=None, help="site config supplying freq/heights")
    _add_link_flags(p)
    p.add_argument("--curve-points", dest="curve_points", type=int, default=200)
    p.add_argument("--out", default=None,
                   help="output directory (default: the config's output_dir)")

    p = add("offset", cmd_offset, "band-to-band path-loss offset on shared bins")
    p.add_argument("bins_high", help="bin table of the higher band")
    p.add_argument("bins_low", help="bin table of the lower band")
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
        if getattr(args, "config", None):  # its values become the command's defaults
            args.parser.set_defaults(**_load_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
