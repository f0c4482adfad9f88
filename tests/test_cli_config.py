"""Where a CLI option gets its value: an explicit flag, else the --config
file, else the parser's default. Each case checks the three on the files
the command writes, and the config's own value rules."""

import json
from pathlib import Path

import pytest

from plkit.antenna import isotropic, save_pattern_csv
from plkit.cli import main
from plkit.geo import GeodeticPoint, LocalPoint, from_local
from plkit.models import comparable_models

ORIGIN = GeodeticPoint(47.0, 8.0)  # synth's default site position


def polygons(path, rings):
    """A GeoJSON file of LOS rectangles given as (east0, north0, east1, north1) in m."""
    features = []
    for e0, n0, e1, n1 in rings:
        corners = [(e0, n0), (e1, n0), (e1, n1), (e0, n1), (e0, n0)]
        points = [from_local(ORIGIN, LocalPoint(e, n)) for e, n in corners]
        features.append({"type": "Feature", "properties": {"los": True},
                         "geometry": {"type": "Polygon",
                                      "coordinates": [[[p.longitude, p.latitude]
                                                       for p in points]]}})
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def site(path, template, **fields):
    path.write_text(json.dumps({**json.loads(template.read_text()), **fields}))
    return path


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A synthetic testbed log with its site and pattern, a bin table, the
    inputs that differ from them, and the golden offset tables."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--emit", "log", "--out", str(d / "log"), "--n", "300", "--seed", "1",
                 "--gamma", "3", "--sigma", "4"]) == 0
    assert main(["synth", "--out", str(d / "bins.csv"), "--n", "300", "--seed", "2",
                 "--gamma", "3.2", "--sigma", "5"]) == 0
    for gain in (3, 6):
        save_pattern_csv(isotropic(float(gain)), d / f"iso{gain}.csv")
    log_site = d / "log" / "site.json"
    golden = Path(__file__).parent / "data" / "golden" / "offset"
    return {
        "log": d / "log" / "testbed_log.csv", "site": log_site, "bins": d / "bins.csv",
        "site_a": site(d / "log" / "site_a.json", log_site, tx_power_dbm=40.0),
        "site_b": site(d / "log" / "site_b.json", log_site, tx_power_dbm=50.0),
        "freq_a": site(d / "freq_a.json", log_site, carrier_freq_ghz=2.0),
        "freq_b": site(d / "freq_b.json", log_site, carrier_freq_ghz=5.0),
        "iso3": d / "iso3.csv", "iso6": d / "iso6.csv",
        "ne": polygons(d / "ne.geojson", [(0, 0, 2500, 2500)]),
        "nw": polygons(d / "nw.geojson", [(-2500, 0, 0, 2500)]),
        "high": golden / "bins_high.csv", "low": golden / "bins_low.csv",
    }


def outcome(tmp_path, args, config=None):
    """Exit code and the bytes of what one run writes to its own ``--out``
    (a file, or a directory's files by name)."""
    run_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    run_dir.mkdir()
    out = run_dir / "out"
    if config is not None:
        path = run_dir / "config.json"
        path.write_text(json.dumps(config))
        args = args + ["--config", path]
    code = main([str(a) for a in args + ["--out", out]])
    if out.is_dir():
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, out.read_bytes() if out.exists() else None


BASE = {
    "synth": lambda d: ["synth", "--n", 50],
    "bin": lambda d: ["bin", d["log"], "--site", d["site"]],
    "bin-no-site": lambda d: ["bin", d["log"]],
    "fit": lambda d: ["fit", d["bins"]],
    "compare": lambda d: ["compare", d["bins"], "--models", "FSPL"],
    "compare-all": lambda d: ["compare", d["bins"]],
    "offset": lambda d: ["offset", d["high"], d["low"]],
}

# base, config key, flag, value A (config form, flag form), value B (flag
# form), the flag arguments that give the parser's default (None: no flag
# gives it; the run without either must then differ from both A and B)
CASES = [
    ("synth", "grid_size", "--grid-size", (10, "10"), "7", ["--grid-size", "5"]),
    ("bin", "grid_size", "--grid-size", (10, "10"), "7", ["--grid-size", "5"]),
    ("synth", "d0", "--d0", (50, "50"), "200", ["--d0", "100"]),
    ("fit", "d0", "--d0", ("50", "50"), "200", ["--d0", "100"]),
    ("fit", "min_d", "--min-d", (300, "300"), "500", None),
    ("fit", "max_d", "--max-d", (800, "800"), "1200", None),
    ("synth", "seed", "--seed", (3, "3"), "4", ["--seed", "0"]),
    ("bin-no-site", "site", "--site", ("site_a", "site_a"), "site_b", None),
    ("bin", "pattern", "--pattern", ("iso3", "iso3"), "iso6", ["--pattern", "site_pattern"]),
    ("bin", "polygons", "--polygons", ("ne", "ne"), "nw", None),
    ("bin", "exclusion_mask", "--exclusion-mask", ("ne", "ne"), "nw", None),
    ("compare", "site", "--site", ("freq_a", "freq_a"), "freq_b",
     ["--freq", "3.55", "--h-bs", "25", "--h-ut", "1.5"]),
    ("compare-all", "models", "--models", (["FSPL", "TR38901_UMA_NLOS"], "FSPL,TR38901_UMA_NLOS"),
     "TR38901_UMI_NLOS", ["--models", ",".join(comparable_models())]),
]


def _ids(case):
    return f"{case[0]}-{case[1]}"


@pytest.mark.filterwarnings("ignore::UserWarning")  # the bin stage's clamping warnings
@pytest.mark.parametrize("base, key, flag, a, b, default", CASES, ids=map(_ids, CASES))
class TestPrecedence:
    @staticmethod
    def _value(d, value):
        """A named input's path (as a string), or the value itself."""
        if value == "site_pattern":
            return str(d["site"].parent / "pattern.csv")
        return str(d.get(value, value)) if isinstance(value, str) else value

    def test_config_alone_sets_the_value(self, tmp_path, data, base, key, flag, a, b, default):
        args = BASE[base](data)
        config_a, flag_a = (self._value(data, v) for v in a)
        got = outcome(tmp_path, args, {key: config_a})
        assert got == outcome(tmp_path, args + [flag, flag_a])
        assert got != outcome(tmp_path, args + [flag, self._value(data, b)])

    def test_the_flag_beats_the_config(self, tmp_path, data, base, key, flag, a, b, default):
        args = BASE[base](data)
        flag_b = [flag, self._value(data, b)]
        assert outcome(tmp_path, args + flag_b, {key: self._value(data, a[0])}) == outcome(
            tmp_path, args + flag_b)

    def test_without_either_the_parser_default_applies(self, tmp_path, data, base, key, flag, a,
                                                       b, default):
        args = BASE[base](data)
        got = outcome(tmp_path, args)
        if default is None:
            for value in (a[1], b):
                assert got != outcome(tmp_path, args + [flag, self._value(data, value)])
        else:
            assert got == outcome(tmp_path, args + [self._value(data, v) for v in default])


class TestPrecedenceSpecialCases:
    def test_bin_without_a_site_is_refused(self, tmp_path, data, capsys):
        assert outcome(tmp_path, BASE["bin-no-site"](data)) == (2, None)
        assert "a site config is required" in capsys.readouterr().err

    def test_compare_without_out_or_output_dir_is_refused(self, data, capsys):
        # output_dir alone, and --out beating it: test_cli_inputs.TestCompareOutputDirectory
        assert main([str(a) for a in BASE["compare"](data)]) == 2
        assert "an output directory is required" in capsys.readouterr().err


RMA_NOTE = "note: rural-macro clutter defaults in use"


class TestClutterNote:
    @pytest.mark.parametrize("flags, note", [
        ([], "(building height 5 m, street width 20 m)"),
        (["--avg-building-height", "8"], "(building height 8 m, street width 20 m)"),
        (["--avg-street-width", "30"], "(building height 5 m, street width 30 m)"),
        (["--avg-building-height", "8", "--avg-street-width", "30"], None),
    ])
    def test_the_note_names_the_clutter_values_in_use(self, tmp_path, data, capsys, flags, note):
        assert main(["compare", str(data["bins"]), "--models", "TR38901_RMA_NLOS,FSPL",
                     "--out", str(tmp_path / "cmp")] + flags) == 0
        err = capsys.readouterr().err
        if note is None:
            assert RMA_NOTE not in err
        else:
            assert f"{RMA_NOTE} {note}" in err

    def test_no_note_without_a_rural_macro_model(self, tmp_path, data, capsys):
        assert main(["compare", str(data["bins"]), "--models", "FSPL",
                     "--out", str(tmp_path / "cmp")]) == 0
        assert RMA_NOTE not in capsys.readouterr().err


class TestConfigValues:
    """A config value is converted once, by its key's rule; a value the
    rule refuses exits 2 naming the key."""

    def config(self, tmp_path, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("seed", [3.5, "3.5", 1e400], ids=["float", "string", "inf"])
    def test_a_seed_must_be_a_whole_number(self, tmp_path, capsys, seed):
        out = tmp_path / "bins.csv"
        assert main(["synth", "--n", "20", "--out", str(out),
                     "--config", str(self.config(tmp_path, {"seed": seed}))]) == 2
        err = capsys.readouterr().err
        assert "config key 'seed' must be a whole number" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [3, "3", 3.0, " 3 "])
    def test_whole_seeds_read_as_the_flag_does(self, tmp_path, seed):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert main(["synth", "--n", "20", "--out", str(want), "--seed", "3"]) == 0
        assert main(["synth", "--n", "20", "--out", str(got),
                     "--config", str(self.config(tmp_path, {"seed": seed}))]) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_a_models_list_reads_like_the_string_form(self, tmp_path, data, capsys):
        runs = {}
        for form in (" fspl, tr38901_rma_nlos", [" fspl", "tr38901_rma_nlos "]):
            out = tmp_path / f"cmp{len(runs)}"
            assert main(["compare", str(data["bins"]), "--out", str(out),
                         "--config", str(self.config(tmp_path, {"models": form}))]) == 0
            runs[type(form)] = (sorted(p.read_bytes() for p in out.iterdir()),
                                capsys.readouterr().err)
        assert runs[str] == runs[list]
        assert RMA_NOTE in runs[list][1]
