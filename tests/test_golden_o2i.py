"""Golden regression for the sample CSV and ``o2i``: the sample files and the
CDF tables under tests/data/golden/o2i/ were written by the per-row sample
writer and reader that came before the columnar ones, and must be
reproduced byte for byte.

The sample files hold the records of :func:`session_samples`; the CDF files
are what

    plkit o2i manifest.json --out DIR

wrote from them. Session "A" floor 0 spans more than one 512-row chunk and
mixes testbed rows (beam id, no cell id) with scanner rows (cell id, no
beam id); floor 1 names a band holding a comma, which the writer quotes
(so the reader takes its fallback path); session "B-2" has ties in power
and a reference of an even number of samples. Regenerate with

    PYTHONPATH=src python tests/test_golden_o2i.py
"""

import json
from pathlib import Path

import numpy as np

from plkit.cli import main
from plkit.geo import GeodeticPoint
from plkit.ingest import MeasurementSample, read_samples_csv, write_samples_csv

GOLDEN = Path(__file__).parent / "data" / "golden" / "o2i"

# building, floor, band, seed, indoor rows, outdoor rows, indoor loss in dB
SESSIONS = [
    ("A", 0, "3.5GHz", 1, 700, 151, 12.5),
    ("A", 1, "n78, 3.5 GHz", 2, 90, 40, 21.0),
    ("B-2", 0, "800MHz", 3, 60, 24, 7.0),
]


def session_samples(seed: int, n: int, mean_dbm: float, band: str) -> list[MeasurementSample]:
    rng = np.random.default_rng(seed)
    power = np.round(rng.normal(mean_dbm, 5.0, n), 1 if seed == 3 else 6)
    lat = 46.98 + rng.uniform(-0.002, 0.002, n)
    lon = 7.48 + rng.uniform(-0.002, 0.002, n)
    alt = rng.choice([0.0, 1.5, 4.25], n)
    samples = []
    for i in range(n):
        testbed = i % 3 != 0
        samples.append(MeasurementSample(
            timestamp_ms=1_600_000_000_000 + 250 * i,
            position=GeodeticPoint(float(lat[i]), float(lon[i]), float(alt[i])),
            received_power_dbm=float(power[i]),
            band=band,
            source="TESTBED" if testbed else "SCANNER",
            beam_id=i % 48 if testbed else None,
            cell_id=None if testbed else 301 + i % 2,
        ))
    return samples


def session_files():
    """(building, floor, indoor file, outdoor file, indoor, outdoor records)."""
    for building, floor, band, seed, n_in, n_out, loss in SESSIONS:
        stem = f"{building}_f{floor}"
        yield (building, floor, f"indoor_{stem}.csv", f"outdoor_{stem}.csv",
               session_samples(seed, n_in, -75.0 - loss, band),
               session_samples(seed + 100, n_out, -75.0, band))


def cdf_names():
    return [f"o2i_{building}_floor{floor}.csv" for building, floor, *_ in SESSIONS]


def test_sample_writer_reproduces_golden_bytes(tmp_path):
    for _, _, indoor_file, outdoor_file, indoor, outdoor in session_files():
        for name, samples in ((indoor_file, indoor), (outdoor_file, outdoor)):
            write_samples_csv(samples, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_samples_read_back_and_rewrite_to_the_same_bytes(tmp_path):
    for _, _, indoor_file, outdoor_file, indoor, outdoor in session_files():
        for name, samples in ((indoor_file, indoor), (outdoor_file, outdoor)):
            assert list(read_samples_csv(GOLDEN / name)) == samples
            write_samples_csv(read_samples_csv(GOLDEN / name), tmp_path / name)
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_o2i_reproduces_golden_bytes(tmp_path, capsys):
    assert main(["o2i", str(GOLDEN / "manifest.json"), "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(cdf_names())
    for name in cdf_names():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    printed = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    assert printed == (GOLDEN / "stdout.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(parents=True, exist_ok=True)
    entries = []
    for building, floor, indoor_file, outdoor_file, indoor, outdoor in session_files():
        write_samples_csv(indoor, GOLDEN / indoor_file)
        write_samples_csv(outdoor, GOLDEN / outdoor_file)
        entries.append({"building_id": building, "floor": floor,
                        "indoor_log": indoor_file, "outdoor_log": outdoor_file})
    (GOLDEN / "manifest.json").write_text(
        json.dumps({"sessions": entries}, indent=2) + "\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["o2i", str(GOLDEN / "manifest.json"), "--out", str(GOLDEN)]) == 0
    # the printed paths name the output directory
    (GOLDEN / "stdout.txt").write_text(out.getvalue().replace(str(GOLDEN), "OUT"),
                                       encoding="utf-8")
