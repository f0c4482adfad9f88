"""Memory of the drive-log readers: each table is held once.

A single log's sample table reaches the bin stage uncopied, the log
parsers keep only each chunk's parsed columns (not a table per chunk), and
a pattern's values are float arrays from the chunk that parsed them on.
Every reader joins each column's chunk pieces once and drops them as it
goes, so a bin table or a sample file is not held twice. Peaks are
measured with tracemalloc above the call's start.
"""

import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from plkit import analysis, ingest
from plkit.antenna import AntennaPattern, load_pattern_csv, save_pattern_csv
from plkit.cli import main
from plkit.ingest import (
    ParseResult,
    SampleTable,
    parse_testbed_log,
    read_samples_csv,
    write_samples_csv,
)

GOLDEN = Path(__file__).parent / "data" / "golden" / "bin"


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of traced memory above its start, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_concat_of_one_part_returns_its_table():
    table = parse_testbed_log(GOLDEN / "testbed_log.csv").table
    assert SampleTable.concat([table]) is table
    assert ParseResult.concat([ParseResult(table, rows=5)]).table is table


def test_bin_on_one_log_aggregates_the_parsed_table(tmp_path, monkeypatch):
    parsed, aggregated = [], []
    parse, aggregate = ingest.parse_testbed_log, analysis.aggregate_bins
    monkeypatch.setattr(ingest, "parse_testbed_log",
                        lambda *a, **k: parsed.append(parse(*a, **k)) or parsed[-1])
    monkeypatch.setattr(analysis, "aggregate_bins",
                        lambda samples, *a: aggregated.append(samples) or aggregate(samples, *a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the golden log's near-mast bins warn
        assert main(["bin", str(GOLDEN / "testbed_log.csv"), "--site",
                     str(GOLDEN / "site.json"), "--out", str(tmp_path / "bins.csv")]) == 0
    assert len(parsed) == len(aggregated) == 1
    assert aggregated[0] is parsed[0].table


def test_testbed_parse_peaks_near_its_table(tmp_path):
    """4,000 rows over 4 beams: a table per chunk, joined at the end, held
    the table twice (about 2.1 times its bytes); the chunks' parsed columns
    joined once stay near 1.5 times."""
    lines = ["timestamp_ms,lat,lon,mrsrp_00,mrsrp_01,mrsrp_02,mrsrp_03"]
    for k in range(4000):
        beams = [""] * 4
        beams[k % 4] = f"{-60.25 - k % 50:.2f}"
        lines.append(f"{1000 * (k + 1)},{46.98 + k * 1e-6:.7f},7.4800000," + ",".join(beams))
    path = tmp_path / "testbed.csv"
    path.write_text("\n".join(lines) + "\n")
    result, peak = traced_peak(parse_testbed_log, path)
    assert len(result.table) == 4000
    assert peak < 1.75 * sum(getattr(result.table, f.name).nbytes for f in fields(SampleTable))


def test_pattern_load_keeps_no_python_floats(tmp_path):
    """360 x 61 nodes: the chunks' values held as Python floats until the
    end peaked near 3.7 MB; as float arrays, near 2.2 MB."""
    az, el = np.arange(360.0), np.arange(-30.0, 31.0)
    path = tmp_path / "pattern.csv"
    save_pattern_csv(AntennaPattern(az, el, -np.abs(az[:, None] / 10) - np.abs(el)), path)
    pattern, peak = traced_peak(load_pattern_csv, path)
    assert pattern.gain_dbi.shape == (360, 61)
    assert peak < 2.9e6


def column_bytes(table) -> int:
    return sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))


def test_bin_table_read_peaks_near_its_columns(tmp_path):
    """20,000 bins: four all-NaN columns built per chunk and every column
    joined from its chunks at once peaked near 1.85 times the table's
    bytes; the NaN columns built once and each column joined alone, near
    1.0."""
    k = np.arange(20_000)
    table = analysis.BinTable(
        k // 100, k % 100, *(np.full(k.size, np.nan) for _ in range(4)), np.ones(k.size, int),
        100.0 + (k % 37) * 0.5, 50.0 + k * 0.01, 60.0 + k * 0.01, 46.98 + k * 1e-6,
        7.48 + k * 1e-6, np.full(k.size, "LOS"), np.full(k.size, "3.5GHz"))
    analysis.write_bins_csv(table, tmp_path / "bins.csv")
    read, peak = traced_peak(analysis.read_bins_csv, tmp_path / "bins.csv")
    assert read == table
    assert peak < 1.3 * column_bytes(read)


def test_sample_file_read_peaks_near_its_columns(tmp_path):
    """20,000 samples: a table per chunk, joined at the end, peaked near
    2.3 times the table's bytes; each column joined alone, near 1.6."""
    k = np.arange(20_000)
    table = SampleTable(1000 * (k + 1), 46.98 + k * 1e-6, 7.48 + k * 1e-6, np.zeros(k.size),
                        -60.25 - k % 50, np.full(k.size, "3.5GHz"), np.full(k.size, "TESTBED"),
                        np.array((1000 + k % 48).tolist(), dtype=object), np.full(k.size, None))
    write_samples_csv(table, tmp_path / "samples.csv")
    read, peak = traced_peak(read_samples_csv, tmp_path / "samples.csv")
    assert read.beam_id.tolist() == table.beam_id.tolist() and len(read) == k.size
    assert peak < 1.9 * column_bytes(read)
