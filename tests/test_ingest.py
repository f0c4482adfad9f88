import io
import json

import pytest

from plkit.geo import GeodeticPoint
from plkit.ingest import (
    IndoorSession,
    MeasurementSample,
    load_indoor_sessions,
    load_site_config,
    parse_scanner_log,
    parse_testbed_log,
    read_samples_csv,
    write_samples_csv,
)


def make_testbed_csv(rows, n_beams=48):
    header = "timestamp_ms,lat,lon," + ",".join(f"mrsrp_{i:02d}" for i in range(n_beams))
    return io.StringIO("\n".join([header] + rows) + "\n")


def beam_row(ts, lat, lon, beams, n_beams=48):
    cells = [""] * n_beams
    for idx, val in beams.items():
        cells[idx] = str(val)
    return f"{ts},{lat},{lon}," + ",".join(cells)


class TestTestbedLog:
    def test_single_beam(self):
        res = parse_testbed_log(make_testbed_csv([beam_row(1000, 47.0, 8.0, {7: -70.0})]))
        assert len(res.samples) == 1
        s = res.samples[0]
        assert s.received_power_dbm == -70.0
        assert s.beam_id == 7
        assert s.source == "TESTBED"

    def test_max_of_three_beams(self):
        res = parse_testbed_log(
            make_testbed_csv([beam_row(1000, 47.0, 8.0, {0: -90.0, 5: -75.0, 11: -80.0})])
        )
        assert res.samples[0].received_power_dbm == -75.0
        assert res.samples[0].beam_id == 5

    def test_tie_breaks_to_lowest_beam(self):
        res = parse_testbed_log(
            make_testbed_csv([beam_row(1000, 47.0, 8.0, {9: -75.0, 3: -75.0})])
        )
        assert res.samples[0].beam_id == 3

    def test_three_row_fixture_keeps_order(self):
        rows = [
            beam_row(1000, 47.0, 8.0, {0: -70.0}),
            beam_row(2000, 47.001, 8.0, {1: -72.0}),
            beam_row(3000, 47.002, 8.0, {2: -74.0}),
        ]
        res = parse_testbed_log(make_testbed_csv(rows))
        assert [s.timestamp_ms for s in res.samples] == [1000, 2000, 3000]
        assert [s.beam_id for s in res.samples] == [0, 1, 2]

    def test_all_beams_empty_skipped_and_counted(self):
        rows = [
            beam_row(1000, 47.0, 8.0, {0: -70.0}),
            beam_row(2000, 47.0, 8.0, {}),
        ]
        res = parse_testbed_log(make_testbed_csv(rows))
        assert len(res.samples) == 1
        assert res.skipped == 1
        assert res.rows == 2

    def test_malformed_row_reports_line(self):
        rows = [
            beam_row(1000, 47.0, 8.0, {0: -70.0}),
            beam_row(2000, "not-a-number", 8.0, {0: -70.0}),
        ]
        with pytest.raises(ValueError, match="line 3"):
            parse_testbed_log(make_testbed_csv(rows))

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError, match="timestamp_ms"):
            parse_testbed_log(io.StringIO("time,lat,lon,mrsrp_00\n"))

    def test_max_matches_bruteforce(self, rng):
        rows = []
        expected = []
        for i in range(200):
            n = rng.integers(1, 48)
            beams = {int(b): float(rng.uniform(-120, -40))
                     for b in rng.choice(48, size=n, replace=False)}
            rows.append(beam_row(1000 + i, 47.0, 8.0, beams))
            best = max(beams.values())
            expected.append((best, min(b for b, v in beams.items() if v == best)))
        res = parse_testbed_log(make_testbed_csv(rows))
        got = [(s.received_power_dbm, s.beam_id) for s in res.samples]
        assert got == expected
        assert res.rows == len(res.samples) + res.skipped + res.filtered


def make_scanner_csv(rows):
    return io.StringIO("timestamp_ms,lat,lon,cell_id,rsrp_dbm\n" + "\n".join(rows) + "\n")


class TestScannerLog:
    def test_filters_cells(self):
        rows = [
            "1000,47.0,8.0,12,-80.5",
            "1000,47.0,8.0,13,-91.0",
            "2000,47.0,8.0,12,-81.0",
        ]
        res = parse_scanner_log(make_scanner_csv(rows), {12})
        assert len(res.samples) == 2
        assert all(s.cell_id == 12 for s in res.samples)
        assert res.filtered == 1
        assert res.rows == 3

    def test_two_cells_same_timestamp(self):
        rows = ["1000,47.0,8.0,12,-80.0", "1000,47.0,8.0,13,-85.0"]
        res = parse_scanner_log(make_scanner_csv(rows), {12, 13})
        assert len(res.samples) == 2

    def test_empty_filter_warns(self):
        with pytest.warns(UserWarning) as record:
            res = parse_scanner_log(make_scanner_csv(["1000,47.0,8.0,12,-80.0"]), set())
        assert res.samples == []
        messages = [str(w.message) for w in record]
        assert any("filtered" in m for m in messages)
        assert any("no samples" in m for m in messages)

    def test_fixture_counting(self, rng):
        rows = []
        want = 0
        for i in range(100):
            cell = int(rng.integers(10, 15))
            want += cell in (12, 13)
            rows.append(f"{1000 + i},47.0,8.0,{cell},{rng.uniform(-110, -60):.1f}")
        if want == 0:  # keep the fixture meaningful
            rows[0] = "1000,47.0,8.0,12,-80.0"
            want = 1
        res = parse_scanner_log(make_scanner_csv(rows), {12, 13})
        assert len(res.samples) == want
        assert res.rows == len(res.samples) + res.filtered

    def test_malformed_row_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_scanner_log(make_scanner_csv(["1000,47.0,8.0,twelve,-80.0"]), {12})


def site_doc(**overrides):
    doc = {
        "latitude": 46.98,
        "longitude": 7.48,
        "antenna_height_agl_m": 24.5,
        "boresight_azimuth_deg": 120.0,
        "tx_power_dbm": 53.0,
        "carrier_freq_ghz": 3.55,
        "pattern": "aas_envelope.csv",
        "rx_gain_dbi": 4.0,
        "ue_height_m": 2.1,
    }
    doc.update(overrides)
    return doc


class TestSiteConfig:
    def test_urban_height_accepted(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text(json.dumps(site_doc(antenna_height_agl_m=29.4, ue_height_m=1.4)))
        site = load_site_config(path)
        assert site.antenna_height_agl_m == 29.4

    def test_suburban_height_accepted(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text(json.dumps(site_doc()))
        site = load_site_config(path)
        assert site.antenna_height_agl_m == 24.5
        assert site.rx_gain_dbi == 4.0

    def test_negative_tx_power_rejected(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text(json.dumps(site_doc(tx_power_dbm=-5.0)))
        with pytest.raises(ValueError, match="tx_power"):
            load_site_config(path)

    def test_missing_field_named(self, tmp_path):
        doc = site_doc()
        del doc["carrier_freq_ghz"]
        path = tmp_path / "site.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="carrier_freq_ghz"):
            load_site_config(path)

    def test_feeder_loss_reduces_effective_power(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text(json.dumps(site_doc(feeder_loss_db=2.5)))
        site = load_site_config(path)
        assert site.effective_tx_power_dbm == pytest.approx(50.5)


class TestSampleValidation:
    def test_power_range(self):
        with pytest.raises(ValueError):
            MeasurementSample(1000, GeodeticPoint(47, 8), 5.0, "3.5GHz", "TESTBED")

    def test_timestamp_positive(self):
        with pytest.raises(ValueError):
            MeasurementSample(0, GeodeticPoint(47, 8), -80.0, "3.5GHz", "TESTBED")

    def test_source_enumerated(self):
        with pytest.raises(ValueError):
            MeasurementSample(1, GeodeticPoint(47, 8), -80.0, "3.5GHz", "DRONE")


class TestCanonicalCsv:
    def test_round_trip_compares_equal(self, tmp_path, rng):
        samples = [
            MeasurementSample(
                timestamp_ms=int(1000 + i),
                position=GeodeticPoint(
                    47.0 + rng.uniform(-0.01, 0.01),
                    8.0 + rng.uniform(-0.01, 0.01),
                    float(rng.uniform(0, 3)),
                ),
                received_power_dbm=float(rng.uniform(-120, -50)),
                band="3.5GHz" if i % 2 else "800MHz",
                source="TESTBED" if i % 2 else "SCANNER",
                beam_id=int(i % 48) if i % 2 else None,
                cell_id=None if i % 2 else 301,
            )
            for i in range(50)
        ]
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        assert list(read_samples_csv(path)) == samples


class TestIndoorSessions:
    def _write_samples(self, path, powers, ts0=1000):
        samples = [
            MeasurementSample(ts0 + i, GeodeticPoint(46.98, 7.48), p, "3.5GHz", "TESTBED")
            for i, p in enumerate(powers)
        ]
        write_samples_csv(samples, path)

    def test_load_manifest(self, tmp_path):
        self._write_samples(tmp_path / "in.csv", [-100.0, -104.0])
        self._write_samples(tmp_path / "out.csv", [-70.0, -72.0])
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({
            "sessions": [{
                "building_id": "3", "floor": 1,
                "indoor_log": "in.csv", "outdoor_log": "out.csv",
            }]
        }))
        sessions = load_indoor_sessions(manifest)
        assert len(sessions) == 1
        assert sessions[0].building_id == "3"
        assert len(sessions[0].indoor_samples) == 2

    def test_missing_outdoor_names_building(self, tmp_path):
        self._write_samples(tmp_path / "in.csv", [-100.0])
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({
            "sessions": [{"building_id": "5", "floor": 13, "indoor_log": "in.csv"}]
        }))
        with pytest.raises(ValueError, match="building 5"):
            load_indoor_sessions(manifest)

    def test_empty_reference_names_building(self):
        sample = MeasurementSample(1, GeodeticPoint(47, 8), -80.0, "3.5GHz", "TESTBED")
        with pytest.raises(ValueError, match="building 2"):
            IndoorSession("2", 0, [sample], [])
