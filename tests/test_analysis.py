import math
from dataclasses import replace

import numpy as np
import pytest

from plkit import analysis, models
from plkit.analysis import (
    CdfSeries,
    GridBin,
    aggregate_bins,
    apply_exclusion_mask,
    classify_los,
    distance_profile,
    extract_path_loss,
    fit_log_distance,
    frequency_offset,
    o2i_cdf,
    pair_bins_by_index,
    prediction_errors,
    read_bins_csv,
    rmse_identity,
    shadow_fading,
    synthesize_from_model,
    synthesize_samples,
    write_bins_csv,
)
from plkit.antenna import isotropic
from plkit.geo import (
    GeodeticPoint,
    GridIndex,
    LocalPoint,
    Polygon,
    from_local,
    to_local,
)
from plkit.ingest import IndoorSession, MeasurementSample

ORIGIN = GeodeticPoint(46.98, 7.48)


def sample_at(east, north, power, ts=1000, band="3.5GHz"):
    return MeasurementSample(
        timestamp_ms=ts,
        position=from_local(ORIGIN, LocalPoint(east, north)),
        received_power_dbm=power,
        band=band,
        source="TESTBED",
    )


def simple_bin(d3d, pl, ix=0, iy=0, d2d=None, los="UNKNOWN", count=1):
    return GridBin(
        index=GridIndex(ix, iy, 5.0),
        path_loss_db=pl,
        distance_3d_m=d3d,
        distance_2d_m=d2d if d2d is not None else d3d,
        sample_count=count,
        los=los,
    )


class TestAggregateBins:
    def test_odd_count_median(self):
        samples = [sample_at(12.0, 7.0, p, ts=1000 + i)
                   for i, p in enumerate([-70.0, -80.0, -90.0])]
        aggs = aggregate_bins(samples, ORIGIN)
        assert len(aggs) == 1
        assert aggs[0].median_rx_power_dbm == -80.0
        assert aggs[0].sample_count == 3

    def test_even_count_median_mean_of_middle(self):
        samples = [sample_at(12.0, 7.0, p, ts=1000 + i)
                   for i, p in enumerate([-70.0, -72.0, -80.0, -90.0])]
        aggs = aggregate_bins(samples, ORIGIN)
        assert aggs[0].median_rx_power_dbm == -76.0

    def test_centroid_is_mean_position(self):
        samples = [sample_at(11.0, 6.0, -70.0), sample_at(13.0, 8.0, -80.0, ts=2000)]
        aggs = aggregate_bins(samples, ORIGIN)
        assert aggs[0].centroid.east == pytest.approx(12.0, abs=1e-6)
        assert aggs[0].centroid.north == pytest.approx(7.0, abs=1e-6)

    def test_empty_input(self):
        assert aggregate_bins([], ORIGIN) == []

    def test_matches_bruteforce_oracle(self, rng):
        samples = [
            sample_at(float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)),
                      float(rng.uniform(-120, -50)), ts=int(1000 + i))
            for i in range(10000)
        ]
        aggs = aggregate_bins(samples, ORIGIN, 5.0)
        # independent grouping: floor indices and middle-of-sorted median
        groups = {}
        for s in samples:
            lp = to_local(ORIGIN, s.position)
            key = (math.floor(lp.east / 5.0), math.floor(lp.north / 5.0))
            groups.setdefault(key, []).append(s.received_power_dbm)
        assert {(a.index.ix, a.index.iy) for a in aggs} == set(groups)
        for a in aggs:
            vals = sorted(groups[a.index.ix, a.index.iy])
            n = len(vals)
            want = vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2.0
            assert a.median_rx_power_dbm == pytest.approx(want, abs=1e-12)
            assert a.sample_count == n

    def test_permutation_invariance(self, rng):
        samples = [
            sample_at(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)),
                      float(rng.uniform(-120, -50)), ts=int(1000 + i))
            for i in range(500)
        ]
        reference = aggregate_bins(samples, ORIGIN)
        for _ in range(10):
            shuffled = list(samples)
            rng.shuffle(shuffled)
            assert aggregate_bins(shuffled, ORIGIN) == reference


class TestExtractPathLoss:
    def test_link_budget_sum(self, suburban_site):
        # P_T 53 dBm + G_T 27 dB + G_R 4 dB - P_R (-80 dBm) = 164 dB
        samples = [sample_at(0.0, 300.0, -80.0)]
        aggs = aggregate_bins(samples, suburban_site.site_position)
        bins = extract_path_loss(aggs, suburban_site, isotropic(27.0), band="3.5GHz")
        assert len(bins) == 1
        assert bins[0].path_loss_db == pytest.approx(164.0)
        assert bins[0].distance_2d_m == pytest.approx(300.0, abs=1e-6)
        assert bins[0].distance_3d_m == pytest.approx(
            math.hypot(300.0, 24.5 - 2.1), abs=1e-6
        )
        assert bins[0].band == "3.5GHz"

    def test_feeder_loss_applied(self, suburban_site):
        site = replace(suburban_site, feeder_loss_db=2.0)
        samples = [sample_at(0.0, 300.0, -80.0)]
        aggs = aggregate_bins(samples, site.site_position)
        bins = extract_path_loss(aggs, site, isotropic(0.0))
        assert bins[0].path_loss_db == pytest.approx(53.0 - 2.0 + 0.0 + 4.0 + 80.0)

    def test_ring_symmetry_with_isotropic_pattern(self, suburban_site):
        samples = [
            sample_at(300.0 * math.sin(math.radians(b)),
                      300.0 * math.cos(math.radians(b)), -80.0, ts=1000 + b)
            for b in range(0, 360, 30)
        ]
        aggs = aggregate_bins(samples, suburban_site.site_position)
        bins = extract_path_loss(aggs, suburban_site, isotropic(5.0))
        assert len(bins) == 12
        losses = [b.path_loss_db for b in bins]
        assert max(losses) - min(losses) < 1e-9

    def test_bin_at_site_excluded_with_warning(self, suburban_site):
        samples = [sample_at(0.0, 0.0, -60.0), sample_at(0.0, 300.0, -80.0, ts=2000)]
        aggs = aggregate_bins(samples, suburban_site.site_position)
        with pytest.warns(UserWarning, match="site location"):
            bins = extract_path_loss(aggs, suburban_site, isotropic(0.0))
        assert len(bins) == 1


def square_polygon(e0, n0, e1, n1, label="LOS"):
    corners = [(e0, n0), (e1, n0), (e1, n1), (e0, n1)]
    return Polygon(
        tuple(from_local(ORIGIN, LocalPoint(e, n)) for e, n in corners), label
    )


class TestClassifyLos:
    def test_no_polygons_all_nlos(self):
        bins = [simple_bin(300.0, 120.0) for _ in range(3)]
        bins = [replace(b, centroid=LocalPoint(10.0 * i, 50.0)) for i, b in enumerate(bins)]
        labeled = classify_los(bins, [], ORIGIN)
        assert all(b.los == "NLOS" for b in labeled)

    def test_inside_square_is_los(self):
        b = replace(simple_bin(300.0, 120.0), centroid=LocalPoint(50.0, 50.0))
        labeled = classify_los([b], [square_polygon(0, 0, 100, 100)], ORIGIN)
        assert labeled[0].los == "LOS"
        outside = replace(b, centroid=LocalPoint(150.0, 50.0))
        assert classify_los([outside], [square_polygon(0, 0, 100, 100)], ORIGIN)[0].los == "NLOS"

    def test_nlos_polygon_forces_nlos_over_los(self):
        bins = [replace(simple_bin(300.0, 120.0, ix=i), centroid=LocalPoint(east, 50.0))
                for i, east in enumerate([25.0, 75.0, 150.0, 250.0])]
        polys = [square_polygon(0, 0, 100, 100),
                 square_polygon(50, 0, 200, 100, label="NLOS")]
        for given in (bins, analysis.BinTable.from_records(bins)):
            labels = [b.los for b in classify_los(given, polys, ORIGIN)]
            # LOS only, LOS and NLOS, NLOS only, neither
            assert labels == ["LOS", "NLOS", "NLOS", "NLOS"]
            assert [b.los for b in classify_los(given, polys[::-1], ORIGIN)] == labels

    def test_fraction_fixture(self):
        # 42 of 100 single-sample bins inside the declared area
        bins = []
        for i in range(100):
            east = 5.0 * i + 2.5
            bins.append(replace(simple_bin(300.0, 120.0, ix=i), centroid=LocalPoint(east, 2.5)))
        poly = square_polygon(0.0, 0.0, 42 * 5.0, 5.0)
        labeled = classify_los(bins, [poly], ORIGIN)
        frac = sum(b.los == "LOS" for b in labeled) / len(labeled)
        assert frac == pytest.approx(0.42, abs=0.01)

    def test_idempotent(self):
        b = replace(simple_bin(300.0, 120.0), centroid=LocalPoint(50.0, 50.0))
        polys = [square_polygon(0, 0, 100, 100)]
        once = classify_los([b], polys, ORIGIN)
        twice = classify_los(once, polys, ORIGIN)
        assert once == twice

    def test_exclusion_mask(self):
        inside = replace(simple_bin(300.0, 120.0), centroid=LocalPoint(10.0, 10.0))
        outside = replace(simple_bin(310.0, 121.0, ix=5), centroid=LocalPoint(500.0, 10.0))
        kept = apply_exclusion_mask([inside, outside], [square_polygon(0, 0, 50, 50)], ORIGIN)
        assert kept == [outside]


class TestFitLogDistance:
    def test_noiseless_recovery(self):
        bins = [simple_bin(d, models.log_distance(d, 83.33, 2.9, 100.0))
                for d in np.geomspace(100.0, 2000.0, 40)]
        fit = fit_log_distance(bins)
        assert fit.a0_db == pytest.approx(83.33, abs=1e-9)
        assert fit.gamma == pytest.approx(2.9, abs=1e-12)
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)
        assert fit.n_bins == 40

    def test_shift_consistency(self):
        bins = [simple_bin(d, models.log_distance(d, 90.0, 3.5, 100.0) + r)
                for d, r in zip(np.geomspace(120, 1500, 30), np.sin(np.arange(30)))]
        base = fit_log_distance(bins)
        shifted = fit_log_distance([replace(b, path_loss_db=b.path_loss_db + 7.5) for b in bins])
        assert shifted.a0_db - base.a0_db == pytest.approx(7.5, abs=1e-9)
        assert shifted.gamma == pytest.approx(base.gamma, abs=1e-12)
        assert shifted.sigma_db == pytest.approx(base.sigma_db, abs=1e-9)

    def test_residual_mean_is_zero(self, rng):
        bins = [simple_bin(float(d), float(120 + rng.normal(0, 8)))
                for d in rng.uniform(100, 3000, 500)]
        fit = fit_log_distance(bins)
        sf = shadow_fading(bins, fit)
        assert abs(sf.mean_db) < 1e-9

    def test_two_bins_exact_line_sigma_zero(self):
        bins = [simple_bin(100.0, 83.33), simple_bin(1000.0, 112.33)]
        with pytest.warns(UserWarning, match="2 bins"):
            fit = fit_log_distance(bins)
        assert fit.gamma == pytest.approx(2.9)
        assert fit.sigma_db == 0.0

    def test_distance_window_filtering(self):
        bins = [simple_bin(d, models.log_distance(d, 83.33, 2.9, 100.0))
                for d in (50.0, 150.0, 900.0, 2500.0)]
        with pytest.warns(UserWarning, match="2 bins"):
            fit = fit_log_distance(bins, min_d_m=100.0, max_d_m=2000.0)
        assert fit.n_bins == 2
        assert fit.distance_range_m == (150.0, 900.0)

    def test_default_excludes_below_d0(self):
        bins = [simple_bin(50.0, 70.0)] + [
            simple_bin(d, models.log_distance(d, 83.33, 2.0, 100.0))
            for d in (100.0, 400.0, 1600.0)
        ]
        fit = fit_log_distance(bins)
        assert fit.n_bins == 3
        assert fit.gamma == pytest.approx(2.0, abs=1e-12)

    def test_pinned_intercept(self):
        bins = [simple_bin(d, models.log_distance(d, 83.33, 2.9, 100.0))
                for d in np.geomspace(100, 2000, 25)]
        fit = fit_log_distance(bins, pin_a0_db=83.33)
        assert fit.a0_db == 83.33
        assert fit.gamma == pytest.approx(2.9, abs=1e-12)

    def test_2d_distance_switch(self):
        bins = [
            GridBin(index=GridIndex(i, 0, 5.0), path_loss_db=models.log_distance(d, 80.0, 3.0),
                    distance_3d_m=d * 1.05, distance_2d_m=d, sample_count=1)
            for i, d in enumerate(np.geomspace(100, 2000, 20))
        ]
        fit2d = fit_log_distance(bins, use_2d=True)
        assert fit2d.gamma == pytest.approx(3.0, abs=1e-12)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_log_distance([simple_bin(500.0, 100.0)])

    def test_zero_spread_rejected(self):
        bins = [simple_bin(500.0, 100.0), simple_bin(500.0, 105.0)]
        with pytest.raises(ValueError, match="one distance"):
            fit_log_distance(bins)

    def test_monte_carlo_closure_single_row(self):
        bins = synthesize_samples(83.33, 2.9, 6.9, 100.0, 5000, (100.0, 2000.0), seed=11)
        fit = fit_log_distance(bins)
        assert fit.gamma == pytest.approx(2.9, abs=0.1)
        assert fit.sigma_db == pytest.approx(6.9, abs=0.3)


class TestPredictionErrors:
    def test_model_equals_measurements(self):
        template = models.LinkGeometry.at(500.0, 3.5, 25.0, 1.5)
        bins = synthesize_from_model("TR38901_UMA_NLOS", template, 0.0, 50, (100, 2000), 3)
        es = prediction_errors(bins, "TR38901_UMA_NLOS", template)
        assert es.mu_e == pytest.approx(0.0, abs=1e-9)
        assert es.sigma_e == pytest.approx(0.0, abs=1e-9)
        assert es.rmse == pytest.approx(0.0, abs=1e-9)

    def test_constant_over_prediction(self):
        template = models.LinkGeometry.at(500.0, 3.5, 10.0, 10.0)
        bins = [simple_bin(d, models.fspl_db(d, 3.5) - 2.0) for d in (200.0, 400.0, 800.0)]
        es = prediction_errors(bins, "FSPL", template)
        assert es.mu_e == pytest.approx(2.0, abs=1e-12)
        assert es.sigma_e == pytest.approx(0.0, abs=1e-9)
        assert es.rmse == pytest.approx(2.0, abs=1e-12)

    def test_rmse_identity_random(self, rng):
        template = models.LinkGeometry.at(500.0, 3.5, 10.0, 10.0)
        bins = [simple_bin(float(d), models.fspl_db(float(d), 3.5) + float(rng.normal(0, 5)))
                for d in rng.uniform(100, 2000, 400)]
        es = prediction_errors(bins, "FSPL", template)
        assert es.rmse**2 == pytest.approx(
            es.mu_e**2 + es.sigma_e**2 * (es.n - 1) / es.n, rel=1e-6
        )
        assert es.rmse == pytest.approx(rmse_identity(es.mu_e, es.sigma_e, es.n), rel=1e-9)

    def test_published_error_table_identity(self):
        # large-n arithmetic for a published (mu, sigma, rmse) row
        assert rmse_identity(14.9, 10.8, 10**6) == pytest.approx(18.4, abs=0.05)

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            prediction_errors([], "FSPL", models.LinkGeometry.at(100, 3.5, 10, 10))


class TestFrequencyOffset:
    def _fspl_bins(self, f_ghz, seed):
        template = models.LinkGeometry.at(500.0, f_ghz, 10.0, 10.0)
        return synthesize_from_model("FSPL", template, 0.0, 400, (100, 2000), seed)

    def test_theoretical_offsets(self):
        for f_low, expected in ((0.8, 20 * math.log10(3.5 / 0.8)),
                                (2.1, 20 * math.log10(3.5 / 2.1))):
            high = self._fspl_bins(3.5, seed=5)
            low = self._fspl_bins(f_low, seed=5)  # same seed -> same grid cells
            pairs = pair_bins_by_index(high, low)
            assert len(pairs) >= 2
            offset, sigma = frequency_offset(pairs)
            assert offset == pytest.approx(expected, abs=0.01)
            assert sigma == pytest.approx(0.0, abs=0.01)

    def test_identical_series(self):
        bins = self._fspl_bins(3.5, seed=9)
        offset, sigma = frequency_offset(pair_bins_by_index(bins, bins))
        assert offset == 0.0
        assert sigma == 0.0

    def test_disjoint_tables_rejected(self):
        a = [simple_bin(500.0, 100.0, ix=0)]
        b = [simple_bin(500.0, 100.0, ix=99)]
        assert pair_bins_by_index(a, b) == []
        with pytest.raises(ValueError):
            frequency_offset(pair_bins_by_index(a, b))


class TestShadowFading:
    def test_gaussian_recovery(self):
        bins = synthesize_samples(83.33, 2.9, 6.9, 100.0, 5000, (100.0, 2000.0), seed=2)
        fit = fit_log_distance(bins)
        sf = shadow_fading(bins, fit)
        assert sf.sigma_db == pytest.approx(6.9, abs=0.2)
        assert abs(sf.mean_db) < 1e-9
        assert sf.hist_counts.sum() == len(bins)
        assert np.all(np.diff(sf.hist_edges) == 1.0)

    def test_constant_offset_absorbed(self):
        bins = [simple_bin(d, models.log_distance(d, 90.0, 2.5, 100.0) + 4.0)
                for d in np.geomspace(100, 2000, 30)]
        fit = fit_log_distance(bins)
        sf = shadow_fading(bins, fit)
        assert sf.sigma_db == pytest.approx(0.0, abs=1e-9)


def make_session(indoor, outdoor):
    mk = lambda powers: [
        MeasurementSample(1000 + i, GeodeticPoint(46.98, 7.48), p, "3.5GHz", "TESTBED")
        for i, p in enumerate(powers)
    ]
    return IndoorSession("T", 0, mk(indoor), mk(outdoor))


class TestO2iCdf:
    def test_identical_steps_at_zero(self):
        cdf = o2i_cdf(make_session([-70.0] * 4, [-70.0] * 3))
        assert all(v == 0.0 for v in cdf.values)
        assert cdf.probabilities[-1] == 1.0

    def test_uniform_30db_below(self):
        cdf = o2i_cdf(make_session([-100.0] * 5, [-70.0] * 5))
        assert all(v == -30.0 for v in cdf.values)

    def test_rank_oracle(self, rng):
        indoor = list(rng.uniform(-130, -80, 101))
        outdoor = list(rng.uniform(-75, -65, 11))
        cdf = o2i_cdf(make_session(indoor, outdoor))
        ref = float(np.median(outdoor))
        diffs = np.array(indoor) - ref
        order = np.argsort(diffs)
        n = len(indoor)
        for rank, idx in enumerate(order):
            assert cdf.values[rank] == pytest.approx(diffs[idx], abs=1e-12)
            assert cdf.probabilities[rank] == pytest.approx((rank + 1) / n, abs=1e-15)
        assert cdf.probabilities[-1] == 1.0

    def test_cdf_series_validation(self):
        with pytest.raises(ValueError):
            CdfSeries((1.0, 0.0), (0.5, 1.0))
        with pytest.raises(ValueError):
            CdfSeries((0.0, 1.0), (0.5, 0.9))


class TestDistanceProfile:
    def test_single_bin(self):
        assert distance_profile([simple_bin(101.0, 100.0)]) == [(102.5, 100.0)]

    def test_two_bins_same_ring(self):
        pts = distance_profile([simple_bin(101.0, 100.0), simple_bin(103.0, 110.0)])
        assert pts == [(102.5, 105.0)]

    def test_matches_bruteforce(self, rng):
        bins = [simple_bin(float(d), float(pl))
                for d, pl in zip(rng.uniform(100, 500, 300), rng.uniform(80, 140, 300))]
        pts = distance_profile(bins, step_m=5.0)
        groups = {}
        for b in bins:
            groups.setdefault(math.floor(b.distance_3d_m / 5.0), []).append(b.path_loss_db)
        assert len(pts) == len(groups)
        for center, median in pts:
            key = math.floor(center / 5.0)
            assert median == pytest.approx(float(np.median(groups[key])), abs=1e-12)


class TestSynthesize:
    def test_sigma_zero_on_model_line(self):
        bins = synthesize_samples(83.33, 2.9, 0.0, 100.0, 200, (100.0, 2000.0), seed=4)
        for b in bins:
            want = models.log_distance(b.distance_3d_m, 83.33, 2.9, 100.0)
            assert b.path_loss_db == pytest.approx(want, abs=1e-12)

    def test_deterministic_given_seed(self, tmp_path):
        a = synthesize_samples(83.33, 3.1, 9.4, 100.0, 300, (100.0, 2000.0), seed=7)
        b = synthesize_samples(83.33, 3.1, 9.4, 100.0, 300, (100.0, 2000.0), seed=7)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_bins_csv(a, pa)
        write_bins_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = synthesize_samples(83.33, 3.1, 9.4, 100.0, 50, (100.0, 2000.0), seed=1)
        b = synthesize_samples(83.33, 3.1, 9.4, 100.0, 50, (100.0, 2000.0), seed=2)
        assert a != b

    def test_refit_recovers_inputs(self):
        bins = synthesize_samples(83.33, 4.8, 7.1, 100.0, 5000, (100.0, 2000.0), seed=0)
        fit = fit_log_distance(bins)
        assert fit.a0_db == pytest.approx(83.33, abs=0.6)
        assert fit.gamma == pytest.approx(4.8, abs=0.1)
        assert fit.sigma_db == pytest.approx(7.1, abs=0.3)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            synthesize_samples(83.33, 2.9, 6.9, 100.0, 10, (2000.0, 100.0), seed=0)

    def test_geometry_consistency(self):
        bins = synthesize_samples(83.33, 2.9, 0.0, 100.0, 50, (100.0, 2000.0), seed=3,
                                  h_bs_m=25.0, h_ut_m=1.5)
        for b in bins:
            assert b.distance_3d_m == pytest.approx(
                math.hypot(b.distance_2d_m, 23.5), abs=1e-9
            )
            # the recorded position projects back onto the recorded centroid
            lp = to_local(analysis.DEFAULT_SYNTH_ORIGIN, b.position)
            assert lp.east == pytest.approx(b.centroid.east, abs=1e-6)
            assert lp.north == pytest.approx(b.centroid.north, abs=1e-6)


class TestBinTableIO:
    def test_round_trip(self, tmp_path):
        bins = synthesize_samples(83.33, 2.9, 6.9, 100.0, 100, (100.0, 2000.0), seed=6,
                                  los="NLOS", band="3.5GHz")
        path = tmp_path / "bins.csv"
        write_bins_csv(bins, path)
        loaded = read_bins_csv(path)
        assert len(loaded) == len(bins)
        for a, b in zip(loaded, bins):
            assert a.index == b.index
            assert a.path_loss_db == b.path_loss_db
            assert a.distance_2d_m == b.distance_2d_m
            assert a.distance_3d_m == b.distance_3d_m
            assert a.los == b.los and a.band == b.band
            assert a.position.latitude == b.position.latitude

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_bins_csv(path)


class TestGridBinValidation:
    def test_positive_path_loss(self):
        with pytest.raises(ValueError):
            simple_bin(100.0, -5.0)

    def test_count_at_least_one(self):
        with pytest.raises(ValueError):
            simple_bin(100.0, 90.0, count=0)

    def test_los_label_enumerated(self):
        with pytest.raises(ValueError):
            simple_bin(100.0, 90.0, los="MAYBE")
