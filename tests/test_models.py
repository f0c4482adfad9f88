import math

import numpy as np
import pytest

from plkit.models import (
    LinkGeometry,
    MODEL_CATALOG,
    catalog_json,
    comparable_models,
    ecc33,
    evaluable_model,
    fspl,
    fspl_db,
    get_model,
    hata_family,
    log_distance,
    predict_series,
    rma_breakpoint_m,
    sui,
    sui_exponent,
    tr38901,
    two_ray,
    two_ray_asymptote,
    two_ray_crossover_m,
    uma_breakpoint_m,
    validity_warnings,
    winner2,
    C_LIGHT,
)


def geometry(d2d=1000.0, f=3.55, h_bs=25.0, h_ut=1.5, **kw):
    return LinkGeometry.at(d2d, f, h_bs, h_ut, **kw)


class TestLinkGeometry:
    def test_slant_from_ground(self):
        g = LinkGeometry.at(300.0, 3.5, 29.4, 1.4)
        assert g.d3d_m == pytest.approx(math.sqrt(300**2 + 28**2))

    def test_rejects_d3d_below_d2d(self):
        with pytest.raises(ValueError):
            LinkGeometry(100.0, 50.0, 3.5, 25.0, 1.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LinkGeometry.at(0.0, 3.5, 25.0, 1.5)
        with pytest.raises(ValueError):
            LinkGeometry.at(100.0, -1.0, 25.0, 1.5)


class TestFspl:
    def test_reference_value(self):
        assert fspl_db(100.0, 3.5) == pytest.approx(83.3314, abs=1e-4)

    def test_doubling_distance(self):
        assert fspl_db(846.0, 3.5) - fspl_db(423.0, 3.5) == pytest.approx(
            20.0 * math.log10(2.0), abs=1e-9
        )

    def test_frequency_offset_identity(self, rng):
        for _ in range(100):
            d = rng.uniform(1.0, 20000.0)
            assert fspl_db(d, 3.5) - fspl_db(d, 0.8) == pytest.approx(
                20.0 * math.log10(3.5 / 0.8), abs=1e-9
            )
        # the 3.5 GHz vs 800 MHz separation rounds to 12.8 dB
        assert 20.0 * math.log10(3.5 / 0.8) == pytest.approx(12.8, abs=0.02)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fspl_db(0.0, 3.5)
        with pytest.raises(ValueError):
            fspl_db(100.0, 0.0)


class TestLogDistance:
    def test_reference_distance(self):
        assert log_distance(100.0, 83.33, 2.9, 100.0) == 83.33

    def test_one_decade(self):
        assert log_distance(1000.0, 83.33, 2.9, 100.0) == pytest.approx(112.33)

    def test_gamma_two_reproduces_free_space(self, rng):
        a0 = fspl_db(100.0, 3.5)
        for _ in range(50):
            d = rng.uniform(1.0, 50000.0)
            assert log_distance(d, a0, 2.0, 100.0) == pytest.approx(
                fspl_db(d, 3.5), abs=1e-9
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_distance(-5.0, 80.0, 2.0)


class TestSui:
    def test_exponent_terrain_c(self):
        assert sui_exponent(30.0, "C") == pytest.approx(3.6 - 0.15 + 20.0 / 30.0)
        assert sui_exponent(30.0, "C") == pytest.approx(4.117, abs=5e-4)

    def test_height_correction_vanishes_at_2m(self):
        for terrain in "ABC":
            base = sui(geometry(d2d=100.0, f=2.0, h_ut=2.0), terrain)
            lam = C_LIGHT / 2.0e9
            expected = 20.0 * math.log10(4.0 * math.pi * 100.0 / lam)
            assert base == pytest.approx(expected, abs=1e-9)

    def test_frequency_correction_vanishes_at_2ghz(self):
        # difference between 2 GHz and another frequency is exactly the
        # free-space A shift plus X_f
        g1 = geometry(d2d=500.0, f=2.0, h_ut=2.0)
        g2 = geometry(d2d=500.0, f=4.0, h_ut=2.0)
        diff = sui(g2, "B") - sui(g1, "B")
        assert diff == pytest.approx(20.0 * math.log10(2.0) + 6.0 * math.log10(2.0))

    def test_handheld_ue_height_warns_not_fails(self):
        g = geometry(d2d=500.0, h_ut=1.4)
        warns = validity_warnings("SUI_C", g)
        assert any("UE height" in w for w in warns)
        assert math.isfinite(sui(g, "C"))

    def test_unknown_terrain(self):
        with pytest.raises(ValueError):
            sui(geometry(), "D")


class TestEcc33:
    def test_bs_gain_vanishes_at_200m(self):
        g1 = geometry(d2d=2000.0, f=3.5, h_bs=200.0, h_ut=2.0)
        # with h_bs = 200 the G_b term is exactly zero: changing only d
        # must follow A_fs + A_bm slopes
        pl = ecc33(g1)
        lf = math.log10(3.5)
        ld = math.log10(2.0)
        a_fs = 92.4 + 20 * ld + 20 * lf
        a_bm = 20.41 + 9.83 * ld + 7.894 * lf + 9.56 * lf**2
        g_r = (42.57 + 13.7 * lf) * (math.log10(2.0) - 0.585)
        assert pl == pytest.approx(a_fs + a_bm - g_r, abs=1e-9)

    def test_free_space_term_is_924_at_1km_1ghz(self):
        g = geometry(d2d=1000.0, f=1.0, h_bs=200.0, h_ut=10.0**0.585)
        # d = 1 km, f = 1 GHz, G_b = 0 (h_bs 200), G_r = 0 (log10(h_ut)=0.585)
        assert ecc33(g) == pytest.approx(92.4 + 20.41, abs=1e-9)

    def test_term_by_term_oracle(self):
        # independent spreadsheet-style evaluation of the four terms
        d_km, f, hb, hr = 2.0, 3.5, 24.5, 2.1
        a_fs = 92.4 + 20 * math.log10(d_km) + 20 * math.log10(f)
        a_bm = (20.41 + 9.83 * math.log10(d_km) + 7.894 * math.log10(f)
                + 9.56 * math.log10(f) ** 2)
        g_b = math.log10(hb / 200.0) * (13.958 + 5.8 * math.log10(d_km) ** 2)
        g_r = (42.57 + 13.7 * math.log10(f)) * (math.log10(hr) - 0.585)
        expected = a_fs + a_bm - g_b - g_r
        assert expected == pytest.approx(166.1481, abs=5e-4)
        g = geometry(d2d=2000.0, f=3.5, h_bs=24.5, h_ut=2.1)
        assert ecc33(g) == pytest.approx(expected, abs=1e-9)


class TestWinner2:
    def test_d1_nlos_sigma_metadata(self):
        assert MODEL_CATALOG["WINNER2_D1_NLOS"].published_sigma_db == 8.0

    def test_d1_nlos_degenerate_terms(self):
        # h_bs 25, h_ut 1.5, f 5 GHz leaves only the slope and constant
        g = geometry(d2d=1000.0, f=5.0, h_bs=25.0, h_ut=1.5)
        assert winner2(g, "D1", "NLOS") == pytest.approx(25.1 * 3.0 + 55.4)
        assert winner2(g, "D1", "NLOS") == pytest.approx(130.7, abs=1e-9)

    def test_c1_vs_c2_nlos_offset(self):
        g = geometry(d2d=800.0)
        assert winner2(g, "C2", "NLOS") - winner2(g, "C1", "NLOS") == pytest.approx(3.0)

    def test_los_breakpoint_small_jump(self):
        # published dual-slope constants give a sub-0.05 dB seam
        for scen, h_off in (("C1", 0.0), ("C2", 1.0), ("D1", 0.0)):
            hbs, hut = 25.0, 1.5
            d_bp = 4.0 * (hbs - h_off) * (hut - h_off) * 3.5e9 / 3.0e8
            g = geometry(f=3.5, h_bs=hbs, h_ut=hut)
            below = winner2(g.with_distance(d_bp * (1 - 1e-12)), scen, "LOS")
            above = winner2(g.with_distance(d_bp * (1 + 1e-12)), scen, "LOS")
            assert abs(above - below) < 0.05

    def test_all_branches_finite(self):
        g = geometry(d2d=700.0)
        for scen in ("C1", "C2", "D1"):
            for cond in ("LOS", "NLOS"):
                assert math.isfinite(winner2(g, scen, cond))

    def test_unknown_scenariorejected(self):
        with pytest.raises(ValueError):
            winner2(geometry(), "B1", "LOS")


class TestTr38901:
    def test_uma_los_below_breakpoint(self):
        # equal heights make the slant equal the ground distance
        g = LinkGeometry(100.0, 100.0, 3.5, 25.0, 1.5)
        assert tr38901(g, "UMA", "LOS") == pytest.approx(82.8814, abs=5e-4)

    def test_uma_nlos_reference_point(self):
        g = LinkGeometry(500.0, 500.0, 3.5, 25.0, 1.5)
        # the NLOS branch dominates here: 13.54 + 39.08 log10(500) + 20 log10(3.5)
        assert tr38901(g, "UMA", "NLOS") == pytest.approx(129.8971, abs=5e-4)

    def test_nlos_lower_bounded_by_los(self):
        for scen in ("RMA", "UMA"):
            g = geometry()
            for d in np.geomspace(10.0, 5000.0, 1000):
                gd = g.with_distance(float(d))
                assert tr38901(gd, scen, "NLOS") >= tr38901(gd, scen, "LOS") - 1e-12

    def test_los_breakpoint_continuity(self):
        g = geometry(f=3.5, h_bs=25.0, h_ut=1.5)
        for scen, bp in (("UMA", uma_breakpoint_m(g)), ("RMA", rma_breakpoint_m(g))):
            below = tr38901(g.with_distance(bp - 1e-9), scen, "LOS")
            above = tr38901(g.with_distance(bp + 1e-9), scen, "LOS")
            assert abs(above - below) < 1e-9

    def test_rma_clutter_defaults(self):
        g = geometry(h_bs=35.0)
        assert g.avg_building_height_m == 5.0
        assert g.avg_street_width_m == 20.0
        assert math.isfinite(tr38901(g, "RMA", "NLOS"))

    def test_uma_monotone_in_distance(self):
        g = geometry()
        prev = -math.inf
        for d in np.geomspace(10.0, 5000.0, 2000):
            pl = tr38901(g.with_distance(float(d)), "UMA", "NLOS")
            assert pl >= prev - 1e-9
            prev = pl


class TestHataFamily:
    def test_textbook_urban_value(self):
        # 900 MHz, h_bs 30 m, h_ut 1.5 m, 1 km: classic worked example
        g = LinkGeometry.at(1000.0, 0.9, 30.0, 1.5)
        a = (1.1 * math.log10(900.0) - 0.7) * 1.5 - (1.56 * math.log10(900.0) - 0.8)
        expected = (69.55 + 26.16 * math.log10(900.0) - 13.82 * math.log10(30.0) - a)
        assert expected == pytest.approx(126.403, abs=5e-4)
        assert hata_family(g, "HATA_OKUMURA", "urban") == pytest.approx(expected, abs=1e-9)

    def test_distance_slope(self):
        # one decade of distance adds 44.9 - 6.55 log10(h_bs) for both variants
        for variant in ("HATA_OKUMURA", "COST231_HATA"):
            for h_bs in (30.0, 50.0, 100.0):
                g1 = LinkGeometry.at(1000.0, 0.9, h_bs, 1.5)
                g2 = LinkGeometry.at(10000.0, 0.9, h_bs, 1.5)
                slope = hata_family(g2, variant) - hata_family(g1, variant)
                assert slope == pytest.approx(44.9 - 6.55 * math.log10(h_bs), abs=1e-9)

    def test_cost231_urban_suburban_constant_gap(self):
        for d in (1000.0, 3000.0, 10000.0):
            g = LinkGeometry.at(d, 1.8, 30.0, 1.5)
            urban, suburban = (hata_family(g, "COST231_HATA", env) for env in ("urban", "suburban"))
            gap = urban - suburban
            assert gap == pytest.approx(3.0)

    def test_open_below_urban(self):
        g = LinkGeometry.at(5000.0, 0.9, 30.0, 1.5)
        open_, suburban, urban = (hata_family(g, "HATA_OKUMURA", env)
                                  for env in ("open", "suburban", "urban"))
        assert open_ < suburban < urban

    def test_large_city_correction_used(self):
        g_med = LinkGeometry.at(1000.0, 0.9, 30.0, 1.5, city_size="medium")
        g_big = LinkGeometry.at(1000.0, 0.9, 30.0, 1.5, city_size="large")
        assert hata_family(g_med, "HATA_OKUMURA") != hata_family(g_big, "HATA_OKUMURA")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            hata_family(geometry(), "LEE")


class TestTwoRay:
    def test_asymptote_value(self):
        g = LinkGeometry.at(1000.0, 3.5, 24.5, 2.1)
        assert two_ray_asymptote(g) == pytest.approx(85.7723, abs=5e-4)

    def test_asymptote_frequency_independent(self):
        a = two_ray_asymptote(LinkGeometry.at(1000.0, 0.8, 24.5, 2.1))
        b = two_ray_asymptote(LinkGeometry.at(1000.0, 3.5, 24.5, 2.1))
        assert a == b

    def test_full_model_tends_to_asymptote(self):
        g = LinkGeometry.at(80000.0, 3.5, 24.5, 2.1)
        assert two_ray(g) == pytest.approx(two_ray_asymptote(g), abs=0.1)

    def test_deep_fade_at_cancellation_distance(self):
        # the direct and reflected paths cancel where their length
        # difference is a full wavelength: closed-form solution below
        h1, h2, f = 24.5, 2.1, 3.5
        lam = C_LIGHT / (f * 1e9)
        d_null = math.sqrt(((4 * h1 * h2 - lam**2) / (2 * lam)) ** 2 - (h1 - h2) ** 2)
        g = LinkGeometry.at(d_null, f, h1, h2)
        assert two_ray(g) >= fspl(g) + 20.0

    def test_crossover_flagged(self):
        g = LinkGeometry.at(500.0, 3.5, 24.5, 2.1)
        assert g.d2d_m < two_ray_crossover_m(g)
        assert any("oscillatory" in w for w in validity_warnings("TWO_RAY", g))
        far = g.with_distance(two_ray_crossover_m(g) * 2)
        assert not validity_warnings("TWO_RAY", far)


class TestPredictSeries:
    def test_fspl_two_points(self):
        template = LinkGeometry.at(100.0, 3.5, 10.0, 10.0)  # flat: d3d == d2d
        series = predict_series("FSPL", template, [100.0, 200.0])
        assert series.path_loss_db == pytest.approx([83.3314, 89.3520], abs=5e-4)

    def test_empty_distances(self):
        series = predict_series("FSPL", geometry(), [])
        assert series.path_loss_db.shape == (0,)

    def test_curves_are_float_arrays(self):
        series = predict_series("TWO_RAY", geometry(), [100.0, 200.0, 400.0])
        for column in (series.distances_m, series.path_loss_db):
            assert isinstance(column, np.ndarray) and column.dtype == float
            assert column.shape == (3,)

    def test_nonpositive_distance_refused_by_name(self):
        with pytest.raises(ValueError, match="d2d_m must be > 0, got 0.0"):
            predict_series("FSPL", geometry(), [0.0, 100.0])

    def test_uma_nlos_monotone(self):
        series = predict_series(
            "TR38901_UMA_NLOS", geometry(), list(np.geomspace(10.0, 5000.0, 1000))
        )
        diffs = np.diff(series.path_loss_db)
        assert np.all(diffs >= -1e-9)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            predict_series("NOT_A_MODEL", geometry(), [100.0])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            predict_series("FSPL", geometry(), [200.0, 100.0])

    def test_sweep_links_carry_validity_warnings(self):
        template = geometry(h_ut=1.5)
        near, far = (validity_warnings("SUI_C", template.with_distance(d)) for d in (50.0, 500.0))
        assert near  # below 100 m and UE below 2 m
        assert any("UE height" in w for w in far)


class TestCatalog:
    def test_log_distance_listed_but_not_evaluable(self):
        info = get_model("LOG_DISTANCE")
        assert info.evaluate is None
        assert "gamma" in info.parameters
        assert "LOG_DISTANCE" not in comparable_models()

    def test_catalog_json_fields(self):
        entries = catalog_json()
        ids = {e["id"] for e in entries}
        assert {"FSPL", "SUI_C", "ECC33", "WINNER2_D1_NLOS",
                "TR38901_UMA_NLOS", "HATA_OKUMURA", "COST231_HATA",
                "TWO_RAY"} <= ids
        for e in entries:
            assert set(e) == {"id", "condition", "freq_range_ghz", "dist_range_m",
                              "h_bs_range_m", "h_ut_range_m", "published_sigma_db",
                              "parameters"}
        # every range compare counts bins against, an open end as None
        by_id = {e["id"]: e for e in entries}
        assert by_id["SUI_A"]["h_bs_range_m"] == [10.0, 80.0]
        assert by_id["TR38901_RMA_LOS"]["h_ut_range_m"] == [1.0, 10.0]
        assert by_id["TR38901_UMA_NLOS"]["h_bs_range_m"] == [0.0, None]

    def test_free_parameters_refused_by_one_message(self):
        with pytest.raises(ValueError) as refused:
            evaluable_model("log_distance")
        assert str(refused.value) == "LOG_DISTANCE has free parameters (a0_db, gamma, d0_m)"
        with pytest.raises(ValueError) as series:
            predict_series("LOG_DISTANCE", geometry(), [100.0])
        assert str(series.value) == str(refused.value)

    def test_case_insensitive_lookup(self):
        assert get_model("fspl").model_id == "FSPL"
