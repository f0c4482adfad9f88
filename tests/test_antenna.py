import numpy as np
import pytest

from plkit.antenna import (
    AntennaPattern,
    envelope,
    gain_at,
    load_pattern_csv,
    save_pattern_csv,
    synthetic_beam,
)


def make_pattern(gain, az_step=90.0, el=(-10.0, 0.0, 10.0), **kw):
    az = np.arange(0.0, 360.0, az_step)
    return AntennaPattern(az, np.array(el), np.asarray(gain, dtype=float), **kw)


def oracle_bilinear(pattern, az_q, el_q):
    """Independent nearest-four-node bilinear evaluation via searchsorted."""
    az = pattern.azimuth_deg
    el = pattern.elevation_deg
    a = (az_q - pattern.boresight_azimuth - az[0]) % 360.0 + az[0]
    e = min(max(el_q - pattern.mechanical_tilt, el[0]), el[-1])
    step_az = az[1] - az[0]
    i1 = int(np.searchsorted(az, a, side="right"))
    i0 = i1 - 1
    a0 = az[i0]
    i1 = i1 % az.size
    wa = (a - a0) / step_az
    j1 = int(np.searchsorted(el, e, side="right"))
    j1 = min(max(j1, 1), el.size - 1)
    j0 = j1 - 1
    we = (e - el[j0]) / (el[j1] - el[j0])
    g = pattern.gain_dbi
    low = g[i0, j0] * (1 - wa) + g[i1, j0] * wa
    high = g[i0, j1] * (1 - wa) + g[i1, j1] * wa
    return low * (1 - we) + high * we


class TestPatternValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_pattern(np.zeros((4, 2)))

    def test_nonuniform_azimuth(self):
        with pytest.raises(ValueError):
            AntennaPattern(
                np.array([0.0, 90.0, 200.0, 270.0]),
                np.array([-10.0, 10.0]),
                np.zeros((4, 2)),
            )

    def test_partial_circle_rejected(self):
        with pytest.raises(ValueError):
            AntennaPattern(
                np.array([0.0, 10.0, 20.0]),
                np.array([-10.0, 10.0]),
                np.zeros((3, 2)),
            )

    def test_elevation_out_of_range(self):
        with pytest.raises(ValueError):
            AntennaPattern(
                np.array([0.0, 180.0]),
                np.array([-95.0, 0.0]),
                np.zeros((2, 2)),
            )


class TestEnvelope:
    def test_single_beam_identity(self):
        beam = make_pattern(np.arange(12).reshape(4, 3))
        env = envelope([beam])
        assert np.array_equal(env.gain_dbi, beam.gain_dbi)

    def test_dominant_beam_wins_everywhere(self):
        weak = make_pattern(np.arange(12).reshape(4, 3))
        strong = make_pattern(np.arange(12).reshape(4, 3) + 3.0)
        env = envelope([weak, strong])
        assert np.array_equal(env.gain_dbi, strong.gain_dbi)

    def test_48_beam_brute_force_max(self, aas_beamset):
        env = envelope(aas_beamset)
        beams = aas_beamset
        for i in range(0, env.azimuth_deg.size, 7):
            for j in range(env.elevation_deg.size):
                expected = max(b.gain_dbi[i, j] for b in beams)
                assert env.gain_dbi[i, j] == expected

    def test_pointwise_upper_bound_and_idempotence(self, aas_beamset):
        env = envelope(aas_beamset)
        for b in aas_beamset:
            assert np.all(env.gain_dbi >= b.gain_dbi)
        again = envelope([env] + aas_beamset)
        assert np.array_equal(again.gain_dbi, env.gain_dbi)

    def test_order_invariance(self, aas_beamset, rng):
        env = envelope(aas_beamset)
        shuffled = list(aas_beamset)
        rng.shuffle(shuffled)
        assert np.array_equal(envelope(shuffled).gain_dbi, env.gain_dbi)

    def test_mismatched_grids_rejected(self):
        a = make_pattern(np.zeros((4, 3)))
        b = make_pattern(np.zeros((8, 3)), az_step=45.0)
        with pytest.raises(ValueError):
            envelope([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            envelope([])

    def test_aas_envelope_peaks_at_27(self, aas_envelope):
        assert aas_envelope.gain_dbi.max() == pytest.approx(27.0)


class TestGainAt:
    def test_grid_node_exact(self):
        gain = np.arange(12, dtype=float).reshape(4, 3)
        p = make_pattern(gain)
        for i, az in enumerate(p.azimuth_deg):
            for j, el in enumerate(p.elevation_deg):
                assert gain_at(p, az, el) == gain[i, j]

    def test_azimuth_midpoint(self):
        gain = np.zeros((4, 3))
        gain[0, 1] = 10.0
        gain[1, 1] = 20.0
        p = make_pattern(gain)
        assert gain_at(p, 45.0, 0.0) == pytest.approx(15.0)

    def test_matches_oracle_random_angles(self, aas_envelope, rng):
        for _ in range(1000):
            az = rng.uniform(-360.0, 720.0)
            el = rng.uniform(-30.0, 30.0)
            got = gain_at(aas_envelope, az, el)
            want = oracle_bilinear(aas_envelope, az, el)
            assert got == pytest.approx(want, abs=1e-9)

    def test_wrap_continuity(self, aas_envelope):
        eps = 1e-9
        assert gain_at(aas_envelope, 360.0 - eps, 3.0) == pytest.approx(
            gain_at(aas_envelope, 0.0, 3.0), abs=1e-6
        )

    def test_boresight_shift(self):
        gain = np.zeros((4, 3))
        gain[0, 1] = 10.0
        p = make_pattern(gain, boresight_azimuth=90.0)
        assert gain_at(p, 90.0, 0.0) == pytest.approx(10.0)
        assert gain_at(p, 0.0, 0.0) == pytest.approx(0.0)

    def test_tilt_shift(self):
        gain = np.zeros((4, 3))
        gain[0, 1] = 10.0  # az 0, el 0 node
        p = make_pattern(gain, mechanical_tilt=-10.0)
        assert gain_at(p, 0.0, -10.0) == pytest.approx(10.0)

    def test_elevation_clamp_warns(self):
        p = make_pattern(np.zeros((4, 3)))
        with pytest.warns(UserWarning, match="clamping"):
            assert gain_at(p, 0.0, -45.0) == pytest.approx(0.0)


class TestIO:
    def test_pattern_round_trip(self, tmp_path):
        beam = synthetic_beam(10.0, -5.0, peak_dbi=17.0, azimuth_step=5.0,
                              elevation_step=5.0)
        path = tmp_path / "beam.csv"
        save_pattern_csv(beam, path)
        loaded = load_pattern_csv(path)
        assert np.array_equal(loaded.azimuth_deg, beam.azimuth_deg)
        assert np.array_equal(loaded.elevation_deg, beam.elevation_deg)
        assert np.allclose(loaded.gain_dbi, beam.gain_dbi)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "azimuth_deg,elevation_deg,gain_dbi\n"
            "0,0,1\n0,10,1\n180,0,1\n"
        )
        with pytest.raises(ValueError, match="incomplete"):
            load_pattern_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("az,el,g\n0,0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_pattern_csv(path)
