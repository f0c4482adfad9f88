import os

import numpy as np
import pytest
from hypothesis import settings

from plkit.antenna import envelope, synthetic_aas_beamset
from plkit.geo import GeodeticPoint
from plkit.ingest import SiteConfig

# The reader and ring properties take their example count from the loaded
# profile; the other properties set their own. HYPOTHESIS_PROFILE=ci, as the
# CI workflow sets it, runs them with four times the local examples.
settings.register_profile("default", max_examples=120, deadline=None)
settings.register_profile("ci", max_examples=480, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# An overflow, an invalid value or a division by zero in numpy fails the test
# that makes it (FloatingPointError) instead of passing as a RuntimeWarning or
# flowing on as inf or NaN.
np.seterr(over="raise", invalid="raise", divide="raise")


@pytest.fixture(scope="session")
def aas_beamset():
    """48 synthetic lobes on a 3x16 grid, peaking at 27 dBi, as a list of patterns."""
    return synthetic_aas_beamset(peak_dbi=27.0, rows=3, cols=16)


@pytest.fixture(scope="session")
def aas_envelope(aas_beamset):
    return envelope(aas_beamset)


@pytest.fixture
def suburban_site():
    return SiteConfig(
        site_position=GeodeticPoint(46.98, 7.48),
        antenna_height_agl_m=24.5,
        boresight_azimuth_deg=0.0,
        tx_power_dbm=53.0,
        carrier_freq_ghz=3.55,
        pattern_ref="pattern.csv",
        rx_gain_dbi=4.0,
        ue_height_m=2.1,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
