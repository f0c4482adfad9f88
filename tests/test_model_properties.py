"""Property tests of the array model suite over each model's validity domain.

One array call must equal the per-link scalar calls, the array validity
mask must agree with the scalar warnings, and TR 38.901 NLOS must stay at
or above LOS.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plkit.models import (
    LinkGeometry,
    comparable_models,
    get_model,
    out_of_validity,
    tr38901,
    two_ray_crossover_m,
    validity_warnings,
)

MODELS = comparable_models()
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


def clip(domain, lo, hi):
    """Intersection of a catalog range with finite drawing bounds."""
    return max(domain[0], lo), min(domain[1], hi)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def scalar_links(g):
    """One single-link geometry per element of an array geometry."""
    return [g.with_distances(float(a), float(b)) for a, b in zip(g.d2d_m, g.d3d_m)]


@st.composite
def geometry_in_domain(draw, model_id):
    """Array geometry whose every link lies inside the model's validity."""
    info = get_model(model_id)
    f = draw(floats(*clip(info.freq_range_ghz, 0.5, 6.0)))
    h_bs = draw(floats(*clip(info.h_bs_range_m, 10.0, 80.0)))
    h_ut = draw(floats(*clip(info.h_ut_range_m, 1.5, 10.0)))
    site = LinkGeometry.at(
        1000.0, f, h_bs, h_ut,
        avg_building_height_m=draw(floats(5.0, 50.0)),
        avg_street_width_m=draw(floats(5.0, 50.0)),
        city_size=draw(st.sampled_from(["small", "medium", "large"])),
    )
    if model_id == "TWO_RAY":
        d_lo = two_ray_crossover_m(site)
        d_hi = 50.0 * d_lo
    else:
        d_lo, d_hi = clip(info.dist_range_m, 10.0, 20000.0)
    u = np.array(draw(st.lists(floats(0.0, 1.0), min_size=1, max_size=40)))
    d2d = np.clip(d_lo * (d_hi / d_lo) ** u, d_lo, d_hi)
    return site.with_distance(d2d)


@st.composite
def geometry_anywhere(draw):
    """Array geometry straddling the edges of every catalog domain."""
    site = LinkGeometry.at(
        1000.0, draw(floats(0.1, 8.0)), draw(floats(5.0, 200.0)), draw(floats(0.5, 30.0))
    )
    d2d = draw(st.lists(floats(1.0, 30000.0), min_size=1, max_size=40))
    return site.with_distance(np.array(d2d))


@pytest.mark.parametrize("model_id", MODELS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_array_call_equals_scalar_calls(model_id, data):
    g = data.draw(geometry_in_domain(model_id))
    assert not out_of_validity(model_id, g).any()
    evaluate = get_model(model_id).evaluate
    array = evaluate(g)
    assert array.shape == g.d2d_m.shape
    scalar = np.array([evaluate(link) for link in scalar_links(g)])
    assert np.all(np.isfinite(array))
    np.testing.assert_allclose(array, scalar, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("model_id", MODELS)
@PROPERTY_SETTINGS
@given(g=geometry_anywhere())
def test_validity_mask_matches_warnings(model_id, g):
    mask = out_of_validity(model_id, g)
    warned = [bool(validity_warnings(model_id, link)) for link in scalar_links(g)]
    assert mask.tolist() == warned


@pytest.mark.parametrize("scenario", ["RMA", "UMA"])
@PROPERTY_SETTINGS
@given(
    f=floats(0.5, 6.0), h_bs=floats(10.0, 80.0), h_ut=floats(1.5, 10.0),
    d2d=st.lists(floats(10.0, 5000.0), min_size=1, max_size=40),
)
# near the mast with a tall UE the UMa NLOS formula falls below LOS and the
# max bound is what holds the property
@example(f=3.5, h_bs=10.0, h_ut=10.0, d2d=[10.0, 12.0, 15.0, 20.0])
def test_tr38901_nlos_not_below_los(scenario, f, h_bs, h_ut, d2d):
    g = LinkGeometry.at(np.array(d2d), f, h_bs, h_ut)
    assert not out_of_validity(f"TR38901_{scenario}_NLOS", g).any()
    assert np.all(tr38901(g, scenario, "NLOS") >= tr38901(g, scenario, "LOS"))


def test_scalar_call_stays_scalar():
    g = LinkGeometry.at(800.0, 3.55, 25.0, 1.5)
    for model_id in MODELS:
        value = get_model(model_id).evaluate(g)
        assert np.ndim(value) == 0 and math.isfinite(value)
