"""Closed-form path-loss models for sub-6 GHz macro-cell planning.

Every model returns the deterministic mean path loss in dB for a given
link geometry, an array of them for a geometry holding distance arrays.
Shadow-fading standard deviations published alongside a model are
catalog metadata only, never added to the returned value. Constants
come from the defining documents: the IEEE 802.16 SUI channel-model
contribution, the ECC-33 report, WINNER II deliverable D1.1.2 Table
4-4, 3GPP TR 38.901 Table 7.4.1-1, and the COST 231 final report.

Evaluating a model outside its published validity (frequency, distance
and antenna-height ranges in the catalog) is allowed (planners
extrapolate all the time); ``out_of_validity`` flags such links and
``validity_warnings`` says why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .columns import FINITE, POSITIVE, Rule, check_record, within
from .geo import MAX_HEIGHT_M

C_LIGHT = 299792458.0
# breakpoint-distance formulas in WINNER II and TR 38.901 define c = 3.0e8
C_BREAKPOINT = 3.0e8

_CITY_SIZES = ("small", "medium", "large")

# the carrier bound a site config shares (README, "Input rules")
MAX_FREQ_GHZ = 3e3
# what a LinkGeometry checks of its scalar parameters, in this order
LINK_RULES = {
    "h_bs_m": within("h_bs_m", MAX_HEIGHT_M),
    "h_ut_m": within("h_ut_m", MAX_HEIGHT_M),
    "avg_building_height_m": within("avg_building_height_m", MAX_HEIGHT_M),
    "avg_street_width_m": Rule("avg_street_width_m must be finite and > 0, got {value}",
                               POSITIVE, FINITE),
    "f_ghz": within("f_ghz", MAX_FREQ_GHZ),
}


@dataclass(frozen=True)
class LinkGeometry:
    """BS-UE links sharing one site: distances, carrier frequency, heights.

    d2d_m is the ground (horizontal) distance, d3d_m the slant distance;
    both are either scalars or equal-shape numpy arrays (one element per
    link), and every model formula returns a value of the same shape. The
    site parameters are scalars. avg_building_height_m / avg_street_width_m
    feed the rural-macro NLOS clutter terms; city_size selects the Hata
    mobile-antenna correction.
    """

    d2d_m: float | np.ndarray
    d3d_m: float | np.ndarray
    f_ghz: float
    h_bs_m: float
    h_ut_m: float
    avg_building_height_m: float = 5.0
    avg_street_width_m: float = 20.0
    city_size: str = "medium"

    def __post_init__(self):
        d2d, d3d = self.d2d_m, self.d3d_m
        if isinstance(d2d, (int, float)) and isinstance(d3d, (int, float)):
            gap = d3d - d2d
        else:
            d2d, d3d = np.asarray(d2d, dtype=float), np.asarray(d3d, dtype=float)
            if d2d.shape != d3d.shape:
                raise ValueError("d2d_m and d3d_m must have the same shape")
            object.__setattr__(self, "d2d_m", d2d)
            object.__setattr__(self, "d3d_m", d3d)
            # the checks below need only the smallest values (NaN propagates)
            d2d, d3d, gap = _smallest(d2d), _smallest(d3d), _smallest(d3d - d2d)
        # the scalar link parameters first: a NaN height makes NaN distances
        check_record(self, LINK_RULES)
        check_positive(d2d_m=d2d, d3d_m=d3d)
        if gap < -1e-9:
            raise ValueError("d3d_m cannot be smaller than d2d_m")
        if self.city_size not in _CITY_SIZES:
            raise ValueError(f"city_size must be one of {_CITY_SIZES}")

    @classmethod
    def at(cls, d2d_m, f_ghz: float, h_bs_m: float, h_ut_m: float, **kw) -> "LinkGeometry":
        """Build from ground distance; slant distance follows from heights."""
        return cls(d2d_m, np.hypot(d2d_m, h_bs_m - h_ut_m), f_ghz, h_bs_m, h_ut_m, **kw)

    def with_distance(self, d2d_m) -> "LinkGeometry":
        return replace(self, d2d_m=d2d_m, d3d_m=np.hypot(d2d_m, self.h_bs_m - self.h_ut_m))

    def with_distances(self, d2d_m, d3d_m) -> "LinkGeometry":
        return replace(self, d2d_m=d2d_m, d3d_m=d3d_m)


def check_positive(**values) -> None:
    """Refuse the first value that is not > 0 (NaN is not), by name and as
    a Python number."""
    for label, v in values.items():
        if not v > 0:
            raise ValueError(f"{label} must be > 0, got {v}")


def check_link(**values) -> None:
    """Refuse the first link parameter that breaks its rule in LINK_RULES."""
    for name, value in values.items():
        rule = LINK_RULES[name]
        if not rule.low <= value <= rule.high:
            raise ValueError(rule.refusal(value))


def _smallest(v) -> float:
    """Smallest element of a scalar or array: inf if empty, NaN if any is."""
    return v if isinstance(v, (int, float)) else float(np.min(v, initial=np.inf))


def _where(cond, a, b):
    """np.where that gives a scalar, not a 0-d array, for scalar input."""
    return np.where(cond, a, b)[()]


def fspl_db(distance_m, f_ghz: float):
    """Free-space path loss: 20 log10(d_m) + 20 log10(f_GHz) + 32.45."""
    check_link(f_ghz=f_ghz)
    check_positive(distance_m=_smallest(distance_m))
    return 20.0 * np.log10(distance_m) + 20.0 * np.log10(f_ghz) + 32.45


def fspl(g: LinkGeometry):
    """Free-space path loss of the slant path."""
    return fspl_db(g.d3d_m, g.f_ghz)


def log_distance(distance_m, a0_db: float, gamma: float, d0_m: float = 100.0):
    """Log-distance mean path loss anchored at reference distance d0."""
    check_positive(distance_m=_smallest(distance_m), d0_m=d0_m)
    return a0_db + 10.0 * gamma * np.log10(distance_m / d0_m)


# ---------------------------------------------------------------------------
# SUI (IEEE 802.16 Stanford University Interim)

_SUI_TERRAIN = {
    "A": (4.6, 0.0075, 12.6),
    "B": (4.0, 0.0065, 17.1),
    "C": (3.6, 0.005, 20.0),
}
_SUI_D0 = 100.0


def sui(g: LinkGeometry, terrain: str):
    """SUI model, terrain class A (hilly/dense), B, or C (flat/light).

    A + 10*gamma*log10(d/100) + X_f + X_h with A the free-space loss at
    100 m, gamma = a - b*h_bs + c/h_bs, X_f the frequency correction above
    2 GHz, and X_h the receive-height correction (terrain C uses -20.0
    instead of -10.8 per decade of h_ut/2).
    """
    if terrain.upper() not in _SUI_TERRAIN:
        raise ValueError(f"unknown SUI terrain {terrain!r}; use A, B, or C")
    lam = C_LIGHT / (g.f_ghz * 1e9)
    base = 20.0 * np.log10(4.0 * math.pi * _SUI_D0 / lam)
    gamma = sui_exponent(g.h_bs_m, terrain)
    x_f = 6.0 * np.log10(g.f_ghz * 1000.0 / 2000.0)
    x_h = (-20.0 if terrain.upper() == "C" else -10.8) * np.log10(g.h_ut_m / 2.0)
    return base + 10.0 * gamma * np.log10(g.d2d_m / _SUI_D0) + x_f + x_h


def sui_exponent(h_bs_m: float, terrain: str) -> float:
    """Path-loss exponent used by the SUI model for a BS height."""
    a, b, c = _SUI_TERRAIN[terrain.upper()]
    return a - b * h_bs_m + c / h_bs_m


# ---------------------------------------------------------------------------
# ECC-33


def ecc33(g: LinkGeometry, large_city: bool = False):
    """ECC-33 model: A_fs + A_bm - G_b - G_r (medium-city G_r by default)."""
    lf = np.log10(g.f_ghz)
    ld = np.log10(g.d2d_m / 1000.0)
    a_fs = 92.4 + 20.0 * ld + 20.0 * lf
    a_bm = 20.41 + 9.83 * ld + 7.894 * lf + 9.56 * lf * lf
    g_b = np.log10(g.h_bs_m / 200.0) * (13.958 + 5.8 * ld * ld)
    if large_city:
        g_r = 0.759 * g.h_ut_m - 1.862
    else:
        g_r = (42.57 + 13.7 * lf) * (np.log10(g.h_ut_m) - 0.585)
    return a_fs + a_bm - g_b - g_r


# ---------------------------------------------------------------------------
# WINNER II (D1.1.2 Table 4-4): C1 suburban, C2 urban, D1 rural macro

# LOS per scenario: height offset of the breakpoint heights, then
# (slope, constant, frequency slope) below and (constant, height slope,
# frequency slope) of 40 log10(d) above the breakpoint
_WINNER_LOS = {
    "C1": (0.0, (23.8, 41.2, 20.0), (11.65, 16.2, 3.8)),
    "C2": (1.0, (26.0, 39.0, 20.0), (13.47, 14.0, 6.0)),
    "D1": (0.0, (21.5, 44.2, 20.0), (10.5, 18.5, 1.5)),
}


def winner2(g: LinkGeometry, scenario: str, condition: str):
    """WINNER II macro path loss for scenario C1, C2, or D1, LOS or NLOS.

    LOS branches are dual-slope around the breakpoint distance
    4*h_bs*h_ut*f/c (C2 uses effective heights reduced by 1 m).
    """
    scenario = scenario.upper()
    condition = condition.upper()
    if scenario not in _WINNER_LOS:
        raise ValueError(f"unknown WINNER II scenario {scenario!r}")
    if condition not in ("LOS", "NLOS"):
        raise ValueError("condition must be LOS or NLOS")
    d = g.d2d_m
    hbs, hut = g.h_bs_m, g.h_ut_m
    lf5 = np.log10(g.f_ghz / 5.0)
    ld = np.log10(d)

    if condition == "NLOS":
        if scenario == "D1":
            return (
                25.1 * ld + 55.4
                - 0.13 * (hbs - 25.0) * np.log10(d / 100.0)
                - 0.9 * (hut - 1.5)
                + 21.3 * lf5
            )
        const = 31.46 if scenario == "C1" else 34.46
        return (44.9 - 6.55 * np.log10(hbs)) * ld + const + 5.83 * np.log10(hbs) + 23.0 * lf5

    h_off, (s1, c1, f1), (c2, h2, f2) = _WINNER_LOS[scenario]
    hbs_eff, hut_eff = hbs - h_off, hut - h_off
    if hbs_eff <= 0 or hut_eff <= 0:
        raise ValueError(f"{scenario} LOS needs antenna heights above {h_off:g} m")
    f_hz = g.f_ghz * 1e9
    d_bp = 4.0 * hbs_eff * hut_eff * f_hz / C_BREAKPOINT
    return _where(
        d <= d_bp,
        s1 * ld + c1 + f1 * lf5,
        40.0 * ld + c2 - h2 * np.log10(hbs_eff) - h2 * np.log10(hut_eff) + f2 * lf5,
    )


# ---------------------------------------------------------------------------
# 3GPP TR 38.901 Table 7.4.1-1: RMa and UMa


def uma_breakpoint_m(g: LinkGeometry) -> float:
    """UMa LOS breakpoint (ground) distance for the given geometry."""
    h_e = 1.0  # effective environment height; deterministic for h_ut <= 13 m
    return 4.0 * (g.h_bs_m - h_e) * (g.h_ut_m - h_e) * g.f_ghz * 1e9 / C_BREAKPOINT


def rma_breakpoint_m(g: LinkGeometry) -> float:
    """RMa LOS breakpoint (ground) distance for the given geometry."""
    return 2.0 * math.pi * g.h_bs_m * g.h_ut_m * g.f_ghz * 1e9 / C_BREAKPOINT


def _rma_pl1(d3d, f_ghz: float, h: float):
    return (
        20.0 * np.log10(40.0 * math.pi * d3d * f_ghz / 3.0)
        + min(0.03 * h**1.72, 10.0) * np.log10(d3d)
        - min(0.044 * h**1.72, 14.77)
        + 0.002 * np.log10(h) * d3d
    )


def _rma_los(g: LinkGeometry):
    h = g.avg_building_height_m
    d_bp = rma_breakpoint_m(g)
    # second slope anchored at the slant distance of the breakpoint location,
    # which keeps the dual-slope curve exactly continuous
    d3d_bp = np.hypot(d_bp, g.h_bs_m - g.h_ut_m)
    return _where(
        g.d2d_m <= d_bp,
        _rma_pl1(g.d3d_m, g.f_ghz, h),
        _rma_pl1(d3d_bp, g.f_ghz, h) + 40.0 * np.log10(g.d3d_m / d3d_bp),
    )


def _uma_los(g: LinkGeometry):
    d_bp = uma_breakpoint_m(g)
    return _where(
        g.d2d_m <= d_bp,
        28.0 + 22.0 * np.log10(g.d3d_m) + 20.0 * np.log10(g.f_ghz),
        28.0 + 40.0 * np.log10(g.d3d_m) + 20.0 * np.log10(g.f_ghz)
        - 9.0 * np.log10(d_bp**2 + (g.h_bs_m - g.h_ut_m) ** 2),
    )


def tr38901(g: LinkGeometry, scenario: str, condition: str):
    """TR 38.901 RMa/UMa path loss; NLOS is lower-bounded by the LOS value."""
    scenario = scenario.upper()
    condition = condition.upper()
    if scenario not in ("RMA", "UMA"):
        raise ValueError(f"unknown TR 38.901 scenario {scenario!r}; use RMA or UMA")
    if condition not in ("LOS", "NLOS"):
        raise ValueError("condition must be LOS or NLOS")
    lf = np.log10(g.f_ghz)
    if scenario == "RMA":
        los = _rma_los(g)
        if condition == "LOS":
            return los
        h, w = g.avg_building_height_m, g.avg_street_width_m
        # a float's ** raises past 1.3e154; from 1e150 on, NLOS lies far below LOS anyway
        ratio = min(h / g.h_bs_m, 1e150)
        nlos = (
            161.04
            - 7.1 * np.log10(w)
            + 7.5 * np.log10(h)
            - (24.37 - 3.7 * ratio**2) * np.log10(g.h_bs_m)
            + (43.42 - 3.1 * np.log10(g.h_bs_m)) * (np.log10(g.d3d_m) - 3.0)
            + 20.0 * lf
            - (3.2 * np.log10(11.75 * g.h_ut_m) ** 2 - 4.97)
        )
        return np.maximum(los, nlos)
    los = _uma_los(g)
    if condition == "LOS":
        return los
    nlos = 13.54 + 39.08 * np.log10(g.d3d_m) + 20.0 * lf - 0.6 * (g.h_ut_m - 1.5)
    return np.maximum(los, nlos)


# ---------------------------------------------------------------------------
# Hata-Okumura and COST 231 Hata


def _mobile_antenna_correction(f_mhz: float, h_ut: float, city_size: str):
    if city_size == "large":
        if f_mhz <= 300.0:
            return 8.29 * np.log10(1.54 * h_ut) ** 2 - 1.1
        return 3.2 * np.log10(11.75 * h_ut) ** 2 - 4.97
    return (1.1 * np.log10(f_mhz) - 0.7) * h_ut - (1.56 * np.log10(f_mhz) - 0.8)


# constant and frequency slope of the urban formula per variant
_HATA = {"HATA_OKUMURA": (69.55, 26.16), "COST231_HATA": (46.3, 33.9)}


def hata_family(g: LinkGeometry, variant: str, environment: str = "urban"):
    """Original Hata-Okumura or COST 231 Hata; environment urban, suburban,
    or open.

    COST 231 adds 3 dB in metropolitan (urban) areas and takes its base
    formula as the suburban value. Its open-area variant reuses the
    Okumura open-land correction, which COST 231 itself does not define
    but is common planning practice.
    """
    variant = variant.upper()
    if variant not in _HATA:
        raise ValueError(f"unknown Hata variant {variant!r}")
    if environment not in ("urban", "suburban", "open"):
        raise ValueError(f"unknown environment {environment!r}")
    const, f_slope = _HATA[variant]
    f_mhz = g.f_ghz * 1000.0
    lf = np.log10(f_mhz)
    a = _mobile_antenna_correction(f_mhz, g.h_ut_m, g.city_size)
    pl = (
        const + f_slope * lf - 13.82 * np.log10(g.h_bs_m) - a
        + (44.9 - 6.55 * np.log10(g.h_bs_m)) * np.log10(g.d2d_m / 1000.0)
    )
    cost231 = variant == "COST231_HATA"
    if environment == "open":
        return pl - 4.78 * lf * lf + 18.33 * lf - 40.94
    if environment == "suburban":
        return pl if cost231 else pl - 2.0 * np.log10(f_mhz / 28.0) ** 2 - 5.4
    return pl + 3.0 if cost231 else pl


def hata_okumura(g: LinkGeometry, environment: str = "urban"):
    """Hata-Okumura closed form; environment urban, suburban, or open."""
    return hata_family(g, "HATA_OKUMURA", environment)


def cost231_hata(g: LinkGeometry, environment: str = "urban"):
    """COST 231 Hata extension; adds 3 dB in metropolitan (urban) areas."""
    return hata_family(g, "COST231_HATA", environment)


# ---------------------------------------------------------------------------
# Two-ray ground reflection


def two_ray(g: LinkGeometry):
    """Full two-ray field sum (direct + ground bounce, reflection -1), dB.

    Oscillates below the crossover distance 4*h_bs*h_ut/lambda and tends to
    the 40 log10(d) asymptote beyond it.
    """
    lam = C_LIGHT / (g.f_ghz * 1e9)
    k = 2.0 * math.pi / lam
    d_los = np.hypot(g.d2d_m, g.h_bs_m - g.h_ut_m)
    d_ref = np.hypot(g.d2d_m, g.h_bs_m + g.h_ut_m)
    field = np.exp(-1j * k * d_los) / d_los - np.exp(-1j * k * d_ref) / d_ref
    amplitude = np.abs(field) * lam / (4.0 * math.pi)
    return -20.0 * np.log10(amplitude)


def two_ray_asymptote(g: LinkGeometry):
    """Far-field two-ray loss 40 log10(d) - 20 log10(h_bs) - 20 log10(h_ut)."""
    return 40.0 * np.log10(g.d2d_m) - 20.0 * np.log10(g.h_bs_m) - 20.0 * np.log10(g.h_ut_m)


def two_ray_crossover_m(g: LinkGeometry) -> float:
    """Distance beyond which the two-ray loss grows monotonically."""
    lam = C_LIGHT / (g.f_ghz * 1e9)
    return 4.0 * g.h_bs_m * g.h_ut_m / lam


# ---------------------------------------------------------------------------
# Model catalog

_ANY = (0.0, math.inf)


@dataclass(frozen=True)
class ModelInfo:
    """Catalog entry: evaluator (LinkGeometry -> path loss of the same
    shape) plus published sigma and closed validity ranges."""

    model_id: str
    evaluate: Optional[Callable[[LinkGeometry], float | np.ndarray]]
    freq_range_ghz: tuple[float, float]
    dist_range_m: tuple[float, float]
    published_sigma_db: Optional[float] = None
    condition: str = "N/A"
    parameters: tuple[str, ...] = ()
    h_bs_range_m: tuple[float, float] = _ANY
    h_ut_range_m: tuple[float, float] = _ANY


_SUI_HEIGHTS = {"h_bs_range_m": (10.0, 80.0), "h_ut_range_m": (2.0, 10.0)}
_RMA_HEIGHTS = {"h_bs_range_m": (10.0, 150.0), "h_ut_range_m": (1.0, 10.0)}
_UMA_HEIGHTS = {"h_ut_range_m": (1.5, 22.5)}

MODEL_CATALOG: dict[str, ModelInfo] = {
    info.model_id: info
    for info in [
        ModelInfo("FSPL", fspl, _ANY, _ANY),
        ModelInfo("LOG_DISTANCE", None, _ANY, _ANY, parameters=("a0_db", "gamma", "d0_m")),
        *(
            ModelInfo(f"SUI_{t}", partial(sui, terrain=t), (1.0, 4.0), (100.0, 8000.0),
                      **_SUI_HEIGHTS)
            for t in "ABC"
        ),
        ModelInfo("ECC33", ecc33, (3.4, 3.8), (1000.0, 10000.0)),
        *(
            ModelInfo(
                f"WINNER2_{s}_{c}", partial(winner2, scenario=s, condition=c),
                (2.0, 6.0), (50.0, 5000.0),
                published_sigma_db=8.0 if c == "NLOS" else None, condition=c,
            )
            for s in _WINNER_LOS for c in ("LOS", "NLOS")
        ),
        *(
            ModelInfo(
                f"TR38901_{s}_{c}", partial(tr38901, scenario=s, condition=c),
                (0.5, 100.0), (10.0, d_max), published_sigma_db=sigma, condition=c, **heights,
            )
            for s, c, d_max, sigma, heights in (
                ("RMA", "LOS", 10000.0, None, _RMA_HEIGHTS),
                ("RMA", "NLOS", 5000.0, 8.0, _RMA_HEIGHTS),
                ("UMA", "LOS", 5000.0, 4.0, _UMA_HEIGHTS),
                ("UMA", "NLOS", 5000.0, 6.0, _UMA_HEIGHTS),
            )
        ),
        ModelInfo("HATA_OKUMURA", hata_okumura, (0.15, 1.5), (1000.0, 20000.0)),
        ModelInfo("COST231_HATA", cost231_hata, (1.5, 2.0), (1000.0, 20000.0)),
        ModelInfo("TWO_RAY", two_ray, _ANY, _ANY),
    ]
}


def get_model(model_id: str) -> ModelInfo:
    try:
        return MODEL_CATALOG[model_id.upper()]
    except KeyError:
        known = ", ".join(sorted(MODEL_CATALOG))
        raise ValueError(f"unknown model id {model_id!r}; known: {known}") from None


def comparable_models() -> list[str]:
    """Ids of all models evaluable without free parameters."""
    return [mid for mid, info in MODEL_CATALOG.items() if info.evaluate is not None]


def _validity_rules(info: ModelInfo, g: LinkGeometry) -> list[tuple[np.ndarray, str, np.ndarray]]:
    """One (outside mask, message format, value) triple per validity rule,
    each array shaped like g.d2d_m; the format takes the value at a link."""
    shape = np.shape(g.d2d_m)
    rules = []
    for what, v, unit, (lo, hi) in (
        ("frequency", g.f_ghz, "GHz", info.freq_range_ghz),
        ("distance", g.d2d_m, "m", info.dist_range_m),
        ("BS height", g.h_bs_m, "m", info.h_bs_range_m),
        ("UE height", g.h_ut_m, "m", info.h_ut_range_m),
    ):
        v = np.asarray(v)
        message = f"{info.model_id}: {what} {{:g}} {unit} outside validity [{lo:g}, {hi:g}] {unit}"
        rules.append((~((lo <= v) & (v <= hi)), message, v))
    # the two-ray rule is the one whose bound depends on the geometry
    if info.model_id == "TWO_RAY":
        crossover = two_ray_crossover_m(g)
        message = f"TWO_RAY: distance {{:g}} m inside the oscillatory region (crossover {crossover:.0f} m)"
        rules.append((g.d2d_m < crossover, message, g.d2d_m))
    return [(np.broadcast_to(m, shape), fmt, np.broadcast_to(v, shape)) for m, fmt, v in rules]


def out_of_validity(model_id: str, g: LinkGeometry) -> np.ndarray:
    """Boolean mask, shaped like g.d2d_m: True where a link sits outside the
    model's published validity (``validity_warnings`` says why)."""
    out = np.zeros(np.shape(g.d2d_m), dtype=bool)
    for outside, _, _ in _validity_rules(get_model(model_id), g):
        out |= outside
    return out


def validity_warnings(model_id: str, g: LinkGeometry) -> list[str]:
    """Human-readable reasons a single-link geometry sits outside published
    validity; empty exactly where ``out_of_validity`` is False."""
    return [
        fmt.format(v[()]) for outside, fmt, v in _validity_rules(get_model(model_id), g)
        if outside[()]
    ]


@dataclass
class PredictionSeries:
    """Model curve sampled over a distance sweep."""

    model_id: str
    distances_m: list[float]
    path_loss_db: list[float]


def predict_series(model_id: str, template: LinkGeometry, distances_m) -> PredictionSeries:
    """Evaluate one model over a sorted sweep of ground distances.

    The slant distance is recomputed per point from the template heights.
    """
    info = get_model(model_id)
    if info.evaluate is None:
        raise ValueError(f"{info.model_id} needs fitted parameters; evaluate it directly")
    d = np.asarray(distances_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    if np.any(np.diff(d) < 0):
        raise ValueError("distances must be sorted ascending")
    g = template.with_distance(d)
    return PredictionSeries(info.model_id, d.tolist(), info.evaluate(g).tolist())


def catalog_json() -> list[dict]:
    """Catalog metadata in a JSON-friendly shape (for the CLI dump)."""

    def _num(v):
        return None if math.isinf(v) else v

    return [
        {
            "id": info.model_id,
            "condition": info.condition,
            "freq_range_ghz": [_num(info.freq_range_ghz[0]), _num(info.freq_range_ghz[1])],
            "dist_range_m": [_num(info.dist_range_m[0]), _num(info.dist_range_m[1])],
            "published_sigma_db": info.published_sigma_db,
            "parameters": list(info.parameters),
        }
        for info in MODEL_CATALOG.values()
    ]
