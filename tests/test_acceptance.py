"""Acceptance suite.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import time

import numpy as np
import pytest

from plkit import models
from plkit.analysis import (
    GridBin,
    aggregate_bins,
    fit_log_distance,
    frequency_offset,
    o2i_cdf,
    pair_bins_by_index,
    prediction_errors,
    rmse_identity,
    shadow_fading,
    synthesize_from_model,
    synthesize_samples,
)
from plkit.antenna import envelope, synthetic_aas_beamset
from plkit.cli import main
from plkit.geo import GeodeticPoint, GridIndex, LocalPoint, from_local, point_in_ring
from plkit.ingest import IndoorSession, MeasurementSample

# published error statistics being checked for arithmetic consistency
ERROR_TABLE = [
    (14.9, 10.8, 18.4),
    (9.82, 7.53, 12.4),
    (3.83, 3.66, 5.29),
    (2.11, 4.4, 4.87),
    (2.07, 6.54, 6.84),
    (-8.3, 5.18, 9.78),
]

# published log-distance parameters (exponent, sigma) per environment
FIT_TABLE = {
    "rural_los": (2.3, 5.1),
    "rural_nlos": (3.1, 9.4),
    "suburban": (2.9, 6.9),
    "urban": (4.8, 7.1),
}


def test_criterion_1_rmse_identity():
    """mu/sigma pairs reproduce their published RMSE at large n."""
    n = 10**6
    for mu, sigma, published in ERROR_TABLE:
        assert rmse_identity(mu, sigma, n) == pytest.approx(published, abs=0.05)

    # same arithmetic through the ErrorStats pipeline on a constructed
    # sample with exact first and second moments
    mu, sigma, published = ERROR_TABLE[0]
    m = 20000
    z = np.tile([1.0, -1.0], m // 2)
    errors = mu + sigma * z * math.sqrt((m - 1) / m)
    template = models.LinkGeometry.at(500.0, 3.5, 10.0, 10.0)
    distances = np.linspace(200.0, 1200.0, m)
    bins = [
        GridBin(index=GridIndex(i, 0, 5.0),
                path_loss_db=models.fspl_db(float(d), 3.5) - float(e),
                distance_3d_m=float(d), distance_2d_m=float(d), sample_count=1)
        for i, (d, e) in enumerate(zip(distances, errors))
    ]
    es = prediction_errors(bins, "FSPL", template)
    assert es.mu_e == pytest.approx(mu, abs=1e-9)
    assert es.sigma_e == pytest.approx(sigma, abs=1e-6)
    assert es.rmse == pytest.approx(published, abs=0.05)
    assert es.rmse == pytest.approx(rmse_identity(es.mu_e, es.sigma_e, es.n), abs=1e-9)
    print("\nACCEPTANCE 1 PASS: RMSE identity reproduces all six published "
          "(mu, sigma, RMSE) rows within 0.05 dB")


def test_criterion_2_frequency_offset_theory():
    """Free-space tables 3.5 GHz vs 0.8/2.1 GHz give the theoretical offsets."""
    t0 = time.perf_counter()
    results = {}
    for f_low in (0.8, 2.1):
        high = synthesize_from_model(
            "FSPL", models.LinkGeometry.at(500.0, 3.5, 10.0, 10.0),
            0.0, 400, (100.0, 2000.0), seed=42)
        low = synthesize_from_model(
            "FSPL", models.LinkGeometry.at(500.0, f_low, 10.0, 10.0),
            0.0, 400, (100.0, 2000.0), seed=42)
        pairs = pair_bins_by_index(high, low)
        assert len(pairs) >= 2
        offset, sigma = frequency_offset(pairs)
        theory = 20.0 * math.log10(3.5 / f_low)
        assert offset == pytest.approx(theory, abs=0.01)
        assert sigma == pytest.approx(0.0, abs=0.01)
        results[f_low] = offset
    # the theoretical values round to the quoted 12.8 and 4.4 dB
    assert round(results[0.8], 1) == 12.8
    assert round(results[2.1], 1) == 4.4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: frequency offsets {results[0.8]:.2f} / "
          f"{results[2.1]:.2f} dB match 20log10(f1/f2) within 0.01 dB "
          f"({elapsed:.2f} s)")


def test_criterion_3_estimator_closure():
    """Refitting synthetic data recovers every published parameter row."""
    t0 = time.perf_counter()
    for name, (gamma, sigma) in FIT_TABLE.items():
        for seed in range(20):
            bins = synthesize_samples(
                83.33, gamma, sigma, 100.0, 5000, (100.0, 2000.0), seed)
            fit = fit_log_distance(bins)
            assert fit.gamma == pytest.approx(gamma, abs=0.1), (name, seed)
            assert fit.sigma_db == pytest.approx(sigma, abs=0.3), (name, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: gamma within 0.1 and sigma within 0.3 for "
          f"all 4 parameter rows x 20 seeds ({elapsed:.2f} s)")


def test_criterion_4_model_self_consistency():
    """Data drawn from UMa NLOS ranks UMa NLOS first in >= 19/20 seeds."""
    template = models.LinkGeometry.at(1000.0, 3.5, 25.0, 1.5)
    catalog = models.comparable_models()
    wins = 0
    for seed in range(20):
        bins = synthesize_from_model(
            "TR38901_UMA_NLOS", template, 6.0, 5000, (100.0, 2000.0), seed)
        ranked = sorted(
            (prediction_errors(bins, mid, template).rmse, mid) for mid in catalog
        )
        wins += ranked[0][1] == "TR38901_UMA_NLOS"
    assert wins >= 19
    print(f"\nACCEPTANCE 4 PASS: TR38901_UMA_NLOS ranked first by RMSE in "
          f"{wins}/20 seeds against {len(catalog)} catalog models")


def test_criterion_5_model_formula_invariants():
    """Formula-level invariants of the model suite."""
    t0 = time.perf_counter()
    g = models.LinkGeometry.at(1000.0, 3.5, 25.0, 1.5)

    # NLOS lower-bounded by LOS on a 1000-point grid
    for scen in ("UMA", "RMA"):
        for d in np.geomspace(10.0, 5000.0, 1000):
            gd = g.with_distance(float(d))
            assert models.tr38901(gd, scen, "NLOS") >= models.tr38901(gd, scen, "LOS") - 1e-12

    # LOS dual-slope continuity at the breakpoint
    for scen, bp in (("UMA", models.uma_breakpoint_m(g)), ("RMA", models.rma_breakpoint_m(g))):
        below = models.tr38901(g.with_distance(bp - 1e-9), scen, "LOS")
        above = models.tr38901(g.with_distance(bp + 1e-9), scen, "LOS")
        assert abs(above - below) < 1e-9

    # SUI corrections vanish at their reference points
    lam = models.C_LIGHT / 2.0e9
    base = 20.0 * math.log10(4.0 * math.pi * 100.0 / lam)
    for terrain in "ABC":
        g_ref = models.LinkGeometry.at(100.0, 2.0, 25.0, 2.0)
        assert models.sui(g_ref, terrain) == pytest.approx(base, abs=1e-9)

    # every catalog model is monotone non-decreasing over its validity
    # range (frequency and BS height chosen inside each model's domain)
    overrides = {
        "HATA_OKUMURA": (0.9, 30.0),
        "COST231_HATA": (1.8, 30.0),
    }
    for mid in models.comparable_models():
        info = models.get_model(mid)
        f, h_bs = overrides.get(mid, (3.5, 25.0))
        tmpl = models.LinkGeometry.at(1000.0, f, h_bs, 1.5)
        lo = max(info.dist_range_m[0], 10.0)
        hi = min(info.dist_range_m[1], 20000.0)
        if mid == "TWO_RAY":
            lo = models.two_ray_crossover_m(tmpl) * 1.02
            hi = lo * 50.0
        prev = -math.inf
        for d in np.geomspace(lo, hi, 1000):
            pl = info.evaluate(tmpl.with_distance(float(d)))
            assert pl >= prev - 1e-9, (mid, d)
            prev = pl

    # free-space frequency-offset identity holds exactly
    for d in (1.0, 100.0, 5000.0, 250000.0):
        got = models.fspl_db(d, 3.5) - models.fspl_db(d, 0.8)
        assert got == pytest.approx(20.0 * math.log10(3.5 / 0.8), abs=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 5 PASS: model-formula invariant suite ({elapsed:.2f} s)")


def test_criterion_6_pipeline_invariants(rng):
    """Numerical invariants of the analysis pipeline against oracles."""
    origin = GeodeticPoint(46.98, 7.48)

    # binning is permutation-invariant across 100 shuffles
    samples = [
        MeasurementSample(
            timestamp_ms=int(1000 + i),
            position=from_local(origin, LocalPoint(
                float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)))),
            received_power_dbm=float(rng.uniform(-120, -50)),
            band="3.5GHz", source="TESTBED",
        )
        for i in range(500)
    ]
    reference = aggregate_bins(samples, origin)
    for _ in range(100):
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert aggregate_bins(shuffled, origin) == reference

    # per-bin medians equal an independent sort-based computation
    from plkit.geo import to_local
    groups = {}
    for s in samples:
        lp = to_local(origin, s.position)
        key = (math.floor(lp.east / 5.0), math.floor(lp.north / 5.0))
        groups.setdefault(key, []).append(s.received_power_dbm)
    for agg in reference:
        vals = sorted(groups[agg.index.ix, agg.index.iy])
        n = len(vals)
        want = vals[n // 2] if n % 2 else 0.5 * (vals[n // 2 - 1] + vals[n // 2])
        assert agg.median_rx_power_dbm == pytest.approx(want, abs=1e-12)

    # point-in-polygon agrees with a winding-number oracle on 1000 points
    ring = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)]

    def winding_inside(x, y):
        wn = 0
        for i in range(len(ring)):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % len(ring)]
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if y1 <= y:
                if y2 > y and cross > 0:
                    wn += 1
            elif y2 <= y and cross < 0:
                wn -= 1
        return wn != 0

    for _ in range(1000):
        x, y = float(rng.uniform(-1, 5)), float(rng.uniform(-1, 4))
        assert point_in_ring(x, y, ring) == winding_inside(x, y)

    # beam envelope equals a brute-force per-node maximum over 48 beams
    beams = synthetic_aas_beamset()
    env = envelope(beams)
    for i in range(env.azimuth_deg.size):
        for j in range(env.elevation_deg.size):
            assert env.gain_dbi[i, j] == max(b.gain_dbi[i, j] for b in beams)

    # OLS residuals average to zero
    bins = synthesize_samples(83.33, 2.9, 6.9, 100.0, 2000, (100.0, 2000.0), seed=13)
    fit = fit_log_distance(bins)
    sf = shadow_fading(bins, fit)
    assert abs(sf.mean_db) < 1e-9

    # o2i CDF equals an independent rank computation
    indoor = [float(v) for v in rng.uniform(-130, -80, 257)]
    outdoor = [float(v) for v in rng.uniform(-75, -65, 31)]
    mk = lambda powers: [
        MeasurementSample(1000 + i, origin, p, "3.5GHz", "TESTBED")
        for i, p in enumerate(powers)
    ]
    cdf = o2i_cdf(IndoorSession("B", 0, mk(indoor), mk(outdoor)))
    ref = float(np.median(outdoor))
    want = sorted(v - ref for v in indoor)
    assert list(cdf.values) == pytest.approx(want, abs=1e-12)
    assert list(cdf.probabilities) == pytest.approx(
        [(i + 1) / len(indoor) for i in range(len(indoor))], abs=1e-15)
    assert cdf.probabilities[-1] == 1.0

    print("\nACCEPTANCE 6 PASS: pipeline invariants (binning permutation "
          "invariance, median/polygon/envelope/rank oracles, OLS residual mean)")


def test_criterion_7_end_to_end_determinism(tmp_path):
    """synth -> bin -> fit -> compare twice with one seed: identical bytes."""

    def run_chain(workdir):
        workdir.mkdir()
        args = ["synth", "--emit", "log", "--out", str(workdir), "--n", "300",
                "--seed", "17", "--gamma", "2.9", "--sigma", "6.9"]
        assert main(args) == 0
        bins = workdir / "bins.csv"
        assert main(["bin", str(workdir / "testbed_log.csv"),
                     "--site", str(workdir / "site.json"), "--out", str(bins)]) == 0
        assert main(["fit", str(bins), "--out", str(workdir / "fit.json")]) == 0
        assert main(["compare", str(bins), "--out", str(workdir / "cmp"),
                     "--models", "FSPL,TR38901_RMA_NLOS,WINNER2_D1_NLOS",
                     "--freq", "3.55"]) == 0
        return {
            p.relative_to(workdir): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()
        }

    first = run_chain(tmp_path / "run1")
    second = run_chain(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    print(f"\nACCEPTANCE 7 PASS: {len(first)} pipeline artifacts byte-identical "
          "across reruns with the same seed")
