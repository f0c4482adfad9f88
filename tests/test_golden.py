"""Golden regression: outputs of the array model suite against files made
by the earlier per-link (scalar) implementation.

tests/data/golden/ holds a 300-bin table from
``synth --model TR38901_UMA_NLOS --n 300 --d-min 20 --d-max 5000 --sigma 6
--seed 5`` (the range crosses the UMa, WINNER II C1 LOS / two-ray and RMa
breakpoints) and the ``errors.json`` and ``model_curves.csv`` that
``compare`` wrote for it over all 18 models. Last-bit drift (numpy and math
log10 differ by one ulp on a few percent of inputs) is allowed up to 1e-9
dB; counts and orderings must match exactly.
"""

import csv
import json
from pathlib import Path

import pytest

from plkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
TOL_DB = 1e-9
SYNTH_ARGS = ["synth", "--model", "TR38901_UMA_NLOS", "--n", "300", "--d-min", "20",
              "--d-max", "5000", "--sigma", "6", "--seed", "5"]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_compare")
    assert main(["compare", str(GOLDEN / "bins.csv"), "--out", str(out)]) == 0
    return out


def test_errors_match_golden(compare_dir):
    want = json.loads((GOLDEN / "errors.json").read_text())
    got = json.loads((compare_dir / "errors.json").read_text())
    assert [e["model"] for e in got] == [e["model"] for e in want]
    for w, g in zip(want, got):
        assert g["n"] == w["n"]
        assert g["out_of_validity_bins"] == w["out_of_validity_bins"], w["model"]
        for key in ("mu_e", "sigma_e", "rmse"):
            assert abs(g[key] - w[key]) <= TOL_DB, (w["model"], key)


def test_curves_match_golden(compare_dir):
    want = read_rows(GOLDEN / "model_curves.csv")
    got = read_rows(compare_dir / "model_curves.csv")
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert g["model"] == w["model"]
        assert g["d2d_m"] == w["d2d_m"]
        assert abs(float(g["pl_db"]) - float(w["pl_db"])) <= TOL_DB, (w["model"], w["d2d_m"])


def test_synth_reproduces_golden_table(tmp_path):
    out = tmp_path / "bins.csv"
    assert main(SYNTH_ARGS + ["--out", str(out)]) == 0
    want = read_rows(GOLDEN / "bins.csv")
    got = read_rows(out)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert {k: v for k, v in g.items() if k != "pl_db"} == {
            k: v for k, v in w.items() if k != "pl_db"
        }
        assert abs(float(g["pl_db"]) - float(w["pl_db"])) <= TOL_DB


def test_artifacts_hold_plain_floats(compare_dir):
    for name in ("errors.json", "model_curves.csv"):
        text = (compare_dir / name).read_text()
        assert "np.float64(" not in text
        assert "NaN" not in text and "nan" not in text and "inf" not in text
