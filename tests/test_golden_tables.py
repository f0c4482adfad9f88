"""Golden regression for the commands that read bin tables back: ``fit`` and
``offset`` must reproduce, byte for byte, files written by the per-row
reader that came before the columnar one.

tests/data/golden/bin/fit_{all,los,nlos}.json were written from
tests/data/golden/bin/bins.csv (the ``bin`` output with its LOS polygons) by

    plkit fit bins.csv --split SPLIT --out fit_SPLIT.json

tests/data/golden/offset/ holds two FSPL tables from
``synth --model FSPL --n 40 --d-min 100 --d-max 600 --sigma 2 --seed 4``
at ``--freq 3.5 --band 3.5GHz`` and ``--freq 0.8 --band 800MHz`` (same seed,
so the same cells), the low band cut to its first 30 rows and the high band
given a second row for cell (0, -50) with 3.1 dB more loss, so the pair of
that cell is an average of two; and the ``offset.json`` that

    plkit offset bins_high.csv bins_low.csv --out offset.json

wrote from them.
"""

from pathlib import Path

import pytest

from plkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("split", ["all", "los", "nlos"])
def test_fit_reproduces_golden_bytes(tmp_path, split):
    out = tmp_path / f"fit_{split}.json"
    assert main(["fit", str(GOLDEN / "bin" / "bins.csv"), "--split", split,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "bin" / f"fit_{split}.json").read_bytes()


def test_offset_reproduces_golden_bytes(tmp_path):
    out = tmp_path / "offset.json"
    tables = GOLDEN / "offset"
    assert main(["offset", str(tables / "bins_high.csv"), str(tables / "bins_low.csv"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (tables / "offset.json").read_bytes()
