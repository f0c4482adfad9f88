"""``columns.write_csv`` writes what ``csv.writer`` writes for the same rows.

The bin-table, sample and CDF writers build each line from one format
string, a chunk of rows at a time; this pins that the result is
``csv.writer``'s, byte for byte: floats with ``repr``, None as an empty
cell, strings quoted where csv quotes them.
"""

import csv

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plkit.columns import write_csv
from test_readers import chunk_rows


def csv_writer_bytes(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in columns)))
    return path.read_bytes()


TEXT = st.text(st.sampled_from(list("ab ,\"\r\n\t\0;'é")), max_size=4)


def column(kind, n):
    if kind == "float":
        return st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=float))
    if kind == "int":
        return st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64))
    if kind == "str":
        return st.lists(st.one_of(st.sampled_from(["LOS", "3.5GHz", ""]), TEXT),
                        min_size=n, max_size=n).map(lambda v: np.array(v, dtype=str))
    # object column: ints (some beyond int64), None, or both
    cell = {"none": st.none(), "ints": st.integers(-2**70, 2**70),
            "mixed": st.one_of(st.none(), st.integers(0, 500))}[kind]
    return st.lists(cell, min_size=n, max_size=n).map(lambda v: np.array(v + [0], dtype=object)[:-1])


@st.composite
def tables(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str", "none", "ints", "mixed"]),
                          min_size=1, max_size=5))
    if all(k == "none" for k in kinds):
        kinds.append("float")
    return [draw(column(kind, n)) for kind in kinds]


@settings(max_examples=200, deadline=None)
@given(columns=tables(), chunk=st.sampled_from([2, 3, 4096]))
@example(columns=[np.array([0.1, -0.0, 1e16, 1e-05, np.nan]), np.array(["a,b", "", "x", '"', "y"])],
         chunk=2)
@example(columns=[np.array([1.5, 2.5]), np.array([None, None], dtype=object)], chunk=4096)
@example(columns=[np.array([1.5, 2.5, 3.5]), np.array([None, None, 3], dtype=object)], chunk=2)
def test_write_csv_matches_csv_writer(tmp_path_factory, columns, chunk):
    directory = tmp_path_factory.mktemp("csv")
    header = [f"c{k}" for k in range(len(columns))]
    with chunk_rows(chunk):
        write_csv(directory / "got.csv", header, columns)
    assert (directory / "got.csv").read_bytes() == csv_writer_bytes(
        directory / "want.csv", header, columns)
