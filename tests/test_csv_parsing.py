"""The numpy body parsers against the reference row loop of
``read_dataset_csv``: the fixed-width digit grid and ``np.loadtxt`` must each
give the same ``Dataset``, or the same exception. And the block-joined body
of ``write_dataset_csv`` against a ``csv.writer`` loop. Hypothesis draws
the documents and datasets with ``derandomize=True``, so every run checks the
same examples."""

import csv
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytreelab import distribution
from polytreelab.distribution import (
    Dataset,
    VariableMeta,
    read_arity_sidecar,
    read_dataset_csv,
    write_dataset_csv,
)

NAMES = ("A", "B", "C")

FIELDS = st.one_of(
    st.integers(min_value=0, max_value=4).map(str),
    st.sampled_from(
        [" 1", "1 ", "+1", "-1", "01", '"1"', "#", "1#", "", "1_0", "1.0", "1e0", " ", "\t2"]
    ),
)


DIGIT_CELLS = st.integers(min_value=0, max_value=9).map(str)
NUMBER_CELLS = st.integers(min_value=0, max_value=12).map(str)


@st.composite
def csv_documents(draw):
    n_cols = draw(st.integers(min_value=1, max_value=3))
    # A grid document is what the digit grid reads: one digit per cell, "\n"
    # after every row. Clean ones hold only numbers; messy ones anything.
    style = draw(st.sampled_from(["grid", "clean", "messy"]))
    newline = "\n" if style == "grid" else draw(st.sampled_from(["\n", "\r\n"]))
    names = list(NAMES[:n_cols])
    header = ",".join(names)
    if draw(st.booleans()):
        names[0] += ",x"
        header = ",".join(f'"{name}"' for name in names)
    if draw(st.booleans()):
        header = "\ufeff" + header
    fields = {
        "grid": DIGIT_CELLS,
        "clean": draw(st.sampled_from([DIGIT_CELLS, NUMBER_CELLS])),
        "messy": FIELDS,
    }[style]
    kinds = ["row", "row", "row", "blank", "space", "ragged", "trailing"]
    kinds = kinds if style == "messy" else ["row"]
    lines = [header]
    for _ in range(draw(st.integers(min_value=int(style == "grid"), max_value=6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "  ", "\t"])))
        else:
            width = n_cols
            if kind == "ragged":
                width = draw(st.sampled_from([n_cols - 1, n_cols + 1]))
            row = ",".join(draw(fields) for _ in range(max(width, 1)))
            lines.append(row + ("," if kind == "trailing" else ""))
    # No final newline, a final newline, or a blank last line.
    ending = newline if style == "grid" else draw(st.sampled_from(["", newline, newline * 2]))
    text = newline.join(lines) + ending
    sidecar = None
    if draw(st.booleans()):
        sidecar = {name: draw(st.integers(min_value=1, max_value=6)) for name in names}
    return text, sidecar


def _outcome(path, arities):
    try:
        ds = read_dataset_csv(path, arities)
    except Exception as exc:  # compared by type and message below
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", [(m.name, m.arity) for m in ds.variables], ds.rows.shape, ds.rows.tolist())


def _row_loop_outcome(path, arities):
    with mock.patch.object(distribution, "_read_body_numpy", return_value=None):
        return _outcome(path, arities)


def _loadtxt_outcome(path, arities):
    with mock.patch.object(distribution, "_read_digit_grid", return_value=None):
        return _outcome(path, arities)


def _write(path, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_documents())
def test_numpy_path_matches_row_loop(doc):
    text, sidecar = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        _write(path, text.encode())
        arities = None
        if sidecar is not None:
            side = os.path.join(tmp, "a.json")
            with open(side, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh)
            arities = read_arity_sidecar(side)
        reference = _row_loop_outcome(path, arities)
        assert _outcome(path, arities) == reference
        assert _loadtxt_outcome(path, arities) == reference


# (name, file bytes, whether the digit grid reads the body)
EDGE_CASES = [
    ("grid", b"A,B,C\n0,1,9\n3,0,0\n", True),
    ("bom", b"\xef\xbb\xbfA,B\n0,1\n1,0\n", True),
    ("quoted-header", b'"A,x","B\ny"\n0,1\n1,0\n', True),
    ("crlf", b"A,B\r\n0,1\r\n1,0\r\n", False),
    ("no-final-newline", b"A,B\n0,1\n1,0", False),
    ("blank-last-line", b"A,B\n0,1\n1,0\n\n", False),
    ("multi-digit", b"A,B\n10,1\n3,0\n", False),
    ("header-only", b"A,B\n", False),
    ("quoted-cell", b'A,B\n"1",1\n1,0\n', False),
    ("not-utf8", b"A,B\n" + b"0,1\n" * 5000 + b"\xff,0\n", False),
]


@pytest.mark.parametrize("data, gridded", [case[1:] for case in EDGE_CASES],
                         ids=[case[0] for case in EDGE_CASES])
def test_edge_cases_match_row_loop(tmp_path, data, gridded):
    path = str(tmp_path / "d.csv")
    _write(path, data)
    # The sidecar names only columns of this case's header; others are refused.
    header = next(csv.reader(io.StringIO(data.decode("utf-8-sig", "replace"), newline="")))
    arities = {name: a for name, a in {"A": 4, "A,x": 2, "B": 2}.items() if name in header}
    grid = distribution._read_digit_grid
    grids = []

    def spy(body, n_columns):
        grids.append(grid(body, n_columns))
        return grids[-1]

    with mock.patch.object(distribution, "_read_digit_grid", side_effect=spy):
        outcome = _outcome(path, arities)
    assert outcome == _row_loop_outcome(path, arities)
    assert any(g is not None for g in grids) == gridded


def test_a_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    path = str(tmp_path / "d.csv")
    _write(path, b"\xef\xbb\xbfA,B\n0,1\n1,0\n")
    side = str(tmp_path / "a.json")
    _write(side, b'{"A": 3}')
    expected = [("A", 3), ("B", 2)]
    assert _outcome(path, read_arity_sidecar(side))[1] == expected
    assert _row_loop_outcome(path, read_arity_sidecar(side))[1] == expected


def _csv_writer_reference(dataset, path):
    """The row-by-row ``csv.writer`` loop ``write_dataset_csv`` ran before."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([m.name for m in dataset.variables])
        for row in dataset.rows:
            writer.writerow([int(v) for v in row])


NAME = st.text(alphabet='ab, "', min_size=1, max_size=5).filter(lambda s: s == s.strip())


@st.composite
def datasets(draw):
    names = draw(st.lists(NAME, min_size=1, max_size=6, unique=True))
    arities = [draw(st.integers(min_value=1, max_value=1000)) for _ in names]
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=a - 1) for a in arities]),
            max_size=60,
        )
    )
    metas = [VariableMeta(name, arity) for name, arity in zip(names, arities)]
    return Dataset(metas, np.array(rows, dtype=np.int64).reshape(len(rows), len(names)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(datasets())
def test_writer_matches_csv_writer_and_reads_back(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = os.path.join(tmp, "d.csv"), os.path.join(tmp, "r.csv")
        write_dataset_csv(dataset, path)
        _csv_writer_reference(dataset, reference)
        with open(path, "rb") as fh, open(reference, "rb") as ref:
            assert fh.read() == ref.read()
        back = read_dataset_csv(path, {m.name: m.arity for m in dataset.variables})
    assert back.variables == dataset.variables
    assert back.rows.shape == dataset.rows.shape
    assert (back.rows == dataset.rows).all()


def test_writer_matches_csv_writer_across_block_boundaries(tmp_path):
    rows = 2 * distribution.CSV_WRITE_BLOCK_ROWS + 1
    rng = np.random.default_rng(3)
    metas = [VariableMeta("a", 2), VariableMeta("b b", 120), VariableMeta('c"', 7)]
    data = np.stack([rng.integers(0, m.arity, size=rows) for m in metas], axis=1)
    dataset = Dataset(metas, data)
    path, reference = str(tmp_path / "d.csv"), str(tmp_path / "r.csv")
    write_dataset_csv(dataset, path)
    _csv_writer_reference(dataset, reference)
    with open(path, "rb") as fh, open(reference, "rb") as ref:
        assert fh.read() == ref.read()
    back = read_dataset_csv(path, {m.name: m.arity for m in metas})
    assert (back.rows == data).all()
