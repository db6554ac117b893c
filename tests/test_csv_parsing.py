"""The numpy body parser against the reference row loop of ``read_dataset_csv``,
and the one-join body of ``write_dataset_csv`` against a ``csv.writer`` loop."""

import csv
import json
import os
import tempfile
from unittest import mock

import numpy as np
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


@st.composite
def csv_documents(draw):
    n_cols = draw(st.integers(min_value=1, max_value=3))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(NAMES[:n_cols])]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "space", "ragged", "trailing"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "  ", "\t"])))
        else:
            width = n_cols
            if kind == "ragged":
                width = draw(st.sampled_from([n_cols - 1, n_cols + 1]))
            row = ",".join(draw(FIELDS) for _ in range(max(width, 1)))
            lines.append(row + ("," if kind == "trailing" else ""))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    sidecar = None
    if draw(st.booleans()):
        sidecar = {name: draw(st.integers(min_value=1, max_value=6)) for name in NAMES[:n_cols]}
    return text, sidecar


def _outcome(path, arities):
    try:
        ds = read_dataset_csv(path, arities)
    except Exception as exc:  # compared by type and message below
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", [(m.name, m.arity) for m in ds.variables], ds.rows.shape, ds.rows.tolist())


@settings(max_examples=300, deadline=None)
@given(csv_documents())
def test_numpy_path_matches_row_loop(doc):
    text, sidecar = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        arities = None
        if sidecar is not None:
            side = os.path.join(tmp, "a.json")
            with open(side, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh)
            arities = read_arity_sidecar(side)
        fast = _outcome(path, arities)
        with mock.patch.object(distribution, "_read_body_numpy", return_value=None):
            reference = _outcome(path, arities)
    assert fast == reference


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


@settings(max_examples=200, deadline=None)
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
