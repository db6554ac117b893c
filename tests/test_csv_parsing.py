"""The numpy body parser against the reference row loop of ``read_dataset_csv``."""

import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from polytreelab import distribution
from polytreelab.distribution import read_arity_sidecar, read_dataset_csv

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
