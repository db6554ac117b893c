"""How a ``Dataset`` stores its rows: integer input only, every value in range
before the one narrow read-only copy, and the dtype rule that copy follows;
plus the traced memory of sampling and writing a 50,000-row gadget dataset,
and of streaming 200,000 sampled rows into a CSV."""

import tracemalloc

import numpy as np
import pytest

from polytreelab.cnf import bundled_formulas
from polytreelab.distribution import (
    Dataset,
    VariableMeta,
    read_dataset_csv,
    write_dataset_csv,
    write_rows_csv,
)
from polytreelab.errors import ValidationError
from polytreelab.gadget import GadgetParams, compile_cnf


@pytest.mark.parametrize(
    "rows",
    [np.array([[1.7], [0.2]]), np.array([[1.0], [0.0]]), [["1"], ["0"]], [[True], [False]]],
    ids=["float", "integral-float", "string", "bool"],
)
def test_non_integer_rows_are_refused(rows):
    with pytest.raises(ValidationError, match="rows must hold integers"):
        Dataset([VariableMeta("a", 2)], rows)


@pytest.mark.parametrize(
    "arity, value",
    [(2, 256), (256, 256), (256, -1), (2, -1), (257, 65536), (2, 2**64 - 1)],
)
def test_out_of_range_values_are_refused_not_wrapped(arity, value):
    dtype = np.uint64 if value > 2**63 else np.int64
    with pytest.raises(ValidationError, match=r"column 'a' has values outside"):
        Dataset([VariableMeta("a", arity)], np.array([[0], [value]], dtype=dtype))


@pytest.mark.parametrize(
    "arities, dtype",
    [
        ((2, 3), np.uint8),
        ((256, 2), np.uint8),
        ((2, 257), np.uint16),
        ((1, 1, 1), np.uint8),
        ((2**16 + 1,), np.uint32),
        ((2**63,), np.uint64),
    ],
)
def test_rows_take_the_narrowest_dtype_of_the_largest_arity(arities, dtype):
    metas = [VariableMeta(f"v{i}", a) for i, a in enumerate(arities)]
    source = np.array([[a - 1 for a in arities], [0] * len(arities)], dtype=np.uint64)
    dataset = Dataset(metas, source)
    assert dataset.rows.dtype == dtype
    assert dataset.rows.flags.c_contiguous
    assert dataset.rows.tolist() == source.tolist()


def test_rows_are_one_read_only_copy():
    source = np.array([[0, 1], [1, 0]])
    dataset = Dataset([VariableMeta("a", 2), VariableMeta("b", 2)], source)
    source[0, 0] = 1
    assert dataset.rows[0, 0] == 0
    assert not dataset.rows.flags.writeable


def test_zero_rows_with_a_sidecar_take_the_sidecar_dtype(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n")
    dataset = read_dataset_csv(str(path), {"A": 2, "B": 300})
    assert dataset.rows.shape == (0, 2)
    assert dataset.rows.dtype == np.uint16


def test_a_digit_grid_reads_as_uint8(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B,C\n0,1,9\n3,0,0\n")
    dataset = read_dataset_csv(str(path))
    assert dataset.rows.dtype == np.uint8
    assert dataset.rows.tolist() == [[0, 1, 9], [3, 0, 0]]
    assert [m.arity for m in dataset.variables] == [4, 2, 10]


def test_sampling_and_writing_six_variable_stay_bounded(tmp_path):
    # 50,000 rows of 35 nodes: int64 columns, their stack and the int64
    # copy traced about 45 MB, and the one-join writer about 41 MB.
    formula = dict(bundled_formulas())["six_variable"]
    gadget, _ = compile_cnf(formula, GadgetParams(include_inedge_blockers=True))
    bound = 16 * 2**20
    tracemalloc.start()
    try:
        dataset = gadget.sample_dataset(50_000, seed=9)
        _, sample_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_dataset_csv(dataset, str(tmp_path / "six.csv"))
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset.rows.dtype == np.uint8
    assert sample_peak < bound
    assert write_peak < bound


def test_streaming_gen_cnf_rows_does_not_grow_with_the_row_count(tmp_path):
    # The `gen cnf` path: sampler blocks straight into the writer, so at
    # 200,000 rows of 35 nodes it holds one 4,096-row block at a time.
    formula = dict(bundled_formulas())["six_variable"]
    gadget, _ = compile_cnf(formula, GadgetParams(include_inedge_blockers=True))
    tracemalloc.start()
    try:
        blocks = gadget.sample_blocks(200_000, seed=9)
        write_rows_csv(gadget.variables, blocks, str(tmp_path / "six.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
