"""Exact discrete joint distributions and their entropy queries.

Conventions used throughout the package:

- every information quantity is in bits (logarithms are base two), and
  ``0 * log 0`` counts as zero;
- a joint is a dense float64 table whose axes follow the variable order,
  so the C-order flattening runs through the *last* variable fastest;
- negative probabilities of magnitude at most 1e-12 are clamped to zero
  (they only arise from parsers and float round-trips), anything more
  negative is rejected as corrupt input;
- the joint state space is capped (default ``2**24`` states); constructors
  refuse larger tables and name the violated constraint.

Entropies are plug-in sums over marginals of the dense table. There is no
factored representation: the toolkit targets small variable counts where
exact enumeration is the whole point. ``DenseMarginals`` forms each marginal
from run sums cached per ``Distribution`` and one ordered ``np.bincount``.
It equals numpy's ``table.sum(axis=dropped)`` bit for bit because it repeats
the order in which numpy reduces a C-contiguous table: pairwise over the
contiguous stretch after the last kept axis, one element at a time across
the rest. That order is numpy's behaviour, not its documented contract, so
``tests/test_entropy_memo.py`` checks the identity on the installed numpy.

Every entropy query goes through one memoised ``EntropyOracle`` per data
source (``Distribution.oracle`` here, ``CompiledGadget.oracle`` for the
gadget), keyed by variable bitmask. It holds the single round-off rule: a
value at most ``ENTROPY_CLAMP`` below zero, -0.0 included, reads +0.0;
anything lower raises ``NumericsError``.

A ``Dataset`` stores its rows once, read-only, in the narrowest unsigned
dtype that holds its largest arity - 1 (``row_dtype``). A CSV body whose
every line is ``d,d,...,d\n``, one digit per cell, is read byte by byte in
numpy. Any other body goes to ``np.loadtxt``; any body it rejects, or
reads with another column count, is parsed again by the row loop, which is
the reference reading and the one that reports line-numbered errors.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    CapExceededError,
    FormatError,
    NumericsError,
    ValidationError,
    lazy_import,
    open_text,
    read_json,
    write_json,
)

np = lazy_import("numpy")

DEFAULT_STATE_CAP = 2**24
# Parsers and round-trips may produce values this far below zero; clamp them.
PROB_CLAMP = 1e-12
PROB_SUM_TOL = 1e-9
# Entropy sums this far below zero are float round-off; below it, a bug.
ENTROPY_CLAMP = 1e-12
# Rows per block of a dataset CSV body: bounds the writer's object arrays and
# the gadget sampler's coin vectors.
CSV_WRITE_BLOCK_ROWS = 4096


def _round_off(value: float, quantity: str) -> float:
    """``value`` with float round-off at or below zero read as +0.0 (see
    ``ENTROPY_CLAMP``), so a deterministic variable never reports -0.0."""
    if value <= 0.0:
        if value >= -ENTROPY_CLAMP:
            return 0.0
        raise NumericsError(f"{quantity} came out {value}, beyond float round-off")
    return value


class EntropyOracle:
    """Memoised entropies in bits of one data source; bit ``i`` of a mask is
    variable ``i``. ``set_entropy(mask)`` computes an uncached set entropy.
    A query that raises caches nothing."""

    def __init__(self, set_entropy: Callable[[int], float]):
        self._set_entropy = set_entropy
        self._h: dict[int, float] = {0: 0.0}

    def h(self, mask: int) -> float:
        """Entropy of the variables in ``mask``; ``h(0) == 0.0``."""
        value = self._h.get(mask)
        if value is None:
            value = self._h[mask] = _round_off(self._set_entropy(mask), "entropy")
        return value

    def conditional(self, node: int, parent_mask: int) -> float:
        """H(node | parents), as ``h(parents + node) - h(parents)``."""
        return _round_off(
            self.h(parent_mask | 1 << node) - self.h(parent_mask), "conditional entropy"
        )


class DenseMarginals:
    """Marginals of one C-contiguous joint table, each equal bit for bit to
    ``table.sum(axis=dropped)``, formed from cached run sums.

    numpy reduces such a table in C order, with its axes of size 1
    coalesced away. The *trailing run* of a marginal is every axis after
    its last kept axis of size > 1; it is one contiguous stretch per output
    cell, and numpy sums each stretch pairwise and adds the result into the
    cell. Every other dropped element is added into its cell one at a time.
    So the run sums are numpy's own ``table.reshape(-1, L).sum(axis=1)``,
    computed once per distinct run, and ``np.bincount``, which adds its
    weights in input order, folds them into the cells. ``x + 0.0 == x``, so
    only the non-zero run sums are kept and folded.
    """

    def __init__(self, table: np.ndarray):
        self._table = table
        # first axis of a trailing run -> (C-order positions, values) of its
        # non-zero run sums; at most one entry per axis, plus the whole table
        self._runs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _run_sums(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        sums = self._table.reshape(-1, math.prod(self._table.shape[start:])).sum(axis=1)
        positions = np.flatnonzero(sums)
        return positions, sums[positions]

    def flat(self, mask: int) -> np.ndarray:
        """The marginal over the axes in ``mask``, kept ascending and
        flattened in C order."""
        shape = self._table.shape
        kept = [i for i, a in enumerate(shape) if mask >> i & 1 and a > 1]
        start = kept[-1] + 1 if kept else 0
        run = self._runs.get(start)
        if run is None:
            run = self._runs[start] = self._run_sums(start)
        positions, sums = run
        # With every axis before the run kept, a run's position is its cell;
        # otherwise its cell is the kept digits of its position, in C order.
        keys = positions
        if len(kept) < sum(a > 1 for a in shape[:start]):
            keys = np.zeros_like(positions)
            for i in kept:
                stride = math.prod(shape[i + 1 : start])
                keys *= shape[i]
                keys += positions // stride
                keys -= positions // (stride * shape[i]) * shape[i]
        return np.bincount(keys, weights=sums, minlength=math.prod(shape[i] for i in kept))

    def entropy(self, mask: int) -> float:
        """Entropy of the marginal over the axes in ``mask``. The axes stay
        ascending, so a set's bits do not depend on the order it was named in."""
        return _entropy_of_flat(self.flat(mask))


@dataclass(frozen=True)
class VariableMeta:
    """Name and arity of one categorical variable (values ``0..arity-1``)."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"variable name must be a non-empty string, got {self.name!r}")
        if isinstance(self.arity, bool) or not isinstance(self.arity, int) or self.arity < 1:
            raise ValidationError(
                f"variable {self.name!r}: arity must be an integer >= 1, got {self.arity!r}"
            )


def _check_state_cap(arities: Sequence[int], max_states: int) -> int:
    states = 1
    for a in arities:
        states *= int(a)
    if states > max_states:
        raise CapExceededError(
            f"joint state space has {states} states, cap is {max_states}",
            constraint="state_cap",
        )
    return states


def _validated_variables(variables: Iterable[VariableMeta]) -> tuple[VariableMeta, ...]:
    metas = tuple(variables)
    if not metas:
        raise ValidationError("a distribution needs at least one variable")
    names = [m.name for m in metas]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate variable names: {sorted(names)}")
    return metas


@dataclass(frozen=True, eq=False)
class Distribution:
    """Immutable exact joint distribution over named categorical variables.

    ``table`` has shape ``tuple(arity_i)``; it is validated, copied, and
    frozen on construction, so a ``Distribution`` can be shared freely.
    ``marginals`` forms its marginals and ``oracle`` memoises their entropies.
    """

    variables: tuple[VariableMeta, ...]
    table: np.ndarray

    def __init__(
        self,
        variables: Iterable[VariableMeta],
        table: np.ndarray,
        *,
        max_states: int = DEFAULT_STATE_CAP,
    ):
        metas = _validated_variables(variables)
        shape = tuple(m.arity for m in metas)
        _check_state_cap(shape, max_states)
        arr = np.asarray(table, dtype=np.float64)
        if arr.size != int(np.prod(shape, dtype=np.int64)):
            raise ValidationError(
                f"table has {arr.size} entries, expected {int(np.prod(shape, dtype=np.int64))}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("probabilities must be finite, got NaN or infinity")
        arr = arr.reshape(shape).copy(order="C")
        low = arr.min(initial=0.0)
        if low < -PROB_CLAMP:
            raise ValidationError(
                f"probability {low} is more negative than the {-PROB_CLAMP} clamp allows"
            )
        np.clip(arr, 0.0, None, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total}, expected 1 within {PROB_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "variables", metas)
        object.__setattr__(self, "table", arr)
        marginals = DenseMarginals(arr)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "oracle", EntropyOracle(marginals.entropy))

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.variables)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(m.arity for m in self.variables)

    def index_of(self, name: str) -> int:
        for i, m in enumerate(self.variables):
            if m.name == name:
                return i
        raise ValidationError(f"no variable named {name!r}")


def row_dtype(variables: Iterable[VariableMeta]) -> np.dtype:
    """The narrowest unsigned dtype holding every value ``0..arity-1`` of
    ``variables`` (a 64-bit integer input never holds more than uint64)."""
    top = max(m.arity for m in variables) - 1
    return np.min_scalar_type(min(top, 2**64 - 1))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of integer category values under a fixed variable order.

    ``rows`` must be an integer array, each column within ``0..arity-1``;
    only then is it stored, as one read-only C-order copy in ``row_dtype``
    (uint8 for every arity up to 256), so a float, string or bool array is
    refused rather than coerced and no value is wrapped by the narrowing.
    """

    variables: tuple[VariableMeta, ...]
    rows: np.ndarray

    def __init__(self, variables: Iterable[VariableMeta], rows: np.ndarray):
        metas = _validated_variables(variables)
        arr = np.asarray(rows)
        if arr.dtype.kind not in "iu":
            raise ValidationError(f"rows must hold integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != len(metas):
            raise ValidationError(
                f"rows must be a 2-d array with {len(metas)} columns, got shape {arr.shape}"
            )
        for j, meta in enumerate(metas):
            col = arr[:, j]
            if col.size and (col.min() < 0 or col.max() >= meta.arity):
                raise ValidationError(
                    f"column {meta.name!r} has values outside 0..{meta.arity - 1}"
                )
        arr = arr.astype(row_dtype(metas), order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "variables", metas)
        object.__setattr__(self, "rows", arr)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])


def empirical_distribution(
    dataset: Dataset, *, max_states: int = DEFAULT_STATE_CAP
) -> Distribution:
    """Plug-in joint estimate from ``dataset``: the relative frequency of
    every joint state. The dataset must be non-empty."""
    arities = tuple(m.arity for m in dataset.variables)
    states = _check_state_cap(arities, max_states)
    if dataset.n_rows == 0:
        raise ValidationError("cannot estimate a distribution from zero rows")
    # The C-order flat index of each row, built column by column in intp
    # (the state cap keeps it in range) without casting the narrow rows.
    key = np.zeros(dataset.n_rows, dtype=np.intp)
    for column, arity in zip(dataset.rows.T, arities):
        key *= arity
        key += column
    counts = np.bincount(key, minlength=states).astype(np.float64)
    counts /= counts.sum()
    return Distribution(dataset.variables, counts, max_states=max_states)


def _axes_tuple(dist: Distribution, variables: Sequence[int] | None) -> tuple[int, ...]:
    if variables is None:
        return tuple(range(dist.n))
    axes = tuple(int(v) for v in variables)
    if len(set(axes)) != len(axes):
        raise ValidationError(f"variable indices must be distinct, got {axes}")
    for v in axes:
        if not 0 <= v < dist.n:
            raise ValidationError(f"variable index {v} out of range for n={dist.n}")
    return axes


def marginal(dist: Distribution, variables: Sequence[int]) -> Distribution:
    """Marginal distribution over ``variables``, kept in the given order."""
    axes = _axes_tuple(dist, variables)
    if not axes:
        raise ValidationError("marginal needs at least one variable")
    order = tuple(sorted(axes))
    table = dist.marginals.flat(_mask(axes)).reshape([dist.arities[a] for a in order])
    if axes != order:
        table = np.moveaxis(table, [order.index(a) for a in axes], range(len(axes)))
    return Distribution([dist.variables[a] for a in axes], table)


def _entropy_of_flat(probabilities: np.ndarray) -> float:
    p = probabilities.reshape(-1)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) if nz.size else 0.0


def _mask(axes: Iterable[int]) -> int:
    return sum(1 << v for v in axes)


def entropy(dist: Distribution, variables: Sequence[int] | None = None) -> float:
    """Shannon entropy, in bits, of the joint marginal over ``variables``
    (all variables when omitted)."""
    return dist.oracle.h(_mask(_axes_tuple(dist, variables)))


def conditional_entropy(
    dist: Distribution,
    target: int | Sequence[int],
    given: Sequence[int] = (),
) -> float:
    """H(target | given) in bits, via H(target, given) - H(given).

    States of the conditioning set with zero probability contribute nothing,
    which is the plug-in convention for empirical joints as well.
    """
    tgt = (int(target),) if isinstance(target, (int, np.integer)) else tuple(int(t) for t in target)
    giv = tuple(int(g) for g in given)
    if set(tgt) & set(giv):
        raise ValidationError(f"target {tgt} and conditioning set {giv} overlap")
    h_joint = entropy(dist, tgt + giv)
    h_given = entropy(dist, giv) if giv else 0.0
    return _round_off(h_joint - h_given, "conditional entropy")


def mutual_information(dist: Distribution, a: int, b: int) -> float:
    """I(a; b) in bits. Evaluation order is canonicalized so the result is
    exactly symmetric in its arguments."""
    if a == b:
        raise ValidationError("mutual information needs two distinct variables")
    lo, hi = (a, b) if a < b else (b, a)
    value = entropy(dist, (lo,)) + entropy(dist, (hi,)) - entropy(dist, (lo, hi))
    return _round_off(value, "mutual information")


def binary_entropy_bits(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable. The ``1 - p`` term goes
    through ``log1p``, so it keeps its bits at biases where ``1 - p`` rounds
    to 1."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"Bernoulli bias must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log1p(-p) / math.log(2)


def bernoulli_bias_for_entropy(bits: float) -> float:
    """The bias ``p`` in (0, 1/2] with ``binary_entropy_bits(p) == bits``.

    Solved by bisection on the monotone branch, which goes on past a bracket
    1e-17 wide until the bias's entropy is within 1e-12 of ``bits``,
    relative; a target that no float bias meets so (the subnormal 5e-324)
    is refused.
    """
    if not 0.0 < bits <= 1.0:
        raise ValidationError(f"entropy target must be in (0, 1], got {bits}")
    if bits == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy_bits(mid) < bits:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17:
            break
    p = 0.5 * (lo + hi)
    while abs(binary_entropy_bits(p) - bits) > 1e-12 * bits:
        lo, hi = (p, hi) if binary_entropy_bits(p) < bits else (lo, p)
        if 0.5 * (lo + hi) in (lo, hi):
            raise ValidationError(f"no Bernoulli bias has entropy {bits!r} to 1e-12, relative")
        p = 0.5 * (lo + hi)
    return p


# ---------------------------------------------------------------------------
# File formats.
#
# CSV dataset: first row is the variable names, every later row one sample of
# integer category values. Arity defaults to (max observed + 1) per column; a
# JSON sidecar mapping name -> arity overrides that when rare categories may
# be missing from the sample.
#
# Exact distribution JSON:
#   {"variables": [{"name": ..., "arity": ...}, ...],
#    "probabilities": [...]}
# with probabilities flattened in C order (last variable fastest).
# ---------------------------------------------------------------------------


def _read_digit_grid(body: str, n_columns: int) -> np.ndarray | None:
    """``body`` as a uint8 matrix when every line of it is ``d,d,...,d\n``
    with one digit per cell, else None. Such a line is ``2 * n_columns``
    bytes, so the body is a byte grid of that width: digits in the even
    columns, commas and a closing newline in the odd ones."""
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    width = 2 * n_columns
    if not raw.size or raw.size % width:
        return None
    lines = raw.reshape(-1, width)
    digits = lines[:, 0::2] - np.uint8(ord("0"))  # wraps every byte below "0" above 9
    separators = np.frombuffer(b"," * (n_columns - 1) + b"\n", dtype=np.uint8)
    if (digits > 9).any() or (lines[:, 1::2] != separators).any():
        return None
    return digits


def _read_body_numpy(fh, n_columns: int) -> np.ndarray | None:
    """The rest of ``fh`` as an integer matrix, or None where the numpy
    readings may disagree with the row loop's: the digit grid, else
    ``np.loadtxt``, which then raises or, for a body of another width,
    returns a different column count. A body that is not UTF-8 is left to
    the row loop, which reports it as it reads from the start."""
    try:
        body = fh.read()
    except UnicodeDecodeError:
        return None
    data = _read_digit_grid(body, n_columns)
    if data is not None:
        return data
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(
                io.StringIO(body, newline=""),
                dtype=np.int64,
                delimiter=",",
                comments=None,
                ndmin=2,
            )
    except (ValueError, Warning):
        return None
    return data if data.shape[1] == n_columns else None


def read_dataset_csv(path: str, arities: Mapping[str, int] | None = None) -> Dataset:
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty CSV, expected a header row") from None
        names = [h.strip() for h in header]
        if any(not n for n in names):
            raise FormatError(f"{path}: blank column name in header")
        unknown = sorted(set(arities or ()) - set(names))
        if unknown:
            raise FormatError(f"{path}: arity sidecar keys {unknown} name no header column")
        data = _read_body_numpy(fh, len(names))
        if data is None:
            # The row loop is the reference reading; it alone names the line
            # of a malformed row.
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            int64 = np.iinfo(np.int64)
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(names):
                    raise FormatError(
                        f"{path}:{lineno}: expected {len(names)} values, got {len(row)}"
                    )
                try:
                    values = [int(v) for v in row]
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: non-integer value ({exc})") from None
                if not all(int64.min <= v <= int64.max for v in values):
                    raise FormatError(f"{path}:{lineno}: value outside the int64 range")
                rows.append(values)
            data = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(names))
    metas = []
    for j, name in enumerate(names):
        if arities is not None and name in arities:
            arity = int(arities[name])
        elif data.shape[0]:
            arity = int(data[:, j].max()) + 1
        else:
            raise FormatError(f"{path}: no rows and no declared arity for {name!r}")
        metas.append(VariableMeta(name, arity))
    try:
        return Dataset(metas, data)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_rows_csv(
    variables: Sequence[VariableMeta], blocks: Iterable[np.ndarray], path: str
) -> None:
    """Write a dataset CSV from its rows in blocks: the names through
    ``csv.writer`` (they may need quoting), then each ``(rows, n)`` block of
    non-negative ints in joins of at most ``CSV_WRITE_BLOCK_ROWS`` rows. So
    the strings and object arrays the writer builds stay within that many
    rows, however large the blocks it is handed; the blocks themselves are
    the caller's. An int's CSV field is its decimal string, so each cell is
    looked up in a per-value table of those strings followed by the cell's
    separator: a comma, or a newline in the last column. The table grows to
    the largest value seen so far."""
    n = len(variables)
    last = (np.arange(n) == n - 1).astype(np.intp)
    cells = np.empty((2, 0), dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow([m.name for m in variables])
        for block in blocks:
            top = int(block.max(initial=0)) + 1
            if top > cells.shape[1]:
                text = [str(v) for v in range(top)]
                cells = np.array([[t + "," for t in text], [t + "\n" for t in text]], dtype=object)
            for lo in range(0, len(block), CSV_WRITE_BLOCK_ROWS):
                join = cells[last, block[lo : lo + CSV_WRITE_BLOCK_ROWS]]
                fh.write("".join(join.ravel().tolist()))


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write ``dataset`` as a CSV: ``write_rows_csv`` over its rows."""
    write_rows_csv(dataset.variables, (dataset.rows,), path)


def _json_arity(path: str, name: object, arity: object) -> int:
    if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
        raise FormatError(f"{path}: arity for {name!r} must be an integer >= 1")
    return arity


def read_arity_sidecar(path: str) -> dict[str, int]:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: arity sidecar must be a JSON object of name -> arity")
    return {name: _json_arity(path, name, arity) for name, arity in raw.items()}


def write_arity_sidecar(variables: Sequence[VariableMeta], path: str) -> None:
    """The sidecar that ``read_arity_sidecar`` reads back: name -> arity."""
    write_json({m.name: m.arity for m in variables}, path)


def read_distribution_json(path: str, *, max_states: int = DEFAULT_STATE_CAP) -> Distribution:
    raw = read_json(path)
    if not isinstance(raw, dict) or "variables" not in raw or "probabilities" not in raw:
        raise FormatError(f"{path}: expected keys 'variables' and 'probabilities'")
    try:
        metas = [
            VariableMeta(v["name"], _json_arity(path, v["name"], v["arity"]))
            for v in raw["variables"]
        ]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"{path}: malformed variable entry ({exc})") from None
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None
    probs = raw["probabilities"]
    if not isinstance(probs, list):
        raise FormatError(f"{path}: 'probabilities' must be a flat list")
    try:
        return Distribution(metas, np.asarray(probs, dtype=np.float64), max_states=max_states)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_distribution_json(dist: Distribution, path: str) -> None:
    doc = {
        "variables": [{"name": m.name, "arity": m.arity} for m in dist.variables],
        "probabilities": [float(v) for v in dist.table.reshape(-1)],
    }
    write_json(doc, path)
