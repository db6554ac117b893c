"""Restricted CNF formulas, DIMACS parsing and the exhaustive MAXSAT oracle.

The hardness construction consumes CNF instances of a specific shape: at
most three literals per clause, no variable twice in the same clause, and
every variable occurring exactly three times overall, twice with one
polarity and once with the other. ``CnfFormula`` enforces that shape at
construction time so downstream code can rely on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CapExceededError, FormatError, ValidationError, open_text

BEST_ASSIGNMENT_MAX_VARS = 20


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars, clauses as DIMACS-signed tuples."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(
            self, "clauses", tuple(tuple(int(lit) for lit in cl) for cl in clauses)
        )
        self._validate()

    def _validate(self) -> None:
        if self.num_vars < 1:
            raise ValidationError(f"num_vars must be >= 1, got {self.num_vars}")
        positive: dict[int, list[int]] = {v: [] for v in range(1, self.num_vars + 1)}
        negative: dict[int, list[int]] = {v: [] for v in range(1, self.num_vars + 1)}
        for idx, clause in enumerate(self.clauses):
            if not 1 <= len(clause) <= 3:
                raise ValidationError(
                    f"clause {idx + 1} has {len(clause)} literals, expected 1..3"
                )
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.num_vars:
                    raise ValidationError(f"clause {idx + 1} has bad literal {lit}")
                if var in seen:
                    raise ValidationError(
                        f"variable {var} appears twice in clause {idx + 1}"
                    )
                seen.add(var)
                (positive if lit > 0 else negative)[var].append(idx)
        table = []
        for var in range(1, self.num_vars + 1):
            pos, neg = positive[var], negative[var]
            if len(pos) + len(neg) != 3 or min(len(pos), len(neg)) != 1:
                raise ValidationError(
                    f"variable {var} occurs {len(pos)} times positive and {len(neg)} "
                    "times negative; need exactly three occurrences split two and one"
                )
            (a, b), (c,), s = (pos, neg, 1) if len(pos) == 2 else (neg, pos, -1)
            table.append(((a, s), (b, s), (c, -s)))
        # Not a field: equality, hash and repr stay those of the clauses.
        object.__setattr__(self, "_occurrences", tuple(table))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def occurrences(self, var: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """The three (clause index, sign) occurrences, majority pair first.

        Returns ``((a, s), (b, s), (c, -s))`` where clauses ``a < b`` carry
        the majority polarity ``s`` and clause ``c`` the minority one. The
        table is built once, by the shape check at construction.
        """
        if not 1 <= var <= self.num_vars:
            raise ValidationError(f"variable {var} out of range 1..{self.num_vars}")
        return self._occurrences[var - 1]


def satisfied_clauses(formula: CnfFormula, assignment: Sequence[int]) -> int:
    """Count clauses satisfied by a 0/1 assignment (index i -> variable i+1)."""
    if len(assignment) != formula.num_vars:
        raise ValidationError(
            f"assignment has {len(assignment)} values, expected {formula.num_vars}"
        )
    values = [int(v) for v in assignment]
    if any(v not in (0, 1) for v in values):
        raise ValidationError("assignment entries must be 0 or 1")
    count = 0
    for clause in formula.clauses:
        for lit in clause:
            if (values[abs(lit) - 1] == 1) == (lit > 0):
                count += 1
                break
    return count


def best_assignment(formula: CnfFormula) -> tuple[tuple[int, ...], int]:
    """Exhaustive maximum-satisfiability oracle for small formulas.

    Returns the lexicographically smallest assignment achieving the maximum
    number of satisfied clauses, together with that count. Formulas over
    more than ``BEST_ASSIGNMENT_MAX_VARS`` variables are refused.
    """
    if formula.num_vars > BEST_ASSIGNMENT_MAX_VARS:
        raise CapExceededError(
            f"{formula.num_vars} variables exceeds the exhaustive cap {BEST_ASSIGNMENT_MAX_VARS}",
            constraint="best_assignment_max_vars",
        )
    best: tuple[int, ...] | None = None
    best_count = -1
    for bits in itertools.product((0, 1), repeat=formula.num_vars):
        count = satisfied_clauses(formula, bits)
        if count > best_count:
            best, best_count = bits, count
    assert best is not None
    return best, best_count


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text, then validate the restricted shape."""
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"line {lineno}: bad problem line {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad problem line {line!r}") from exc
            continue
        if num_vars is None:
            raise FormatError(f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise FormatError("final clause is not terminated by 0")
    if num_vars is None:
        raise FormatError("missing problem line")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise FormatError(
            f"problem line declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, clauses)


def read_dimacs(path: str | Path) -> CnfFormula:
    with open_text(path) as fh:
        return parse_dimacs(fh.read())


def bundled_formulas() -> list[tuple[str, CnfFormula]]:
    """The corpus of restricted CNF instances shipped with the package.

    Returns ``(name, formula)`` pairs sorted by name, where the name is the
    bundled file's stem.
    """
    root = resources.files("polytreelab").joinpath("data/cnf")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cnf"):
            name = entry.name[: -len(".cnf")]
            out.append((name, parse_dimacs(entry.read_text(encoding="utf-8"))))
    return out
