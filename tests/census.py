"""Every restricted formula of a given size, for census tests of the
hardness gadget. Clauses are 1-3 literals over distinct variables, in
ascending variable order, and a formula is a multiset of them: one formula
per clause order. ``CnfFormula`` keeps those that are restricted.

Run as a script, ``PYTHONPATH=src python tests/census.py VARS CLAUSES``
prints one census row per formula: its clauses, MAXSAT, the satisfying
plan's score and the optimal 2-polytree score of the gadget without
blockers, in bits.
"""

import itertools
import sys

from polytreelab.cnf import CnfFormula, best_assignment
from polytreelab.errors import ValidationError
from polytreelab.gadget import CompiledGadget
from polytreelab.search import exact_optimal_polytree
from polytreelab.structure import score


def restricted_formulas(num_vars: int, num_clauses: int) -> list[CnfFormula]:
    variables = range(1, num_vars + 1)
    clauses = [
        tuple(sign * var for sign, var in zip(signs, chosen))
        for size in (1, 2, 3)
        for chosen in itertools.combinations(variables, size)
        for signs in itertools.product((1, -1), repeat=size)
    ]
    formulas = []
    for picked in itertools.combinations_with_replacement(clauses, num_clauses):
        try:
            formulas.append(CnfFormula(num_vars, picked))
        except ValidationError:
            pass
    return formulas



def maxsat_plan_and_optimum(formula: CnfFormula) -> tuple[int, float, float]:
    """MAXSAT, the satisfying plan's score, and the optimal 2-polytree score
    of the gadget without blockers."""
    compiled = CompiledGadget(formula)
    plan = score(compiled, compiled.plan_for_assignment().structure).total_bits
    optimum = exact_optimal_polytree(compiled, 2, max_nodes=compiled.n).best_score_bits
    return best_assignment(formula)[1], plan, optimum


if __name__ == "__main__":
    for formula in restricted_formulas(int(sys.argv[1]), int(sys.argv[2])):
        maxsat, plan, optimum = maxsat_plan_and_optimum(formula)
        print(list(map(list, formula.clauses)), maxsat, f"{plan:.6f}", f"{optimum:.6f}", flush=True)
