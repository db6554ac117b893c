"""Every restricted formula of a given size, for census tests of the
hardness gadget. Clauses are 1-3 literals over distinct variables, in
ascending variable order, and a formula is a multiset of them: one formula
per clause order. ``CnfFormula`` keeps those that are restricted."""

import itertools

from polytreelab.cnf import CnfFormula
from polytreelab.errors import ValidationError


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
