"""polytreelab: learn and audit branchings and polytrees over discrete data.

The package scores directed structures by total conditional entropy in
bits, learns the optimal branching exactly, searches for optimal and
near-optimal polytrees at small scale, audits the guaranteed gap between
the two, and builds the adversarial distribution families (XOR trees and
CNF hardness gadgets) that show the gap is real.
"""

from .bounds import (
    BoundsReport,
    ChargeReport,
    charge_report,
    entropy_range,
    verify_bounds,
    verify_subtree_charge_bound,
)
from .branching import (
    learn_optimal_branching,
    mutual_information_edges,
)
from .cnf import (
    CnfFormula,
    best_assignment,
    bundled_formulas,
    parse_dimacs,
    read_dimacs,
    satisfied_clauses,
)
from .distribution import (
    Dataset,
    Distribution,
    VariableMeta,
    bernoulli_bias_for_entropy,
    binary_entropy_bits,
    conditional_entropy,
    empirical_distribution,
    entropy,
    marginal,
    mutual_information,
)
from .errors import (
    CapExceededError,
    FormatError,
    InvariantError,
    MultiSinkError,
    NumericsError,
    ToolkitError,
    ValidationError,
)
from .gadget import (
    CompiledGadget,
    GadgetAudit,
    GadgetParams,
    verify_gadget,
)
from .generators import (
    joint_from_conditionals,
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
    xor_tree_family,
)
from .reports import report_schema
from .search import (
    SearchReport,
    exact_optimal_polytree,
    local_search_polytree,
)
from .structure import Structure, is_branching, is_polytree, score

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CapExceededError",
    "ChargeReport",
    "CnfFormula",
    "CompiledGadget",
    "Dataset",
    "Distribution",
    "FormatError",
    "GadgetAudit",
    "GadgetParams",
    "InvariantError",
    "MultiSinkError",
    "NumericsError",
    "SearchReport",
    "Structure",
    "ToolkitError",
    "ValidationError",
    "VariableMeta",
    "bernoulli_bias_for_entropy",
    "best_assignment",
    "binary_entropy_bits",
    "bundled_formulas",
    "charge_report",
    "conditional_entropy",
    "empirical_distribution",
    "entropy",
    "entropy_range",
    "exact_optimal_polytree",
    "is_branching",
    "is_polytree",
    "joint_from_conditionals",
    "learn_optimal_branching",
    "local_search_polytree",
    "marginal",
    "mutual_information",
    "mutual_information_edges",
    "parity_fixture",
    "parse_dimacs",
    "random_joint_distribution",
    "random_polytree_instance",
    "read_dimacs",
    "report_schema",
    "satisfied_clauses",
    "score",
    "verify_bounds",
    "verify_gadget",
    "verify_subtree_charge_bound",
    "xor_tree_family",
]
