"""Charge accounting and approximation-bound audits.

For a polytree ``M`` and a distribution, write ``residual(Z)`` for
``H(Z | parents(Z))`` (the node's contribution to the score) and let the
*subtree* of ``Z`` be ``Z`` together with all of its ancestors. Because the
skeleton is acyclic, distinct parents of ``Z`` have disjoint subtrees, so

    subtree_residual(Z) = residual(Z) + sum over parents Y of subtree_residual(Y).

The *charge* of a node with parents ``Y_1 .. Y_r`` (r >= 2) is the total
subtree residual of its parents minus the largest one; nodes with fewer than
two parents have charge zero. The capped charge truncates the charge at the
largest single-node entropy. These quantities measure how much a branching
(which must drop all but one parent everywhere) can lose relative to the
polytree, and ``verify_bounds`` checks the resulting guarantees: the
learned branching score is within the factors ``1 + U/L``,
``1 + log2(n)/2``, ``1 + log2(n0 + n_multi)/2`` and ``7/2 + log2(U/L)/2``
of the optimal polytree score, where ``U``/``L`` are the largest/smallest
node entropies and ``n0``/``n_multi`` count sources and nodes with at least
two parents in the optimal polytree; and, per node ``Z`` of every
single-sink component, the charges inside its subtree total at most
``subtree_residual(Z) * log2(|subtree|) / 2`` and the capped charges at
most ``(5/2 + log2(U/L)/2) * subtree_residual(Z)``.

Ratio-style audits using ``L`` are skipped (reported as not applicable)
when ``L`` is numerically zero, since the guarantee degenerates. Charge
audits are defined on components with a unique sink; a multi-sink
component is skipped and counted, never rewired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distribution import Distribution, entropy
from .errors import ValidationError, check_tolerance
from .structure import (
    Structure,
    count_sources_and_multiparents,
    is_branching,
    is_polytree,
    node_ordered_total,
    score,
    skeleton_components,
)

DEFAULT_TOLERANCE_BITS = 1e-6
# Below this many bits the smallest node entropy counts as zero and the
# U/L-based guarantees are reported as not applicable.
MIN_ENTROPY_EPS = 1e-9


def entropy_range(dist: Distribution) -> tuple[float, float]:
    """(largest, smallest) single-node entropy in bits."""
    values = [entropy(dist, (i,)) for i in range(dist.n)]
    return max(values), min(values)


@dataclass(frozen=True)
class NodeCharges:
    """Charge bookkeeping for one node of a polytree."""

    node: int
    residual_bits: float
    subtree_nodes: tuple[int, ...]
    subtree_residual_bits: float
    charge_bits: float
    capped_charge_bits: float


@dataclass(frozen=True)
class ChargeReport:
    """Charges of every node plus the global quantities the audits need."""

    per_node: tuple[NodeCharges, ...]
    max_node_entropy_bits: float
    min_node_entropy_bits: float
    total_residual_bits: float
    source_count: int
    multi_parent_count: int


def _ancestor_closure(structure: Structure, node: int) -> tuple[int, ...]:
    seen = {node}
    stack = [node]
    while stack:
        for p in structure.parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return tuple(sorted(seen))


def charge_report(dist: Distribution, structure: Structure) -> ChargeReport:
    """Compute residuals, subtree residuals, and charges for ``structure``."""
    if not is_polytree(structure):
        raise ValidationError("charge accounting is only defined for polytrees")
    breakdown = score(dist, structure)
    residual = breakdown.per_node_bits
    subtrees = [_ancestor_closure(structure, z) for z in range(structure.n)]
    subtree_residual = [node_ordered_total([residual[x] for x in nodes]) for nodes in subtrees]
    u_bits, l_bits = entropy_range(dist)
    per_node = []
    for z in range(structure.n):
        parents = structure.parents[z]
        if len(parents) >= 2:
            parts = [subtree_residual[y] for y in parents]
            charge = node_ordered_total(parts) - max(parts)
        else:
            charge = 0.0
        per_node.append(
            NodeCharges(
                node=z,
                residual_bits=residual[z],
                subtree_nodes=subtrees[z],
                subtree_residual_bits=subtree_residual[z],
                charge_bits=charge,
                capped_charge_bits=min(charge, u_bits),
            )
        )
    sources, multi = count_sources_and_multiparents(structure)
    return ChargeReport(
        per_node=tuple(per_node),
        max_node_entropy_bits=u_bits,
        min_node_entropy_bits=l_bits,
        total_residual_bits=breakdown.total_bits,
        source_count=sources,
        multi_parent_count=multi,
    )


def components_with_sinks(structure: Structure) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Skeleton components paired with their sinks (nodes with no children)."""
    has_child = [False] * structure.n
    for child, ps in enumerate(structure.parents):
        for p in ps:
            has_child[p] = True
    out = []
    for nodes in skeleton_components(structure):
        sinks = tuple(v for v in nodes if not has_child[v])
        out.append((nodes, sinks))
    return out


@dataclass(frozen=True)
class SubtreeCheck:
    """One audited inequality, anchored at a node's subtree."""

    bound: str
    node: int
    lhs_bits: float
    rhs_bits: float
    passed: bool


def _subtree_rows(
    report: ChargeReport,
    nodes: tuple[int, ...],
    tolerance_bits: float,
) -> list[SubtreeCheck]:
    rows = []
    u_bits = report.max_node_entropy_bits
    l_bits = report.min_node_entropy_bits
    for z in nodes:
        info = report.per_node[z]
        charge_sum = node_ordered_total([report.per_node[x].charge_bits for x in info.subtree_nodes])
        rhs = 0.5 * info.subtree_residual_bits * math.log2(len(info.subtree_nodes))
        rows.append(
            SubtreeCheck(
                bound="subtree_charge_bound",
                node=z,
                lhs_bits=charge_sum,
                rhs_bits=rhs,
                passed=charge_sum <= rhs + tolerance_bits,
            )
        )
        if l_bits > MIN_ENTROPY_EPS:
            capped = [report.per_node[x].capped_charge_bits for x in info.subtree_nodes]
            capped_sum = node_ordered_total(capped)
            factor = 2.5 + 0.5 * math.log2(u_bits / l_bits)
            rhs_capped = factor * info.subtree_residual_bits
            rows.append(
                SubtreeCheck(
                    bound="capped_subtree_charge_bound",
                    node=z,
                    lhs_bits=capped_sum,
                    rhs_bits=rhs_capped,
                    passed=capped_sum <= rhs_capped + tolerance_bits,
                )
            )
    return rows


@dataclass(frozen=True)
class BoundCheck:
    """One global score inequality: ``lhs <= rhs`` when applicable."""

    name: str
    lhs_bits: float
    rhs_bits: float | None
    passed: bool | None
    applicable: bool


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of ``verify_bounds``."""

    branching_score_bits: float
    optimal_score_bits: float
    bounds: tuple[BoundCheck, ...]
    subtree_rows: tuple[SubtreeCheck, ...]
    skipped_multi_sink_components: int
    charges: ChargeReport

    @property
    def all_passed(self) -> bool:
        rows_ok = all(r.passed for r in self.subtree_rows)
        bounds_ok = all(b.passed is not False for b in self.bounds)
        return rows_ok and bounds_ok


def verify_bounds(
    dist: Distribution,
    optimal: Structure,
    branching: Structure,
    *,
    tolerance_bits: float = DEFAULT_TOLERANCE_BITS,
) -> BoundsReport:
    """Check the approximation guarantees of ``branching`` against ``optimal``.

    ``optimal`` must be a polytree (normally the exact-search result) and
    ``branching`` a branching (normally the learned one). Global factor
    bounds are evaluated on the two scores; the per-subtree charge audits run
    on every single-sink component of ``optimal``, and components with more
    than one sink are counted in ``skipped_multi_sink_components``.
    """
    check_tolerance(tolerance_bits)
    if not is_branching(branching):
        raise ValidationError("the 'branching' argument is not a branching")
    report = charge_report(dist, optimal)
    b_bits = score(dist, branching).total_bits
    opt_bits = report.total_residual_bits
    u_bits = report.max_node_entropy_bits
    l_bits = report.min_node_entropy_bits
    n = dist.n
    effective = report.source_count + report.multi_parent_count
    l_ok = l_bits > MIN_ENTROPY_EPS

    def row(name: str, factor: float | None, applicable: bool) -> BoundCheck:
        if not applicable:
            return BoundCheck(name, b_bits, None, None, False)
        rhs = factor * opt_bits
        return BoundCheck(name, b_bits, rhs, b_bits <= rhs + tolerance_bits, True)

    bounds = (
        row("entropy_ratio_bound", (1.0 + u_bits / l_bits) if l_ok else None, l_ok),
        row("log_node_count_bound", 1.0 + 0.5 * math.log2(n), True),
        row("log_effective_count_bound", 1.0 + 0.5 * math.log2(max(effective, 1)), True),
        row("entropy_spread_bound", (3.5 + 0.5 * math.log2(u_bits / l_bits)) if l_ok else None, l_ok),
    )
    subtree_rows: list[SubtreeCheck] = []
    skipped = 0
    for nodes, sinks in components_with_sinks(optimal):
        if len(sinks) != 1:
            skipped += 1
            continue
        subtree_rows.extend(_subtree_rows(report, nodes, tolerance_bits))
    return BoundsReport(
        branching_score_bits=b_bits,
        optimal_score_bits=opt_bits,
        bounds=bounds,
        subtree_rows=tuple(subtree_rows),
        skipped_multi_sink_components=skipped,
        charges=report,
    )
