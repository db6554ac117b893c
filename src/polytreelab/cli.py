"""Command-line harness.

Every subcommand is a pure function of its inputs, seed, and flags: running
it twice produces byte-identical reports. The JSON report always goes to
stdout; ``--out`` adds a file artifact (structure JSON/DOT, distribution
JSON, dataset CSV, or sweep CSV depending on the command). Domain failures
print a structured error report and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import bounds as bounds_mod
from . import branching as branching_mod
from . import cnf as cnf_mod
from . import gadget as gadget_mod
from . import generators as gen_mod
from . import reports
from . import search as search_mod
from . import structure as structure_mod
from .distribution import (
    DEFAULT_STATE_CAP,
    Dataset,
    Distribution,
    bernoulli_bias_for_entropy,
    empirical_distribution,
    read_arity_sidecar,
    read_dataset_csv,
    read_distribution_json,
    write_dataset_csv,
    write_distribution_json,
)
from .errors import ToolkitError, ValidationError
from .structure import Structure


def _guarded(fn):
    """Convert domain and I/O failures into structured error reports."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ToolkitError, OSError) as exc:
            reports.write_report(reports.error_report(exc))
            sys.exit(1)

    return wrapper


def _dist_options(fn):
    fn = click.option(
        "--max-states",
        type=int,
        default=DEFAULT_STATE_CAP,
        help="Joint state-space cap.",
    )(fn)
    fn = click.option(
        "--arities",
        "arities_path",
        type=click.Path(),
        default=None,
        help="JSON sidecar declaring column arities for --data.",
    )(fn)
    fn = click.option(
        "--data",
        "data_path",
        type=click.Path(),
        default=None,
        help="Dataset CSV; the empirical joint is used.",
    )(fn)
    fn = click.option(
        "--dist",
        "dist_path",
        type=click.Path(),
        default=None,
        help="Distribution JSON.",
    )(fn)
    return fn


def _load_distribution(
    dist_path: str | None,
    data_path: str | None,
    arities_path: str | None,
    max_states: int,
) -> Distribution:
    if (dist_path is None) == (data_path is None):
        raise ValidationError("provide exactly one of --dist or --data")
    if dist_path is not None:
        return read_distribution_json(dist_path, max_states=max_states)
    arities = read_arity_sidecar(arities_path) if arities_path else None
    dataset = read_dataset_csv(data_path, arities)
    return empirical_distribution(dataset, max_states=max_states)


def _load_structure_for(dist: Distribution, path: str) -> Structure:
    """Read a structure file and align its node order to the distribution."""
    if path.endswith(".dot"):
        structure, names = structure_mod.read_structure_dot(path)
    else:
        structure, names = structure_mod.read_structure_json(path)
    if sorted(names) != sorted(dist.names):
        raise ValidationError(
            "structure names do not match the distribution's variables"
        )
    perm = [dist.index_of(name) for name in names]
    parents: list[tuple[int, ...]] = [() for _ in range(structure.n)]
    for child in range(structure.n):
        parents[perm[child]] = tuple(perm[p] for p in structure.parents[child])
    return Structure(structure.n, parents)


def _write_structure_artifact(
    structure: Structure, names: list[str], out: str | None, fmt: str
) -> None:
    if out is None:
        return
    if fmt == "dot":
        structure_mod.write_structure_dot(structure, names, out)
    else:
        structure_mod.write_structure_json(structure, names, out)


_jobs_option = click.option(
    "--jobs",
    type=int,
    default=1,
    help="Accepted for compatibility (must be >= 1); the search runs in one process.",
)


@click.group()
def main() -> None:
    """Learn and audit branchings and polytrees over discrete variables."""


@main.command("learn-branching")
@_dist_options
@click.option("--out", type=click.Path(), default=None, help="Structure artifact path.")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@_guarded
def learn_branching_cmd(dist_path, data_path, arities_path, max_states, out, fmt):
    """Learn the maximum-likelihood branching of the input joint."""
    dist = _load_distribution(dist_path, data_path, arities_path, max_states)
    structure = branching_mod.learn_optimal_branching(dist)
    names = list(dist.names)
    doc = {
        "kind": "learn-branching",
        "structure": structure_mod.structure_to_json_dict(structure, names),
        "score": structure_mod.score_report_dict(dist, structure),
        "edges": [
            {"a": names[e.a], "b": names[e.b], "mi_bits": e.weight}
            for e in branching_mod.mutual_information_edges(dist)
        ],
    }
    _write_structure_artifact(structure, names, out, fmt)
    reports.write_report(doc)


@main.command("exact-polytree")
@_dist_options
@click.option("--k", type=int, default=None, help="Parent bound (default: unbounded).")
@click.option(
    "--exact-cap",
    type=int,
    default=search_mod.EXACT_MAX_NODES,
    help="Refuse exhaustive search above this many variables.",
)
@_jobs_option
@click.option("--out", type=click.Path(), default=None, help="Structure artifact path.")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@_guarded
def exact_polytree_cmd(
    dist_path, data_path, arities_path, max_states, k, exact_cap, jobs, out, fmt
):
    """Exhaustively find a score-optimal (k-)polytree."""
    dist = _load_distribution(dist_path, data_path, arities_path, max_states)
    report = search_mod.exact_optimal_polytree(dist, k, max_nodes=exact_cap, jobs=jobs)
    names = list(dist.names)
    doc = reports.search_report_dict(
        "exact-polytree",
        report,
        names,
        structure_mod.score_report_dict(dist, report.best),
        k,
    )
    _write_structure_artifact(report.best, names, out, fmt)
    reports.write_report(doc)


@main.command("heuristic-polytree")
@_dist_options
@click.option("--k", type=int, required=True, help="Parent bound (>= 1).")
@click.option(
    "--budget",
    type=int,
    default=search_mod.DEFAULT_LOCAL_BUDGET,
    help="Maximum applied moves.",
)
@click.option(
    "--seed-structure",
    "seed_path",
    type=click.Path(),
    default=None,
    help="Starting structure file (default: the learned branching).",
)
@click.option("--out", type=click.Path(), default=None, help="Structure artifact path.")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@_guarded
def heuristic_polytree_cmd(
    dist_path, data_path, arities_path, max_states, k, budget, seed_path, out, fmt
):
    """Greedy local search over k-polytrees (no optimality guarantee)."""
    dist = _load_distribution(dist_path, data_path, arities_path, max_states)
    seed_structure = _load_structure_for(dist, seed_path) if seed_path else None
    report = search_mod.local_search_polytree(dist, k, seed_structure, budget=budget)
    names = list(dist.names)
    doc = reports.search_report_dict(
        "heuristic-polytree",
        report,
        names,
        structure_mod.score_report_dict(dist, report.best),
        k,
    )
    _write_structure_artifact(report.best, names, out, fmt)
    reports.write_report(doc)


@main.command("score")
@_dist_options
@click.option(
    "--structure",
    "structure_path",
    type=click.Path(),
    required=True,
    help="Structure JSON or DOT file.",
)
@_guarded
def score_cmd(dist_path, data_path, arities_path, max_states, structure_path):
    """Score a given structure against the input joint."""
    dist = _load_distribution(dist_path, data_path, arities_path, max_states)
    structure = _load_structure_for(dist, structure_path)
    doc = {
        "kind": "score",
        "structure": structure_mod.structure_to_json_dict(structure, list(dist.names)),
        "score": structure_mod.score_report_dict(dist, structure),
    }
    reports.write_report(doc)


@main.command("ratio")
@_dist_options
@click.option("--k", type=int, default=None, help="Parent bound (default: unbounded).")
@click.option("--exact-cap", type=int, default=search_mod.EXACT_MAX_NODES)
@_jobs_option
@_guarded
def ratio_cmd(dist_path, data_path, arities_path, max_states, k, exact_cap, jobs):
    """Best-branching score over best-polytree score."""
    dist = _load_distribution(dist_path, data_path, arities_path, max_states)
    report = search_mod.exact_optimal_polytree(dist, k, max_nodes=exact_cap, jobs=jobs)
    reports.write_report(
        {
            "kind": "ratio",
            "k": k,
            "ratio": report.ratio,
            "excess_bits": report.excess_bits,
            "best_score_bits": report.best_score_bits,
            "branching_score_bits": report.branching_score_bits,
        }
    )


@main.command("verify-bounds")
@_dist_options
@click.option("--k", type=int, default=None, help="Parent bound for the oracle search.")
@click.option("--exact-cap", type=int, default=search_mod.EXACT_MAX_NODES)
@_jobs_option
@click.option(
    "--tolerance",
    type=float,
    default=bounds_mod.DEFAULT_TOLERANCE_BITS,
    help="Slack in bits for every audited inequality.",
)
@_guarded
def verify_bounds_cmd(
    dist_path, data_path, arities_path, max_states, k, exact_cap, jobs, tolerance
):
    """Audit the branching-vs-optimal guarantees on one input.

    Exits 0 when every applicable inequality holds, 1 otherwise.
    """
    dist = _load_distribution(dist_path, data_path, arities_path, max_states)
    branching = branching_mod.learn_optimal_branching(dist)
    search = search_mod.exact_optimal_polytree(dist, k, max_nodes=exact_cap, jobs=jobs)
    report = bounds_mod.verify_bounds(
        dist, search.best, branching, tolerance_bits=tolerance
    )
    doc = reports.bounds_report_dict(report, list(dist.names))
    reports.write_report(doc)
    if not report.all_passed:
        sys.exit(1)


@main.group()
def gen() -> None:
    """Generate distribution families and datasets."""


@gen.command("xor-tree")
@click.option("--depth", type=int, default=None, help="Tree depth (>= 1).")
@click.option("--eps", type=float, required=True, help="Leaf entropy in bits.")
@click.option(
    "--max-depth",
    type=int,
    default=None,
    help="Sweep depths 1..max-depth and emit the growth curve.",
)
@click.option("--max-states", type=int, default=DEFAULT_STATE_CAP)
@click.option("--out", type=click.Path(), default=None, help="Artifact path.")
@click.option("--structure-out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@_guarded
def gen_xor_tree_cmd(depth, eps, max_depth, max_states, out, structure_out, fmt):
    """Complete-binary-tree XOR family (branching-adversarial).

    With ``--format csv`` (or ``--max-depth``) the command sweeps depths,
    learns a branching per depth, and emits (depth, branching_bits,
    polytree_bits, ratio) rows; otherwise it emits one distribution JSON.
    A row's polytree_bits is the score of the generating polytree, not of
    the optimal one, so its ratio is a lower bound on branching/optimal.
    """
    if fmt == "csv" or max_depth is not None:
        top = max_depth if max_depth is not None else (depth if depth else 3)
        rows = []
        for d in range(1, top + 1):
            dist, generating = gen_mod.xor_tree_family(d, eps, max_states=max_states)
            learned = branching_mod.learn_optimal_branching(dist)
            branching_bits = structure_mod.score(dist, learned).total_bits
            polytree_bits = structure_mod.score(dist, generating).total_bits
            rows.append(
                {
                    "depth": d,
                    "branching_bits": branching_bits,
                    "polytree_bits": polytree_bits,
                    "ratio": branching_bits / polytree_bits,
                }
            )
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(reports.growth_curve_csv(rows))
        reports.write_report(
            {"kind": "gen", "family": "xor-tree", "eps": eps, "sweep": rows}
        )
        return
    if depth is None:
        raise ValidationError("provide --depth (or --max-depth for a sweep)")
    dist, generating = gen_mod.xor_tree_family(depth, eps, max_states=max_states)
    names = list(dist.names)
    if out is not None:
        write_distribution_json(dist, out)
    if structure_out is not None:
        structure_mod.write_structure_json(generating, names, structure_out)
    reports.write_report(
        {
            "kind": "gen",
            "family": "xor-tree",
            "depth": depth,
            "eps": eps,
            "num_variables": dist.n,
            "source_bias": bernoulli_bias_for_entropy(eps),
            "generating_score_bits": structure_mod.score(dist, generating).total_bits,
            "structure": structure_mod.structure_to_json_dict(generating, names),
        }
    )


@gen.command("example")
@click.option(
    "--name",
    type=click.Choice(list(gen_mod.PARITY_FIXTURES)),
    required=True,
)
@click.option("--out", type=click.Path(), default=None, help="Artifact path.")
@click.option("--structure-out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@_guarded
def gen_example_cmd(name, out, structure_out, fmt):
    """Bundled parity fixtures.

    ``--format csv`` writes the support as an equal-weight dataset whose
    empirical joint reproduces the fixture exactly.
    """
    dist, generating = gen_mod.parity_fixture(name)
    names = list(dist.names)
    if out is not None:
        if fmt == "csv":
            rows = np.argwhere(dist.table > 0)
            write_dataset_csv(Dataset(dist.variables, rows), out)
        else:
            write_distribution_json(dist, out)
    if structure_out is not None:
        structure_mod.write_structure_json(generating, names, structure_out)
    reports.write_report(
        {
            "kind": "gen",
            "family": "example",
            "name": name,
            "num_variables": dist.n,
            "generating_score_bits": structure_mod.score(dist, generating).total_bits,
            "structure": structure_mod.structure_to_json_dict(generating, names),
        }
    )


@gen.command("random")
@click.option("--n", type=int, required=True, help="Number of variables.")
@click.option("--k", type=int, default=2, help="Generating indegree bound.")
@click.option("--arity", type=int, default=2)
@click.option("--seed", type=int, default=0)
@click.option("--edge-prob", type=float, default=0.9)
@click.option("--max-states", type=int, default=DEFAULT_STATE_CAP)
@click.option("--out", type=click.Path(), default=None, help="Distribution JSON path.")
@click.option("--structure-out", type=click.Path(), default=None)
@_guarded
def gen_random_cmd(n, k, arity, seed, edge_prob, max_states, out, structure_out):
    """Seeded random k-polytree instance."""
    dist, generating = gen_mod.random_polytree_instance(
        n, k, arity, seed, edge_prob=edge_prob, max_states=max_states
    )
    names = list(dist.names)
    if out is not None:
        write_distribution_json(dist, out)
    if structure_out is not None:
        structure_mod.write_structure_json(generating, names, structure_out)
    reports.write_report(
        {
            "kind": "gen",
            "family": "random",
            "n": n,
            "k": k,
            "arity": arity,
            "seed": seed,
            "edge_prob": edge_prob,
            "generating_score_bits": structure_mod.score(dist, generating).total_bits,
            "structure": structure_mod.structure_to_json_dict(generating, names),
        }
    )


def _gadget_params(blockers: bool, blocker_bias: float | None, blocker_copies: int | None):
    return gadget_mod.GadgetParams(
        include_inedge_blockers=blockers,
        blocker_bias=blocker_bias,
        blocker_copies=blocker_copies,
    )


@gen.command("cnf")
@click.argument("cnf_path", type=click.Path())
@click.option("--samples", type=int, default=0, help="Rows to sample (0: none).")
@click.option("--seed", type=int, default=0)
@click.option("--blockers", is_flag=True, default=False, help="Enable inedge blockers.")
@click.option("--blocker-bias", type=float, default=None)
@click.option("--blocker-copies", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="Dataset CSV path.")
@click.option(
    "--arities-out",
    type=click.Path(),
    default=None,
    help="Arity sidecar JSON for the sampled dataset.",
)
@_guarded
def gen_cnf_cmd(
    cnf_path, samples, seed, blockers, blocker_bias, blocker_copies, out, arities_out
):
    """Compile a restricted CNF into its layered hard distribution."""
    formula = cnf_mod.read_dimacs(cnf_path)
    compiled, metadata = gadget_mod.compile_cnf(
        formula, _gadget_params(blockers, blocker_bias, blocker_copies)
    )
    if samples > 0 and out is not None:
        write_dataset_csv(compiled.sample_dataset(samples, seed), out)
    if arities_out is not None:
        with open(arities_out, "w", encoding="utf-8") as fh:
            json.dump(
                {m.name: m.arity for m in compiled.variables},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    doc = dict(metadata)
    doc.update(
        {
            "kind": "gen",
            "family": "cnf",
            "samples": samples,
            "seed": seed,
            "nodes": [{"name": m.name, "arity": m.arity} for m in compiled.variables],
        }
    )
    reports.write_report(doc)


@main.command("verify-gadget")
@click.argument("cnf_path", type=click.Path())
@click.option("--blockers", is_flag=True, default=False, help="Enable inedge blockers.")
@click.option("--blocker-bias", type=float, default=None)
@click.option("--blocker-copies", type=int, default=None)
@click.option(
    "--assignment",
    type=str,
    default=None,
    help="Comma-separated 0/1 values (default: exhaustive best).",
)
@click.option("--tolerance", type=float, default=1e-9, help="Slack in bits.")
@_guarded
def verify_gadget_cmd(cnf_path, blockers, blocker_bias, blocker_copies, assignment, tolerance):
    """Audit a compiled CNF gadget against its analytic entropy targets.

    Exits 0 when every check passes, 1 otherwise.
    """
    formula = cnf_mod.read_dimacs(cnf_path)
    compiled, _ = gadget_mod.compile_cnf(
        formula, _gadget_params(blockers, blocker_bias, blocker_copies)
    )
    parsed = None
    if assignment is not None:
        try:
            parsed = tuple(int(tok) for tok in assignment.split(","))
        except ValueError:
            raise ValidationError(
                f"--assignment must be comma-separated integers, got {assignment!r}"
            ) from None
    audit = gadget_mod.verify_gadget(compiled, parsed, tolerance_bits=tolerance)
    reports.write_report(reports.gadget_audit_dict(audit))
    if not audit.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
