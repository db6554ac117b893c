"""Command-line harness.

Every subcommand is a pure function of its inputs, seed, and flags: running
it twice produces byte-identical reports. The JSON report always goes to
stdout; ``--out`` adds a file artifact (structure JSON/DOT, distribution
JSON, dataset CSV, or sweep CSV depending on the command). Domain failures
print a structured error report and exit 1; usage errors exit 2.

Each option group is declared once (``_reads_dist``, ``_exact_options``,
``_structure_out``, ``_reads_gadget``), and each report fragment has one
builder.
"""

from __future__ import annotations

import functools
import gc
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
    write_arity_sidecar,
    write_dataset_csv,
    write_distribution_json,
    write_rows_csv,
)
from .errors import ToolkitError, ValidationError, check_tolerance
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


def _options(*decorators):
    """One decorator that applies click ``decorators`` as if stacked in
    this order, so an option group is declared once."""

    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn

    return apply


_max_states = click.option(
    "--max-states",
    type=int,
    default=DEFAULT_STATE_CAP,
    help="Joint state-space cap.",
)


def _reads_dist(fn):
    """Declare the input options and call ``fn`` with the joint they name in
    their place, as its first argument."""

    @_options(
        click.option(
            "--dist",
            "dist_path",
            type=click.Path(),
            default=None,
            help="Distribution JSON.",
        ),
        click.option(
            "--data",
            "data_path",
            type=click.Path(),
            default=None,
            help="Dataset CSV; the empirical joint is used.",
        ),
        click.option(
            "--arities",
            "arities_path",
            type=click.Path(),
            default=None,
            help="JSON sidecar declaring column arities for --data.",
        ),
        _max_states,
    )
    @functools.wraps(fn)
    def wrapper(dist_path, data_path, arities_path, max_states, **kwargs):
        if (dist_path is None) == (data_path is None):
            raise ValidationError("provide exactly one of --dist or --data")
        if arities_path is not None and data_path is None:
            raise ValidationError("--arities needs --data: a --dist joint declares its own arities")
        if dist_path is not None:
            dist = read_distribution_json(dist_path, max_states=max_states)
        else:
            arities = read_arity_sidecar(arities_path) if arities_path else None
            dataset = read_dataset_csv(data_path, arities)
            dist = empirical_distribution(dataset, max_states=max_states)
        return fn(dist, **kwargs)

    return wrapper


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


def _structure_out(fn):
    """Declare the structure artifact options of a command that reads a
    joint. ``fn`` returns its report and the structure it found; this writes
    the artifact under ``--out``, then the report."""

    @_options(
        click.option("--out", type=click.Path(), default=None, help="Structure artifact path."),
        click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json"),
    )
    @functools.wraps(fn)
    def wrapper(dist, out, fmt, **kwargs):
        doc, structure = fn(dist, **kwargs)
        if out is not None:
            if fmt == "dot":
                structure_mod.write_structure_dot(structure, list(dist.names), out)
            else:
                structure_mod.write_structure_json(structure, list(dist.names), out)
        reports.write_report(doc)

    return wrapper


_exact_options = _options(
    click.option("--k", type=int, default=None, help="Parent bound (default: unbounded)."),
    click.option(
        "--exact-cap",
        type=int,
        default=search_mod.EXACT_MAX_NODES,
        help="Refuse exhaustive search above this many variables.",
    ),
    click.option(
        "--jobs",
        type=int,
        default=1,
        help="Accepted for compatibility (must be >= 1); the search runs in one process.",
    ),
)


def _exact_search(
    dist: Distribution, k: int | None, exact_cap: int, jobs: int
) -> search_mod.SearchReport:
    """The search ``_exact_options`` ask for; ``--jobs`` is only checked."""
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    return search_mod.exact_optimal_polytree(dist, k, max_nodes=exact_cap)


def _reads_gadget(fn):
    """Declare the CNF argument and the blocker options, and call ``fn`` with
    the compiled gadget and its metadata in their place. The DIMACS file is
    read before the blocker options are checked."""

    @_options(
        click.argument("cnf_path", type=click.Path()),
        click.option("--blockers", is_flag=True, default=False, help="Enable inedge blockers."),
        click.option("--blocker-bias", type=float, default=None),
        click.option("--blocker-copies", type=int, default=None),
    )
    @functools.wraps(fn)
    def wrapper(cnf_path, blockers, blocker_bias, blocker_copies, **kwargs):
        formula = cnf_mod.read_dimacs(cnf_path)
        params = gadget_mod.GadgetParams(
            include_inedge_blockers=blockers,
            blocker_bias=blocker_bias,
            blocker_copies=blocker_copies,
        )
        return fn(*gadget_mod.compile_cnf(formula, params), **kwargs)

    return wrapper


_gen_structure_out = click.option("--structure-out", type=click.Path(), default=None)
_gen_artifacts = _options(
    click.option("--out", type=click.Path(), default=None, help="Artifact path."),
    _gen_structure_out,
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
)


def _structure_and_score(dist: Distribution, structure: Structure) -> dict:
    """The ``structure`` and ``score`` fields of a report."""
    return {
        "structure": structure_mod.structure_to_json_dict(structure, list(dist.names)),
        "score": structure_mod.score_report_dict(dist, structure),
    }


def _search_fields(kind: str, k: int | None, report: search_mod.SearchReport) -> dict:
    """The fields shared by the exact-polytree, heuristic-polytree and ratio
    reports."""
    return {
        "kind": kind,
        "k": k,
        "best_score_bits": report.best_score_bits,
        "branching_score_bits": report.branching_score_bits,
        "ratio": report.ratio,
        "excess_bits": report.excess_bits,
    }


def _found_structure(
    kind: str, k: int | None, dist: Distribution, report: search_mod.SearchReport
) -> tuple[dict, Structure]:
    """The report of a structure search, and the structure for ``--out``."""
    doc = {
        **_search_fields(kind, k, report),
        **_structure_and_score(dist, report.best),
        "instances_enumerated": report.instances_enumerated,
    }
    return doc, report.best


def _write_gen_report(
    dist: Distribution, generating: Structure, structure_out: str | None, **fields
) -> None:
    """Write ``--structure-out``, then the generator report: ``fields`` plus
    the generating structure and its score."""
    names = list(dist.names)
    if structure_out is not None:
        structure_mod.write_structure_json(generating, names, structure_out)
    reports.write_report(
        {
            "kind": "gen",
            **fields,
            "generating_score_bits": structure_mod.score(dist, generating).total_bits,
            "structure": structure_mod.structure_to_json_dict(generating, names),
        }
    )


@click.group()
def main() -> None:
    """Learn and audit branchings and polytrees over discrete variables."""


@main.command("learn-branching")
@_guarded
@_reads_dist
@_structure_out
def learn_branching_cmd(dist):
    """Learn the maximum-likelihood branching of the input joint."""
    edges = branching_mod.mutual_information_edges(dist)
    structure = branching_mod.branching_from_edges(dist.n, edges)
    names = list(dist.names)
    doc = {
        "kind": "learn-branching",
        **_structure_and_score(dist, structure),
        "edges": [{"a": names[e.a], "b": names[e.b], "mi_bits": e.weight} for e in edges],
    }
    return doc, structure


@main.command("exact-polytree")
@_guarded
@_reads_dist
@_exact_options
@_structure_out
def exact_polytree_cmd(dist, k, exact_cap, jobs):
    """Exhaustively find a score-optimal (k-)polytree."""
    report = _exact_search(dist, k, exact_cap, jobs)
    return _found_structure("exact-polytree", k, dist, report)


@main.command("heuristic-polytree")
@_guarded
@_reads_dist
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
@_structure_out
def heuristic_polytree_cmd(dist, k, budget, seed_path):
    """Greedy local search over k-polytrees (no optimality guarantee)."""
    seed_structure = _load_structure_for(dist, seed_path) if seed_path else None
    report = search_mod.local_search_polytree(dist, k, seed_structure, budget=budget)
    return _found_structure("heuristic-polytree", k, dist, report)


@main.command("score")
@_guarded
@_reads_dist
@click.option(
    "--structure",
    "structure_path",
    type=click.Path(),
    required=True,
    help="Structure JSON or DOT file.",
)
def score_cmd(dist, structure_path):
    """Score a given structure against the input joint."""
    structure = _load_structure_for(dist, structure_path)
    reports.write_report({"kind": "score", **_structure_and_score(dist, structure)})


@main.command("ratio")
@_guarded
@_reads_dist
@_exact_options
def ratio_cmd(dist, k, exact_cap, jobs):
    """Best-branching score over best-polytree score."""
    report = _exact_search(dist, k, exact_cap, jobs)
    reports.write_report(_search_fields("ratio", k, report))


@main.command("verify-bounds")
@_guarded
@_reads_dist
@_exact_options
@click.option(
    "--tolerance",
    type=float,
    default=bounds_mod.DEFAULT_TOLERANCE_BITS,
    help="Slack in bits for every audited inequality.",
)
def verify_bounds_cmd(dist, k, exact_cap, jobs, tolerance):
    """Audit the branching-vs-optimal guarantees on one input.

    Exits 0 when every applicable inequality holds, 1 otherwise.
    """
    check_tolerance(tolerance)
    search = _exact_search(dist, k, exact_cap, jobs)
    report = bounds_mod.verify_bounds(
        dist, search.best, search.branching, tolerance_bits=tolerance
    )
    doc = reports.bounds_report_dict(report, list(dist.names))
    reports.write_report(doc)
    if not report.all_passed:
        sys.exit(1)


@main.group()
def gen() -> None:
    """Generate distribution families and datasets."""


@gen.command("xor-tree")
@_guarded
@click.option("--depth", type=int, default=None, help="Tree depth (>= 1).")
@click.option("--eps", type=float, required=True, help="Leaf entropy in bits.")
@click.option(
    "--max-depth",
    type=int,
    default=None,
    help="Sweep depths 1..max-depth and emit the growth curve.",
)
@_max_states
@_gen_artifacts
def gen_xor_tree_cmd(depth, eps, max_depth, max_states, out, structure_out, fmt):
    """Complete-binary-tree XOR family (branching-adversarial).

    With ``--format csv`` (or ``--max-depth``) the command sweeps depths,
    learns a branching per depth, and emits (depth, branching_bits,
    polytree_bits, ratio) rows; otherwise it emits one distribution JSON.
    A row's polytree_bits is the score of the generating polytree, not of
    the optimal one, so its ratio is a lower bound on branching/optimal.
    A sweep refuses the options it would ignore: ``--depth`` with
    ``--max-depth``, ``--structure-out``, and ``--out`` without
    ``--format csv``.
    """
    if fmt == "csv" or max_depth is not None:
        ignored = [
            option
            for option, given in (
                ("--depth with --max-depth", depth is not None and max_depth is not None),
                ("--structure-out", structure_out is not None),
                ("--out with --format json", out is not None and fmt == "json"),
            )
            if given
        ]
        if ignored:
            raise ValidationError(f"a depth sweep cannot honour {', '.join(ignored)}")
        top = max_depth if max_depth is not None else (3 if depth is None else depth)
        if top < 1:
            raise ValidationError(f"depth must be >= 1, got {top}")
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
    if out is not None:
        write_distribution_json(dist, out)
    _write_gen_report(
        dist,
        generating,
        structure_out,
        family="xor-tree",
        depth=depth,
        eps=eps,
        num_variables=dist.n,
        source_bias=bernoulli_bias_for_entropy(eps),
    )


@gen.command("example")
@_guarded
@click.option(
    "--name",
    type=click.Choice(list(gen_mod.PARITY_FIXTURES)),
    required=True,
)
@_gen_artifacts
def gen_example_cmd(name, out, structure_out, fmt):
    """Bundled parity fixtures.

    ``--format csv`` writes the support as an equal-weight dataset whose
    empirical joint reproduces the fixture exactly.
    """
    dist, generating = gen_mod.parity_fixture(name)
    if out is not None:
        if fmt == "csv":
            rows = np.argwhere(dist.table > 0)
            write_dataset_csv(Dataset(dist.variables, rows), out)
        else:
            write_distribution_json(dist, out)
    _write_gen_report(
        dist,
        generating,
        structure_out,
        family="example",
        name=name,
        num_variables=dist.n,
    )


@gen.command("random")
@_guarded
@click.option("--n", type=int, required=True, help="Number of variables.")
@click.option("--k", type=int, default=2, help="Generating indegree bound.")
@click.option("--arity", type=int, default=2)
@click.option("--seed", type=int, default=0)
@click.option("--edge-prob", type=float, default=0.9)
@_max_states
@click.option("--out", type=click.Path(), default=None, help="Distribution JSON path.")
@_gen_structure_out
def gen_random_cmd(n, k, arity, seed, edge_prob, max_states, out, structure_out):
    """Seeded random k-polytree instance."""
    dist, generating = gen_mod.random_polytree_instance(
        n, k, arity, seed, edge_prob=edge_prob, max_states=max_states
    )
    if out is not None:
        write_distribution_json(dist, out)
    _write_gen_report(
        dist,
        generating,
        structure_out,
        family="random",
        n=n,
        k=k,
        arity=arity,
        seed=seed,
        edge_prob=edge_prob,
    )


@gen.command("cnf")
@_guarded
@click.option("--samples", type=int, default=0, help="Rows to sample (0: none).")
@click.option("--seed", type=int, default=0)
@_reads_gadget
@click.option("--out", type=click.Path(), default=None, help="Dataset CSV path.")
@click.option(
    "--arities-out",
    type=click.Path(),
    default=None,
    help="Arity sidecar JSON for the sampled dataset.",
)
def gen_cnf_cmd(compiled, metadata, samples, seed, out, arities_out):
    """Compile a restricted CNF into its layered hard distribution."""
    if samples < 0:
        raise ValidationError(f"--samples must be >= 0, got {samples}")
    if samples > 0 and out is None:
        raise ValidationError(f"--samples {samples} needs --out: sampled rows go to a dataset CSV")
    if samples == 0 and out is not None:
        raise ValidationError("--out needs --samples above 0: the dataset CSV holds sampled rows")
    if samples > 0:
        write_rows_csv(compiled.variables, compiled.sample_blocks(samples, seed), out)
    if arities_out is not None:
        write_arity_sidecar(compiled.variables, arities_out)
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
@_guarded
@_reads_gadget
@click.option(
    "--assignment",
    type=str,
    default=None,
    help="Comma-separated 0/1 values (default: exhaustive best).",
)
@click.option("--tolerance", type=float, default=1e-9, help="Slack in bits.")
def verify_gadget_cmd(compiled, _metadata, assignment, tolerance):
    """Audit a compiled CNF gadget against its analytic entropy targets.

    Exits 0 when every check passes, 1 otherwise.
    """
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


def run() -> None:
    """Run ``main`` as a process: the entry of the ``polytreelab`` console
    script and of ``python -m polytreelab``.

    The heap built at import (numpy, click, this package) is frozen first,
    so no later collection, the interpreter's last ones at exit included,
    traverses or frees it. Calling ``main`` in process, as tests and
    library callers do, freezes nothing of the caller's heap.
    """
    gc.freeze()
    main()
