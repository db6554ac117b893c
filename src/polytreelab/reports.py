"""Deterministic machine-readable reports.

Every command-line run emits one JSON document built here. Serialization is
canonical so that identical runs are byte-identical: keys sorted, floats
rounded to 12 significant digits before encoding, two-space indent, one
trailing newline. The shipped schema (``schemas/report.schema.json``)
validates every report kind.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from importlib import resources
from typing import Any, IO

from .bounds import BoundsReport
from .errors import CapExceededError, ToolkitError
from .gadget import GadgetAudit

SIGNIFICANT_DIGITS = 12


def round_floats(value: Any) -> Any:
    """Recursively round floats to the canonical precision."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ToolkitError(f"non-finite value {value!r} in report")
        return float(f"{value:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(value, dict):
        return {key: round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(item) for item in value]
    return value


def canonical_json(document: dict) -> str:
    """Serialize a report deterministically."""
    return json.dumps(round_floats(document), sort_keys=True, indent=2) + "\n"


def write_report(document: dict, out: IO[str] | None = None) -> None:
    (out or sys.stdout).write(canonical_json(document))


def error_report(exc: BaseException) -> dict:
    doc: dict[str, Any] = {
        "kind": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if isinstance(exc, CapExceededError) and exc.constraint:
        doc["error"]["constraint"] = exc.constraint
    return doc


def bounds_report_dict(report: BoundsReport, names: list[str]) -> dict:
    return {
        "kind": "verify-bounds",
        "passed": report.all_passed,
        "branching_score_bits": report.branching_score_bits,
        "optimal_score_bits": report.optimal_score_bits,
        "max_node_entropy_bits": report.charges.max_node_entropy_bits,
        "min_node_entropy_bits": report.charges.min_node_entropy_bits,
        "bounds": [asdict(check) for check in report.bounds],
        "subtree_checks": [
            {**asdict(row), "node": names[row.node]} for row in report.subtree_rows
        ],
        "skipped_multi_sink_components": report.skipped_multi_sink_components,
    }


def gadget_audit_dict(audit: GadgetAudit) -> dict:
    return {"kind": "verify-gadget", "passed": audit.ok, **asdict(audit)}


def growth_curve_csv(rows: list[dict]) -> str:
    """CSV of (depth, branching_bits, polytree_bits, ratio) sweep rows."""
    lines = ["depth,branching_bits,polytree_bits,ratio"]
    for row in rows:
        rounded = round_floats(row)
        lines.append(
            f"{rounded['depth']},{rounded['branching_bits']},"
            f"{rounded['polytree_bits']},{rounded['ratio']}"
        )
    return "\n".join(lines) + "\n"


def report_schema() -> dict:
    """The JSON schema shipped with the package."""
    text = (
        resources.files("polytreelab").joinpath("schemas/report.schema.json").read_text()
    )
    return json.loads(text)
