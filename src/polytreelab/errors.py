"""Exception taxonomy shared by every module in the package.

All refusals carry a human-readable message; cap violations additionally
name the constraint that failed so callers (and the CLI error JSON) can
report it without parsing prose. Every outside file is opened through
``open_text``, so one that is not UTF-8 is refused as a ``FormatError``,
and a leading byte-order mark is skipped. ``read_json`` and ``write_json``
frame every JSON artifact the package reads or writes.

``lazy_import`` binds numpy in every module that uses it, so importing the
package or the CLI, and ``--help`` or a usage error, never load numpy; the
first attribute read on it, inside a command, does.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from contextlib import contextmanager


class ToolkitError(Exception):
    """Base class for every error raised deliberately by this package."""


class ValidationError(ToolkitError, ValueError):
    """Input data or arguments violate a documented precondition."""


class FormatError(ToolkitError, ValueError):
    """A file (CSV, JSON, DOT, DIMACS) does not match its documented format."""


class CapExceededError(ToolkitError):
    """A size cap was exceeded; ``constraint`` names the violated limit."""

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


class NumericsError(ToolkitError):
    """An internal numerical invariant failed (for example an entropy sum
    came out more negative than float round-off can explain)."""


class InvariantError(ToolkitError):
    """A result broke a rule the program guarantees (for example local
    search leaving the k-polytrees, or a gadget node sampling a value
    outside its arity); a bug, reported rather than returned."""


def check_tolerance(tolerance_bits: float) -> None:
    """Refuse an audit slack that is not a finite number of bits: with
    ``inf`` every inequality passes and with ``nan`` every one fails."""
    if not math.isfinite(tolerance_bits):
        raise ValidationError(f"tolerance must be finite, got {tolerance_bits}")


@contextmanager
def open_text(path, **open_args):
    """``path`` opened to read as UTF-8 text, a leading byte-order mark
    skipped. A byte that is not UTF-8 is a malformed file like any other: it
    raises ``FormatError`` naming it."""
    try:
        with open(path, encoding="utf-8-sig", **open_args) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


def read_json(path):
    """The JSON document in ``path``; text that is not JSON is a
    ``FormatError`` naming the file."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None


def write_json(doc, path) -> None:
    """``doc`` written to ``path`` as indented JSON with sorted keys and a
    final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def lazy_import(name: str):
    """Module ``name``, loaded on the first read of one of its attributes.

    An already imported module is returned as it is. Otherwise the module is
    registered in ``sys.modules`` through ``importlib.util.LazyLoader``, so a
    later ``import name`` anywhere in the process also loads it at once:
    every module of this package binds it through this function instead.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
