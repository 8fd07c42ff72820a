"""WIRE rules: wire-format hygiene for the service boundary.

* ``WIRE-PICKLE`` — the shard/HTTP boundary must never pickle: a
  remote peer that can feed us pickles has arbitrary code execution
  over the front.  Pickle is banned in the wire-facing modules
  (:attr:`AnalysisConfig.pickle_banned_globs`; ``persistence.py`` is
  deliberately *not* in the list — local snapshots trust their own
  disk), and so is a :mod:`multiprocessing` ``Pipe(...)`` there: its
  ``Connection`` pickles every ``send`` without importing pickle.
* ``WIRE-ERROR`` — every library exception a shard-side service module
  raises must reconstruct across :func:`repro.service.models.
  error_to_wire`, i.e. be a class defined in :mod:`repro.errors` (or a
  Python builtin, which ``error_from_wire`` maps by name).  An
  unregistered exception degrades to a bare ``ServiceError`` on the
  far side and callers lose the typed contract.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from .framework import AnalysisConfig, FileContext, Finding, rule

__all__ = ["WIRE_PICKLE", "WIRE_ERROR", "errors_hierarchy", "errors_registry"]

WIRE_PICKLE = "WIRE-PICKLE"
WIRE_ERROR = "WIRE-ERROR"

_registry_cache: dict = {}


def errors_hierarchy() -> dict:
    """``{class name: base class names}`` for every class defined in
    :mod:`repro.errors`, parsed from source so the analyzer stays
    importable without the package on ``sys.path``."""
    if "bases" in _registry_cache:
        return _registry_cache["bases"]
    bases: dict = {}
    try:
        from pathlib import Path

        errors_py = Path(__file__).resolve().parent.parent / "errors.py"
        tree = ast.parse(errors_py.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = tuple(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
    except (OSError, SyntaxError):  # pragma: no cover - source moved
        pass
    _registry_cache["bases"] = bases
    return bases


def errors_registry() -> frozenset:
    """Exception class names :func:`error_from_wire` can reconstruct:
    the classes defined in :mod:`repro.errors`."""
    return frozenset(errors_hierarchy())


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def _is_pipe_call(node: ast.AST) -> bool:
    """``Pipe(...)``, ``multiprocessing.Pipe(...)`` or ``ctx.Pipe(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Pipe") or (
        isinstance(func, ast.Attribute) and func.attr == "Pipe"
    )


@rule(WIRE_PICKLE)
def check_pickle(ctx: FileContext, config: AnalysisConfig) -> Iterator[Finding]:
    """pickle import or multiprocessing Pipe in a wire-facing module"""
    if not config.matches(ctx.path, config.pickle_banned_globs):
        return
    for node in ast.walk(ctx.tree):
        if _is_pipe_call(node):
            yield ctx.finding(
                WIRE_PICKLE, node,
                "multiprocessing Pipe() in a wire-facing module — its "
                "Connection pickles every message; use a socket transport",
            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ("pickle", "cPickle", "dill",
                                                "cloudpickle", "marshal",
                                                "shelve"):
                    yield ctx.finding(
                        WIRE_PICKLE, node,
                        f"'{alias.name}' imported in a wire-facing module "
                        "— remote bytes must never deserialize as code",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in (
                "pickle", "cPickle", "dill", "cloudpickle", "marshal",
                "shelve",
            ):
                yield ctx.finding(
                    WIRE_PICKLE, node,
                    f"'from {node.module} import ...' in a wire-facing "
                    "module — remote bytes must never deserialize as code",
                )


@rule(WIRE_ERROR)
def check_wire_errors(
    ctx: FileContext, config: AnalysisConfig
) -> Iterator[Finding]:
    """raised error type does not round-trip the error wire format"""
    if not config.matches(ctx.path, config.wire_error_globs):
        return
    if config.matches(ctx.path, config.wire_error_exclude_globs):
        return
    registered = errors_registry() | config.registered_errors
    # classes defined in this very file are module-local by construction
    local = {
        node.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef)
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is None:  # re-raise of a bound variable: out of scope
            continue
        if name in registered or name in local:
            continue
        if _is_builtin_exception(name):
            continue
        if not name[:1].isupper():  # raise some_factory(...) helper
            continue
        yield ctx.finding(
            WIRE_ERROR, node,
            f"'{name}' raised in shard-side service code but not "
            "registered in repro.errors — it will cross error_to_wire "
            "as a bare ServiceError",
        )
