"""General hygiene rules.

``BROAD-EXCEPT`` — ``except:`` / ``except Exception:`` /
``except BaseException:`` swallow programming errors (including the
``ServiceError`` contract violations every other layer relies on
surfacing).  Handlers whose body *ends by re-raising* are exempt —
that's the narrow-and-convert pattern (catch broad, wrap in a typed
error, raise) this repo uses at process boundaries.  Deliberate
swallowers must carry ``# repro: allow[BROAD-EXCEPT] — <why>``.

``EXCEPT-SHADOWED`` — an ``except`` clause whose type subclasses (or
repeats) the type of an earlier clause of the same ``try`` never runs:
the earlier clause catches everything it would.  ``ShardDiedError``
after ``ServiceError`` is the classic case — the death handling is
dead code.  Class names resolve through the :mod:`repro.errors`
hierarchy and Python's builtin exceptions; other names are skipped.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from .framework import AnalysisConfig, FileContext, Finding, rule
from .wire import errors_hierarchy

__all__ = ["BROAD_EXCEPT", "EXCEPT_SHADOWED"]

BROAD_EXCEPT = "BROAD-EXCEPT"
EXCEPT_SHADOWED = "EXCEPT-SHADOWED"

_BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    node = handler.type
    if isinstance(node, ast.Attribute):  # builtins.Exception
        return node.attr in _BROAD_NAMES
    if isinstance(node, ast.Name):
        return node.id in _BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(
            _is_broad(ast.ExceptHandler(type=el, name=None, body=[]))
            for el in node.elts
        )
    return False


def _ends_in_raise(body: list) -> bool:
    """True when every terminating path of the handler re-raises."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, ast.Raise):
        return True
    if isinstance(last, ast.If):
        return (
            _ends_in_raise(last.body)
            and bool(last.orelse)
            and _ends_in_raise(last.orelse)
        )
    return False


@rule(BROAD_EXCEPT)
def check_broad_except(
    ctx: FileContext, config: AnalysisConfig
) -> Iterator[Finding]:
    """broad exception handler swallows programming errors"""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if _ends_in_raise(node.body):
            continue  # catch-and-convert: the error still surfaces
        label = (
            "bare except"
            if node.type is None
            else f"except {ast.unparse(node.type)}"
        )
        yield ctx.finding(
            BROAD_EXCEPT, node,
            f"{label}: swallows programming errors — narrow it, or "
            "justify with # repro: allow[BROAD-EXCEPT] — <reason>",
        )


def _class_names(node) -> list:
    """The class names an ``except`` type expression names (a tuple
    names several; ``errors.ServiceError`` names ``ServiceError``)."""
    if isinstance(node, ast.Tuple):
        return [name for el in node.elts for name in _class_names(el)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _ancestors(name: str, hierarchy: dict) -> frozenset:
    """``name`` and every class it subclasses; empty when the name
    resolves neither in :mod:`repro.errors` nor among the builtins."""
    if name in hierarchy:
        out = {name}
        for base in hierarchy[name]:
            out |= _ancestors(base, hierarchy)
        return frozenset(out)
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type) and issubclass(builtin, BaseException):
        return frozenset(cls.__name__ for cls in builtin.__mro__)
    return frozenset()


@rule(EXCEPT_SHADOWED)
def check_except_shadowed(
    ctx: FileContext, config: AnalysisConfig
) -> Iterator[Finding]:
    """except clause shadowed by an earlier clause of the same try"""
    hierarchy = errors_hierarchy()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        caught: dict = {}  # class name -> line of the first clause naming it
        for handler in node.handlers:
            if handler.type is None:
                continue  # a bare except must come last (SyntaxError)
            names = _class_names(handler.type)
            for name in names:
                supers = _ancestors(name, hierarchy)
                hit = next((c for c in caught if c in supers), None)
                if hit is not None:
                    yield ctx.finding(
                        EXCEPT_SHADOWED, handler,
                        f"except {ast.unparse(handler.type)}: {name} is "
                        f"already caught as {hit} by the clause on line "
                        f"{caught[hit]}, so this clause never runs for it",
                    )
                    break
            for name in names:
                caught.setdefault(name, handler.lineno)
