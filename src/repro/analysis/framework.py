"""Checker framework of :mod:`repro.analysis` (see package docstring).

The framework is deliberately dependency-free (stdlib ``ast`` +
``tokenize`` only): the analysis gate must be runnable in a bare CI
container and importable without dragging in the numeric stack.

Concepts
--------

* A **rule** is a function ``(FileContext, AnalysisConfig) ->
  Iterable[Finding]`` registered under a stable id (``DET-GLOBAL-RNG``,
  ``LOCK-HELD-BLOCKING``, ...) via the :func:`rule` decorator.  Rules
  are *per-file*; whole-project passes (the lock-graph extraction)
  register with :func:`project_rule` and receive every
  :class:`FileContext` at once.
* A **suppression** is the comment ``# repro: allow[RULE-ID] — reason``
  on the flagged line or the line directly above it.  The reason is
  **mandatory**: a reasonless suppression does not suppress and
  additionally raises a :data:`SUPPRESS_NO_REASON` finding, so the gate
  forces every opt-out to be justified in the diff.
* **Per-file config**: :attr:`AnalysisConfig.per_file_disable` maps
  glob patterns to rule ids disabled for matching files (e.g. benchmark
  scripts may use wall-clock freely).
* A **baseline** is a JSON list of finding fingerprints to tolerate —
  the adoption path for pre-existing debt.  Fingerprints hash the rule
  id, the repo-relative path, and the *text* of the flagged line, so
  they survive unrelated line drift.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import hashlib
import io
import json
import re
import tokenize
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "FileContext",
    "Finding",
    "Suppression",
    "SUPPRESS_NO_REASON",
    "default_config",
    "iter_python_files",
    "load_baseline",
    "parse_suppressions",
    "project_rule",
    "registered_rules",
    "rule",
    "run_analysis",
]

#: meta-rule id raised for ``# repro: allow[...]`` comments without a
#: reason; never suppressible (a suppression cannot excuse itself)
SUPPRESS_NO_REASON = "SUPPRESS-NO-REASON"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_\-, ]+)\]"
    r"\s*(?:[—–-]+\s*(?P<reason>.*?))?\s*$"
)

#: variable/attribute/function names that mark a wall-clock value as
#: timing bookkeeping (budgets, latencies, deadlines) rather than data
DEFAULT_TIMING_NAME_RE = (
    r"(time|clock|second|latenc|elapsed|deadline|budget|remain|duration"
    r"|interval|timeout|created|expire|age|stamp|wall|percentile|stats"
    r"|span|trace|probe|mark"
    r"|_at$|_s$|_ms$|_ns$|t\d+$|^now$|^start|_start|^end$|_end$|uptime)"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def fingerprint(self, line_text: str = "") -> str:
        raw = f"{self.rule}|{_relish(self.path)}|{line_text.strip()}"
        return hashlib.sha1(raw.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str


@dataclasses.dataclass
class AnalysisConfig:
    """Tunable knobs of a run (defaults = this repository's contract)."""

    #: glob pattern -> rule ids disabled for matching files
    per_file_disable: dict = dataclasses.field(default_factory=dict)
    #: lock nodes that exist to serialize blocking work and therefore
    #: *may* be held across blocking calls (the session compute lock)
    compute_locks: frozenset = frozenset({"Session.compute_lock"})
    #: regex marking names that legitimately carry wall-clock values
    timing_name_re: str = DEFAULT_TIMING_NAME_RE
    #: files where any pickle use is a wire-hygiene violation
    pickle_banned_globs: tuple = (
        "*/service/models.py",
        "*/service/transport.py",
        "*/service/sharding.py",
        "*/service/http.py",
        "*/service/eventloop.py",
        "*/service/client.py",
        "*/service/ring.py",
    )
    #: files whose raised library exceptions must be reconstructable by
    #: :func:`repro.service.models.error_from_wire` (shard-side code)
    wire_error_globs: tuple = ("*/service/*.py",)
    #: wire-error scope exclusions (front-side boundary files whose
    #: exceptions are handled locally and never cross a transport)
    wire_error_exclude_globs: tuple = (
        "*/service/http.py",
        "*/service/client.py",
    )
    #: extra exception class names known to reconstruct across
    #: ``error_to_wire`` (augmented from any analyzed ``errors.py``)
    registered_errors: frozenset = frozenset()
    #: rule ids to skip entirely
    disabled_rules: frozenset = frozenset()

    def rule_enabled(self, rule_id: str, path: str) -> bool:
        if rule_id in self.disabled_rules:
            return False
        rel = _relish(path)
        for pattern, rules in self.per_file_disable.items():
            if fnmatch.fnmatch(rel, pattern) and rule_id in rules:
                return False
        return True

    def matches(self, path: str, globs: Iterable[str]) -> bool:
        rel = _relish(path)
        return any(fnmatch.fnmatch(rel, g) for g in globs)


def default_config() -> AnalysisConfig:
    """The repository's default analysis configuration."""
    return AnalysisConfig()


def _relish(path: str) -> str:
    """Forward-slashed path for glob matching and stable fingerprints."""
    return str(path).replace("\\", "/")


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """All ``# repro: allow[...]`` comments of a file, keyed by line.

    A suppression's reason may continue over following comment-only
    lines (a comment block above the flagged statement); continuation
    text is folded into the reason.
    """
    out: dict[int, Suppression] = {}
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = tuple(
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            reason = (match.group("reason") or "").strip()
            # fold contiguous comment-only continuation lines in
            cur = tok.start[0]
            while reason and cur < len(lines):
                text = lines[cur].strip()
                if not text.startswith("#") or _SUPPRESS_RE.search(text):
                    break
                reason = f"{reason} {text.lstrip('# ').strip()}"
                cur += 1
            out[tok.start[0]] = Suppression(tok.start[0], rules, reason)
    except tokenize.TokenError:
        pass  # unterminated strings etc.: no comments past the error
    return out


class FileContext:
    """One parsed file handed to every per-file rule."""

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.suppressions = parse_suppressions(source)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppression_for(self, rule_id: str, line: int) -> Optional[Suppression]:
        """The suppression covering ``rule_id`` at ``line``: a comment
        on the flagged line itself, on the line directly above it, or
        anywhere in the contiguous comment block directly above it."""
        sup = self.suppressions.get(line)
        if sup is not None and rule_id in sup.rules:
            return sup
        cur = line - 1
        while cur >= 1:
            sup = self.suppressions.get(cur)
            if sup is not None and rule_id in sup.rules:
                return sup
            # keep walking only while inside a pure comment block (a
            # trailing comment on a code line was checked just above)
            if not self.line_text(cur).strip().startswith("#"):
                break
            cur -= 1
        return None

    def finding(self, rule_id: str, node, message: str) -> Finding:
        """Build a finding, resolving the suppression state."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        sup = self.suppression_for(rule_id, line)
        if sup is not None and sup.reason:
            return Finding(
                rule_id, self.path, line, message,
                suppressed=True, reason=sup.reason,
            )
        return Finding(rule_id, self.path, line, message)


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------

_RULES: dict[str, Callable] = {}
_PROJECT_RULES: dict[str, Callable] = {}


def rule(rule_id: str) -> Callable:
    """Register a per-file rule under ``rule_id``."""

    def decorate(fn: Callable) -> Callable:
        fn.rule_id = rule_id
        _RULES[rule_id] = fn
        return fn

    return decorate


def project_rule(name: str) -> Callable:
    """Register a whole-project pass (receives every FileContext)."""

    def decorate(fn: Callable) -> Callable:
        _PROJECT_RULES[name] = fn
        return fn

    return decorate


def registered_rules() -> dict[str, Callable]:
    _ensure_rules_loaded()
    return dict(_RULES)


def _ensure_rules_loaded() -> None:
    """Import the rule modules exactly once (registration side effect)."""
    from . import det, hygiene, locks, wire  # noqa: F401


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Every ``*.py`` under the given files/directories, sorted, with
    caches and hidden directories skipped."""
    seen = set()
    for raw in paths:
        p = Path(raw)
        candidates = [p] if p.is_file() else sorted(p.rglob("*.py"))
        for path in candidates:
            if path.suffix != ".py":
                continue
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in path.parts
            ):
                continue
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path


@dataclasses.dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: list = dataclasses.field(default_factory=list)
    parse_errors: list = dataclasses.field(default_factory=list)
    lock_graph: Optional[object] = None  # locks.LockGraph
    n_files: int = 0

    @property
    def unsuppressed(self) -> list:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list:
        return [f for f in self.findings if f.suppressed]

    # -- rendering -----------------------------------------------------
    def to_json(self) -> dict:
        graph = self.lock_graph
        return {
            "summary": {
                "files": self.n_files,
                "findings": len(self.findings),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": len(self.suppressed),
                "parse_errors": len(self.parse_errors),
            },
            "findings": [
                {
                    "rule": f.rule,
                    "path": _relish(f.path),
                    "line": f.line,
                    "message": f.message,
                    "suppressed": f.suppressed,
                    "reason": f.reason,
                    "fingerprint": f.fingerprint(self._line_text(f)),
                }
                for f in self.findings
            ],
            "parse_errors": list(self.parse_errors),
            "lock_graph": None if graph is None else graph.to_json(),
        }

    def _line_text(self, finding: Finding) -> str:
        ctx = self._contexts.get(finding.path) if hasattr(self, "_contexts") else None
        return ctx.line_text(finding.line) if ctx is not None else ""

    def render_text(self) -> str:
        lines = []
        for f in sorted(
            self.findings, key=lambda f: (_relish(f.path), f.line, f.rule)
        ):
            mark = "suppressed: " if f.suppressed else ""
            lines.append(
                f"{_relish(f.path)}:{f.line}: [{f.rule}] {mark}{f.message}"
            )
            if f.suppressed:
                lines.append(f"    reason: {f.reason}")
        for path, error in self.parse_errors:
            lines.append(f"{_relish(path)}: parse error: {error}")
        graph = self.lock_graph
        graph_bit = ""
        if graph is not None:
            graph_bit = (
                f"; lock graph: {len(graph.nodes)} locks, "
                f"{len(graph.edges)} edges, {len(graph.cycles)} cycles"
            )
        lines.append(
            f"{len(self.findings)} finding(s) in {self.n_files} file(s) "
            f"({len(self.unsuppressed)} unsuppressed, "
            f"{len(self.suppressed)} suppressed){graph_bit}"
        )
        return "\n".join(lines)


def run_analysis(
    paths: Iterable[str],
    config: Optional[AnalysisConfig] = None,
    rules: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Analyze every Python file under ``paths``.

    ``rules`` restricts the per-file rule set (project passes — the
    lock analysis — always run; their findings are filtered instead).
    """
    _ensure_rules_loaded()
    config = config or default_config()
    report = AnalysisReport()
    contexts: list[FileContext] = []
    for path in iter_python_files(paths):
        report.n_files += 1
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append((str(path), str(exc)))
            continue
        contexts.append(FileContext(str(path), source, tree))
    report._contexts = {ctx.path: ctx for ctx in contexts}

    selected = set(rules) if rules is not None else None
    for ctx in contexts:
        # reasonless suppressions are findings in their own right
        for sup in ctx.suppressions.values():
            if not sup.reason:
                report.findings.append(
                    Finding(
                        SUPPRESS_NO_REASON,
                        ctx.path,
                        sup.line,
                        "suppression needs a reason: "
                        "# repro: allow[RULE] — <why this is safe>",
                    )
                )
        for rule_id, fn in _RULES.items():
            if selected is not None and rule_id not in selected:
                continue
            if not config.rule_enabled(rule_id, ctx.path):
                continue
            report.findings.extend(fn(ctx, config))

    for fn in _PROJECT_RULES.values():
        fn(contexts, config, report)
    if selected is not None:
        report.findings = [
            f
            for f in report.findings
            if f.rule in selected or f.rule == SUPPRESS_NO_REASON
        ]
    return report


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------

def load_baseline(path: str) -> frozenset:
    """Fingerprints from a ``--write-baseline`` file."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("fingerprints", [])
    return frozenset(str(fp) for fp in data)


def apply_baseline(report: AnalysisReport, baseline: frozenset) -> list:
    """Unsuppressed findings not excused by the baseline."""
    fresh = []
    for f in report.unsuppressed:
        if f.fingerprint(report._line_text(f)) not in baseline:
            fresh.append(f)
    return fresh


def write_baseline(report: AnalysisReport, path: str) -> int:
    """Record the current unsuppressed findings as tolerated debt."""
    fingerprints = sorted(
        f.fingerprint(report._line_text(f)) for f in report.unsuppressed
    )
    Path(path).write_text(
        json.dumps({"fingerprints": fingerprints}, indent=2) + "\n"
    )
    return len(fingerprints)
