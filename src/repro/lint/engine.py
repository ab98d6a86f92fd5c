"""The AST-based rule engine behind :mod:`repro.lint`.

The engine parses each Python source file once into an :class:`ast.AST`,
wraps it in a :class:`FileContext` (source text, dotted module name,
package classification) and hands the context to every registered
:class:`Rule`.  Rules yield :class:`Finding` objects; the engine then
applies two suppression layers:

* **inline pragmas** — a ``# lint: disable=rule-name[,rule-name...]``
  comment on the offending line silences those rules for that line
  (for the rare case where a violation is intentional and reviewed);
* **the baseline** — a committed JSON file of finding fingerprints
  (:meth:`Finding.fingerprint`, deliberately line-number-independent so
  unrelated edits do not invalidate it) that grandfathers pre-existing
  violations.  New code must be clean; baselined debt is visible in one
  reviewable file.

Determinism contract: findings are reported sorted by
``(path, line, column, rule)`` and file discovery sorts directory
walks, so two runs over the same tree always produce identical output —
the lint subsystem holds itself to the invariant it enforces.
"""

from __future__ import annotations

import ast
import enum
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.exceptions import LintError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.rules.base import Rule

#: Sub-packages of ``repro`` that implement the balancing *protocol*:
#: code whose behaviour must be a pure function of the scenario seed.
#: Determinism and conservation rules apply only here.
PROTOCOL_PACKAGES = (
    "core",
    "dht",
    "ktree",
    "sim",
    "faults",
    "adversary",
    "parallel",
    "membership",
    "recovery",
)

#: Sub-packages whose public surface is operator-facing API and must be
#: fully documented (the docstring-coverage rule's scope).
DOCUMENTED_PACKAGES = (
    "obs",
    "lint",
    "faults",
    "adversary",
    "parallel",
    "membership",
    "recovery",
)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+)")


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break the build; ``WARNING`` findings are
    reported (and baselined) but both currently affect the exit code —
    the split exists so a future ``--errors-only`` gate can relax
    warnings without touching the rules.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # repository-relative POSIX path
    line: int  # 1-based
    column: int  # 0-based (as reported by ast)
    severity: Severity
    message: str

    def fingerprint(self) -> str:
        """Stable identity of this finding for the baseline.

        Deliberately excludes the line/column so that unrelated edits
        above a grandfathered violation do not invalidate the baseline.
        Two identical violations in one file share a fingerprint, which
        is the conservative direction (fixing one un-suppresses none).
        """
        digest = hashlib.sha256(
            f"{self.rule}\x00{self.path}\x00{self.message}".encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (the ``--format jsonl`` payload)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity.value,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def format_text(self) -> str:
        """The human-readable one-line rendering."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity.value} [{self.rule}] {self.message}"
        )


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: Path  # absolute path on disk
    rel_path: str  # repository-relative POSIX path (finding identity)
    source: str
    tree: ast.Module
    module: str  # dotted module name, e.g. "repro.core.vsa"
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    # -- package classification -----------------------------------------
    @property
    def package_parts(self) -> tuple[str, ...]:
        """The dotted module name split into parts."""
        return tuple(self.module.split("."))

    def in_package(self, *names: str) -> bool:
        """Whether this module lives under ``repro.<name>`` for any name."""
        parts = self.package_parts
        return len(parts) >= 2 and parts[0] == "repro" and parts[1] in names

    @property
    def is_protocol(self) -> bool:
        """Whether this module is part of the balancing protocol."""
        return self.in_package(*PROTOCOL_PACKAGES)

    @property
    def is_documented_api(self) -> bool:
        """Whether this module must have full docstring coverage."""
        return self.in_package(*DOCUMENTED_PACKAGES)

    # -- helpers for rules ------------------------------------------------
    def finding(
        self,
        rule: "Rule",
        node: ast.AST | None,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` (module level if None)."""
        line = getattr(node, "lineno", 1) if node is not None else 1
        column = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule=rule.name,
            path=self.rel_path,
            line=line,
            column=column,
            severity=rule.severity,
            message=message,
        )

    def disabled_rules_on_line(self, line: int) -> frozenset[str]:
        """Rules disabled by an inline pragma on physical line ``line``."""
        if not 1 <= line <= len(self.lines):
            return frozenset()
        match = _PRAGMA_RE.search(self.lines[line - 1])
        if match is None:
            return frozenset()
        return frozenset(
            name.strip() for name in match.group(1).split(",") if name.strip()
        )


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class Baseline:
    """A committed set of grandfathered finding fingerprints.

    The on-disk format is JSON: a version stamp plus one entry per
    fingerprint carrying the rule/path/message for human review — the
    engine only matches on the fingerprint, the rest documents *what*
    was grandfathered so the file reads as a debt register.
    """

    VERSION = 1

    def __init__(self, entries: dict[str, dict[str, str]] | None = None) -> None:
        """Wrap a fingerprint -> {rule, path, message} mapping."""
        self.entries: dict[str, dict[str, str]] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.entries

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """A baseline grandfathering exactly ``findings``."""
        entries: dict[str, dict[str, str]] = {}
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
            entries[f.fingerprint()] = {
                "rule": f.rule,
                "path": f.path,
                "message": f.message,
            }
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; raises :class:`LintError` on bad input."""
        p = Path(path)
        try:
            data = json.loads(p.read_text())
        except FileNotFoundError:
            raise LintError(f"baseline file not found: {p}") from None
        except json.JSONDecodeError as exc:
            raise LintError(f"baseline file {p} is not valid JSON: {exc}") from None
        if not isinstance(data, dict) or data.get("version") != cls.VERSION:
            raise LintError(
                f"baseline file {p} has unsupported format "
                f"(expected version {cls.VERSION})"
            )
        entries = data.get("fingerprints", {})
        if not isinstance(entries, dict):
            raise LintError(f"baseline file {p}: 'fingerprints' must be an object")
        return cls(entries)

    def save(self, path: str | Path) -> Path:
        """Write the baseline as deterministic, review-friendly JSON."""
        p = Path(path)
        payload = {
            "version": self.VERSION,
            "fingerprints": {
                fp: self.entries[fp] for fp in sorted(self.entries)
            },
        }
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return p


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class LintEngine:
    """Runs a set of rules over Python source trees.

    Parameters
    ----------
    rules:
        Rules to run; defaults to the full registry of
        :data:`repro.lint.rules.ALL_RULES`.
    baseline:
        Optional :class:`Baseline` of grandfathered fingerprints;
        matching findings are suppressed.
    """

    def __init__(
        self,
        rules: Sequence["Rule"] | None = None,
        baseline: Baseline | None = None,
        flow: bool = True,
    ) -> None:
        """Configure the engine; see the class docstring for parameters.

        ``flow=False`` skips the interprocedural pass (call graph +
        effect inference) — per-file rules only.  Useful for fast
        single-rule runs in tests.
        """
        if rules is None:
            from repro.lint.rules import ALL_RULES

            rules = ALL_RULES
        names = [r.name for r in rules]
        if len(names) != len(set(names)):
            raise LintError(f"duplicate rule names in {sorted(names)}")
        self.rules: tuple["Rule", ...] = tuple(rules)
        self.baseline = baseline
        self.flow = flow
        #: Findings suppressed by the baseline during the last run.
        self.suppressed: list[Finding] = []
        #: The FlowAnalysis built by the last lint_paths run (flow=True).
        self.analysis: Any = None

    # -- file discovery ---------------------------------------------------
    @staticmethod
    def collect_files(paths: Sequence[str | Path]) -> list[Path]:
        """All ``.py`` files under ``paths``, sorted for determinism."""
        out: set[Path] = set()
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                out.update(p.rglob("*.py"))
            elif p.is_file() and p.suffix == ".py":
                out.add(p)
            elif not p.exists():
                raise LintError(f"no such file or directory: {p}")
        return sorted(out)

    @staticmethod
    def module_name(path: Path) -> str:
        """Dotted module name of ``path``, anchored at the ``repro`` dir.

        Files outside a ``repro`` package root (e.g. test fixtures) get
        a name derived from their trailing path parts, so package-scoped
        rules simply do not match them.
        """
        parts = list(path.with_suffix("").parts)
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            parts = parts[anchor:]
        else:
            parts = parts[-1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1] or ["__init__"]
        return ".".join(parts)

    # -- linting ----------------------------------------------------------
    def parse_file(
        self, path: str | Path, root: str | Path | None = None
    ) -> FileContext:
        """Parse one source file into a :class:`FileContext`."""
        p = Path(path)
        base = Path(root) if root is not None else Path.cwd()
        try:
            rel = p.resolve().relative_to(base.resolve()).as_posix()
        except ValueError:
            rel = p.as_posix()
        source = p.read_text()
        try:
            tree = ast.parse(source, filename=str(p))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {p}: {exc}") from None
        return FileContext(
            path=p,
            rel_path=rel,
            source=source,
            tree=tree,
            module=self.module_name(p),
        )

    def lint_paths(self, paths: Sequence[str | Path], root: str | Path | None = None) -> list[Finding]:
        """Lint every file under ``paths``; returns suppression-filtered findings.

        Runs the per-file rules over each file, then (unless the engine
        was built with ``flow=False``) builds one
        :class:`~repro.lint.flow.analysis.FlowAnalysis` over all parsed
        contexts and runs every rule's ``check_project`` hook against
        it.  Baseline-suppressed findings are recorded on
        :attr:`suppressed` for reporting (``--show-suppressed``).
        """
        self.suppressed = []
        self.analysis = None
        findings: list[Finding] = []
        contexts = [
            self.parse_file(path, root=root)
            for path in self.collect_files(paths)
        ]
        for ctx in contexts:
            for rule in self.rules:
                for finding in rule.check(ctx):
                    if rule.name in ctx.disabled_rules_on_line(finding.line):
                        continue
                    self._route(finding, findings)
        if self.flow and contexts:
            # Imported here: repro.lint.flow imports this module at load.
            from repro.lint.flow.analysis import FlowAnalysis

            self.analysis = FlowAnalysis(contexts)
            by_rel = {ctx.rel_path: ctx for ctx in contexts}
            for rule in self.rules:
                for finding in rule.check_project(self.analysis):
                    ctx_for = by_rel.get(finding.path)
                    if ctx_for is not None and rule.name in (
                        ctx_for.disabled_rules_on_line(finding.line)
                    ):
                        continue
                    self._route(finding, findings)
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
        self.suppressed.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
        return findings

    def _route(self, finding: Finding, findings: list[Finding]) -> None:
        """File a finding under suppressed-or-reported per the baseline."""
        if self.baseline is not None and finding in self.baseline:
            self.suppressed.append(finding)
        else:
            findings.append(finding)
