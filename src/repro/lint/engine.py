"""Pluggable AST rule engine enforcing the repository's own invariants.

The codebase carries invariants no general-purpose linter knows about:
lock-guarded attributes must stay guarded everywhere (``repro.serve``,
:class:`~repro.session.ResultStore`), golden-model code must never draw
from unseeded global RNGs (bit-for-bit killers), :class:`SweepSpec` point
functions must stay picklable, and registered scenario/sweep names must
stay documented.  Following the figure-registry idiom (one dict mapping
names to checkers), every invariant is a :class:`Rule` in the
:data:`RULES` registry; :func:`check_project` parses each source file once
and dispatches every rule over the shared :class:`ParsedModule` objects.

Suppressions are per-line comments::

    risky_call()  # lint: disable=unseeded-rng

A suppression that suppresses nothing is itself a finding
(:data:`UNUSED_SUPPRESSION`) when the full rule set runs, so stale
suppressions cannot accumulate; ``repro.cli check --fix-suppressions``
(:func:`fix_suppressions`) rewrites them away.

Entry points: ``python -m repro.cli check`` and ``tools/check.py`` (the
smoke step); the runtime companion is :mod:`repro.lint.locktrace`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CheckResult",
    "DEFAULT_PATHS",
    "Finding",
    "ParsedModule",
    "Project",
    "REPO_ROOT",
    "RULES",
    "Rule",
    "UNUSED_SUPPRESSION",
    "check_project",
    "fix_suppressions",
    "load_project",
    "register",
]

#: The repository root this engine was checked out under (engine.py lives at
#: ``src/repro/lint/engine.py``).  ``check_project`` lints it by default.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Directories (and files) linted by default, relative to the project root.
#: Tests are deliberately excluded: ``tests/lint/fixtures/`` *seeds* one
#: violation per rule, and test code legitimately reaches into private
#: state the rules would misread.
DEFAULT_PATHS: Tuple[str, ...] = ("src", "tools", "benchmarks", "examples", "setup.py")

#: Rule name of the engine's own check: a suppression that suppressed nothing.
UNUSED_SUPPRESSION = "unused-suppression"

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source line."""

    rule: str
    path: str  #: project-relative POSIX path
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @property
    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)


class ParsedModule:
    """One source file, parsed once and shared by every rule.

    Exposes the AST (``tree``), every node of it in :func:`ast.walk` order
    (:attr:`nodes`), the raw ``source``, the project-relative ``rel_path``
    and the per-line suppression map parsed from
    ``# lint: disable=<rule>[,<rule>...]`` comments.
    """

    def __init__(self, path: Path, root: Path):
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.source = path.read_text()
        self.tree = ast.parse(self.source, filename=str(path))
        # Suppressions come from real COMMENT tokens only, so a docstring
        # *describing* the syntax can never register as a suppression.
        self.suppressions: Dict[int, Set[str]] = {}
        for token in tokenize.generate_tokens(io.StringIO(self.source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                self.suppressions[token.start[0]] = {rule for rule in rules if rule}

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of ``tree`` in :func:`ast.walk` order, walked once for
        all rules instead of once per rule."""
        return list(ast.walk(self.tree))

    def finding(self, rule: str, node: object, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node`` (an AST node or a line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Finding(rule=rule, path=self.rel_path, line=line, message=message)


class Project:
    """Every parsed module of one project root, plus its documentation."""

    def __init__(self, root: Path, modules: Sequence[ParsedModule]):
        self.root = Path(root)
        self.modules = list(modules)
        self.by_path: Dict[str, ParsedModule] = {
            module.rel_path: module for module in self.modules
        }
        self._readme: Optional[str] = None

    @property
    def readme(self) -> str:
        """``README.md`` at the project root ('' when absent)."""
        if self._readme is None:
            path = self.root / "README.md"
            self._readme = path.read_text() if path.exists() else ""
        return self._readme


class Rule(ABC):
    """One named invariant; subclasses register via :func:`register`.

    A rule implements :meth:`check_module` (called once per parsed file)
    and/or :meth:`check_project` (called once with the whole project, for
    cross-file invariants such as registry/README consistency).
    """

    @property
    @abstractmethod
    def name(self) -> str:
        """Registry key; also the token suppression comments name."""

    @property
    @abstractmethod
    def description(self) -> str:
        """One-line summary shown by ``repro.cli check`` and the docs."""

    def check_module(self, module: ParsedModule, project: Project) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


#: The rule registry: rule name -> rule instance (one registry dict mapping
#: names to checkers, mirroring the scenario/figure registries).
RULES: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator instantiating a :class:`Rule` into :data:`RULES`."""
    rule = rule_cls()
    if rule.name in RULES:
        raise ValueError(f"duplicate lint rule name {rule.name!r}")
    RULES[rule.name] = rule
    return rule_cls


_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "node_modules"}


def iter_source_files(root: Path, paths: Optional[Sequence[str]] = None) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (relative to ``root``), sorted."""
    seen: Set[Path] = set()
    for entry in paths if paths is not None else DEFAULT_PATHS:
        base = root / entry
        if base.is_file() and base.suffix == ".py":
            seen.add(base)
            continue
        if not base.is_dir():
            continue
        for path in base.rglob("*.py"):
            if not _SKIP_DIRS.intersection(path.relative_to(root).parts):
                seen.add(path)
    yield from sorted(seen)


def load_project(
    root: Path = REPO_ROOT, paths: Optional[Sequence[str]] = None
) -> Project:
    """Parse every source file once into a :class:`Project`.

    A file with a syntax error becomes a hard failure (``SyntaxError``
    propagates): an unparseable file can hide any violation.
    """
    modules = [ParsedModule(path, root) for path in iter_source_files(root, paths)]
    return Project(root, modules)


@dataclass
class CheckResult:
    """Outcome of one :func:`check_project` run."""

    findings: List[Finding]  #: after suppression, sorted; includes unused-suppression
    files: int
    rules: Tuple[str, ...]
    suppressed: int
    #: unused suppressions as (rel_path, line, rule) triples — the exact
    #: edits :func:`fix_suppressions` applies
    unused: List[Tuple[str, int, str]]

    @property
    def passed(self) -> bool:
        return not self.findings


def _is_suppressed(module: Optional[ParsedModule], finding: Finding) -> bool:
    if module is None:
        return False
    rules = module.suppressions.get(finding.line, ())
    return finding.rule in rules or "all" in rules


def check_project(
    root: Path = REPO_ROOT,
    rule_names: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> CheckResult:
    """Run rules over a project and apply suppressions.

    ``rule_names`` restricts the run (unknown names raise ``KeyError``);
    the unused-suppression check only runs on a *full* rule run, because a
    suppression for a rule that was not executed is not evidence of
    staleness.
    """
    if project is None:
        project = load_project(root, paths)
    if rule_names:
        unknown = [name for name in rule_names if name not in RULES]
        if unknown:
            raise KeyError(
                f"unknown lint rule(s) {unknown}; registered: {sorted(RULES)}"
            )
        rules = [RULES[name] for name in rule_names]
    else:
        rules = [RULES[name] for name in sorted(RULES)]

    raw: List[Finding] = []
    for rule in rules:
        for module in project.modules:
            raw.extend(rule.check_module(module, project))
        raw.extend(rule.check_project(project))

    findings: List[Finding] = []
    suppressed = 0
    used: Set[Tuple[str, int, str]] = set()
    for finding in raw:
        module = project.by_path.get(finding.path)
        if _is_suppressed(module, finding):
            suppressed += 1
            rules_here = module.suppressions[finding.line]
            token = finding.rule if finding.rule in rules_here else "all"
            used.add((finding.path, finding.line, token))
        else:
            findings.append(finding)

    unused: List[Tuple[str, int, str]] = []
    if not rule_names:  # full run: every suppression had its chance to fire
        for module in project.modules:
            for line, tokens in sorted(module.suppressions.items()):
                for token in sorted(tokens):
                    if (module.rel_path, line, token) in used:
                        continue
                    unused.append((module.rel_path, line, token))
                    detail = (
                        "suppresses an unregistered rule"
                        if token not in RULES and token != "all"
                        else "suppresses nothing"
                    )
                    findings.append(
                        Finding(
                            rule=UNUSED_SUPPRESSION,
                            path=module.rel_path,
                            line=line,
                            message=(
                                f"'# lint: disable={token}' {detail}; remove it "
                                f"(or run check --fix-suppressions)"
                            ),
                        )
                    )

    findings.sort(key=lambda finding: finding.sort_key)
    return CheckResult(
        findings=findings,
        files=len(project.modules),
        rules=tuple(rule.name for rule in rules),
        suppressed=suppressed,
        unused=unused,
    )


def _strip_suppression(line: str, tokens: Set[str]) -> str:
    """``line`` with ``tokens`` removed from its suppression comment.

    Removing the last token removes the whole ``# lint: disable=`` comment
    (trailing whitespace included); other trailing comments are preserved.
    """
    match = _SUPPRESS_RE.search(line)
    if not match:
        return line
    kept = [
        part.strip()
        for part in match.group(1).split(",")
        if part.strip() and part.strip() not in tokens
    ]
    if kept:
        replacement = f"# lint: disable={','.join(kept)}"
        return line[: match.start()] + replacement + line[match.end():]
    return (line[: match.start()] + line[match.end():]).rstrip()


def fix_suppressions(
    root: Path, unused: Sequence[Tuple[str, int, str]]
) -> List[Path]:
    """Rewrite files removing the given unused suppressions; returns paths."""
    by_file: Dict[str, Dict[int, Set[str]]] = {}
    for rel_path, line, token in unused:
        by_file.setdefault(rel_path, {}).setdefault(line, set()).add(token)
    changed: List[Path] = []
    for rel_path, lines in sorted(by_file.items()):
        path = root / rel_path
        original = path.read_text()
        ends_with_newline = original.endswith("\n")
        source = original.splitlines()
        for lineno, tokens in lines.items():
            if 1 <= lineno <= len(source):
                source[lineno - 1] = _strip_suppression(source[lineno - 1], tokens)
        rewritten = "\n".join(source) + ("\n" if ends_with_newline else "")
        if rewritten != original:
            path.write_text(rewritten)
            changed.append(path)
    return changed
