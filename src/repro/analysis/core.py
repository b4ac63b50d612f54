"""The detlint rule engine: findings, pragmas, modules, and the analysis driver.

The analyzer certifies the determinism contract the rest of the repo depends
on — identical ``(spec, seed)`` fingerprints must produce bit-identical
images — by checking its *source* instead of trusting golden tests to catch a
violation after the fact.  Everything here is stdlib-only (:mod:`ast`,
:mod:`re`, :mod:`os`): the analyzer must run in the leanest CI image.

Concepts:

* :class:`Finding` — one violation with a precise span, a message, and a fix
  hint.  Its :meth:`~Finding.key` deliberately excludes the line number so a
  committed baseline survives unrelated edits above the finding.
* :class:`Module` — one parsed source file: AST, source lines, parent links,
  and the ``# detlint: ignore[rule]`` pragma table.
* :class:`Project` — the whole analyzed tree; rules use it for cross-module
  facts (e.g. which packages are threaded with fault-injection points).
* :class:`Rule` — a named check over one module.  Rules register themselves
  via :func:`register_rule` and are selected with ``--rule`` (exact name or
  family prefix such as ``nondet``).

The driver (:func:`analyze`) walks the requested paths **sorted** — the
analyzer holds itself to the invariants it enforces — parses every
``*.py`` file, runs the selected rules, and drops findings suppressed by a
pragma on the offending line or the line above.
"""

from __future__ import annotations

import ast
import os
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "all_rule_names",
    "analyze",
    "iter_python_files",
    "register_rule",
    "resolve_rules",
    "rule_descriptions",
]


class AnalysisError(RuntimeError):
    """Raised for unusable inputs (missing paths, unknown rules, bad syntax)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: the rule name that produced it.
        path: display path of the offending file (posix, relative to the
            analysis root) — this is the path baselines and reports show.
        line: 1-based line of the offending node.
        col: 1-based column.
        message: what is wrong, with enough context to be a stable identity.
        hint: how to fix it (or how to silence it when intentional).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: rule + file + message, line numbers excluded."""
        return (self.rule, self.path, self.message)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


#: ``# detlint: ignore[rule-a,rule-b] <optional justification>``
PRAGMA_RE = re.compile(r"#\s*detlint:\s*ignore\[([^\]]*)\]")


def _scan_pragmas(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line number → rule names ignored on that line."""
    pragmas: dict[int, frozenset[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = frozenset(part.strip() for part in match.group(1).split(",") if part.strip())
        if rules:
            pragmas[number] = rules
    return pragmas


@dataclass
class Module:
    """One parsed source file plus the derived tables rules need."""

    path: str  # absolute filesystem path
    display_path: str  # posix path relative to the analysis root (the key)
    source: str
    tree: ast.Module
    lines: list[str] = field(repr=False)
    pragmas: dict[int, frozenset[str]] = field(repr=False)
    parents: dict[ast.AST, ast.AST] = field(repr=False)

    @classmethod
    def parse(cls, path: str, root: str) -> "Module":
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise AnalysisError(f"{path}: cannot parse: {error}") from error
        display = os.path.relpath(path, root).replace(os.sep, "/")
        lines = source.splitlines()
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return cls(
            path=path,
            display_path=display,
            source=source,
            tree=tree,
            lines=lines,
            pragmas=_scan_pragmas(lines),
            parents=parents,
        )

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def imported_modules(self) -> set[str]:
        """Dotted names of every module this file imports (both forms)."""
        names: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        return names

    def suppressed(self, finding: Finding) -> bool:
        """Whether a pragma on the finding's line (or the one above) covers it."""
        for line in (finding.line, finding.line - 1):
            rules = self.pragmas.get(line)
            if rules and finding.rule in rules:
                return True
        return False


class Project:
    """The analyzed module set, with lazily-computed cross-module facts."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)
        self._fault_threaded_dirs: set[str] | None = None

    def fault_threaded_dirs(self) -> set[str]:
        """Directories containing a module wired to the fault-injection plane.

        A package counts as fault-threaded when *any* module in it imports
        :mod:`repro.faults` machinery: an ``except Exception`` anywhere in
        such a package sits on a code path a simulated crash or lease-loss
        signal may travel through, so it must re-raise or carry a pragma.
        """
        if self._fault_threaded_dirs is None:
            dirs: set[str] = set()
            for module in self.modules:
                imports = module.imported_modules()
                if any(name == "repro.faults" or name.startswith("repro.faults.") for name in imports):
                    dirs.add(os.path.dirname(module.path))
            self._fault_threaded_dirs = dirs
        return self._fault_threaded_dirs

    def is_fault_threaded(self, module: Module) -> bool:
        return os.path.dirname(module.path) in self.fault_threaded_dirs()


class Rule(ABC):
    """One named check.  Subclasses register via :func:`register_rule`."""

    #: unique kebab-case rule name; the family is the prefix before the first
    #: dash (``nondet-walk`` → family ``nondet``).
    name: str = ""
    description: str = ""

    @abstractmethod
    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        """Yield findings for one module."""

    def finding(
        self, module: Module, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=hint,
        )


_RULES: dict[str, type[Rule]] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule_class`` to the registry."""
    if not rule_class.name:
        raise ValueError(f"rule class {rule_class.__name__} declares no name")
    if rule_class.name in _RULES:
        raise ValueError(f"rule {rule_class.name!r} is already registered")
    _RULES[rule_class.name] = rule_class
    return rule_class


def _load_builtin_rules() -> None:
    """Import the rule modules so their ``@register_rule`` decorators run."""
    from repro.analysis import (  # noqa: F401  (imported for side effects)
        rules_durability,
        rules_exceptions,
        rules_knobs,
        rules_nondet,
    )


def all_rule_names() -> tuple[str, ...]:
    _load_builtin_rules()
    return tuple(sorted(_RULES))


def rule_descriptions() -> dict[str, str]:
    _load_builtin_rules()
    return {name: _RULES[name].description for name in sorted(_RULES)}


def resolve_rules(selected: Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all when ``selected`` is falsy).

    A selector matches a rule by exact name or by family prefix: ``--rule
    nondet`` selects every ``nondet-*`` rule.
    """
    _load_builtin_rules()
    if not selected:
        return [_RULES[name]() for name in sorted(_RULES)]
    names: list[str] = []
    for selector in selected:
        matched = [
            name
            for name in sorted(_RULES)
            if name == selector or name.startswith(selector + "-")
        ]
        if not matched:
            raise AnalysisError(
                f"unknown rule {selector!r}; known rules: {', '.join(sorted(_RULES))}"
            )
        names.extend(matched)
    seen: set[str] = set()
    unique = [name for name in names if not (name in seen or seen.add(name))]
    return [_RULES[name]() for name in unique]


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``*.py`` file under ``paths``, in sorted, deterministic order."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        if not os.path.isdir(path):
            raise AnalysisError(f"no such file or directory: {path!r}")
        for current, dirnames, filenames in os.walk(path):
            dirnames.sort()
            filenames.sort()
            dirnames[:] = [name for name in dirnames if name != "__pycache__"]
            for name in filenames:
                if name.endswith(".py"):
                    yield os.path.join(current, name)


@dataclass
class AnalysisResult:
    """Everything one :func:`analyze` run produced."""

    findings: list[Finding]
    suppressed: list[Finding]
    files: int
    rules: list[str]
    root: str

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for finding in self.findings:
            totals[finding.rule] = totals.get(finding.rule, 0) + 1
        return totals

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "root": self.root,
            "files": self.files,
            "rules": self.rules,
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": len(self.suppressed),
            "counts": self.counts(),
        }


def analyze(
    paths: Sequence[str],
    *,
    rules: Sequence[str] | None = None,
    root: str | None = None,
) -> AnalysisResult:
    """Run the selected rules over every Python file under ``paths``.

    ``root`` anchors display paths (and therefore baseline keys); it defaults
    to the current working directory so ``impressions analyze src`` from the
    repo root produces stable ``src/repro/...`` keys on every machine.
    """
    root = os.path.abspath(root or os.getcwd())
    active = resolve_rules(rules)
    modules = [Module.parse(path, root) for path in iter_python_files(paths)]
    if not modules:
        raise AnalysisError(f"no Python files found under {list(paths)!r}")
    project = Project(modules)
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for module in modules:
        for rule in active:
            for finding in rule.check(module, project):
                (suppressed if module.suppressed(finding) else findings).append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    _count_on_telemetry(findings, suppressed, len(modules))
    return AnalysisResult(
        findings=findings,
        suppressed=suppressed,
        files=len(modules),
        rules=[rule.name for rule in active],
        root=root,
    )


def _count_on_telemetry(
    findings: Sequence[Finding], suppressed: Sequence[Finding], files: int
) -> None:
    """Surface per-rule finding counters on the bound telemetry."""
    from repro.obs import core as obs_core

    telemetry = obs_core.current()
    telemetry.counter("analysis_files_total", "source files analyzed").inc(files)
    counter = telemetry.counter(
        "analysis_findings_total", "detlint findings by rule", ("rule",)
    )
    for finding in findings:
        counter.inc(rule=finding.rule)
    telemetry.counter(
        "analysis_suppressed_total", "findings silenced by pragmas"
    ).inc(len(suppressed))
