"""simlint rule registry.

A rule is a small class with an ``id`` (``DET001``), a ``name`` slug, a
one-line ``summary``, a ``scope`` (``"sim"`` rules only fire in
sim-context code; ``"all"`` rules fire everywhere), and a
``check_module(module, model)`` generator yielding :class:`Finding`s.

Adding a rule: subclass :class:`Rule` in one of the family modules (or a
new one), decorate it with :func:`register_rule`, and import the module
here.  That is the entire plumbing — the engine, reports, suppressions,
tests and CLI all iterate the registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.model import ModuleInfo, RepoModel


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""             # enclosing function, when known
    suppressed: bool = False     # matched an inline ``ok[...]`` comment
    suppress_reason: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.symbol:
            out["symbol"] = self.symbol
        if self.suppressed:
            out["suppressed"] = True
            out["suppress_reason"] = self.suppress_reason
        return out


class Rule:
    """Base class: subclass, set the class attributes, yield findings."""

    id: str = ""
    name: str = ""
    summary: str = ""
    scope: str = "sim"           # "sim" | "all"

    def check_module(
        self, module: ModuleInfo, model: RepoModel
    ) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by concrete rules -----------------------------------

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        info = module.enclosing_function(line)
        return Finding(
            rule=self.id,
            path=module.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=info.qualname if info else "",
        )

    def applies(self, module: ModuleInfo, model: RepoModel, line: int) -> bool:
        """Scope gate: sim rules skip offline modules and functions."""
        if self.scope == "all":
            return True
        if not model.is_sim_module(module):
            return False
        return not model.is_offline_function(module, line)


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def rule_registry() -> dict[str, Rule]:
    _load_builtin_rules()
    return dict(_REGISTRY)


def all_rules() -> list[Rule]:
    registry = rule_registry()
    return [registry[rule_id] for rule_id in sorted(registry)]


_loaded = False


def _load_builtin_rules() -> None:
    global _loaded
    if _loaded:
        return
    _loaded = True
    from repro.analysis.rules import det, meta, obs, proto, sim  # noqa: F401


@dataclass
class WalkContext:
    """Parent links for rules that need to look upward from a node."""

    parents: dict = field(default_factory=dict)

    @classmethod
    def for_module(cls, module: ModuleInfo) -> "WalkContext":
        return cls(parents=module.parent_map())

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
