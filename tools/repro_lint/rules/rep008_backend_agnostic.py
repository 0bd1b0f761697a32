"""REP008 — the middleware stays backend-agnostic.

``src/repro/core/`` (analysis, sample planning, rewriting and the fold of
per-subsample rows into answers) must work over any connector: it sees a
backend only as SQL text out and a ``ResultSet`` back.  It may reuse the
engine's backend-free building blocks — the SQL AST, the key codec
(``encoding``), the expression evaluator and the aggregate kernels
(``expressions``, ``functions``) and ``resultset`` — but never the built-in
engine itself.

Flagged, in ``src/repro/core/``: an import of ``repro.sqlengine.engine``,
``executor``, ``planner`` or ``table``, as a module
(``import repro.sqlengine.executor``, ``from repro.sqlengine import
planner``) or from one (``from repro.sqlengine.table import Table``).
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import Finding, ModuleSource, Rule

_PACKAGE = "repro.sqlengine"
_ENGINE_MODULES = frozenset({"engine", "executor", "planner", "table"})


def _engine_module(dotted: str) -> str | None:
    package, _, module = dotted.partition(_PACKAGE + ".")
    if package or not module:
        return None
    name = module.split(".")[0]
    return name if name in _ENGINE_MODULES else None


class BackendAgnosticRule(Rule):
    code = "REP008"
    name = "backend-agnostic-middleware"
    description = "src/repro/core/ imports no built-in engine module (engine/executor/planner/table)"
    scope = ("src/repro/core/*",)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module == _PACKAGE:
                    names = [f"{_PACKAGE}.{alias.name}" for alias in node.names]
                else:
                    names = [node.module]
            for dotted in names:
                engine_module = _engine_module(dotted)
                if engine_module is not None:
                    findings.append(
                        module.finding(
                            self.code,
                            node,
                            f"the middleware imports repro.sqlengine.{engine_module}: reach "
                            "a backend through a Connector, or use the backend-free "
                            "encoding/expressions/functions/resultset modules",
                        )
                    )
        return findings
