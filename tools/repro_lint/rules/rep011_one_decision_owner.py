"""REP011 — one owner for the decision to approximate.

Whether a statement approximates is decided before the rewriter runs:
``query_info.analyze`` refuses what the statement alone decides, the sample
planner what the chosen samples decide, and ``AqpRewriter.rewrite`` only
checks that precondition, raising ``RewriteError`` when a caller breaks it.
A handler that catches that error and falls back to exact execution is a
second owner: it hides a broken precondition and lets a refusal be decided
again on every call, after planning, uncached.  The session once had one.

Flagged, in ``src/``: an ``except`` clause that names ``RewriteError`` or
its subclass ``UnsupportedQueryError`` (alone, in a tuple or through a
module), and an ``except ReproError`` clause whose ``try`` body calls a
function whose name contains ``rewrite``.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import Finding, ModuleSource, Rule, attribute_chain

_REWRITE_ERRORS = frozenset({"RewriteError", "UnsupportedQueryError"})
_MESSAGE = (
    "catching {name} around a rewrite decides a refusal a second time: refuse "
    "in query_info.analyze (the statement) or SamplePlanner.plan (the samples)"
)


def _caught(handler: ast.ExceptHandler) -> list[str]:
    """The last name of each exception type an ``except`` clause names."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [
        (attribute_chain(node) or "").rpartition(".")[2] for node in types if node is not None
    ]


def _calls_a_rewrite(body: list[ast.stmt]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                name = (attribute_chain(node.func) or "").rpartition(".")[2]
                if "rewrite" in name.lower():
                    return True
    return False


class OneDecisionOwnerRule(Rule):
    code = "REP011"
    name = "one-decision-owner"
    description = "no except RewriteError (or except ReproError around a rewrite) in src"
    scope = ("src/*",)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                names = _caught(handler)
                flagged = [name for name in names if name in _REWRITE_ERRORS]
                if not flagged and "ReproError" in names and _calls_a_rewrite(node.body):
                    flagged = ["ReproError"]
                findings += [
                    module.finding(self.code, handler, _MESSAGE.format(name=name))
                    for name in flagged[:1]
                ]
        return findings
