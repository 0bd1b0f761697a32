"""REP010 — one string form per hash.

``vdb_hash`` and ``crc32`` hash the string a value reads as
(``functions.hash_text``: NULL as ``""``, ``2.0`` as ``"2"``), on the engine
and, through one helper, on SQLite.  A hashed sample keeps the same keys on
every backend and in every append only while each backend reads a value
alike, so a ``zlib.crc32`` anywhere else is a second string form that can
drift: SQLite's ``crc32`` once read NULL as ``"None"`` while its
``vdb_hash`` next to it read ``""``.

Flagged, in ``src/``: a call to ``zlib.crc32`` (through any alias of the
module, or imported from it) outside the three functions that may make it:
``functions._crc32_strings`` (strings), ``functions._crc32_tables`` (the
integer kernel's lookup tables) and the SQLite connector's ``_crc32``.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import Finding, ModuleSource, Rule, attribute_chain

_ALLOWED = {
    "src/repro/sqlengine/functions.py": {"_crc32_strings", "_crc32_tables"},
    "src/repro/connectors/sqlite.py": {"_crc32"},
}
_MESSAGE = (
    "zlib.crc32 outside the hash's string form: hash through functions._crc32 "
    "(vdb_hash / crc32), which reads each value by functions.hash_text"
)


class _Calls(ast.NodeVisitor):
    """Calls to zlib's crc32, each with the names of its enclosing defs."""

    def __init__(self, modules: set[str], names: set[str]) -> None:
        self.modules = modules
        self.names = names
        self.scope: list[str] = []
        self.found: list[tuple[ast.Call, tuple[str, ...]]] = []

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function

    def visit_Call(self, node: ast.Call) -> None:
        module, _, name = (attribute_chain(node.func) or "").rpartition(".")
        if (name == "crc32" and module in self.modules) or (not module and name in self.names):
            self.found.append((node, tuple(self.scope)))
        self.generic_visit(node)


class OneHashStringRule(Rule):
    code = "REP010"
    name = "one-hash-string"
    description = "zlib.crc32 only where the hash reads a value's string form"
    scope = ("src/*",)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        modules: set[str] = set()
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imported = [alias for alias in node.names if alias.name == "zlib"]
                modules.update(alias.asname or alias.name for alias in imported)
            elif isinstance(node, ast.ImportFrom) and node.module == "zlib":
                imported = [alias for alias in node.names if alias.name == "crc32"]
                names.update(alias.asname or alias.name for alias in imported)
        if not modules and not names:
            return []
        calls = _Calls(modules, names)
        calls.visit(module.tree)
        allowed = _ALLOWED.get(module.rel_path, set())
        return [
            module.finding(self.code, node, _MESSAGE)
            for node, scope in calls.found
            if not allowed.intersection(scope)
        ]
