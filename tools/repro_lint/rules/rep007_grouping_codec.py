"""REP007 — grouping is the key codec's decision.

``sqlengine/encoding.py`` decides when two keys are equal and how rows are
grouped: it codes dense int keys by offset and numbers groups by first
appearance without a sort, and falls back to ``np.unique`` only for sparse
or float keys.  A ``np.unique`` anywhere else in the engine is a second,
private grouping (a second notion of "distinct", and a sort the codec would
have avoided), so it is flagged; group through
``encoding.encode_key`` / ``encoding.group_rows_encoded`` instead.

Flagged, in ``src/repro/sqlengine/`` outside ``encoding.py``: a call to
``unique`` on a numpy module alias (``np.unique``, ``numpy.unique``) and
``from numpy import unique``.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import Finding, ModuleSource, Rule, attribute_chain

_CODEC = "src/repro/sqlengine/encoding.py"
_MESSAGE = (
    "np.unique outside the key codec: group or deduplicate through "
    "encoding.encode_key / encoding.group_rows_encoded"
)


class GroupingCodecRule(Rule):
    code = "REP007"
    name = "grouping-codec"
    description = "no np.unique in the engine outside the key codec (encoding.py)"
    scope = ("src/repro/sqlengine/*",)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.rel_path == _CODEC:
            return []
        aliases = {"numpy"}
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                aliases.update(
                    alias.asname or alias.name for alias in node.names if alias.name == "numpy"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                if any(alias.name == "unique" for alias in node.names):
                    findings.append(module.finding(self.code, node, _MESSAGE))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            root, _, attribute = (attribute_chain(node.func) or "").rpartition(".")
            if attribute == "unique" and root in aliases:
                findings.append(module.finding(self.code, node, _MESSAGE))
        return findings
