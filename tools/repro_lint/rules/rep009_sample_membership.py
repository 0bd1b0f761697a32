"""REP009 — sample membership is the rule's decision.

``sampling/creators.py`` writes, once per sample type, which rows a sample
keeps, with what probability and in which subsample (``membership``: three
SQL expressions).  The build selects them in its CTAS and maintenance
evaluates the same expressions over an appended batch, so both paths draw
and hash alike.  A per-row draw or a key hash anywhere else in the sampling
package is a second, private copy of that rule, which drifts (the NULL-key
census had to be fixed twice when there were two), so it is flagged.

Flagged, in ``src/repro/sampling/`` outside ``creators.py``: a call to a
generator's ``.random`` with a size argument, to ``.integers`` or
``.choice``, and a call to ``hash_unit_interval``, ``crc32`` or ``concat``
(bare or as an attribute).  A scalar ``.random()`` (retry jitter) is fine.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import Finding, ModuleSource, Rule

_RULE_MODULE = "src/repro/sampling/creators.py"
_DRAWS = frozenset({"integers", "choice"})
_HASHES = frozenset({"hash_unit_interval", "crc32", "concat"})


def _called_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class SampleMembershipRule(Rule):
    code = "REP009"
    name = "sample-membership"
    description = "no per-row draw or key hash in sampling/ outside the rule (creators.py)"
    scope = ("src/repro/sampling/*",)

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.rel_path == _RULE_MODULE:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            per_row_draw = name in _DRAWS or (
                name == "random"
                and isinstance(node.func, ast.Attribute)
                and bool(node.args or node.keywords)
            )
            if per_row_draw:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"per-row draw .{name}(...) outside the membership rule: "
                        "evaluate creators.membership's keep/probability/sid instead",
                    )
                )
            elif name in _HASHES:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"key hash {name}(...) outside the membership rule: "
                        "the hashed rule's vdb_hash in creators.membership decides",
                    )
                )
        return findings
