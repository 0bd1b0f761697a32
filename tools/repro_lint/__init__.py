"""repro-lint: project-specific static analysis for the ParkMSW18 engine.

Run as ``python -m tools.repro_lint src tests benchmarks``.  See
``tools/repro_lint/__main__.py`` for the CLI and the ``rules`` package for
the REP rules enforcing the engine's concurrency, error-boundary,
determinism and key-codec invariants, and the middleware's independence
from the built-in engine.
"""

from tools.repro_lint.core import (
    Finding,
    LintResult,
    ModuleSource,
    Rule,
    lint_sources,
    run_lint,
)

__all__ = [
    "Finding",
    "LintResult",
    "ModuleSource",
    "Rule",
    "lint_sources",
    "run_lint",
]
