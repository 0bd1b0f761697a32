"""Rule registry: importing this package activates every rule module."""

from tools.repro_lint.rules import (  # noqa: F401
    rep002_lock_discipline,
    rep003_async_blocking,
    rep004_error_boundary,
    rep006_determinism,
    rep007_grouping_codec,
    rep008_backend_agnostic,
    rep009_sample_membership,
    rep010_one_hash_string,
    rep011_one_decision_owner,
)
