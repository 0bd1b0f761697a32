"""Error-estimation methods: variational subsampling plus baselines.

``variational`` implements the paper's contribution (Section 4); ``traditional``,
``bootstrap`` and ``clt`` implement the baselines it is compared against.
"""

from repro.subsampling import bootstrap, clt, traditional, variational
from repro.subsampling.intervals import (
    ConfidenceInterval,
    empirical_interval,
    normal_interval,
    relative_error,
)
from repro.subsampling.sid import (
    assign_sids,
    combine_sids,
    default_subsample_count,
    default_subsample_size,
)

__all__ = [
    "ConfidenceInterval",
    "assign_sids",
    "bootstrap",
    "clt",
    "combine_sids",
    "default_subsample_count",
    "default_subsample_size",
    "empirical_interval",
    "normal_interval",
    "relative_error",
    "traditional",
    "variational",
]
