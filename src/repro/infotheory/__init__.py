"""Discrete information-theoretic estimators.

The paper measures partial correlation with conditional mutual information
(CMI) estimated from data by the Pyitlib library; this package provides the
same plug-in estimators from scratch, extended with per-row weights so that
the inverse-probability-weighting correction of Section 3.2 can be applied
directly inside the estimators.

All estimators operate on integer *code* arrays (one code per row, ``-1``
denoting a missing value) produced by :mod:`repro.infotheory.encoding`.
Rows with a missing value in any involved variable are excluded
(complete-case analysis), optionally re-weighted via the ``weights``
argument.

Every estimate the explanation oracle makes runs on the contingency-count
kernel in :mod:`~repro.infotheory.kernel` (one weighted ``bincount`` per
term over incrementally fused codes).  The row-wise estimators in
:mod:`~repro.infotheory.entropy` / :mod:`~repro.infotheory.mutual_information`
(one masked entropy call per term) are the kernel's fallback for code
spaces too wide to count densely, and the oracle its property tests
compare against to 1e-9.
"""

from repro.infotheory.encoding import (
    EncodedFrame,
    encode_column,
    encode_table,
    joint_codes,
)
from repro.infotheory.entropy import (
    conditional_entropy,
    entropy,
    joint_entropy,
)
from repro.infotheory.mutual_information import (
    conditional_mutual_information,
    interaction_information,
    mutual_information,
)
from repro.infotheory.independence import IndependenceResult
from repro.infotheory.kernel import (
    contingency_cmi,
    contingency_conditional_entropy,
    contingency_entropy,
    contingency_mi,
    fast_independence_test,
    fuse_codes,
)
from repro.infotheory.permutation import (
    PermutationBudget,
    PermutationOutcome,
    PermutationPlan,
    blocked_permutation_test,
    sequential_permutation_test,
)

__all__ = [
    "EncodedFrame",
    "encode_column",
    "encode_table",
    "joint_codes",
    "conditional_entropy",
    "entropy",
    "joint_entropy",
    "conditional_mutual_information",
    "interaction_information",
    "mutual_information",
    "IndependenceResult",
    "contingency_cmi",
    "contingency_conditional_entropy",
    "contingency_entropy",
    "contingency_mi",
    "fast_independence_test",
    "fuse_codes",
    "PermutationBudget",
    "PermutationOutcome",
    "PermutationPlan",
    "blocked_permutation_test",
    "sequential_permutation_test",
]
