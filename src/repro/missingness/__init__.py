"""Missing-data handling (Section 3.2 of the paper).

Attributes extracted from a sparse knowledge graph contain many missing
values, and naive complete-case analysis can introduce *selection bias*.
This package provides:

* missingness injectors (missing-completely-at-random and biased removal of
  the highest values) used by the robustness experiment of Figure 3;
* the recoverability tests of Propositions 3.1 and 3.2, which decide whether
  complete-case estimates of ``I(O;T|C,E)`` and ``I(E;E')`` are unbiased;
* a from-scratch logistic-regression model and the inverse-probability
  weighting (IPW) correction built on it;
* the imputation baselines (mean/mode imputation, complete-case analysis)
  that the paper compares against.
"""

from repro.missingness.fitcache import (
    SelectionFitCache,
    compute_ipw_weights_batched,
)
from repro.missingness.imputation import complete_cases, impute_mean, impute_mode
from repro.missingness.ipw import IPWWeights
from repro.missingness.logistic import LogisticRegression, fit_logistic_multi
from repro.missingness.patterns import inject_biased_removal, inject_mcar
from repro.missingness.recoverability import (
    RecoverabilityReport,
    attribute_selection_bias,
    cmi_is_recoverable,
    mi_is_recoverable,
)

__all__ = [
    "complete_cases",
    "impute_mean",
    "impute_mode",
    "IPWWeights",
    "SelectionFitCache",
    "compute_ipw_weights_batched",
    "LogisticRegression",
    "fit_logistic_multi",
    "inject_biased_removal",
    "inject_mcar",
    "RecoverabilityReport",
    "attribute_selection_bias",
    "cmi_is_recoverable",
    "mi_is_recoverable",
]
