"""Inverse-probability weighting (IPW) for selection-biased attributes.

When the recoverability analysis flags an attribute ``E`` as selection
biased, the complete cases are re-weighted: each row with an observed value
receives weight ``W = P(R_E = 1) / P(R_E = 1 | X)`` where the selection
probability ``P(R_E = 1 | X)`` is predicted by a logistic regression fitted
on the *fully observed* attributes of the input dataset (Section 3.2).  The
weights then flow into the weighted entropy estimators of
:mod:`repro.infotheory`.  The selection models are fitted by
:func:`repro.missingness.fitcache.compute_ipw_weights_batched`; this module
holds the weights' record type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IPWWeights:
    """Per-row inverse-probability weights for one attribute.

    Attributes
    ----------
    attribute:
        The selection-biased attribute the weights correct for.
    weights:
        One non-negative weight per row of the table.  Rows whose value is
        missing keep weight 1 (they form their own "missing" stratum in the
        estimators); observed rows get ``P(R=1) / P(R=1 | X)``.
    selection_rate:
        The marginal probability ``P(R_E = 1)``.
    model_converged:
        Whether the logistic regression converged.
    """

    attribute: str
    weights: np.ndarray
    selection_rate: float
    model_converged: bool

    def effective_sample_size(self) -> float:
        """Kish effective sample size of the weights (observed rows only)."""
        observed = self.weights[self.weights > 0]
        if observed.size == 0:
            return 0.0
        return float(observed.sum() ** 2 / (observed ** 2).sum())
