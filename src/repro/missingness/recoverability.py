"""Recoverability analysis for complete-case estimates (Propositions 3.1 / 3.2).

For an extracted attribute ``E`` with missing values, let ``R_E`` be the
selection indicator (1 when the value was extracted).  Complete-case
estimates of ``I(O;T|C,E)`` are *recoverable* — unbiased — when

* ``O ⊥ R_E | E, C``  and  ``O ⊥ R_E | E, T, C``   (Proposition 3.1),

and estimates of ``I(E; E')`` are recoverable when

* ``E ⊥ R_E, R_E'``  and  ``E ⊥ R_E, R_E' | E'``   (Proposition 3.2).

When the conditions fail the attribute suffers from selection bias and the
MCIMR computation must use the IPW weights of :mod:`repro.missingness.ipw`.
The conditional-independence tests reuse the permutation test of
:func:`repro.infotheory.kernel.fast_independence_test`; the conditions only
ever condition on a single variable, whose codes are their own strata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.infotheory.encoding import EncodedFrame, joint_codes
from repro.infotheory.kernel import code_cardinality, fast_independence_test


@dataclass(frozen=True)
class RecoverabilityReport:
    """Outcome of the recoverability analysis for one attribute.

    Attributes
    ----------
    attribute:
        The attribute ``E`` under analysis.
    missing_fraction:
        Fraction of rows in which ``E`` is missing.
    cmi_recoverable:
        Whether ``I(O;T|C,E)`` is recoverable from complete cases
        (Proposition 3.1).
    selection_bias:
        ``True`` when the attribute has missing values *and* the
        recoverability conditions fail — the case where IPW weights are
        required.
    details:
        The verdicts of the individual conditional-independence tests.
    """

    attribute: str
    missing_fraction: float
    cmi_recoverable: bool
    selection_bias: bool
    details: Dict[str, bool]


def _selection_indicator(frame: EncodedFrame, attribute: str) -> np.ndarray:
    """The ``R_E`` indicator as a 0/1 code array (never missing)."""
    return frame.observed_mask(attribute).astype(np.int64)


def cmi_is_recoverable(frame: EncodedFrame, outcome: str, treatment: str, attribute: str,
                       cmi_threshold: float = 0.02, n_permutations: int = 20,
                       seed: Optional[int] = 0,
                       **test_kwargs) -> Dict[str, bool]:
    """Check the (testable surrogate of the) conditions of Proposition 3.1.

    The proposition's conditions condition on ``E`` itself, which cannot be
    evaluated on the rows where ``E`` is missing; the standard observable
    surrogate — also what makes selection bias *detectable* from data — is
    to test whether the selection indicator is associated with the outcome,
    marginally and within exposure strata:

    * ``O ⊥ R_E | C``  and  ``O ⊥ R_E | T, C``.

    When both hold, the missingness carries no information about the outcome
    and the complete-case estimate of ``I(O;T|C,E)`` is treated as
    recoverable; otherwise IPW weights are required.  Returns a dict with
    the two individual verdicts and their conjunction under ``"recoverable"``.
    """
    selection = _selection_indicator(frame, attribute)
    outcome_codes = frame.codes(outcome)
    treatment_codes = frame.codes(treatment)
    first = fast_independence_test(
        outcome_codes, selection, None,
        threshold=cmi_threshold, n_permutations=n_permutations, seed=seed,
        **test_kwargs,
    )
    second = fast_independence_test(
        outcome_codes, selection, treatment_codes, n_z=code_cardinality(treatment_codes),
        threshold=cmi_threshold, n_permutations=n_permutations, seed=seed,
        **test_kwargs,
    )
    return {
        "O_indep_R": first.independent,
        "O_indep_R_given_T": second.independent,
        "recoverable": first.independent and second.independent,
    }


def mi_is_recoverable(frame: EncodedFrame, attribute: str, other: str,
                      cmi_threshold: float = 0.02, n_permutations: int = 20,
                      seed: Optional[int] = 0,
                      **test_kwargs) -> Dict[str, bool]:
    """Check the two conditions of Proposition 3.2 for ``I(E; E')``."""
    selection_pair = joint_codes([
        _selection_indicator(frame, attribute),
        _selection_indicator(frame, other),
    ])
    attribute_codes = frame.codes(attribute)
    other_codes = frame.codes(other)
    first = fast_independence_test(
        attribute_codes, selection_pair, None,
        threshold=cmi_threshold, n_permutations=n_permutations, seed=seed,
        **test_kwargs,
    )
    second = fast_independence_test(
        attribute_codes, selection_pair, other_codes, n_z=code_cardinality(other_codes),
        threshold=cmi_threshold, n_permutations=n_permutations, seed=seed,
        **test_kwargs,
    )
    return {
        "E_indep_R": first.independent,
        "E_indep_R_given_other": second.independent,
        "recoverable": first.independent and second.independent,
    }


def attribute_selection_bias(frame: EncodedFrame, outcome: str, treatment: str,
                             attribute: str, cmi_threshold: float = 0.02,
                             n_permutations: int = 20,
                             seed: Optional[int] = 0,
                             **test_kwargs) -> RecoverabilityReport:
    """Full recoverability report for one candidate attribute.

    An attribute with no missing values is trivially recoverable.  Otherwise
    the Proposition 3.1 conditions are tested; selection bias is flagged when
    they fail.
    """
    column = frame.table.column(attribute)
    missing_fraction = column.missing_fraction()
    if missing_fraction == 0.0:
        return RecoverabilityReport(
            attribute=attribute, missing_fraction=0.0, cmi_recoverable=True,
            selection_bias=False,
            details={"O_indep_R": True, "O_indep_R_given_T": True},
        )
    verdicts = cmi_is_recoverable(frame, outcome, treatment, attribute,
                                  cmi_threshold=cmi_threshold,
                                  n_permutations=n_permutations, seed=seed,
                                  **test_kwargs)
    recoverable = verdicts.pop("recoverable")
    return RecoverabilityReport(
        attribute=attribute,
        missing_fraction=missing_fraction,
        cmi_recoverable=recoverable,
        selection_bias=not recoverable,
        details=verdicts,
    )


def selection_bias_summary(frame: EncodedFrame, outcome: str, treatment: str,
                           attributes: Sequence[str], **kwargs) -> List[RecoverabilityReport]:
    """Recoverability reports for a list of candidate attributes."""
    return [attribute_selection_bias(frame, outcome, treatment, attribute, **kwargs)
            for attribute in attributes]
