"""Result type and default threshold of the conditional-independence test.

The test itself — the stratified permutation test of HypDB [63] that the
paper cites for the MCIMR stopping criterion and the pruning rules — is
:func:`repro.infotheory.kernel.fast_independence_test`.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_CMI_THRESHOLD = 0.01


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of a conditional-independence test.

    Attributes
    ----------
    independent:
        The test's verdict at the requested significance level.
    cmi:
        The observed conditional mutual information.
    p_value:
        Fraction of permutation CMIs at least as large as the observed one
        (1.0 when the threshold shortcut fired).  After an early exit the
        fraction reflects only the permutations actually run; the verdict
        is still the one the full run would have produced (see
        :mod:`repro.infotheory.permutation`).
    n_permutations:
        Number of permutations actually run (0 for the shortcut).
    early_exit:
        True when the sequential test stopped before exhausting its
        permutation budget.
    budget_extensions:
        How many times an adaptive :class:`~repro.infotheory.permutation.
        PermutationBudget` extended the permutation target because the
        verdict was still statistically uncertain (0 for fixed budgets).
    """

    independent: bool
    cmi: float
    p_value: float
    n_permutations: int
    early_exit: bool = False
    budget_extensions: int = 0

