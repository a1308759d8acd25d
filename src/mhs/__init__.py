"""Exact stuffle algebra for multiple harmonic sums.

Provides exact evaluation of multiple harmonic sums, the quasi-shuffle
expression algebra, closed-form summation of products, coefficient tables,
Hoffman reductions to power sums, and prime-power congruence verification.
"""

from .algebra import (
    H,
    MhsExpression,
    MhsMonomial,
    N,
    NPolynomial,
    eval_expr,
    expr_equal,
    expr_mul,
    linearize,
    stuffle,
)
from .bernoulli import bernoulli, bernoulli_invariant, bernoulli_invariant_mod
from .binomial_sums import (
    binomial_power_sum,
    binomial_power_sum_closed_form,
    binomial_power_sum_via_mhs,
    central_binomial_sum_check,
    staver_identity_holds,
    wolstenholme_holds,
)
from .congruences import (
    base_congruence_suite,
    mhs_mod,
    sum_congruence_suite,
)
from .core import (
    Composition,
    CompositionError,
    composition_parse,
    eval_mhs,
    eval_mhs_direct,
    mhs_prefix_values,
)
from .hoffman import hoffman_reduce, partition_coefficients
from .residues import NonPIntegralError, PResidue, reduce_mod
from .summation import (
    IdentityRecord,
    RebaseError,
    known_identities,
    rebase,
    sum_product,
    sum_single,
)
from .tables import derive_table, table_weight

__all__ = [
    "Composition",
    "CompositionError",
    "H",
    "IdentityRecord",
    "MhsExpression",
    "MhsMonomial",
    "N",
    "NPolynomial",
    "NonPIntegralError",
    "PResidue",
    "RebaseError",
    "base_congruence_suite",
    "bernoulli",
    "bernoulli_invariant",
    "bernoulli_invariant_mod",
    "binomial_power_sum",
    "binomial_power_sum_closed_form",
    "binomial_power_sum_via_mhs",
    "central_binomial_sum_check",
    "composition_parse",
    "derive_table",
    "eval_expr",
    "eval_mhs",
    "eval_mhs_direct",
    "expr_equal",
    "expr_mul",
    "hoffman_reduce",
    "known_identities",
    "linearize",
    "mhs_mod",
    "mhs_prefix_values",
    "partition_coefficients",
    "rebase",
    "reduce_mod",
    "staver_identity_holds",
    "stuffle",
    "sum_congruence_suite",
    "sum_product",
    "sum_single",
    "table_weight",
    "wolstenholme_holds",
]
