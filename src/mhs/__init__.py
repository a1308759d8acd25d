"""Exact stuffle algebra for multiple harmonic sums.

Provides exact evaluation of multiple harmonic sums, the quasi-shuffle
expression algebra, closed-form summation of products, coefficient tables,
Hoffman reductions to power sums, and prime-power congruence verification.

Importing the package loads only :mod:`mhs.bernoulli`; every other public
name is imported from its submodule on first access (PEP 562), so a command
line run loads only the modules its subcommand uses.
"""

import importlib

# Bound eagerly: the submodule shares the function's name, and the first
# import of a submodule would otherwise rebind ``mhs.bernoulli`` to it.
from .bernoulli import bernoulli, bernoulli_invariant, bernoulli_invariant_mod

# The verify suites in run order, here so that the command line can list
# them without importing mhs.registry, which checks its SUITES against it.
SUITE_NAMES = ("identities", "congruences", "theorem", "corollary", "staver")

_EXPORTS = {
    "algebra": (
        "H", "MhsExpression", "MhsMonomial", "N", "NPolynomial", "eval_expr",
        "expr_equal", "expr_mul", "linearize", "stuffle",
    ),
    "binomial_sums": (
        "binomial_power_sum", "binomial_power_sum_closed_form",
        "binomial_power_sum_via_mhs", "central_binomial_sum_check",
        "staver_identity_holds", "wolstenholme_holds",
    ),
    "congruences": ("base_congruence_suite", "mhs_mod", "sum_congruence_suite"),
    "core": (
        "Composition", "CompositionError", "composition_parse", "eval_mhs",
        "eval_mhs_direct", "mhs_prefix_values",
    ),
    "hoffman": ("hoffman_reduce", "partition_coefficients"),
    "residues": ("NonPIntegralError", "PResidue", "reduce_mod"),
    "summation": (
        "IdentityRecord", "RebaseError", "known_identities", "rebase",
        "sum_product", "sum_single",
    ),
    "tables": ("derive_table", "table_weight"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, "bernoulli", "bernoulli_invariant", "bernoulli_invariant_mod"])


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
