"""Correctness guards must survive ``python -O``, which strips ``assert``."""

import ast
import os
import pathlib
import subprocess
import sys

import mhs

PACKAGE = pathlib.Path(mhs.__file__).parent


def test_the_package_has_no_assert_statement():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in {PACKAGE}: {found}"


# Each case injects one fault by monkeypatching, then expects the guard's
# exception from the public function (and, with ``match``, its message).
GUARDS = """
import importlib
from fractions import Fraction

from mhs.algebra import H, MhsExpression

def expect(exc_type, fn, *args, match=""):
    try:
        fn(*args)
    except exc_type as exc:
        print("raised" if match in str(exc) else "wrong", fn.__name__)
    else:
        print("silent", fn.__name__)

assert False, "asserts must be stripped in this process"

algebra = importlib.import_module("mhs.algebra")
summation = importlib.import_module("mhs.summation")
algebra.expr_equal = lambda e1, e2: False
expect(summation.RebaseError, summation.rebase, H(1), [H(1)])

# Before bernoulli is patched, so that X itself cannot raise first.
congruences = importlib.import_module("mhs.congruences")
deep_x = congruences.CongruenceClaim("H:1", "mhs", (1,), (((1, 1), 2),), 4)
expect(ArithmeticError, deep_x.rhs_value, 7, match="needs X beyond mod p^2")

bernoulli = importlib.import_module("mhs.bernoulli")
residues = importlib.import_module("mhs.residues")
bernoulli.bernoulli = lambda m: Fraction(1, 7)
expect(residues.NonPIntegralError, bernoulli.bernoulli_invariant, 7)
bernoulli._power_sums_mod = lambda p, mod: (1, 1)
expect(residues.NonPIntegralError, bernoulli.bernoulli_invariant_mod, 11)

hoffman = importlib.import_module("mhs.hoffman")
hoffman.factorial = lambda n: 7
expect(ArithmeticError, hoffman.hoffman_reduce, 2)

binomial_sums = importlib.import_module("mhs.binomial_sums")
partitions = importlib.import_module("mhs.partitions")  # where generalized_binomial lives
partitions.factorial = lambda r: 7
expect(ArithmeticError, binomial_sums.generalized_binomial, 5, 2)

# A Staver scale that never grows: L stays 1, which k = 2 does not divide.
binomial_sums.gcd = lambda a, b: b
expect(ArithmeticError, binomial_sums.staver_claims, 5)
"""


def test_guards_raise_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", GUARDS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "raised rebase",
        "raised rhs_value",
        "raised bernoulli_invariant",
        "raised bernoulli_invariant_mod",
        "raised hoffman_reduce",
        "raised generalized_binomial",
        "raised staver_claims",
        "",
    ]


# The numeric oracles, with asserts stripped: each perturbation is refused,
# a flipped symbolic verdict is caught, and an inexact division raises.
ORACLES = """
import math
import types
from fractions import Fraction

from mhs import algebra
from mhs.algebra import H, MhsExpression, N, expr_equal
from mhs.summation import partial_sum_oracle, sum_product
from mhs.tables import ORACLE_POINTS, derive_table, row_basis

def verdict(label, accepted):
    print(label, "accepted" if accepted else "refused")

def expect(exc_type, fn, *args):
    try:
        fn(*args)
    except exc_type:
        print("raised", fn.__name__)
    else:
        print("silent", fn.__name__)

assert False, "asserts must be stripped in this process"

factors = [(1, 1, 1), (1, 1)]
closed = sum_product(factors)
verdict("closed", partial_sum_oracle(factors, closed, 40))
tiny = Fraction(1, 10**9) * sum_product([(1,)])
verdict("closed + tiny", partial_sum_oracle(factors, closed + tiny, 40))

table = derive_table(5)
basis = [row.basis for row in row_basis(5)]
cells = [row[2] for row in table.cells]
cells[0] += Fraction(1, 10**12)
bumped = algebra._combine([(N + 1, MhsExpression.monomial(1, table.columns[2])), *zip(cells, basis)])
verdict("bumped cell", partial_sum_oracle(table.columns[2], bumped, ORACLE_POINTS))
expect(ValueError, partial_sum_oracle, factors, closed, 0)

real_is_zero = MhsExpression.is_zero
MhsExpression.is_zero = lambda self: not real_is_zero(self)
expect(algebra.ExpressionConsistencyError, expr_equal, H(1) ** 2, 2 * H(1, 1) + H(2))
MhsExpression.is_zero = real_is_zero

# A scale that never grows: L_n stays 1, which n = 2 does not divide.
algebra.math = types.SimpleNamespace(lcm=math.lcm, gcd=lambda a, b: b)
expect(ArithmeticError, partial_sum_oracle, factors, closed, 5)
"""


def test_oracles_refuse_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", ORACLES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "closed accepted",
        "closed + tiny refused",
        "bumped cell refused",
        "raised partial_sum_oracle",
        "raised expr_equal",
        "raised partial_sum_oracle",
        "",
    ]
