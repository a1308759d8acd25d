"""Correctness guards must survive ``python -O``, which strips ``assert``."""

import os
import subprocess
import sys

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
bernoulli._power_sum_mod = lambda m, p, mod: 1
expect(residues.NonPIntegralError, bernoulli.bernoulli_invariant_mod, 11)

hoffman = importlib.import_module("mhs.hoffman")
hoffman.factorial = lambda n: 7
expect(ArithmeticError, hoffman.hoffman_reduce, 2)

binomial_sums = importlib.import_module("mhs.binomial_sums")
binomial_sums.factorial = lambda r: 7
expect(ArithmeticError, binomial_sums.generalized_binomial, 5, 2)
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
        "",
    ]
