"""What a cold ``python -m mhs`` imports, and the names the lazy package exposes."""

import argparse
import importlib.util
import os
import subprocess
import sys

import pytest

import mhs
from mhs import cli, registry

# What a plain derive, with or without --check, must not load.
_NOT_FOR_DERIVE = {
    "concurrent.futures", "multiprocessing", "dataclasses", "mhs.registry",
    "mhs.binomial_sums", "mhs.congruences", "mhs.residues", "mhs.tables", "mhs.hoffman",
}


def _python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def _imported(*args) -> set[str]:
    """Every module that ``python -X importtime ARGS`` imported, by name."""
    lines = _python("-X", "importtime", *args).stderr.splitlines()
    rows = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    return set(rows[1:])  # rows[0] is the header


@pytest.mark.parametrize("argv", [["derive", "2,1;1,2"], ["derive", "1;1", "--check", "30"]])
def test_derive_loads_no_residue_table_or_pool_module(argv):
    loaded = _imported("-m", "mhs", *argv)
    assert "mhs.summation" in loaded  # the parse saw the command run
    assert loaded & _NOT_FOR_DERIVE == set()


def test_serial_verify_loads_neither_tables_nor_pool():
    loaded = _imported("-m", "mhs", "verify", "--pmin", "7", "--pmax", "11")
    assert "mhs.registry" in loaded
    assert loaded & {"mhs.tables", "concurrent.futures"} == set()


def test_serial_verify_loads_neither_dataclasses_nor_inspect():
    loaded = _imported("-m", "mhs", "verify", "--suite", "all", "--pmin", "7", "--pmax", "13")
    assert "mhs.binomial_sums" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("argv", [["tables", "--weight", "4"], ["derive", "1^4", "--basis", "w4"]])
def test_tables_load_neither_dataclasses_nor_inspect(argv):
    loaded = _imported("-m", "mhs", *argv)
    assert "mhs.tables" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def test_bare_import_loads_only_bernoulli():
    loaded = _imported("-c", "import mhs")
    assert {m for m in loaded if m.startswith("mhs.")} == {"mhs.bernoulli"}


def test_every_public_name_resolves_and_is_listed():
    listed = dir(mhs)
    for name in mhs.__all__:
        assert getattr(mhs, name) is not None
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        mhs.no_such_name


@pytest.mark.parametrize(
    "first",
    [
        "import mhs.congruences",
        "import mhs.bernoulli",
        "from mhs.cli import main; main(['verify', '--pmin', '7', '--pmax', '11'])",
    ],
)
def test_mhs_bernoulli_stays_the_function(first):
    # The submodule mhs.bernoulli shares the function's name; no import order
    # may leave the package attribute bound to the module.
    script = f"{first}\nimport mhs\nprint(type(mhs.bernoulli).__name__, mhs.bernoulli(4))\n"
    assert _python("-c", script).stdout.splitlines()[-1] == "function -1/30"


def test_suite_choices_are_the_registry_suites():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == [s.name for s in registry.SUITES] + ["all"]


def test_registry_refuses_suites_that_differ_from_suite_names(monkeypatch):
    monkeypatch.setattr(mhs, "SUITE_NAMES", mhs.SUITE_NAMES[:-1])
    # Execute a second copy of registry.py: the imported module stays as it is.
    spec = importlib.util.spec_from_file_location("mhs._registry_copy", registry.__file__)
    copy = importlib.util.module_from_spec(spec)
    with pytest.raises(RuntimeError, match="differ from SUITE_NAMES"):
        spec.loader.exec_module(copy)
