"""The package namespace: ``import bootperc`` loads the rules and
``analytic`` only, and the first use of any other name loads the four
lattice modules together and binds every re-export."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bootperc

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODULES = ("rules", "analytic", "structures", "dynamics", "span", "montecarlo", "cli")
LATTICE = ("bootperc.structures", "bootperc.dynamics", "bootperc.span", "bootperc.montecarlo")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", bootperc.__all__)
def test_every_exported_name_is_its_home_object(name):
    value = getattr(bootperc, name)
    homes = [module for module in MODULES
             if hasattr(importlib.import_module(f"bootperc.{module}"), name)]
    assert homes, f"no module of bootperc defines {name!r}"
    for module in homes:
        assert getattr(importlib.import_module(f"bootperc.{module}"), name) is value, module


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bootperc import *", namespace)
    assert set(bootperc.__all__) <= set(namespace)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bootperc.no_such_name
    assert not hasattr(bootperc, "cli_main")


@pytest.mark.parametrize("touch", ["bootperc.structures", "bootperc.CellSet",
                                   "bootperc.estimate_event_prob"])
def test_first_lattice_use_loads_all_four_lattice_modules(touch):
    # The benchmark's tracer looks each layer up in sys.modules right after
    # it touches bootperc.structures.
    proc = run_fresh(
        f"import sys, bootperc; lattice = {LATTICE!r}; "
        "assert not set(lattice) & set(sys.modules), 'lattice loaded by import'; "
        f"{touch}; assert set(lattice) <= set(sys.modules), 'lattice not loaded'; "
        "assert bootperc.closure is sys.modules['bootperc.dynamics'].closure")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    [],
    ["beta", "--k", "2", "--u", "0.5"],
    ["g", "--k", "1", "--z", "0.7"],
    ["lambda", "--d", "3", "--r", "3"],
    ["lambda-table", "--dmax", "3"],
    ["beta", "--k", "x", "--u", "0.5"],
], ids=["import", "beta", "g", "lambda", "lambda-table", "usage-error"])
def test_scalar_commands_do_not_load_numpy(argv):
    # The package loads the rules and analytic only, and a scalar command
    # runs in pure math.
    call = f"from bootperc.cli import main; main({argv!r}); " if argv else ""
    proc = run_fresh(f"import sys, bootperc; {call}"
                     "assert 'numpy' not in sys.modules, 'numpy loaded'")
    assert proc.returncode == 0, proc.stderr


def test_exact_lgap_loads_no_lattice_module():
    # l_exact takes a numpy matrix power, so it loads numpy, but no lattice.
    proc = run_fresh(
        "import sys; from bootperc.cli import main; "
        "assert main(['lgap', '--ell', '1', '--m', '10', '--u', '0.4', '--exact']) == 0; "
        f"assert 'numpy' in sys.modules and not set({LATTICE!r}) & set(sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_domain_error_is_one_class():
    from bootperc.analytic import beta
    from bootperc.cli import build_parser
    from bootperc.structures import StructureSpec

    raisers = [lambda: StructureSpec("weird", 3, 2, 2), lambda: beta(0, 0.5),
               lambda: build_parser().parse_args(["beta", "--k", "x", "--u", "0.5"])]
    for raiser in raisers:
        with pytest.raises(bootperc.DomainError) as info:
            raiser()
        assert type(info.value) is bootperc.DomainError
