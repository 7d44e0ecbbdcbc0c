"""Run the doctest examples embedded in the library's docstrings.

Keeps the inline examples in the public API honest — they are part of the
documentation deliverable and must execute as written.  Modules are
resolved through ``importlib`` because some packages re-export a function
under the same name as its defining submodule (e.g.
``repro.testgen.podem``), which shadows plain attribute access.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.bdd.circuit",
    "repro.bdd.cover",
    "repro.bdd.manager",
    "repro.circuits.bench",
    "repro.circuits.gates",
    "repro.circuits.generator",
    "repro.circuits.rewrite",
    "repro.circuits.scan",
    "repro.diagnosis.core",
    "repro.diagnosis.resynthesis",
    "repro.diagnosis.structural",
    "repro.faults.collapse",
    "repro.sat.cardinality",
    "repro.sat.proof",
    "repro.sat.solver",
    "repro.sat.types",
    "repro.sim.batchevent",
    "repro.sim.deductive",
    "repro.sim.deductive_numpy",
    "repro.sim.logicsim",
    "repro.sim.parallel",
    "repro.sim.threevalued",
    "repro.testgen.dcalc",
    "repro.testgen.podem",
    "repro.testgen.scoap",
    "repro.verify.cec",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{name}: no doctests found"
    assert result.failed == 0, f"{name}: {result.failed} doctest failures"
