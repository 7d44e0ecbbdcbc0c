"""The fault-simulation engine table: listing, selection, entry points.

``repro.sim.engines.SIM_ENGINES`` is the only list of engine names: it
feeds ``python -m repro engines`` and the ``engine=``/``sim_engine=``
selection paths in FaultDictionary, ``diagnose_stuck_at`` and ATPG, so
every listed name must be accepted where its row says.
"""

import pytest

from repro.circuits.library import c17
from repro.cli import main
from repro.diagnosis.stuckat import FaultDictionary, diagnose_stuck_at
from repro.sim import output_values
from repro.sim.engines import (
    ATPG,
    DEFAULT_ENGINE,
    DICTIONARY,
    SIM_ENGINES,
    available_engines,
    engine_summary,
    resolve_engine,
)
from repro.testgen import compact_patterns, generate_tests


def test_stock_engines_registered():
    assert set(SIM_ENGINES) == {
        "serial",
        "batch",
        "codegen",
        "deductive",
        "deductive-numpy",
    }


def test_available_engines_default_first_then_sorted():
    names = available_engines()
    assert names[0] == DEFAULT_ENGINE == "batch"
    assert list(names[1:]) == sorted(set(SIM_ENGINES) - {DEFAULT_ENGINE})


def test_resolve_auto_and_none_give_default():
    assert resolve_engine(None) == DEFAULT_ENGINE
    assert resolve_engine("auto") == DEFAULT_ENGINE


def test_resolve_registered_names_identity():
    for name in SIM_ENGINES:
        assert resolve_engine(name) == name


def test_resolve_unknown_raises_with_choices():
    with pytest.raises(ValueError, match="unknown sim engine"):
        resolve_engine("hdl-cosim")


def test_engine_summary_resolves_aliases():
    assert engine_summary("auto") == SIM_ENGINES["batch"].summary
    assert "straight-line" in engine_summary("codegen")


def _dictionary_call(name):
    circuit = c17()
    patterns = [
        {pi: (j >> i) & 1 for i, pi in enumerate(circuit.inputs)}
        for j in range(4)
    ]
    fd = FaultDictionary(circuit, patterns, engine=name)
    observed = [output_values(circuit, p) for p in patterns]
    result = diagnose_stuck_at(circuit, patterns, observed, engine=name)
    return fd.engine, result.extras["engine"]


def _atpg_call(name):
    circuit = c17()
    result = generate_tests(circuit, seed=1, sim_engine=name)
    compact_patterns(
        circuit,
        result.patterns,
        result.target_faults,
        sim_engine=name,
    )
    return result.fault_coverage


ENTRY_CALLS = {DICTIONARY: _dictionary_call, ATPG: _atpg_call}


@pytest.mark.parametrize("name", available_engines())
def test_every_listed_engine_is_accepted_where_its_row_says(name, capsys):
    """Each row of ``python -m repro engines`` names the entry points
    that accept the engine; each of them must run it, and the others
    must reject it with a one-line error listing their own names."""
    assert main(["engines"]) == 0
    listing = capsys.readouterr().out.splitlines()
    row = listing.index(next(l for l in listing if l.split()[0] == name))
    entry_points = SIM_ENGINES[name].entry_points
    assert entry_points
    assert listing[row + 1].split("accepted by: ")[1] == "; ".join(
        entry_points
    )
    for entry_point, call in ENTRY_CALLS.items():
        if entry_point in entry_points:
            if entry_point == DICTIONARY:
                assert call(name) == (name, name)
            else:
                assert call(name) == 1.0
        else:
            with pytest.raises(ValueError) as info:
                call(name)
            message = str(info.value)
            assert "\n" not in message
            assert entry_point in message
            assert ", ".join(available_engines(entry_point)) in message


@pytest.mark.parametrize("entry_point", sorted(ENTRY_CALLS))
def test_unknown_engine_is_one_line_error_listing_accepted_names(
    entry_point,
):
    with pytest.raises(ValueError) as info:
        ENTRY_CALLS[entry_point]("event")
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("unknown sim engine 'event' for ")
    assert message.endswith(
        "choose from " + ", ".join(available_engines(entry_point))
    )
