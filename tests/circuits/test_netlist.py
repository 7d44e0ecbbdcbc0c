"""Unit tests for the Circuit netlist model."""

import pytest

from repro.circuits import Circuit, CircuitError, GateType
from repro.circuits.netlist import subcircuit_names


def build_half_adder():
    c = Circuit("ha")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("sum", GateType.XOR, ["a", "b"])
    c.add_gate("carry", GateType.AND, ["a", "b"])
    c.add_output("sum")
    c.add_output("carry")
    return c


def test_basic_construction():
    c = build_half_adder()
    c.validate()
    assert c.inputs == ("a", "b")
    assert c.outputs == ("sum", "carry")
    assert c.num_gates == 2
    assert len(c) == 4


def test_duplicate_signal_rejected():
    c = Circuit()
    c.add_input("a")
    with pytest.raises(CircuitError):
        c.add_input("a")
    with pytest.raises(CircuitError):
        c.add_gate("a", GateType.NOT, ["a"])


def test_duplicate_output_rejected():
    c = build_half_adder()
    with pytest.raises(CircuitError):
        c.add_output("sum")


def test_unknown_fanin_caught_by_validate():
    c = Circuit()
    c.add_input("a")
    c.add_gate("g", GateType.AND, ["a", "ghost"])
    c.add_output("g")
    with pytest.raises(CircuitError):
        c.validate()


def test_forward_references_allowed():
    c = Circuit()
    c.add_input("a")
    c.add_gate("g1", GateType.NOT, ["g2"])  # g2 defined later
    c.add_gate("g2", GateType.NOT, ["a"])
    c.add_output("g1")
    c.validate()
    assert c.topological_order().index("g2") < c.topological_order().index("g1")


def test_combinational_cycle_detected():
    c = Circuit()
    c.add_input("a")
    c.add_gate("x", GateType.AND, ["a", "y"])
    c.add_gate("y", GateType.AND, ["a", "x"])
    c.add_output("x")
    with pytest.raises(CircuitError, match="cycle"):
        c.validate()


def test_dff_breaks_cycles():
    c = Circuit()
    c.add_input("a")
    c.add_gate("q", GateType.DFF, ["d"])
    c.add_gate("d", GateType.XOR, ["a", "q"])
    c.add_output("d")
    c.validate()  # no cycle: DFF is a sequential element
    assert c.is_sequential
    assert not c.is_combinational


def test_arity_validation():
    with pytest.raises(CircuitError):
        Circuit().add_gate("g", GateType.NOT, ["a", "b"])
    with pytest.raises(CircuitError):
        Circuit().add_gate("g", GateType.AND, [])


def test_input_shape_validation():
    c = Circuit()
    with pytest.raises(CircuitError):
        c.add_gate("g", GateType.INPUT)


def test_replace_gate():
    c = build_half_adder()
    c.replace_gate("carry", gtype=GateType.OR)
    assert c.node("carry").gtype is GateType.OR
    assert c.node("carry").fanins == ("a", "b")
    with pytest.raises(CircuitError):
        c.replace_gate("a", gtype=GateType.NOT)


def test_replace_gate_invalidates_caches():
    c = build_half_adder()
    topo_before = c.topological_order()
    fanouts_before = c.fanouts()
    c.replace_gate("sum", fanins=["a", "a"])
    assert c.fanouts()["b"] == ("carry",)
    assert fanouts_before["b"] == ("sum", "carry")
    assert c.topological_order()  # recomputable


def test_gate_lists_refresh_on_mutation():
    c = build_half_adder()
    assert c.gate_names == ("sum", "carry")
    assert c.gates is c.gates  # cached until the next mutation
    assert c.num_gates == 2
    c.add_gate("nsum", GateType.NOT, ["sum"])
    assert c.gate_names == ("sum", "carry", "nsum")
    assert [g.name for g in c.gates] == ["sum", "carry", "nsum"]
    assert c.num_gates == 3
    c.replace_gate("nsum", gtype=GateType.BUF)
    assert c.gates[-1].gtype is GateType.BUF
    c.add_gate("dff", GateType.DFF, ["nsum"])  # not functional
    assert c.gate_names == ("sum", "carry", "nsum")
    assert c.num_gates == 3


def test_fanin_cone_refreshes_on_mutation():
    c = build_half_adder()
    c.add_input("cin")
    c.add_gate("t", GateType.AND, ["sum", "cin"])
    assert c.fanin_cone("t") == {"t", "sum", "a", "b", "cin"}
    assert c.fanin_cone("t") is c.fanin_cone("t")  # cached
    assert c.fanin_cone("a") == {"a"}
    c.replace_gate("t", fanins=["carry", "a"])
    assert c.fanin_cone("t") == {"t", "carry", "a", "b"}
    c.add_gate("u", GateType.NOT, ["t"])
    assert c.fanin_cone("u") == {"u", "t", "carry", "a", "b"}
    with pytest.raises(CircuitError):
        c.fanin_cone("missing")


def test_copy_is_independent():
    c = build_half_adder()
    d = c.copy()
    d.replace_gate("sum", gtype=GateType.XNOR)
    assert c.node("sum").gtype is GateType.XOR
    assert d.node("sum").gtype is GateType.XNOR
    assert not c.structurally_equal(d)
    assert c.structurally_equal(c.copy())


def test_stats():
    stats = build_half_adder().stats()
    assert stats["inputs"] == 2
    assert stats["outputs"] == 2
    assert stats["gates"] == 2
    assert stats["type_XOR"] == 1


def test_subcircuit_names():
    c = build_half_adder()
    assert subcircuit_names(c, ["sum"]) == {"sum", "a", "b"}
    assert subcircuit_names(c, ["a"]) == {"a"}


def test_node_lookup_errors():
    c = build_half_adder()
    with pytest.raises(CircuitError):
        c.node("nope")
    assert "sum" in c
    assert "nope" not in c


def test_gates_excludes_inputs_and_dffs(s27):
    gate_names = set(s27.gate_names)
    assert "G5" not in gate_names  # DFF
    assert "G0" not in gate_names  # input
    assert "G11" in gate_names
    assert s27.num_gates == 10
    assert len(s27.dffs) == 3
