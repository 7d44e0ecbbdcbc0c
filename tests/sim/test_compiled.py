"""Tests for the compiled circuit cache and its invalidation."""

from repro.circuits import GateType, random_circuit
from repro.sim import compile_circuit, simulate
from repro.sim.compiled import CompiledCircuit


def test_compile_is_cached(small_random):
    a = compile_circuit(small_random)
    b = compile_circuit(small_random)
    assert a is b


def test_cache_invalidated_on_mutation(small_random):
    before = compile_circuit(small_random)
    gate = small_random.gates[3]
    new_type = (
        GateType.NAND if gate.gtype is not GateType.NAND else GateType.NOR
    )
    small_random.replace_gate(gate.name, gtype=new_type)
    after = compile_circuit(small_random)
    assert after is not before
    assert after.gtypes[after.index[gate.name]] is new_type


def test_mutation_changes_simulation(small_random):
    """The stale-cache bug this guards against: simulate() must see gate
    replacements immediately."""
    import random

    rng = random.Random(0)
    vec = {pi: rng.getrandbits(1) for pi in small_random.inputs}
    gate = small_random.gates[5]
    before = simulate(small_random, vec)[gate.name]
    flip = GateType.NAND if gate.gtype is GateType.AND else GateType.AND
    original = gate.gtype
    small_random.replace_gate(gate.name, gtype=GateType.NAND if original is not GateType.NAND else GateType.AND)
    after = simulate(small_random, vec)[gate.name]
    # NAND vs AND (or AND vs NAND) always differ on the same fanin values
    assert after != before


def test_topological_invariant():
    circuit = random_circuit(n_inputs=5, n_outputs=2, n_gates=30, seed=2)
    comp = compile_circuit(circuit)
    position = {idx: pos for pos, idx in enumerate(range(comp.n))}
    for idx in range(comp.n):
        for fanin in comp.fanins[idx]:
            assert fanin < idx or comp.gtypes[idx].value == "DFF"


def test_eval_order_excludes_inputs():
    circuit = random_circuit(n_inputs=4, n_outputs=2, n_gates=10, seed=3)
    comp = compile_circuit(circuit)
    input_set = set(comp.input_indices)
    assert not (set(comp.eval_order) & input_set)
    assert len(comp.eval_order) + len(comp.input_indices) == comp.n


def test_constant_gates_are_suspects():
    """Regression: gates replaced by constants (stuck-at model) must stay
    in the functional gate list so diagnosis can select them."""
    from repro.circuits import Circuit
    from repro.faults import StuckAtFault, apply_error
    from repro.circuits.library import majority

    maj = majority()
    dut = apply_error(maj, StuckAtFault("ab", 1))
    assert "ab" in dut.gate_names
    assert dut.node("ab").is_functional


def test_cone_mask_equals_fanin_cone():
    """The index cones are the name cones, DFFs crossed, for every
    signal; a union is the union of the masks; a non-signal raises."""
    import numpy as np
    import pytest

    from repro.circuits.netlist import CircuitError

    from repro.circuits.generator import random_sequential_circuit

    circuit = random_sequential_circuit(
        n_inputs=4, n_outputs=2, n_gates=25, n_dffs=3, seed=4
    )
    assert circuit.dffs
    comp = compile_circuit(circuit)
    for name in comp.names:
        mask = comp.cone_mask([name])
        assert {comp.names[i] for i in np.flatnonzero(mask)} == set(
            circuit.fanin_cone(name)
        )
    outputs = circuit.outputs
    union = frozenset().union(*map(circuit.fanin_cone, outputs))
    mask = comp.cone_mask(outputs)
    assert {comp.names[i] for i in np.flatnonzero(mask)} == union
    with pytest.raises(CircuitError, match="no_such_signal"):
        comp.cone_mask(["no_such_signal"])
