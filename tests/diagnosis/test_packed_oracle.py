"""Differential tests of the packed, cone-restricted consistency oracle.

:func:`repro.diagnosis.validity.rect_word_by_forcing` packs every test
still to be checked into its own block of ``2^n'`` patterns, forces only
the candidate gates inside the observed outputs' fan-in cones, and
simulates only those cones.  Its words are compared bit for bit against
two references kept here: the per-test whole-netlist
:func:`~repro.sim.parallel.simulate_words` check and a whole-netlist
SAT encoding.  The cone-restricted ``simulate_words(outputs=)`` and
``_rectifiable_sat`` are checked against their full forms too.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import CircuitError, GateType, random_circuit
from repro.diagnosis import validity
from repro.diagnosis.validity import (
    _SIM_LIMIT,
    _counter_words,
    _rectifiable_sat,
    is_valid_correction,
    rect_word_by_forcing,
    rectifiable_by_forcing,
)
from repro.sat.cnf import CNF
from repro.sat.tseitin import encode_gate
from repro.sim import simulate
from repro.sim.parallel import simulate_words
from repro.testgen.testset import Test, TestSet


def per_test_sim(circuit, test, gates, constrain_all_outputs=False):
    """Reference: one whole-netlist pass per test, all 2^|C|
    combinations of every candidate gate forced."""
    gates = tuple(dict.fromkeys(gates))
    n_patterns = 1 << len(gates)
    mask = (1 << n_patterns) - 1
    input_words = {
        pi: (mask if test.vector[pi] else 0) for pi in circuit.inputs
    }
    forced = dict(zip(gates, _counter_words(len(gates))))
    values = simulate_words(
        circuit, input_words, n_patterns, forced_words=forced
    )
    if constrain_all_outputs:
        match = mask
        for out in circuit.outputs:
            want = mask if test.expected_outputs[out] else 0
            match &= ~(values[out] ^ want) & mask
        return match != 0
    want = mask if test.value else 0
    return (~(values[test.output] ^ want) & mask) != 0


def whole_netlist_sat(circuit, test, gates, constrain_all_outputs=False):
    """Reference: every signal of the circuit encoded, the candidate
    gates (inputs included) left free."""
    gate_set = set(gates)
    cnf = CNF()
    var_of = {}
    for name in circuit.topological_order():
        gate = circuit.node(name)
        var = var_of[name] = cnf.new_var()
        if name in gate_set:
            continue
        if gate.is_input:
            cnf.add_clause([var if test.vector[name] else -var])
        else:
            encode_gate(cnf, gate.gtype, var, [var_of[f] for f in gate.fanins])
    if constrain_all_outputs:
        goal = {o: test.expected_outputs[o] for o in circuit.outputs}
    else:
        goal = {test.output: test.value}
    for out, want in goal.items():
        cnf.add_clause([var_of[out] if want else -var_of[out]])
    return bool(cnf.to_solver().solve())


def reference_word(circuit, tests, gates, constrain, known=0):
    word = known
    for j, test in enumerate(tests):
        if not (known >> j) & 1 and per_test_sim(
            circuit, test, gates, constrain
        ):
            word |= 1 << j
    return word


def _circuit(draw, seed):
    """A random circuit that may gain a gate outside every output cone
    and an output driven directly by a primary input."""
    circuit = random_circuit(
        n_inputs=draw(st.integers(2, 6)),
        n_outputs=draw(st.integers(1, 4)),
        n_gates=draw(st.integers(4, 25)),
        seed=seed,
    )
    pis = circuit.inputs
    if draw(st.booleans()):
        circuit.add_gate("dangling", GateType.NAND, [pis[0], pis[-1]])
    if pis[0] not in circuit.outputs and draw(st.booleans()):
        circuit.add_output(pis[0])
    return circuit


def _tests(circuit, rng, m, observed):
    """``m`` tests whose expected responses flip each output with
    probability 1/4, so some pass and some fail."""
    tests = []
    for _ in range(m):
        vector = {pi: rng.getrandbits(1) for pi in circuit.inputs}
        response = simulate(circuit, vector)
        expected = {
            o: response[o] ^ (rng.random() < 0.25) for o in circuit.outputs
        }
        out = rng.choice(observed)
        tests.append(Test(vector, out, expected[out], expected))
    return TestSet(tuple(tests))


@st.composite
def oracle_cases(draw):
    seed = draw(st.integers(0, 10_000))
    circuit = _circuit(draw, seed)
    rng = random.Random(seed)
    observed = draw(
        st.lists(st.sampled_from(circuit.outputs), min_size=1, unique=True)
    )
    tests = _tests(circuit, rng, draw(st.integers(1, 12)), observed)
    # Any signal may be a candidate: inputs, gates outside every cone,
    # and the empty candidate.
    gates = draw(
        st.lists(
            st.sampled_from(list(circuit.nodes)), max_size=6, unique=True
        )
    )
    known = draw(st.integers(0, (1 << len(tests)) - 1))
    return circuit, tests, gates, known


@given(oracle_cases(), st.booleans())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_packed_word_equals_per_test_sim_and_sat(case, constrain):
    circuit, tests, gates, known = case
    word = rect_word_by_forcing(circuit, tests, gates, constrain, known)
    assert word == reference_word(circuit, tests, gates, constrain, known)
    for j, test in enumerate(tests):
        bit = bool((word >> j) & 1)
        if not (known >> j) & 1:
            assert bit == _rectifiable_sat(circuit, test, gates, constrain)
            assert bit == whole_netlist_sat(circuit, test, gates, constrain)
        assert rectifiable_by_forcing(circuit, test, gates, constrain) == (
            per_test_sim(circuit, test, gates, constrain)
        )
    assert is_valid_correction(circuit, tests, gates, constrain) == (
        reference_word(circuit, tests, gates, constrain)
        == (1 << len(tests)) - 1
    )


def _dangling_circuit():
    circuit = random_circuit(n_inputs=4, n_outputs=2, n_gates=12, seed=5)
    circuit.add_gate("dangling", GateType.AND, ["pi0", "pi1"])
    circuit.add_output("pi2")  # an output driven by a primary input
    return circuit


def _failing_tests(circuit, m, seed=3):
    rng = random.Random(seed)
    return _tests(circuit, rng, m, circuit.outputs)


def test_gate_outside_every_cone_is_not_forced(monkeypatch):
    """A candidate gate no output can see is dropped from the forced
    set: the packed pass simulates one pattern per test."""
    circuit = _dangling_circuit()
    tests = _failing_tests(circuit, 9)
    widths = []
    real = validity.simulate_words

    def spy(circuit, input_words, n_patterns, **kwargs):
        widths.append(n_patterns)
        return real(circuit, input_words, n_patterns, **kwargs)

    monkeypatch.setattr(validity, "simulate_words", spy)
    for constrain in (False, True):
        widths.clear()
        word = rect_word_by_forcing(circuit, tests, ["dangling"], constrain)
        assert widths == [len(tests)]
        assert word == reference_word(circuit, tests, (), constrain)


def test_forced_primary_input_overrides_the_vector():
    """Only the input-driven output is observed; forcing that input
    rectifies every test, forcing any gate rectifies only passing ones."""
    circuit = _dangling_circuit()
    vector = {pi: 0 for pi in circuit.inputs}
    tests = TestSet(
        (Test(vector, "pi2", 1), Test({**vector, "pi2": 1}, "pi2", 1))
    )
    assert rect_word_by_forcing(circuit, tests, ["pi2"]) == 0b11
    assert rect_word_by_forcing(circuit, tests, circuit.gate_names) == 0b10
    assert rect_word_by_forcing(circuit, tests, ()) == 0b10


def test_missing_expected_outputs_raise_only_when_pending():
    circuit = _dangling_circuit()
    tests = list(_failing_tests(circuit, 3))
    bare = tests[1]
    tests[1] = Test(bare.vector, bare.output, bare.value)
    gates = circuit.gate_names[:2]
    with pytest.raises(ValueError, match="expected_outputs"):
        rect_word_by_forcing(circuit, tests, gates, True)
    with pytest.raises(ValueError, match="expected_outputs"):
        _rectifiable_sat(circuit, tests[1], gates, True)
    # Its bit is known: the test is not checked, so nothing raises.
    word = rect_word_by_forcing(circuit, tests, gates, True, known=0b010)
    assert word == reference_word(
        circuit, [tests[0], tests[0], tests[2]], gates, True, known=0b010
    )
    # Single-output semantics never read expected_outputs.
    assert rect_word_by_forcing(circuit, tests, gates) == reference_word(
        circuit, tests, gates, False
    )


def test_unknown_candidate_name_raises():
    circuit = _dangling_circuit()
    tests = _failing_tests(circuit, 2)
    with pytest.raises(CircuitError, match="no_such_gate"):
        rect_word_by_forcing(circuit, tests, ["no_such_gate"])


def _deep_circuit():
    """Enough gates that one output's cone holds more than _SIM_LIMIT."""
    circuit = random_circuit(n_inputs=6, n_outputs=2, n_gates=60, seed=9)
    big = max(circuit.outputs, key=lambda o: len(circuit.fanin_cone(o)))
    cone_gates = [
        g for g in circuit.gate_names if g in circuit.fanin_cone(big)
    ]
    assert len(cone_gates) > _SIM_LIMIT + 1
    return circuit, big, cone_gates


def test_above_sim_limit_falls_back_to_sat(monkeypatch):
    circuit, big, cone_gates = _deep_circuit()
    rng = random.Random(4)
    tests = _tests(circuit, rng, 4, [big])
    gates = cone_gates[: _SIM_LIMIT + 1]
    calls = []
    real = validity._rectifiable_sat

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(validity, "_rectifiable_sat", spy)
    for constrain in (False, True):
        calls.clear()
        word = rect_word_by_forcing(circuit, tests, gates, constrain, 0b1)
        assert calls == list(tests)[1:]
        assert word == reference_word(circuit, tests, gates, constrain, 0b1)


def test_only_cone_gates_count_toward_the_sim_limit(monkeypatch):
    """More than _SIM_LIMIT candidates, at most _SIM_LIMIT of them in
    the observed cone: still the bit-parallel path."""
    circuit, big, cone_gates = _deep_circuit()
    small = min(circuit.outputs, key=lambda o: len(circuit.fanin_cone(o)))
    inside = [g for g in circuit.gate_names if g in circuit.fanin_cone(small)]
    outside = [g for g in circuit.gate_names if g not in inside]
    gates = inside[:_SIM_LIMIT] + outside[:3]
    assert len(gates) > _SIM_LIMIT
    rng = random.Random(6)
    tests = _tests(circuit, rng, 3, [small])
    monkeypatch.setattr(validity, "_rectifiable_sat", None)  # must not run
    word = rect_word_by_forcing(circuit, tests, gates)
    assert word == reference_word(circuit, tests, gates, False)


def test_width_cap_splits_pending_tests_into_chunks(monkeypatch):
    circuit, big, cone_gates = _deep_circuit()
    gates = cone_gates[:_SIM_LIMIT]
    rng = random.Random(8)
    tests = _tests(circuit, rng, 9, [big])
    per_chunk = validity._PACK_WIDTH >> _SIM_LIMIT
    widths = []
    real = validity.simulate_words

    def spy(circuit, input_words, n_patterns, **kwargs):
        widths.append(n_patterns)
        return real(circuit, input_words, n_patterns, **kwargs)

    monkeypatch.setattr(validity, "simulate_words", spy)
    word = rect_word_by_forcing(circuit, tests, gates, known=0b100)
    sizes = [per_chunk] * (8 // per_chunk) + [8 % per_chunk] * bool(
        8 % per_chunk
    )
    assert widths == [size << _SIM_LIMIT for size in sizes]
    assert max(widths) <= validity._PACK_WIDTH
    assert word == reference_word(circuit, tests, gates, False, 0b100)


def test_no_pending_test_simulates_nothing(monkeypatch):
    circuit = _dangling_circuit()
    tests = _failing_tests(circuit, 3)
    monkeypatch.setattr(validity, "simulate_words", None)
    assert rect_word_by_forcing(circuit, tests, ["pi0"], known=0b111) == 0b111
    assert rect_word_by_forcing(circuit, (), ["pi0"]) == 0
    assert is_valid_correction(circuit, (), ["pi0"])


@st.composite
def restricted_cases(draw):
    seed = draw(st.integers(0, 10_000))
    circuit = _circuit(draw, seed)
    rng = random.Random(seed)
    n_patterns = draw(st.sampled_from([1, 7, 64, 65, 200]))
    mask = (1 << n_patterns) - 1
    input_words = {pi: rng.getrandbits(n_patterns) for pi in circuit.inputs}
    signals = list(circuit.nodes)
    forced = {
        name: rng.getrandbits(n_patterns) & mask
        for name in draw(
            st.lists(st.sampled_from(signals), max_size=4, unique=True)
        )
    }
    outputs = draw(st.lists(st.sampled_from(signals), min_size=1))
    return circuit, input_words, n_patterns, forced, outputs


@given(restricted_cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_restricted_simulate_words_equals_full_pass(case):
    circuit, input_words, n_patterns, forced, outputs = case
    full = simulate_words(circuit, input_words, n_patterns, forced)
    cone = simulate_words(
        circuit, input_words, n_patterns, forced, outputs=outputs
    )
    assert list(cone) == list(dict.fromkeys(outputs))
    assert cone == {o: full[o] for o in outputs}


def test_restricted_simulate_words_rejects_unknown_output():
    circuit = _dangling_circuit()
    words = {pi: 1 for pi in circuit.inputs}
    with pytest.raises(CircuitError, match="no_such_output"):
        simulate_words(circuit, words, 1, outputs=["no_such_output"])


def test_cone_sat_matches_whole_netlist_encoding():
    """Exhaustive over small candidates on a circuit with a dangling
    gate and an input-driven output, both output modes."""
    from itertools import combinations

    circuit = _dangling_circuit()
    tests = _failing_tests(circuit, 4, seed=11)
    signals = list(circuit.nodes)
    for constrain in (False, True):
        for size in (0, 1, 2):
            for gates in combinations(signals, size):
                for test in tests:
                    assert _rectifiable_sat(
                        circuit, test, gates, constrain
                    ) == whole_netlist_sat(circuit, test, gates, constrain)
