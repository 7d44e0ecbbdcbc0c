"""The event-driven simulator on one pattern, against the scalar oracle.

:class:`~repro.sim.batchevent.BatchEventSimulator` with a single pattern
is the shape a diagnosis session with one failing test builds.  Changing
an input is forcing it; every update must leave the valuation equal to
a from-scratch :func:`~repro.sim.logicsim.simulate` of the same forces.
"""

import random

from repro.sim import BatchEventSimulator, simulate


def _vector(circuit, seed):
    rng = random.Random(seed)
    return {pi: rng.getrandbits(1) for pi in circuit.inputs}


def test_initial_values_match_scalar(small_random):
    vec = _vector(small_random, 1)
    sim = BatchEventSimulator(small_random, [vec])
    assert sim.pattern_values(0) == simulate(small_random, vec)


def test_set_inputs_incremental(small_random):
    rng = random.Random(2)
    vec = _vector(small_random, 2)
    sim = BatchEventSimulator(small_random, [vec])
    for _ in range(20):
        pi = rng.choice(small_random.inputs)
        vec[pi] ^= 1
        sim.force(pi, vec[pi])
        assert sim.pattern_values(0) == simulate(small_random, vec)


def test_force_unforce_roundtrip(small_random):
    vec = _vector(small_random, 3)
    sim = BatchEventSimulator(small_random, [vec])
    baseline = sim.pattern_values(0)
    for gate in small_random.gate_names[:10]:
        for v in (0, 1):
            sim.force(gate, v)
            assert sim.pattern_values(0) == simulate(
                small_random, vec, forced={gate: v}
            )
            sim.unforce(gate)
            assert sim.pattern_values(0) == baseline


def test_multiple_forces_and_clear(small_random):
    vec = _vector(small_random, 4)
    sim = BatchEventSimulator(small_random, [vec])
    baseline = sim.pattern_values(0)
    gates = list(small_random.gate_names[:3])
    forced = {g: i % 2 for i, g in enumerate(gates)}
    for g, v in forced.items():
        sim.force(g, v)
    assert sim.pattern_values(0) == simulate(small_random, vec, forced=forced)
    sim.clear_forces()
    assert sim.pattern_values(0) == baseline


def test_forced_value_wins_over_input_changes(small_random):
    rng = random.Random(5)
    vec = _vector(small_random, 5)
    sim = BatchEventSimulator(small_random, [vec])
    gate = small_random.gate_names[5]
    sim.force(gate, 1)
    for _ in range(5):
        pi = rng.choice(small_random.inputs)
        vec[pi] ^= 1
        sim.force(pi, vec[pi])
        assert sim.value_word(gate) == 1
        assert sim.pattern_values(0) == simulate(
            small_random, vec, forced={gate: 1}
        )


def test_changed_set_is_reported(maj3):
    sim = BatchEventSimulator(maj3, [{"a": 1, "b": 1, "c": 0}])
    changed = sim.force("c", 1)
    # c flip turns bc and ac on; out stays 1
    assert "c" in changed and "bc" in changed and "ac" in changed
    assert "out" not in changed


def test_output_values(maj3):
    sim = BatchEventSimulator(maj3, [{"a": 1, "b": 1, "c": 0}])
    assert sim.output_words() == {"out": 1}
