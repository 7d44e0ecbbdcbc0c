"""Property tests for the batched event-driven simulator.

The point of an incremental engine is that *no sequence of updates* may
leave stale values behind: after any random walk of force/unforce/clear
events the state must be bit-identical to a from-scratch evaluation, and
a fault sweep driven through force/unforce cycles must reproduce the
fault-parallel :func:`repro.sim.batchfault.batch_fault_coverage` sweep
exactly (stale-cone bugs die here).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

#: Hypothesis-heavy module: excluded from the CI fast lane (-m "not slow").
pytestmark = pytest.mark.slow

from repro.circuits import random_circuit
from repro.diagnosis.stuckat import full_fault_list
from repro.sim import (
    BatchEventSimulator,
    batch_fault_coverage,
    pack_patterns,
    simulate,
    simulate_words,
)


@st.composite
def circuit_and_patterns(draw):
    seed = draw(st.integers(0, 10_000))
    circuit = random_circuit(
        n_inputs=draw(st.integers(2, 7)),
        n_outputs=draw(st.integers(1, 3)),
        n_gates=draw(st.integers(3, 35)),
        seed=seed,
    )
    rng = random.Random(seed)
    n_patterns = draw(st.integers(1, 70))
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs}
        for _ in range(n_patterns)
    ]
    return circuit, patterns


@given(circuit_and_patterns())
@settings(max_examples=25, deadline=None)
def test_initial_state_matches_simulate_words(data):
    circuit, patterns = data
    sim = BatchEventSimulator(circuit, patterns)
    words = pack_patterns(patterns, circuit.inputs)
    expected = simulate_words(circuit, words, len(patterns))
    assert sim.values_words() == expected
    for j, pattern in enumerate(patterns):
        assert sim.pattern_values(j) == simulate(circuit, pattern)


@given(circuit_and_patterns(), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_random_walk_matches_from_scratch(data, walk_seed):
    """Any force/unforce/clear sequence ends bit-identical to a fresh
    bit-parallel simulation with the surviving forces applied."""
    circuit, patterns = data
    rng = random.Random(walk_seed)
    sim = BatchEventSimulator(circuit, patterns)
    n = len(patterns)
    mask = (1 << n) - 1
    words = pack_patterns(patterns, circuit.inputs)
    signals = list(circuit.nodes)
    forced: dict[str, int] = {}  # name -> expected forced word
    for _ in range(12):
        action = rng.randrange(4)
        if action == 0:  # force a constant (the stuck-at convention)
            name = rng.choice(signals)
            v = rng.randint(0, 1)
            forced[name] = mask if v else 0
            sim.force(name, v)
        elif action == 1:  # force a per-pattern word
            name = rng.choice(signals)
            word = rng.getrandbits(n)
            forced[name] = word
            lanes = max(1, -(-n // 64))
            arr = np.frombuffer(
                word.to_bytes(lanes * 8, "little"), dtype="<u8"
            ).astype(np.uint64)
            sim.force(name, arr)
        elif action == 2 and forced:  # unforce
            name = rng.choice(sorted(forced))
            del forced[name]
            sim.unforce(name)
        elif action == 3 and forced and rng.random() < 0.3:
            forced.clear()
            sim.clear_forces()
        expected = simulate_words(
            circuit, words, n, forced_words=dict(forced)
        )
        assert sim.values_words() == expected


@given(circuit_and_patterns(), st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_churned_fault_sweep_matches_batch_coverage(data, churn_seed):
    """A fault sweep driven as force/unforce events — interleaved with
    random extra churn that is always undone — must reproduce the
    from-scratch batchfault sweep bit-identically."""
    circuit, patterns = data
    rng = random.Random(churn_seed)
    faults = full_fault_list(circuit)
    rng.shuffle(faults)
    sim = BatchEventSimulator(circuit, patterns)
    good = sim.output_lanes()
    first_detection = {}
    for fault in faults:
        if rng.random() < 0.3:  # churn: a what-if that is fully undone
            other = rng.choice(list(circuit.nodes))
            sim.force(other, rng.randint(0, 1))
            sim.unforce(other)
        sim.force(fault.signal, fault.value)
        diff = np.bitwise_or.reduce(sim.output_lanes() ^ good, axis=0)
        sim.unforce(fault.signal)
        for lane, word in enumerate(diff):
            w = int(word)
            if w:
                first_detection[fault] = 64 * lane + (w & -w).bit_length() - 1
                break
    batch = batch_fault_coverage(circuit, patterns, faults)
    assert first_detection == dict(batch.first_detection)


def test_force_word_flips_exactly_selected_patterns(maj3):
    patterns = [
        {"a": 1, "b": 1, "c": 0},
        {"a": 0, "b": 0, "c": 1},
        {"a": 1, "b": 0, "c": 1},
    ]
    sim = BatchEventSimulator(maj3, patterns)
    base = sim.value_word("out")
    # Flip the majority's AND(a,b) term only in patterns 0 and 2.
    ab = sim.value_lanes("ab")
    forced = ab ^ np.uint64(0b101)
    sim.force("ab", forced)
    assert sim.value_word("ab") == int(forced[0]) & 0b111
    words = pack_patterns(patterns, maj3.inputs)
    expected = simulate_words(
        maj3, words, 3, forced_words={"ab": int(forced[0])}
    )
    assert sim.value_word("out") == expected["out"]
    sim.unforce("ab")
    assert sim.value_word("out") == base


def test_empty_pattern_list_rejected(maj3):
    with pytest.raises(ValueError, match="pattern"):
        BatchEventSimulator(maj3, [])


def test_bad_forced_lane_shape_rejected(maj3):
    sim = BatchEventSimulator(maj3, [{"a": 0, "b": 0, "c": 0}])
    with pytest.raises(ValueError, match="shape"):
        sim.force("ab", np.zeros(7, dtype=np.uint64))


def test_pattern_index_out_of_range(maj3):
    sim = BatchEventSimulator(maj3, [{"a": 0, "b": 0, "c": 0}])
    with pytest.raises(IndexError):
        sim.pattern_values(1)


def test_lane_boundary_word_masking():
    """65 patterns span two lanes; padding bits must never leak into
    words or detection."""
    circuit = random_circuit(n_inputs=5, n_outputs=2, n_gates=20, seed=9)
    rng = random.Random(9)
    patterns = [
        {pi: rng.getrandbits(1) for pi in circuit.inputs} for _ in range(65)
    ]
    sim = BatchEventSimulator(circuit, patterns)
    limit = 1 << 65
    for name, word in sim.values_words().items():
        assert word < limit, name
    sim.force(circuit.gate_names[3], 1)
    for word in sim.output_words().values():
        assert word < limit
