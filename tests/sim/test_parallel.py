"""Tests for the bit-parallel simulators."""

import random

import numpy as np
import pytest

from repro.circuits import random_circuit
from repro.sim import (
    pack_patterns,
    pack_patterns_numpy,
    simulate,
    simulate_patterns,
    simulate_words,
    simulate_words_numpy,
    unpack_word,
)


def test_pack_unpack_roundtrip():
    patterns = [{"a": 1, "b": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 1}]
    words = pack_patterns(patterns, ["a", "b"])
    assert words == {"a": 0b101, "b": 0b100}
    assert unpack_word(words["a"], 3) == [1, 0, 1]


def test_simulate_patterns_empty():
    c = random_circuit(n_inputs=3, n_outputs=1, n_gates=5, seed=0)
    assert simulate_patterns(c, []) == []


@pytest.mark.parametrize("seed", range(4))
def test_words_agree_with_scalar(seed):
    c = random_circuit(n_inputs=6, n_outputs=3, n_gates=30, seed=seed)
    rng = random.Random(seed)
    patterns = [
        {pi: rng.getrandbits(1) for pi in c.inputs} for _ in range(33)
    ]
    batched = simulate_patterns(c, patterns)
    for pattern, batch_vals in zip(patterns, batched):
        assert simulate(c, pattern) == batch_vals


def test_forced_words(maj3):
    # force ab=0 in pattern 0 only; pattern 1 unforced
    words = pack_patterns(
        [{"a": 1, "b": 1, "c": 0}] * 2, maj3.inputs
    )
    out = simulate_words(maj3, words, 2, forced_words={"ab": 0b10})
    assert unpack_word(out["out"], 2) == [0, 1]


def test_wide_patterns_beyond_64():
    c = random_circuit(n_inputs=5, n_outputs=2, n_gates=20, seed=7)
    rng = random.Random(7)
    patterns = [
        {pi: rng.getrandbits(1) for pi in c.inputs} for _ in range(130)
    ]
    batched = simulate_patterns(c, patterns)
    for idx in (0, 63, 64, 127, 129):
        assert simulate(c, patterns[idx]) == batched[idx]


def test_numpy_variant_agrees():
    c = random_circuit(n_inputs=6, n_outputs=3, n_gates=30, seed=3)
    rng = random.Random(3)
    n_patterns = 128  # 2 lanes
    patterns = [
        {pi: rng.getrandbits(1) for pi in c.inputs}
        for _ in range(n_patterns)
    ]
    lanes = n_patterns // 64
    input_words = {}
    for pi in c.inputs:
        arr = np.zeros(lanes, dtype=np.uint64)
        for j, p in enumerate(patterns):
            if p[pi]:
                arr[j // 64] |= np.uint64(1) << np.uint64(j % 64)
        input_words[pi] = arr
    result = simulate_words_numpy(c, input_words)
    for j in (0, 1, 63, 64, 100, 127):
        scalar = simulate(c, patterns[j])
        for sig in c.nodes:
            bit = int(result[sig][j // 64] >> np.uint64(j % 64)) & 1
            assert bit == scalar[sig], (sig, j)


def test_numpy_variant_rejects_empty():
    c = random_circuit(n_inputs=3, n_outputs=1, n_gates=5, seed=1)
    with pytest.raises(ValueError):
        simulate_words_numpy(c, {})


def test_numpy_variant_rejects_mismatched_lane_counts():
    """Regression: mismatched input lanes used to surface as an opaque
    broadcast error deep in gate evaluation (or be silently ignored)."""
    c = random_circuit(n_inputs=3, n_outputs=1, n_gates=5, seed=1)
    words = {pi: np.zeros(2, dtype=np.uint64) for pi in c.inputs}
    words[c.inputs[1]] = np.zeros(3, dtype=np.uint64)
    with pytest.raises(ValueError, match="lane count mismatch"):
        simulate_words_numpy(c, words)
    good = {pi: np.zeros(2, dtype=np.uint64) for pi in c.inputs}
    with pytest.raises(ValueError, match="lane count mismatch"):
        simulate_words_numpy(
            c, good, forced_words={c.gate_names[0]: np.zeros(1, dtype=np.uint64)}
        )


def test_pack_patterns_defaults_missing_inputs_to_zero():
    """Regression: a pattern omitting an input used to raise KeyError while
    simulate_words defaulted the same input to 0."""
    words = pack_patterns([{"a": 1}, {"b": 1}, {"a": 1, "b": 1}], ["a", "b"])
    assert words == {"a": 0b101, "b": 0b110}
    c = random_circuit(n_inputs=3, n_outputs=2, n_gates=10, seed=2)
    partial = [{c.inputs[0]: 1}, {}]
    packed = pack_patterns(partial, c.inputs)
    batch = simulate_words(c, packed, len(partial))
    completed = [
        {pi: p.get(pi, 0) for pi in c.inputs} for p in partial
    ]
    for j, vec in enumerate(completed):
        scalar = simulate(c, vec)
        for sig in c.nodes:
            assert (batch[sig] >> j) & 1 == scalar[sig]


def test_pack_patterns_numpy_matches_int_packing():
    c = random_circuit(n_inputs=5, n_outputs=2, n_gates=12, seed=3)
    rng = random.Random(3)
    patterns = [
        {pi: rng.getrandbits(1) for pi in c.inputs} for _ in range(130)
    ]
    ints = pack_patterns(patterns, c.inputs)
    lanes_map, lanes = pack_patterns_numpy(patterns, c.inputs)
    assert lanes == 3  # 130 patterns -> 3 uint64 lanes
    for name in c.inputs:
        word = sum(int(v) << (64 * l) for l, v in enumerate(lanes_map[name]))
        assert word == ints[name]


def test_pack_patterns_numpy_defaults_missing_inputs_to_zero():
    """Symmetry with pack_patterns: omitted inputs pack as 0."""
    lanes_map, lanes = pack_patterns_numpy(
        [{"a": 1}, {"b": 1}, {"a": 1, "b": 1}], ["a", "b"]
    )
    assert lanes == 1
    assert int(lanes_map["a"][0]) == 0b101
    assert int(lanes_map["b"][0]) == 0b110


def test_pack_patterns_rejects_unknown_input_names():
    """Symmetry fix: an assignment to a name outside ``inputs`` is a
    ValueError in both packers, not a silent drop."""
    with pytest.raises(ValueError, match="unknown input"):
        pack_patterns([{"a": 1}, {"a": 0, "typo": 1}], ["a"])
    with pytest.raises(ValueError, match="unknown input"):
        pack_patterns_numpy([{"a": 1}, {"a": 0, "typo": 1}], ["a"])


def test_pack_patterns_keeps_the_low_bit_of_any_int():
    """Every value packs as ``value & 1``: bools, small ints, and ints
    outside a byte (negative or wider than 64 bits) alike; one input
    and no input pack too."""
    values = [True, False, 0, 1, 2, 3, 255, 256, -1, -2, 2**70 + 1]
    patterns = [{"a": v, "b": 1} for v in values]
    words = pack_patterns(patterns, ["a", "b"])
    assert words["a"] == sum((v & 1) << j for j, v in enumerate(values))
    assert words["b"] == (1 << len(values)) - 1
    assert pack_patterns(patterns[:4], ["a", "b"])["a"] == 0b1001
    assert pack_patterns([{"a": 1}, {}, {"a": 1}], ["a"]) == {"a": 0b101}
    assert pack_patterns([{}, {}], []) == {}
    with pytest.raises(ValueError, match="unknown input"):
        pack_patterns([{}, {"a": 1}], [])


def test_pack_patterns_unknown_name_error_names_the_pattern():
    with pytest.raises(ValueError, match=r"pattern 2 .*'b'"):
        pack_patterns([{"a": 1}, {"a": 0}, {"b": 1}], ["a"])
