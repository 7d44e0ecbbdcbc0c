"""Tests for valid-correction / essential-candidate checking (Defs. 3-4)."""

import pytest

from repro.circuits.library import FIG5A_TEST, FIG5B_TEST
from repro.diagnosis import (
    all_valid_corrections,
    has_only_essential_candidates,
    is_valid_correction,
    rectifiable_by_forcing,
)
from repro.diagnosis.validity import _rectifiable_sat
from repro.testgen import Test, TestSet


@pytest.fixture
def fig5a_tests():
    vec, out, val = FIG5A_TEST
    return TestSet((Test(vec, out, val),))


@pytest.fixture
def fig5b_tests():
    vec, out, val = FIG5B_TEST
    return TestSet((Test(vec, out, val),))


def test_fig5a_validity(fig5a_circuit, fig5a_tests):
    assert is_valid_correction(fig5a_circuit, fig5a_tests, {"A"})
    assert is_valid_correction(fig5a_circuit, fig5a_tests, {"D"})
    assert not is_valid_correction(fig5a_circuit, fig5a_tests, {"B"})
    assert not is_valid_correction(fig5a_circuit, fig5a_tests, {"C"})
    assert is_valid_correction(fig5a_circuit, fig5a_tests, {"B", "C"})


def test_fig5b_validity(fig5b_circuit, fig5b_tests):
    assert not is_valid_correction(fig5b_circuit, fig5b_tests, {"A"})
    assert not is_valid_correction(fig5b_circuit, fig5b_tests, {"B"})
    assert is_valid_correction(fig5b_circuit, fig5b_tests, {"A", "B"})


def test_essential_candidates(fig5b_circuit, fig5b_tests):
    assert has_only_essential_candidates(fig5b_circuit, fig5b_tests, {"A", "B"})
    # {E, A}: {E} alone is valid, so A is inessential.
    assert not has_only_essential_candidates(
        fig5b_circuit, fig5b_tests, {"E", "A"}
    )
    # invalid corrections are not "essential" either
    assert not has_only_essential_candidates(fig5b_circuit, fig5b_tests, {"B"})


def test_empty_correction_requires_passing(maj3):
    passing = Test({"a": 1, "b": 1, "c": 0}, "out", 1)  # circuit says 1
    failing = Test({"a": 1, "b": 1, "c": 0}, "out", 0)  # demand 0: fails
    assert rectifiable_by_forcing(maj3, passing, ())
    assert not rectifiable_by_forcing(maj3, failing, ())


def test_sim_and_sat_checkers_agree(fig5a_circuit, fig5a_tests):
    from itertools import combinations

    gates = fig5a_circuit.gate_names
    test = fig5a_tests[0]
    for size in (1, 2):
        for subset in combinations(gates, size):
            sim = rectifiable_by_forcing(fig5a_circuit, test, subset)
            sat = _rectifiable_sat(fig5a_circuit, test, subset, False)
            assert sim == sat, subset


def test_constrain_all_outputs_stricter(tiny_workload):
    """All-outputs validity implies single-output validity but not vice
    versa (other outputs may break)."""
    from repro.testgen import random_failing_tests

    w = tiny_workload
    tests = random_failing_tests(
        w.golden, w.faulty, m=4, seed=77, attach_expected=True
    )
    corrections = all_valid_corrections(w.faulty, tests, k=1)
    for c in corrections:
        if is_valid_correction(
            w.faulty, tests, c, constrain_all_outputs=True
        ):
            assert is_valid_correction(w.faulty, tests, c)


def test_constrain_all_outputs_requires_expected(maj3):
    t = Test({"a": 1, "b": 1, "c": 0}, "out", 0)
    with pytest.raises(ValueError, match="expected_outputs"):
        rectifiable_by_forcing(maj3, t, ("ab",), constrain_all_outputs=True)


def test_all_valid_corrections_essential_filtering(
    fig5b_circuit, fig5b_tests
):
    essential = all_valid_corrections(fig5b_circuit, fig5b_tests, k=2)
    everything = all_valid_corrections(
        fig5b_circuit, fig5b_tests, k=2, essential_only=False
    )
    assert set(essential) <= set(everything)
    # essential results contain no correction that is a superset of another
    for a in essential:
        for b in essential:
            assert not (a < b)
    # non-essential enumeration contains e.g. {E, A}
    assert frozenset({"E", "A"}) in set(everything)
    assert frozenset({"E", "A"}) not in set(essential)


def test_validity_monotone(fig5a_circuit, fig5a_tests):
    """Adding gates to a valid correction keeps it valid."""
    assert is_valid_correction(fig5a_circuit, fig5a_tests, {"A"})
    assert is_valid_correction(fig5a_circuit, fig5a_tests, {"A", "B"})
    assert is_valid_correction(fig5a_circuit, fig5a_tests, {"A", "B", "C", "D"})


def test_injected_error_sites_form_valid_correction(double_error_workload):
    """The ground-truth error sites always rectify the tests they caused."""
    w = double_error_workload
    assert is_valid_correction(w.faulty, w.tests, set(w.sites))


def test_batched_singleton_screen_matches_oracle():
    """valid_single_gate_corrections must equal the per-gate
    is_valid_correction oracle, in pool order, for both output modes."""
    import random

    from repro.circuits import random_circuit
    from repro.diagnosis.validity import valid_single_gate_corrections
    from repro.faults import random_gate_changes
    from repro.testgen import random_failing_tests

    checked = 0
    for seed in range(6):
        circuit = random_circuit(n_inputs=5, n_outputs=3, n_gates=18, seed=200 + seed)
        injection = random_gate_changes(circuit, p=1, seed=seed)
        try:
            tests = random_failing_tests(
                circuit, injection.faulty, m=4, seed=seed, attach_expected=True
            )
        except RuntimeError:
            continue
        pool = list(circuit.gate_names)
        assert valid_single_gate_corrections(injection.faulty, tests, pool) == [
            g for g in pool if is_valid_correction(injection.faulty, tests, (g,))
        ]
        assert valid_single_gate_corrections(
            injection.faulty, tests, pool, constrain_all_outputs=True
        ) == [
            g
            for g in pool
            if is_valid_correction(
                injection.faulty, tests, (g,), constrain_all_outputs=True
            )
        ]
        checked += 1
    assert checked >= 3


def test_batched_singleton_screen_edge_cases(fig5a_circuit, fig5a_tests):
    from repro.diagnosis.validity import valid_single_gate_corrections

    # Empty pool and empty test-set are vacuous.
    assert valid_single_gate_corrections(fig5a_circuit, fig5a_tests, []) == []
    assert valid_single_gate_corrections(fig5a_circuit, [], ["A", "B"]) == ["A", "B"]
    # TestSet.vectors() feeds the screen: order follows the test-set.
    assert fig5a_tests.vectors() == [dict(t.vector) for t in fig5a_tests]


def test_batched_screen_rejects_partial_expected_outputs(rca4):
    """constrain_all_outputs with a partial expected_outputs must raise
    (like the per-gate oracle), not silently assume missing outputs are 0."""
    from repro.diagnosis.validity import valid_single_gate_corrections

    vector = {pi: 0 for pi in rca4.inputs}
    out = rca4.outputs[0]
    partial = Test(vector, out, 1, expected_outputs={out: 1})
    with pytest.raises(KeyError):
        valid_single_gate_corrections(
            rca4, [partial], list(rca4.gate_names), constrain_all_outputs=True
        )


def test_singleton_rect_words_match_per_gate_oracle():
    """single_gate_rect_words (one sweep over the observed outputs'
    fan-in cones) must give every pool gate exactly the per-gate,
    per-test oracle's word, in both output modes."""
    from repro.circuits import random_circuit
    from repro.diagnosis.validity import single_gate_rect_words
    from repro.faults import random_gate_changes
    from repro.testgen import random_failing_tests

    checked = 0
    for seed in range(6):
        circuit = random_circuit(n_inputs=5, n_outputs=3, n_gates=20, seed=400 + seed)
        injection = random_gate_changes(circuit, p=1, seed=seed)
        try:
            tests = random_failing_tests(
                circuit, injection.faulty, m=5, seed=seed, attach_expected=True
            )
        except RuntimeError:
            continue
        pool = list(circuit.gate_names)
        for constrain in (False, True):
            words = single_gate_rect_words(
                injection.faulty, tests, pool, constrain_all_outputs=constrain
            )
            assert list(words) == pool
            for g in pool:
                assert words[g] == sum(
                    1 << j
                    for j, test in enumerate(tests)
                    if is_valid_correction(
                        injection.faulty,
                        [test],
                        (g,),
                        constrain_all_outputs=constrain,
                    )
                ), (seed, constrain, g)
        checked += 1
    assert checked >= 3


def test_singleton_screen_rejects_unknown_gate(maj3):
    """A pool gate that is not a circuit signal is rejected with the
    batch sweep's ValueError."""
    from repro.diagnosis.validity import valid_single_gate_corrections

    vector = {pi: 0 for pi in maj3.inputs}
    test = Test(vector, maj3.outputs[0], 1)
    with pytest.raises(ValueError, match="not a signal"):
        valid_single_gate_corrections(maj3, [test], ["no_such_gate"])
