"""Tests for SAT-based diagnosis (BSAT) construction and enumeration."""

import pytest

from repro.circuits.library import FIG5A_TEST
from repro.diagnosis import (
    basic_sat_diagnose,
    build_diagnosis_instance,
    is_valid_correction,
)
from repro.sim import simulate
from repro.testgen import Test, TestSet


@pytest.fixture
def fig5a_tests():
    vec, out, val = FIG5A_TEST
    return TestSet((Test(vec, out, val),))


def test_instance_shapes(fig5a_circuit, fig5a_tests):
    inst = build_diagnosis_instance(fig5a_circuit, fig5a_tests, k_max=2)
    assert set(inst.select_of) == set(fig5a_circuit.gate_names)
    assert len(inst.correction_of) == len(fig5a_tests) * len(
        fig5a_circuit.gate_names
    )
    # every signal of every copy has a variable
    for i in range(len(fig5a_tests)):
        for sig in fig5a_circuit.nodes:
            assert (i, sig) in inst.signal_of


def test_suspect_restriction(fig5a_circuit, fig5a_tests):
    inst = build_diagnosis_instance(
        fig5a_circuit, fig5a_tests, k_max=1, suspects=["A", "D"]
    )
    assert set(inst.select_of) == {"A", "D"}
    result = basic_sat_diagnose(
        fig5a_circuit, fig5a_tests, k=1, suspects=["B", "C"]
    )
    # B and C alone cannot rectify, but together they can — not at k=1.
    assert result.solutions == ()
    result2 = basic_sat_diagnose(
        fig5a_circuit, fig5a_tests, k=2, suspects=["B", "C"]
    )
    assert set(result2.solutions) == {frozenset({"B", "C"})}


def test_invalid_suspect_rejected(fig5a_circuit, fig5a_tests):
    with pytest.raises(ValueError):
        build_diagnosis_instance(
            fig5a_circuit, fig5a_tests, k_max=1, suspects=["i1"]
        )


def test_k_validation(fig5a_circuit, fig5a_tests):
    with pytest.raises(ValueError):
        basic_sat_diagnose(fig5a_circuit, fig5a_tests, k=0)


def test_missing_input_in_vector(fig5a_circuit):
    bad = TestSet((Test({"i1": 1}, "D", 1),))
    with pytest.raises(ValueError, match="primary input"):
        build_diagnosis_instance(fig5a_circuit, bad, k_max=1)


def test_sequential_circuit_rejected(s27, fig5a_tests):
    with pytest.raises(ValueError, match="combinational"):
        build_diagnosis_instance(s27, fig5a_tests, k_max=1)


def test_correction_values_witness(fig5a_circuit, fig5a_tests):
    """The injected c values must actually rectify the test when forced."""
    result = basic_sat_diagnose(
        fig5a_circuit, fig5a_tests, k=2, collect_corrections=True
    )
    corrections = result.extras["corrections"]
    vec, out, val = FIG5A_TEST
    for sol, per_gate in corrections.items():
        for i, test in enumerate(fig5a_tests):
            forced = {}
            for g, vals in per_gate.items():
                if vals[i] != -1:
                    forced[g] = vals[i]
            values = simulate(fig5a_circuit, test.vector, forced=forced)
            assert values[test.output] == test.value, (sol, forced)


def test_solution_limit(double_error_workload):
    w = double_error_workload
    limited = basic_sat_diagnose(w.faulty, w.tests, k=2, solution_limit=3)
    assert limited.n_solutions <= 3
    if limited.n_solutions == 3:
        assert not limited.complete


def test_solutions_sorted_by_size(double_error_workload):
    """Incremental bound: all size-1 solutions precede size-2 ones."""
    w = double_error_workload
    result = basic_sat_diagnose(w.faulty, w.tests, k=2)
    sizes = [len(s) for s in result.solutions]
    assert sizes == sorted(sizes)


def test_no_duplicate_solutions(double_error_workload):
    w = double_error_workload
    result = basic_sat_diagnose(w.faulty, w.tests, k=2)
    assert len(set(result.solutions)) == result.n_solutions
    # superset-freeness (essential candidates only)
    for a in result.solutions:
        for b in result.solutions:
            assert not (a < b)


def test_select_zero_clauses_preserve_solutions(tiny_workload):
    w = tiny_workload
    plain = basic_sat_diagnose(w.faulty, w.tests, k=2)
    pruned = basic_sat_diagnose(
        w.faulty, w.tests, k=2, select_zero_clauses=True
    )
    assert set(plain.solutions) == set(pruned.solutions)


def test_constrain_all_outputs_subset(tiny_workload):
    """All-outputs solutions are a subset of single-output solutions."""
    from repro.testgen import random_failing_tests

    w = tiny_workload
    tests = random_failing_tests(
        w.golden, w.faulty, m=4, seed=55, attach_expected=True
    )
    loose = basic_sat_diagnose(w.faulty, tests, k=2)
    strict = basic_sat_diagnose(
        w.faulty, tests, k=2, constrain_all_outputs=True
    )
    for sol in strict.solutions:
        # a strict solution must be valid in the loose sense, hence it is
        # either a loose solution or the superset of one
        assert any(l <= sol for l in loose.solutions)


def test_constrain_all_outputs_requires_expected(tiny_workload):
    w = tiny_workload
    with pytest.raises(ValueError, match="expected_outputs"):
        basic_sat_diagnose(
            w.faulty, w.tests, k=1, constrain_all_outputs=True
        )


def test_stats_exposed(tiny_workload):
    w = tiny_workload
    result = basic_sat_diagnose(w.faulty, w.tests, k=1)
    assert "solver_stats" in result.extras
    assert result.extras["n_vars"] > 0
    assert result.t_build > 0
    assert result.t_all >= 0


def test_error_sites_recoverable(tiny_workload):
    """With k >= p, some solution contains (or is near) the actual site —
    for p=1 the site itself must appear in at least one solution."""
    w = tiny_workload
    result = basic_sat_diagnose(w.faulty, w.tests, k=1)
    assert any(w.sites[0] in sol for sol in result.solutions)


def test_huge_k_stops_at_pool_size(fig5a_circuit, fig5a_tests, monkeypatch):
    """Bounds past the suspect pool admit nothing new, so an absurd ``k``
    runs exactly the solves of ``k = |pool|``: one per solution plus one
    closing UNSAT call per bound and the empty-correction probe — at most
    |pool| + 1 calls that return no model."""
    from repro.sat.solver import Solver

    outcomes = []
    original = Solver.solve

    def counting_solve(self, *args, **kwargs):
        outcomes.append(original(self, *args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(Solver, "solve", counting_solve)
    pool = len(fig5a_circuit.gate_names)
    reference = basic_sat_diagnose(fig5a_circuit, fig5a_tests, k=pool)
    reference_outcomes = list(outcomes)
    outcomes.clear()
    huge = basic_sat_diagnose(fig5a_circuit, fig5a_tests, k=10**6)
    assert set(huge.solutions) == set(reference.solutions)
    assert huge.complete
    assert outcomes == reference_outcomes
    assert outcomes.count(True) == len(huge.solutions)
    assert len(outcomes) - outcomes.count(True) <= pool + 1
