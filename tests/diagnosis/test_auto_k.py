"""Tests for automatic error-cardinality determination (auto-k BSAT)."""

import pytest

from repro.circuits.library import FIG5B_TEST
from repro.diagnosis import auto_k_sat_diagnose, basic_sat_diagnose
from repro.testgen import Test, TestSet


def test_auto_k_finds_minimal_cardinality(tiny_workload):
    """Single-error workload: auto-k must settle at k=1."""
    w = tiny_workload
    result = auto_k_sat_diagnose(w.faulty, w.tests, k_max=3)
    assert result.extras["k_found"] == 1
    reference = basic_sat_diagnose(w.faulty, w.tests, k=1)
    assert set(result.solutions) == set(reference.solutions)


def test_auto_k_on_fig5b(fig5b_circuit):
    """Fig 5(b) has size-1 corrections ({C},{D},{E}): k_found == 1."""
    vec, out, val = FIG5B_TEST
    tests = TestSet((Test(vec, out, val),))
    result = auto_k_sat_diagnose(fig5b_circuit, tests, k_max=2)
    assert result.extras["k_found"] == 1
    assert frozenset({"C"}) in set(result.solutions)


def test_auto_k_requires_larger_k(fig5b_circuit):
    """Restricted to suspects {A, B}, no size-1 correction exists: auto-k
    must move to k=2 and find {A, B}."""
    vec, out, val = FIG5B_TEST
    tests = TestSet((Test(vec, out, val),))
    result = auto_k_sat_diagnose(
        fig5b_circuit, tests, k_max=3, suspects=["A", "B"]
    )
    assert result.extras["k_found"] == 2
    assert set(result.solutions) == {frozenset({"A", "B"})}


def test_auto_k_exhausted(fig5a_circuit):
    """Suspects that can never rectify: k_found is None, no solutions."""
    from repro.circuits.library import FIG5A_TEST

    vec, out, val = FIG5A_TEST
    tests = TestSet((Test(vec, out, val),))
    result = auto_k_sat_diagnose(
        fig5a_circuit, tests, k_max=1, suspects=["B"]
    )
    assert result.extras["k_found"] is None
    assert result.solutions == ()


def test_auto_k_validation(tiny_workload):
    with pytest.raises(ValueError):
        auto_k_sat_diagnose(tiny_workload.faulty, tiny_workload.tests, k_max=0)


def test_auto_k_huge_k_max_stops_at_pool_size(fig5a_circuit, monkeypatch):
    """No correction is larger than the suspect pool, so an absurd
    ``k_max`` probes at most |pool| bounds before reporting exhaustion."""
    from repro.circuits.library import FIG5A_TEST
    from repro.sat.solver import Solver

    calls = []
    original = Solver.solve

    def counting_solve(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counting_solve)
    tests = TestSet((Test(*FIG5A_TEST),))
    pool = ["B"]
    reference = auto_k_sat_diagnose(
        fig5a_circuit, tests, k_max=len(pool), suspects=pool
    )
    reference_calls = len(calls)
    calls.clear()
    huge = auto_k_sat_diagnose(
        fig5a_circuit, tests, k_max=10**6, suspects=pool
    )
    assert huge.solutions == reference.solutions == ()
    assert huge.extras["k_found"] is None and huge.complete
    assert len(calls) == reference_calls <= len(pool) + 1
