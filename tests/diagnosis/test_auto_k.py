"""Tests for automatic error-cardinality determination (auto-k BSAT)."""

import pytest

from repro.circuits.library import FIG5B_TEST
from repro.diagnosis import (
    DiagnosisSession,
    auto_k_sat_diagnose,
    basic_sat_diagnose,
)
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


# ----------------------------------------------------------------------
# bound 1 from the session's forced-value sweep
# ----------------------------------------------------------------------
def _single_error_workloads():
    from repro.circuits import library
    from repro.experiments import make_workload

    circuit = library.get_circuit("sim1423")
    return [
        make_workload(circuit, p=1, m_max=4, seed=seed, allow_fewer=True)
        for seed in (1, 2, 3)
    ]


def _fig5b_tests():
    vec, out, val = FIG5B_TEST
    return TestSet((Test(vec, out, val),))


def test_session_auto_k_answers_bound_one_from_the_sweep(tiny_workload):
    """Single-error devices: the session answer is the singleton layer,
    equal to the standalone SAT answer, and no instance is built."""
    for w in [tiny_workload, *_single_error_workloads()]:
        session = DiagnosisSession(w.faulty, w.tests)
        swept = auto_k_sat_diagnose(
            w.faulty, w.tests, k_max=2, session=session
        )
        sat = auto_k_sat_diagnose(w.faulty, w.tests, k_max=2)
        assert swept.extras["k_found"] == sat.extras["k_found"] == 1
        assert set(swept.solutions) == set(sat.solutions)
        assert swept.complete and sat.complete
        assert not session._instances
        # Pool order: the layer is the session's singletons, in order.
        assert [next(iter(s)) for s in swept.solutions] == (
            session.space().singletons()
        )


def test_session_auto_k_nothing_fails(tiny_workload):
    w = tiny_workload
    passing = TestSet(
        tuple(Test(dict(t.vector), t.output, t.value ^ 1) for t in w.tests)
    )
    session = DiagnosisSession(w.faulty, passing)
    swept = auto_k_sat_diagnose(w.faulty, passing, k_max=2, session=session)
    sat = auto_k_sat_diagnose(w.faulty, passing, k_max=2)
    assert swept.solutions == sat.solutions == (frozenset(),)
    assert swept.extras["k_found"] == sat.extras["k_found"] == 1
    assert swept.complete and sat.complete
    assert not session._instances


def test_session_auto_k_empty_pool(tiny_workload):
    w = tiny_workload
    session = DiagnosisSession(w.faulty, w.tests)
    swept = auto_k_sat_diagnose(
        w.faulty, w.tests, k_max=3, session=session, suspects=[]
    )
    sat = auto_k_sat_diagnose(w.faulty, w.tests, k_max=3, suspects=[])
    assert swept.solutions == sat.solutions == ()
    assert swept.extras["k_found"] is sat.extras["k_found"] is None
    assert swept.complete and sat.complete
    assert not session._instances


def test_session_auto_k_max_one_without_singletons(fig5b_circuit):
    """No singleton in the pool and ``k_max=1``: the sweep alone decides
    the (empty, complete) answer."""
    tests = _fig5b_tests()
    session = DiagnosisSession(fig5b_circuit, tests)
    swept = auto_k_sat_diagnose(
        fig5b_circuit, tests, k_max=1, session=session, suspects=["A", "B"]
    )
    sat = auto_k_sat_diagnose(
        fig5b_circuit, tests, k_max=1, suspects=["A", "B"]
    )
    assert swept.solutions == sat.solutions == ()
    assert swept.extras["k_found"] is sat.extras["k_found"] is None
    assert swept.complete and sat.complete
    assert not session._instances


def test_session_auto_k_solution_limit(tiny_workload):
    for w in [tiny_workload, *_single_error_workloads()]:
        session = DiagnosisSession(w.faulty, w.tests)
        layer = auto_k_sat_diagnose(
            w.faulty, w.tests, k_max=2, session=session
        )
        first = auto_k_sat_diagnose(
            w.faulty, w.tests, k_max=2, session=session, solution_limit=1
        )
        sat = auto_k_sat_diagnose(
            w.faulty, w.tests, k_max=2, solution_limit=1
        )
        roomy = auto_k_sat_diagnose(
            w.faulty, w.tests, k_max=2, session=session,
            solution_limit=len(layer.solutions) + 1,
        )
        assert first.solutions == layer.solutions[:1]
        assert len(sat.solutions) == 1
        assert set(first.solutions) <= set(layer.solutions)
        # basic_sat_diagnose's rule: a limit the layer reaches leaves
        # the answer incomplete, one it stays under does not.
        assert not first.complete and not sat.complete
        assert roomy.solutions == layer.solutions and roomy.complete
        assert not session._instances


def test_session_auto_k_skips_the_bound_one_probe(fig5b_circuit, monkeypatch):
    """No singleton: the SAT probes start at bound 2 and the solution set
    is the standalone one."""
    from repro.circuits.generator import random_circuit
    from repro.diagnosis.satdiag import DiagnosisInstance
    from repro.experiments import make_workload

    bounds = []
    original = DiagnosisInstance.bound_assumptions

    def recording(self, bound):
        bounds.append(bound)
        return original(self, bound)

    monkeypatch.setattr(DiagnosisInstance, "bound_assumptions", recording)
    # Two gate-change errors with no valid single-gate correction.
    two_errors = make_workload(
        random_circuit(n_inputs=6, n_outputs=3, n_gates=25, seed=303),
        p=2, m_max=8, seed=1,
    )
    cases = [
        (fig5b_circuit, _fig5b_tests(), {"suspects": ["A", "B"]}),
        (two_errors.faulty, two_errors.tests, {}),
    ]
    for circuit, case_tests, options in cases:
        session = DiagnosisSession(circuit, case_tests)
        assert not session.space(options.get("suspects")).singletons()
        sat = auto_k_sat_diagnose(circuit, case_tests, k_max=3, **options)
        bounds.clear()
        swept = auto_k_sat_diagnose(
            circuit, case_tests, k_max=3, session=session, **options
        )
        assert bounds[0] == 2
        assert swept.extras["k_found"] == sat.extras["k_found"] == 2
        assert set(swept.solutions) == set(sat.solutions)
        assert swept.complete and sat.complete


def test_session_auto_k_collect_corrections_keeps_the_sat_path(
    tiny_workload,
):
    w = tiny_workload
    session = DiagnosisSession(w.faulty, w.tests)
    result = auto_k_sat_diagnose(
        w.faulty, w.tests, k_max=2, session=session, collect_corrections=True
    )
    assert session._instances
    assert set(result.extras["corrections"]) == set(result.solutions)
    for witness in result.extras["corrections"].values():
        assert witness
    swept = auto_k_sat_diagnose(
        w.faulty, w.tests, k_max=2, session=DiagnosisSession(w.faulty, w.tests)
    )
    assert set(result.solutions) == set(swept.solutions)


def test_budget_tripped_during_the_sweep_builds_no_instance(fig5b_circuit):
    from repro.sat.budget import Budget

    tests = _fig5b_tests()
    session = DiagnosisSession(fig5b_circuit, tests)
    pool = ["A", "B"]
    # Trips once the sweep has run: the poll before it passes, the one
    # between the sweep and the build stops the run.
    budget = Budget(should_stop=lambda: session.space(pool).swept)
    result = auto_k_sat_diagnose(
        fig5b_circuit, tests, k_max=3, session=session, suspects=pool,
        budget=budget,
    )
    assert result.extras["cancelled"] is True
    assert result.solutions == () and not result.complete
    assert budget.interrupted
    assert session.space(pool).swept
    assert not session._instances
