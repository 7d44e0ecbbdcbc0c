"""Tests for the DiagnosisSession candidate-space core.

Three layers: unit tests of the session/space caches and oracles,
cross-engine agreement of the two candidate-scoring backends, and the
compatibility-wrapper regression — every legacy diagnosis entry point
must return bit-identical solutions to its pre-refactor behaviour on the
pinned library-circuit workloads (``pinned_wrappers.json`` was generated
by running the pre-refactor code).
"""

import json
from pathlib import Path

import pytest

from repro.circuits import library, random_circuit
from repro.diagnosis import (
    DIAGNOSIS_STRATEGIES,
    DiagnosisSession,
    Observation,
    auto_k_sat_diagnose,
    available_strategies,
    basic_sat_diagnose,
    basic_sim_diagnose,
    diagnose,
    dominator_sat_diagnose,
    enumerate_sim_corrections,
    incremental_sim_diagnose,
    is_valid_correction,
    partitioned_sat_diagnose,
    pt_guided_sat_diagnose,
    repair_correction_sat,
    sc_diagnose,
    select_zero_sat_diagnose,
    xlist_diagnose,
)
from repro.diagnosis.validity import valid_single_gate_corrections
from repro.experiments import make_workload
from repro.sim import simulate
from repro.testgen.testset import Test, TestSet

PINNED = json.loads(
    (Path(__file__).parent / "pinned_wrappers.json").read_text()
)


def _canon(solutions):
    return sorted(tuple(sorted(s)) for s in solutions)


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------
def test_observation_roundtrip():
    t = Test({"a": 1, "b": 0}, "o", 1, expected_outputs={"o": 1})
    obs = Observation.from_test(t)
    assert obs.observed_value == 0
    back = obs.to_test()
    assert back.vector == t.vector
    assert back.output == t.output and back.value == t.value
    assert back.expected_outputs == t.expected_outputs


# ----------------------------------------------------------------------
# session basics
# ----------------------------------------------------------------------
def test_session_validation(tiny_workload, s27):
    w = tiny_workload
    with pytest.raises(ValueError):
        DiagnosisSession(w.faulty, TestSet(()))
    with pytest.raises(ValueError):
        DiagnosisSession(s27, w.tests)  # sequential circuit
    with pytest.raises(ValueError):
        DiagnosisSession(w.faulty, w.tests, constrain_all_outputs=True)
    session = DiagnosisSession(w.faulty, w.tests)
    with pytest.raises(IndexError):
        session.observation_values(session.m)
    with pytest.raises(ValueError):
        session.space(("not-a-gate",))


def test_session_responses_match_scalar_simulation(tiny_workload):
    w = tiny_workload
    session = DiagnosisSession(w.faulty, w.tests)
    responses = session.responses()
    for j, test in enumerate(w.tests):
        values = simulate(w.faulty, test.vector)
        for out in w.faulty.outputs:
            assert ((responses[out] >> j) & 1) == values[out]
        assert session.observation_values(j) == values


def test_failing_word_all_tests_fail(double_error_workload):
    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    assert session.failing_word() == session.all_mask


def test_score_and_consistent_match_exact_oracle(double_error_workload):
    import random

    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    rng = random.Random(5)
    gates = list(w.faulty.gate_names)
    for _ in range(12):
        subset = rng.sample(gates, rng.randint(1, 3))
        expected = is_valid_correction(w.faulty, w.tests, subset)
        assert session.consistent(subset) == expected
        score = session.score(subset)
        assert 0 <= score <= session.m
        assert (score == session.m) == expected
    # memoized: the same candidate hits the cache
    subset = frozenset(gates[:2])
    assert session.rect_word(subset) == session.rect_word(subset)


def test_what_if_restores_state(tiny_workload):
    w = tiny_workload
    session = DiagnosisSession(w.faulty, w.tests)
    before = session.sim.output_lanes().copy()
    gate = w.faulty.gate_names[0]
    session.what_if({gate: 1})
    after = session.sim.output_lanes()
    assert (before == after).all()


def test_sim_result_matches_basic_sim_diagnose(double_error_workload):
    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    for policy in ("first", "lowest", "highest", "random", "all"):
        direct = basic_sim_diagnose(w.faulty, w.tests, policy=policy)
        cached = session.sim_result(policy=policy)
        assert cached.candidate_sets == direct.candidate_sets
        assert cached.marks == direct.marks
        # cached: same object on repeat call
        assert session.sim_result(policy=policy) is cached


# ----------------------------------------------------------------------
# candidate space: the two scoring engines agree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [301, 302, 303])
def test_space_engines_agree(seed):
    circuit = random_circuit(n_inputs=6, n_outputs=3, n_gates=30, seed=seed)
    w = make_workload(circuit, p=1, m_max=5, seed=seed, allow_fewer=True)
    session = DiagnosisSession(w.faulty, w.tests)
    space = session.space()
    # The sweep's words against the per-gate, per-test oracle.
    assert space.singleton_rect_words() == {
        g: sum(
            1 << j
            for j, test in enumerate(w.tests)
            if is_valid_correction(w.faulty, [test], (g,))
        )
        for g in space.pool
    }
    for j in range(session.m):
        assert space.rectifying_gates(j) == space.fault_list_candidates(j)


def test_space_singletons_match_legacy_checker(double_error_workload):
    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    pool = list(w.faulty.gate_names)
    assert session.space(pool).singletons() == valid_single_gate_corrections(
        w.faulty, w.tests, pool
    )


def test_refine_narrows_pool(double_error_workload):
    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    sub = list(w.faulty.gate_names[:5])
    space = session.refine(sub)
    assert space.pool == tuple(sub)
    assert session.space(tuple(sub)) is space  # cached
    marks = space.marks()
    assert set(marks) == set(sub)


def test_cone_conflict_is_sound(double_error_workload):
    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    space = session.space()
    sat = basic_sat_diagnose(w.faulty, w.tests, k=2)
    for j in range(session.m):
        cone = space.cone_conflict(j)
        for sol in sat.solutions:
            assert sol & cone, (j, sol)


def test_rectify_solver_agrees_with_oracle(double_error_workload):
    import random

    w = double_error_workload
    session = DiagnosisSession(w.faulty, w.tests)
    pool = list(w.faulty.gate_names)
    rng = random.Random(9)
    for j in range(min(3, session.m)):
        solver, select_of = session.rectify_solver(j, pool)
        # cached per (observation, pool)
        assert session.rectify_solver(j, pool)[0] is solver
        for _ in range(4):
            h = rng.sample(pool, rng.randint(1, 3))
            assumptions = [-select_of[g] for g in pool if g not in h]
            sat = bool(solver.solve(assumptions=assumptions))
            expected = bool(session.rect_word(h) & (1 << j))
            assert sat == expected, (j, h)


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------
def test_registry_contents():
    names = available_strategies()
    for expected in (
        "bsat",
        "cov",
        "adv-sim",
        "inc-sim",
        "pt-guided",
        "greedy-stochastic",
        "ihs",
        "single-fix",
    ):
        assert expected in names
    for name in names:
        info = DIAGNOSIS_STRATEGIES[name]
        assert callable(info.fn) and info.summary
        assert info.kinds and all(isinstance(k, str) for k in info.kinds)


def test_diagnose_dispatch(tiny_workload):
    w = tiny_workload
    direct = basic_sat_diagnose(w.faulty, w.tests, k=2)
    via_pair = diagnose(w.faulty, w.tests, k=2, strategy="bsat")
    session = DiagnosisSession(w.faulty, w.tests)
    via_session = diagnose(session, k=2, strategy="bsat")
    assert set(direct.solutions) == set(via_pair.solutions)
    assert set(direct.solutions) == set(via_session.solutions)
    with pytest.raises(ValueError):
        diagnose(w.faulty, w.tests, strategy="no-such-strategy")
    with pytest.raises(ValueError):
        diagnose(session, w.tests, strategy="bsat")
    with pytest.raises(ValueError):
        diagnose(w.faulty, None, strategy="bsat")


def test_single_fix_strategy_matches_oracle(tiny_workload):
    w = tiny_workload
    result = diagnose(w.faulty, w.tests, strategy="single-fix")
    expected = valid_single_gate_corrections(
        w.faulty, w.tests, list(w.faulty.gate_names)
    )
    assert _canon(result.solutions) == _canon([{g} for g in expected])


def test_register_twice_rejected():
    from repro.diagnosis import register_strategy

    with pytest.raises(ValueError):
        register_strategy("bsat", "duplicate")(lambda s, k: None)


# ----------------------------------------------------------------------
# compatibility wrappers: bit-identical to pre-refactor behaviour
# ----------------------------------------------------------------------
def _pinned_workload(name):
    circuit = {
        "c17": library.c17,
        "rca4": lambda: library.ripple_carry_adder(4),
        "mux2": lambda: library.mux_tree(2),
    }[name]()
    p, m, seed = {"c17": (1, 4, 11), "rca4": (2, 6, 7), "mux2": (2, 6, 3)}[
        name
    ]
    return make_workload(circuit, p=p, m_max=m, seed=seed, allow_fewer=True)


@pytest.fixture(scope="module", params=sorted(PINNED))
def pinned_case(request):
    return request.param, _pinned_workload(request.param), PINNED[request.param]


def test_pinned_workload_reproduces(pinned_case):
    name, w, expected = pinned_case
    assert sorted(w.sites) == expected["sites"]
    assert len(w.tests) == expected["m"]


def test_wrappers_bit_identical_to_pre_refactor(pinned_case):
    name, w, expected = pinned_case
    k = max(2, w.p)
    session = DiagnosisSession(w.faulty, w.tests)
    gmax = sorted(basic_sim_diagnose(w.faulty, w.tests).gmax)
    assert gmax == expected["bsim_gmax"]
    runs = {
        "bsat": lambda s: basic_sat_diagnose(
            w.faulty, w.tests, k=k, session=s
        ),
        "autok": lambda s: auto_k_sat_diagnose(w.faulty, w.tests, k_max=k),
        "cov": lambda s: sc_diagnose(w.faulty, w.tests, k=k, session=s),
        "advsim": lambda s: enumerate_sim_corrections(
            w.faulty, w.tests, k=k, session=s
        ),
        "incsim": lambda s: incremental_sim_diagnose(
            w.faulty, w.tests, k=k, session=s
        ),
        "ptsat": lambda s: pt_guided_sat_diagnose(
            w.faulty, w.tests, k=k, session=s
        ),
        "sz": lambda s: select_zero_sat_diagnose(w.faulty, w.tests, k=k),
        "dom": lambda s: dominator_sat_diagnose(w.faulty, w.tests, k=k),
        "part": lambda s: partitioned_sat_diagnose(
            w.faulty, w.tests, k=k, chunk=3
        ),
        "xlist": lambda s: xlist_diagnose(w.faulty, w.tests, k=1),
        "repair": lambda s: repair_correction_sat(
            w.faulty,
            w.tests,
            initial=expected["bsim_gmax"][:1] or list(w.sites)[:1],
            k=k,
            session=s,
        ),
    }
    for key, run in runs.items():
        got = _canon(run(session).solutions)
        assert got == [tuple(sol) for sol in expected[key]], (name, key)
        # and identically without a session (standalone wrapper path)
        got_standalone = _canon(run(None).solutions)
        assert got_standalone == got, (name, key)


def test_diagnose_default_k_lets_search_loops_self_determine():
    """Regression: diagnose() must not force k=1 onto the search loops."""
    circuit = random_circuit(n_inputs=8, n_outputs=4, n_gates=60, seed=702)
    w = make_workload(circuit, p=2, m_max=10, seed=2, allow_fewer=True)
    session = DiagnosisSession(w.faulty, w.tests)
    ihs = diagnose(session, strategy="ihs")
    assert ihs.solutions and ihs.k == 2
    greedy = diagnose(session, strategy="greedy-stochastic")
    assert greedy.solutions
    assert any(len(sol) == 2 for sol in greedy.solutions)


def test_session_mismatched_constraint_flag_not_silently_applied():
    """Regression: a caller's constrain_all_outputs must win over the
    session's flag when the two disagree."""
    circuit = random_circuit(n_inputs=6, n_outputs=3, n_gates=25, seed=302)
    w = make_workload(circuit, p=1, m_max=4, seed=6, attach_expected=True)
    session = DiagnosisSession(w.faulty, w.tests)  # single-output flag
    strict_direct = basic_sat_diagnose(
        w.faulty, w.tests, k=2, constrain_all_outputs=True
    )
    strict_via_session = basic_sat_diagnose(
        w.faulty, w.tests, k=2, constrain_all_outputs=True, session=session
    )
    assert set(strict_via_session.solutions) == set(strict_direct.solutions)
    loose = basic_sat_diagnose(w.faulty, w.tests, k=2, session=session)
    # the strict semantics must actually constrain (subset of the loose)
    assert set(strict_direct.solutions) <= set(loose.solutions)
