"""Tests for the model-agnostic SystemDescription layer (PR 6).

Covers: the grouped-CNF and fault-spectrum instantiations end to end
through the model-agnostic strategies, the strategy-kind enforcement in
``diagnose``, the circuit-only guard rails on generic sessions, and the
session-threaded greedy seeding.
"""

import pytest

from repro.diagnosis import (
    ALL_SYSTEM_KINDS,
    DIAGNOSIS_STRATEGIES,
    CircuitSystem,
    DiagnosisSession,
    GroupedCNFSystem,
    SpectrumSystem,
    diagnose,
    greedy_stochastic_diagnose,
    strategy_kinds,
)
from repro.experiments import make_workload
from repro.sat.dimacs import GroupedCNF

MODEL_AGNOSTIC = [
    name
    for name in DIAGNOSIS_STRATEGIES
    if set(strategy_kinds(name)) >= set(ALL_SYSTEM_KINDS)
]


def _canon(solutions):
    return sorted(tuple(sorted(s)) for s in solutions)


@pytest.fixture()
def contradiction_gcnf():
    """g1: (x1), g2: (-x1), g3: (x2 v x3) — retract g1 or g2."""
    gcnf = GroupedCNF()
    gcnf.add_clause(1, [1])
    gcnf.add_clause(2, [-1])
    gcnf.add_clause(3, [2, 3])
    return gcnf


@pytest.fixture()
def spectrum():
    return SpectrumSystem.from_dict(
        {
            "components": ["a", "b", "c"],
            "rows": [
                {"covered": ["a", "b"], "passed": False},
                {"covered": ["b", "c"], "passed": False},
                {"covered": ["c"], "passed": True},
            ],
        }
    )


# ----------------------------------------------------------------------
# session plumbing
# ----------------------------------------------------------------------
def test_circuit_session_kind(tiny_workload):
    session = DiagnosisSession(tiny_workload.faulty, tiny_workload.tests)
    assert session.kind == "circuit"
    assert isinstance(session.system, CircuitSystem)
    assert session.system.components == tiny_workload.faulty.gate_names


def test_gcnf_session_basics(contradiction_gcnf):
    system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    session = DiagnosisSession(system)
    assert session.kind == "gcnf"
    assert session.circuit is None and session.tests is None
    assert session.system.components == ("g1", "g2", "g3")
    assert session.m == 1
    assert not session.consistent(())
    assert session.consistent(("g1",)) and session.consistent(("g2",))
    assert not session.consistent(("g3",))
    core = session.observation_core((), 0)
    assert core and core <= {"g1", "g2"}


def test_gcnf_session_rejects_circuit_arguments(contradiction_gcnf):
    system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    with pytest.raises(ValueError):
        DiagnosisSession(system, tests="not-none")


def test_generic_session_guards_circuit_operations(contradiction_gcnf):
    system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    session = DiagnosisSession(system)
    with pytest.raises(ValueError, match="requires a circuit"):
        session.sim(0)
    with pytest.raises(ValueError, match="requires a circuit"):
        session.rectify_solver(0, ["g1"])
    with pytest.raises(ValueError, match="requires a circuit"):
        session.fanin_gates("x")


def test_gcnf_validation():
    gcnf = GroupedCNF()
    with pytest.raises(ValueError):
        GroupedCNFSystem(gcnf, observations=[()])  # no groups
    gcnf.add_clause(1, [1])
    with pytest.raises(ValueError):
        GroupedCNFSystem(gcnf, observations=[])  # no observations
    with pytest.raises(ValueError):
        GroupedCNFSystem(gcnf, observations=[(2,)])  # literal out of range
    with pytest.raises(ValueError):
        GroupedCNFSystem(gcnf, observations=[()], component_names=["a", "b"])


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectrumSystem([], [])
    with pytest.raises(ValueError):
        SpectrumSystem(["a"], [])
    with pytest.raises(ValueError):
        SpectrumSystem(["a"], [(["b"], False)])  # unknown coverage


def test_space_validates_against_system(contradiction_gcnf):
    system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    session = DiagnosisSession(system)
    with pytest.raises(ValueError, match="not a component"):
        session.space(["g1", "nope"])


# ----------------------------------------------------------------------
# strategies across system kinds
# ----------------------------------------------------------------------
def test_gcnf_strategies_agree(contradiction_gcnf):
    system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    session = DiagnosisSession(system)
    expected = [("g1",), ("g2",)]
    for strategy in MODEL_AGNOSTIC:
        if strategy == "single-fix":
            continue  # separate shape (screen of singletons)
        result = diagnose(session, k=2, strategy=strategy)
        assert _canon(result.solutions) == expected, strategy


def test_spectrum_strategies_agree(spectrum):
    session = DiagnosisSession(spectrum)
    bsat = diagnose(session, k=3, strategy="bsat")
    assert _canon(bsat.solutions) == [("a", "c"), ("b",)]
    for strategy in ("hsdag", "fastdiag"):
        result = diagnose(session, k=3, strategy=strategy)
        assert _canon(result.solutions) == _canon(bsat.solutions), strategy
    ihs = diagnose(session, k=3, strategy="ihs")
    assert _canon(ihs.solutions) == [("b",)]  # minimum cardinality only
    greedy = diagnose(session, k=3, strategy="greedy-stochastic")
    assert set(greedy.solutions) <= set(bsat.solutions)


@pytest.mark.parametrize("kind", ["gcnf", "spectrum"])
def test_greedy_singleton_layer_equals_single_fix(
    kind, contradiction_gcnf, spectrum
):
    # The single-error relation on every system kind: greedy reports
    # the sweep's singleton layer whole, even past max_solutions.
    if kind == "gcnf":
        system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    else:
        system = spectrum
    single = diagnose(DiagnosisSession(system), strategy="single-fix")
    assert single.solutions and single.complete
    full = diagnose(DiagnosisSession(system), strategy="greedy-stochastic")
    assert {s for s in full.solutions if len(s) == 1} == set(single.solutions)
    first = diagnose(
        DiagnosisSession(system), strategy="greedy-stochastic",
        max_solutions=1,
    )
    assert set(first.solutions) == set(single.solutions)
    assert first.extras["climbs"] == 0


def _multi_observation_gcnf():
    # g1 forces x1; the two observations disagree about x1, so every
    # diagnosis must retract g1; g2 contradicts observation 2 directly.
    gcnf = GroupedCNF()
    gcnf.add_clause(1, [1])
    gcnf.add_clause(2, [2])
    return GroupedCNFSystem(gcnf, observations=[(1,), (-1, -2)])


@pytest.mark.parametrize("kind", ["gcnf", "spectrum", "gcnf-no-singleton"])
def test_auto_k_sweep_equals_sat_on_every_kind(
    kind, contradiction_gcnf, spectrum
):
    # bsat-auto-k reads bound 1 off the session's sweep; the answer is
    # the SAT enumeration's at the bound it reports.
    if kind == "gcnf":
        system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    elif kind == "spectrum":
        system = spectrum
    else:
        system = _multi_observation_gcnf()
    session = DiagnosisSession(system)
    swept = diagnose(session, k=3, strategy="bsat-auto-k")
    k = swept.extras["k_found"]
    sat = diagnose(DiagnosisSession(system), k=k, strategy="bsat")
    assert swept.solutions and swept.complete
    assert _canon(swept.solutions) == _canon(sat.solutions)
    # Bound 1 never needs an instance; bound 2 does.
    assert bool(session._instances) == (k > 1)
    witnessed = diagnose(
        DiagnosisSession(system), k=3, strategy="bsat-auto-k",
        collect_corrections=True,
    )
    assert _canon(witnessed.solutions) == _canon(sat.solutions)


def test_gcnf_with_multiple_observations():
    session = DiagnosisSession(_multi_observation_gcnf())
    result = diagnose(session, k=2, strategy="hsdag")
    assert _canon(result.solutions) == [("g1", "g2")]
    assert session.failing_word() == 0b10


def test_kind_enforcement(contradiction_gcnf):
    system = GroupedCNFSystem(contradiction_gcnf, observations=[()])
    session = DiagnosisSession(system)
    with pytest.raises(ValueError, match="supports system kinds"):
        diagnose(session, k=1, strategy="cov")
    with pytest.raises(ValueError, match="supports system kinds"):
        diagnose(session, k=1, strategy="pt-guided")


def test_model_agnostic_strategies_still_do_circuits(tiny_workload):
    session = DiagnosisSession(tiny_workload.faulty, tiny_workload.tests)
    reference = diagnose(session, k=2, strategy="bsat")
    for strategy in ("hsdag", "fastdiag"):
        result = diagnose(session, k=2, strategy=strategy)
        assert set(result.solutions) == set(reference.solutions), strategy


# ----------------------------------------------------------------------
# greedy seeding through the session
# ----------------------------------------------------------------------
def test_greedy_seed_defaults_to_session_seed():
    w = make_workload("c17", p=2, m_max=6, seed=7)
    seeded = DiagnosisSession(w.faulty, w.tests, seed=5)
    explicit = DiagnosisSession(w.faulty, w.tests)
    implicit_result = greedy_stochastic_diagnose(
        None, None, session=seeded, retries=8
    )
    explicit_result = greedy_stochastic_diagnose(
        None, None, session=explicit, seed=5, retries=8
    )
    assert implicit_result.solutions == explicit_result.solutions


def test_greedy_reproducible_per_kind(spectrum, contradiction_gcnf):
    for system_factory in (
        lambda: DiagnosisSession(
            SpectrumSystem(spectrum.components, spectrum.rows)
        ),
        lambda: DiagnosisSession(
            GroupedCNFSystem(contradiction_gcnf, observations=[()])
        ),
    ):
        a = greedy_stochastic_diagnose(
            None, None, session=system_factory(), retries=8
        )
        b = greedy_stochastic_diagnose(
            None, None, session=system_factory(), retries=8
        )
        assert a.solutions == b.solutions


def test_greedy_requires_circuit_or_session():
    with pytest.raises(ValueError, match="requires a circuit"):
        greedy_stochastic_diagnose(None, None)
