"""Strategy races: first valid answer wins, losers cancel cleanly."""

import threading
import time

import pytest

from repro.circuits import library
from repro.diagnosis import DiagnosisSession, diagnose
from repro.sat.backends import SAT_BACKENDS, register_backend
from repro.sat.budget import Budget
from repro.sat.compiled import CompiledSolver
from repro.serve import (
    DEFAULT_STRATEGIES,
    DiagnosisService,
    race_device,
    signature_seed,
)
from repro.serve.race import run_leg

from tests.serve._devices import make_device, top_marked


def _session(device):
    circuit = library.get_circuit(device.design)
    return DiagnosisSession(
        circuit, device.tests, seed=signature_seed(device.signature())
    )


def test_race_produces_a_valid_answer():
    device = make_device("d0", seed=3, k=2)
    session = _session(device)
    outcome = race_device(session, k=device.k)
    assert outcome.winner in DEFAULT_STRATEGIES
    assert outcome.answer is not None
    assert not outcome.timed_out and not outcome.cancelled
    # Every leg only reports verified-valid corrections, so the winner
    # must be consistent with every observation.
    assert session.consistent(outcome.answer)


def test_single_bsat_race_is_bit_identical_to_baseline():
    device = make_device("d0", seed=3, k=2)
    outcome = race_device(
        _session(device), strategies=("bsat",), k=device.k, first_only=False
    )
    baseline = diagnose(_session(device), k=2, strategy="bsat-auto-k")
    assert outcome.winner == "bsat"
    assert outcome.solutions == tuple(baseline.solutions)
    assert outcome.answer == tuple(
        sorted(min(baseline.solutions, key=lambda s: (len(s), sorted(s))))
    )


def test_empty_strategy_tuple_rejected():
    device = make_device("d0")
    with pytest.raises(ValueError, match="at least one strategy"):
        race_device(_session(device), strategies=())


def test_precancelled_race_cancels_every_leg():
    device = make_device("d0", seed=3, k=2)
    cancel = threading.Event()
    cancel.set()
    outcome = race_device(
        _session(device), k=device.k, budget=Budget(should_stop=cancel.is_set)
    )
    assert outcome.cancelled
    assert outcome.answer is None and outcome.winner is None
    assert outcome.cancelled_legs == len(DEFAULT_STRATEGIES)
    # No rung ran, so the ladder holds nothing to degrade to.
    assert outcome.partial is None


class _Stop:
    """Budget cancel-hook stub: False for ``after`` polls, then True."""

    def __init__(self, after: int = 0) -> None:
        self.calls = 0
        self.after = after

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls > self.after


@pytest.mark.parametrize(
    "strategy, kwargs",
    [
        ("greedy-stochastic", {}),
        # Keeps the test id it had beside the retired ihs row.
        pytest.param("bsat-auto-k", {"k": 2}, id="bsat-auto-k-kwargs2"),
    ],
)
def test_immediate_stop_cancels_before_any_work(strategy, kwargs):
    device = make_device("d0", seed=3)
    session = _session(device)
    stop = _Stop(after=0)
    result = diagnose(
        session, strategy=strategy, budget=Budget(should_stop=stop), **kwargs
    )
    assert result.extras.get("cancelled") is True
    assert result.solutions == ()
    assert not result.complete
    # The strategy must stop at its first poll — exactly one call —
    # before it builds a SAT instance.
    assert stop.calls == 1
    assert not session._instances


def test_stop_honored_within_one_check_interval():
    # Greedy polls once per climb and once per retraction attempt; after
    # the poll that first returns True it must not poll again (the run
    # exits at that check interval, not at the end of the sweep).
    device = make_device("d0", seed=3)
    session = _session(device)
    stop = _Stop(after=3)
    result = diagnose(
        session, strategy="greedy-stochastic", budget=Budget(should_stop=stop)
    )
    assert result.extras.get("cancelled") is True
    assert stop.calls == stop.after + 1


def test_cancelled_run_leaves_no_poisoned_session_state():
    # A cancelled BSAT sweep must not memoize its partial result or leak
    # solver scope state: a subsequent full run on the *same* session
    # must equal a fresh session's run and must not come from a cache.
    device = make_device("d0", seed=3, k=2)
    session = _session(device)
    cancel = threading.Event()
    cancel.set()
    outcome = race_device(
        session, strategies=("bsat",), k=device.k,
        budget=Budget(should_stop=cancel.is_set),
    )
    assert outcome.cancelled and outcome.answer is None
    full = diagnose(session, k=2, strategy="bsat-auto-k")
    fresh = diagnose(_session(device), k=2, strategy="bsat-auto-k")
    assert full.extras.get("cached") is not True
    assert full.complete
    assert tuple(full.solutions) == tuple(fresh.solutions)


# Thresholds are backend-specific because the bound is relative to each
# solver's own conflict trajectory: the interpreted arena burns ~206
# conflicts on this workload, the compiled kernels ~93.
_BUDGET_CASES = [
    ("arena", 100, 32),
    ("arena-jit", 8, 4),
    ("compiled-scratch", 8, 4),
]


@pytest.mark.parametrize(
    "backend_kind, threshold, interval",
    _BUDGET_CASES,
    ids=[c[0] for c in _BUDGET_CASES],
)
def test_cancelled_bsat_leg_stops_within_poll_interval(
    backend_kind, threshold, interval
):
    # The serving guarantee behind race deadlines: once the stop signal
    # flips, a hung bsat leg stops inside the SAT search within one
    # conflict-poll interval — not at the next solver-call boundary.
    backend = None
    scratch = None
    if backend_kind == "arena-jit":
        if "arena-jit" not in SAT_BACKENDS:
            pytest.skip("numba unavailable: arena-jit is not registered")
        backend = "arena-jit"
    elif backend_kind == "compiled-scratch":
        # Same kernels as arena-jit, minus the numba jit — registered
        # under a scratch name so this path runs in every environment.
        scratch = "compiled-budget-test"
        register_backend(scratch, "compiled kernels (budget test)")(
            CompiledSolver
        )
        backend = scratch
    try:
        # No single-gate correction: the leg searches at bound 2.
        device = make_device(
            "d0", design="sim1423", seed=1, p=2, m_max=8, k=2
        )
        session = _session(device)
        budget = Budget(conflict_poll_interval=interval)
        budget.should_stop = lambda: budget.conflicts >= threshold
        result = run_leg(
            session,
            "bsat",
            k=2,
            first_only=False,
            solver_backend=backend,
            budget=budget,
        )
    finally:
        if scratch is not None:
            SAT_BACKENDS.pop(scratch, None)
    assert budget.interrupted and budget.reason == "cancelled"
    # One stop flag: the budget's reason says why, the extras only that
    # the rung was stopped.
    assert result.extras.get("cancelled") is True
    assert "interrupted" not in result.extras
    assert not result.complete
    # The search ran up to the stop signal...
    assert budget.conflicts >= threshold
    # ...and overran it by at most one poll interval of conflicts.
    assert budget.conflicts <= threshold + interval


def test_cancelled_greedy_and_ihs_leave_session_reusable():
    # A greedy run stopped mid-climb leaves nothing behind that a later
    # greedy or ihs run on the same session could trip over.
    device = make_device("d0", seed=3)
    session = _session(device)
    cancelled = diagnose(
        session, strategy="greedy-stochastic",
        budget=Budget(should_stop=_Stop(after=2)),
    )
    assert cancelled.extras.get("cancelled") is True
    for strategy in ("greedy-stochastic", "ihs"):
        full = diagnose(session, strategy=strategy)
        fresh = diagnose(_session(device), strategy=strategy)
        assert tuple(full.solutions) == tuple(fresh.solutions)
        assert full.complete == fresh.complete


def test_stopped_greedy_polls_once_and_builds_no_words():
    # Greedy polls once before its sweep: a run stopped there does no
    # work, so the session's singleton words stay unbuilt.
    device = make_device("d0", seed=3)
    session = _session(device)
    stop = _Stop(after=0)
    result = diagnose(
        session, strategy="greedy-stochastic",
        budget=Budget(should_stop=stop),
    )
    assert result.extras.get("cancelled") is True
    assert result.solutions == () and not result.complete
    assert stop.calls == 1
    assert not session.space().swept


# ----------------------------------------------------------------------
# the min-cardinality ladder: greedy (singleton layer first) -> bsat
# ----------------------------------------------------------------------
def test_default_ladder_is_greedy_then_bsat():
    assert DEFAULT_STRATEGIES == ("greedy-stochastic", "bsat")
    # single-fix and ihs stay registered strategies, not rungs.
    for name in ("single-fix", "ihs"):
        with pytest.raises(ValueError, match=f"unknown strategy {name!r}"):
            DiagnosisService(strategies=(name,))


@pytest.mark.parametrize(
    "design, seed, n_singletons",
    [("sim1423", 2, 41), ("sim6669", 3, 4)],
)
def test_single_fix_win_is_bsat_at_k1(design, seed, n_singletons):
    # The paper's relation: forced-value simulation finds exactly BSAT's
    # size-1 corrections.  Greedy reports that singleton layer before
    # any climb, so on a device with a single fix the ladder's answer is
    # the complete minimum-cardinality answer and bsat never starts.
    device = make_device("d0", design=design, seed=seed, p=2, m_max=8, k=2)
    single = diagnose(_session(device), strategy="single-fix")
    bsat = diagnose(_session(device), k=1, strategy="bsat")
    assert bsat.complete
    assert len(single.solutions) == n_singletons
    assert set(single.solutions) == set(bsat.solutions)
    outcome = race_device(_session(device), k=device.k)
    assert outcome.winner == "greedy-stochastic"
    assert outcome.skipped_legs == 1 and outcome.cancelled_legs == 0
    assert set(outcome.solutions) == set(bsat.solutions)
    assert set(outcome.solutions) == set(single.solutions)
    assert len(outcome.answer) == 1


#: Greedy's first-answer and full-run solutions on the two pool devices
#: with no single-gate correction, pinned from before greedy reported a
#: singleton layer: with no singleton, every climb and draw is unchanged.
_NO_SINGLETON_GREEDY = {
    ("sim1423", 1): (
        [["g230", "g518"]],
        [["g230", g] for g in ("g271", "g282", "g304", "g318", "g330",
                               "g424", "g426", "g518", "g547", "g579")],
    ),
    ("sim6669", 4): (
        [["g282", "g45"]],
        [
            ["g282", "g45"], ["g282", "g564"], ["g33", "g483"],
            ["g483", "g575"], ["g634", "g730"], ["g730", "g86"],
            ["g1067", "g701", "g921"], ["g1132", "g346", "g648"],
            ["g1154", "g346", "g524"], ["g1154", "g665", "g86"],
            ["g1154", "g834", "g847"], ["g183", "g575", "g698"],
            ["g33", "g524", "g698"], ["g346", "g708", "g897"],
            ["g564", "g642", "g648"], ["g634", "g667", "g698"],
        ],
    ),
}


@pytest.mark.parametrize("design, seed", [("sim1423", 1), ("sim6669", 4)])
def test_no_singleton_device_falls_through_to_greedy(design, seed):
    # No singleton layer: the answer comes from greedy's climbs.
    device = make_device("d0", design=design, seed=seed, p=2, m_max=8, k=2)
    assert diagnose(_session(device), strategy="single-fix").solutions == ()
    outcome = race_device(_session(device), k=device.k)
    greedy = diagnose(
        _session(device), strategy="greedy-stochastic", max_solutions=1
    )
    full = diagnose(_session(device), strategy="greedy-stochastic")
    first_pin, full_pin = _NO_SINGLETON_GREEDY[design, seed]
    assert [sorted(s) for s in greedy.solutions] == first_pin
    assert [sorted(s) for s in full.solutions] == full_pin
    assert outcome.winner == "greedy-stochastic"
    assert outcome.skipped_legs == 1
    assert outcome.solutions == tuple(greedy.solutions)
    assert outcome.answer == tuple(sorted(greedy.solutions[0]))


def test_cancel_between_rungs_stops_the_ladder():
    # The stop lands between the greedy rung's sweep and its first
    # climb: the sweep found no singleton, greedy polls (False) before
    # the sweep and (True) before the climb, so greedy and bsat count
    # as cancelled.
    device = make_device("d0", design="sim1423", seed=1, p=2, m_max=8, k=2)
    outcome = race_device(
        _session(device), k=device.k,
        budget=Budget(should_stop=_Stop(after=1)),
    )
    assert outcome.cancelled and outcome.answer is None
    assert outcome.legs["greedy-stochastic"]["solutions"] == 0
    assert outcome.cancelled_legs == 2
    assert not outcome.timed_out
    # The finished sweep's marks are the degraded answer: the top-marked
    # gates as guidance (Lemma 2: hints, not verified corrections).
    assert outcome.partial == {
        "degraded_rung": "guidance",
        "validity": "guidance",
        "answer": None,
        "cardinality": None,
        "solutions": top_marked(device),
    }


def test_past_deadline_ladder_times_out_every_rung():
    device = make_device("d0", seed=3, k=2)
    outcome = race_device(
        _session(device), k=device.k,
        budget=Budget(deadline=time.monotonic() - 1.0),
    )
    assert outcome.cancelled and outcome.timed_out
    assert outcome.answer is None
    assert outcome.cancelled_legs == len(DEFAULT_STRATEGIES)


def test_rung_error_propagates_like_a_single_leg():
    # A rung the ladder does not run -- retired or unknown -- raises, and
    # the error reaches the shard (which resolves the device as an
    # error).
    device = make_device("d0", design="sim1423", seed=1, p=2, m_max=8)
    for name in ("single-fix", "ihs", "nope"):
        with pytest.raises(ValueError, match="unknown race strategy"):
            race_device(_session(device), strategies=(name,))
