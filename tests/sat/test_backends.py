"""Differential suite for the SAT backend registry.

Three layers:

* registry mechanics — names, summaries, creation, unknown-backend and
  duplicate-registration errors, ``CNF.to_solver(backend=)`` routing;
* hypothesis differential — random small CNFs solved by the arena,
  legacy and compiled (arena-jit) backends must agree with each other
  *and* with brute force on SAT/UNSAT, produce satisfying models, and
  report failed-assumption cores that are genuinely unsatisfiable
  subsets of the assumptions.  The compiled kernels run as plain Python
  when numba is absent — same semantics, so the differential holds in
  every environment;
* incremental machinery — the arena solver's trail-reuse enumeration and
  minimal-backjump clause insertion must enumerate exactly the legacy
  solution sets under interleaved bounds/blocking, and the incremental
  totalizer must be clause-equivalent to a from-scratch encoding after
  any sequence of ``extend`` calls.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import (
    CNF,
    DEFAULT_BACKEND,
    IncrementalTotalizer,
    LegacySolver,
    SAT_BACKENDS,
    Solver,
    available_backends,
    backend_summary,
    create_solver,
    enumerate_solutions,
    register_backend,
    totalizer,
)
from repro.sat.compiled import CompiledSolver


def brute_force_sat(n_vars, clauses):
    for bits in itertools.product([False, True], repeat=n_vars):
        if all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def load(cls, n_vars, clauses):
    solver = cls()
    solver.ensure_vars(n_vars)
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    return solver, ok


def model_satisfies(solver, n_vars, clauses):
    model = {v: solver.value(v) for v in range(1, n_vars + 1)}
    return all(
        any(
            model[abs(lit)] is None or model[abs(lit)] == (lit > 0)
            for lit in clause
        )
        for clause in clauses
    )


# ----------------------------------------------------------------------
# registry mechanics
# ----------------------------------------------------------------------
def test_registry_contents():
    names = available_backends()
    assert names[0] == DEFAULT_BACKEND == "arena"
    assert "legacy" in names
    for name in names:
        assert backend_summary(name)
    assert isinstance(create_solver(), Solver)
    assert isinstance(create_solver("arena"), Solver)
    assert isinstance(create_solver("legacy"), LegacySolver)


def test_compiled_backend_gated_on_import():
    """``arena-jit`` registers only when numba imports; otherwise it is
    listed as unavailable with the reason and *selection degrades* to
    the interpreted arena instead of raising."""
    from repro.sat.backends import (
        BACKEND_FALLBACKS,
        compiled_backend_available,
        resolve_backend,
        unavailable_backends,
    )
    from repro.sat.compiled import NUMBA_AVAILABLE

    assert BACKEND_FALLBACKS["arena-jit"] == "arena"
    if NUMBA_AVAILABLE:  # pragma: no cover - exercised in the numba lane
        assert compiled_backend_available()
        assert "arena-jit" in available_backends()
        assert resolve_backend("arena-jit") == "arena-jit"
        solver = create_solver("arena-jit")
        assert isinstance(solver, CompiledSolver)
        a = solver.new_var()
        assert solver.add_clause([a])
        assert solver.solve() is True
        assert solver.solve([-a]) is False
        assert set(solver.core()) <= {-a}
    else:
        assert not compiled_backend_available()
        assert "arena-jit" not in available_backends()
        reason = unavailable_backends()["arena-jit"]
        assert "numba" in reason
        assert "arena" in reason  # the fallback is named in the reason
        # graceful degradation: every selection path falls back to the
        # interpreted arena instead of raising
        assert resolve_backend("arena-jit") == "arena"
        assert isinstance(create_solver("arena-jit"), Solver)
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        solver = cnf.to_solver(backend="arena-jit")
        assert isinstance(solver, Solver)
        assert solver.solve() is True


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown solver backend"):
        create_solver("no-such-backend")
    with pytest.raises(ValueError, match="unknown solver backend"):
        CNF().to_solver(backend="no-such-backend")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="registered twice"):
        register_backend("arena", "dup")(Solver)
    assert type(SAT_BACKENDS["arena"][0]()) is Solver


def test_to_solver_backend_routing():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add_clause([a])
    assert isinstance(cnf.to_solver(backend="legacy"), LegacySolver)
    assert isinstance(cnf.to_solver(), Solver)
    with pytest.raises(ValueError, match="either a solver or a backend"):
        cnf.to_solver(Solver(), backend="legacy")


# ----------------------------------------------------------------------
# hypothesis differential: arena vs legacy vs brute force
# ----------------------------------------------------------------------
@st.composite
def random_instance(draw):
    n_vars = draw(st.integers(1, 8))
    n_clauses = draw(st.integers(1, 35))
    clauses = [
        draw(
            st.lists(
                st.integers(1, n_vars).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=4,
            )
        )
        for _ in range(n_clauses)
    ]
    assumptions = draw(
        st.lists(
            st.integers(1, n_vars).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            max_size=4,
            unique_by=abs,
        )
    )
    return n_vars, clauses, assumptions


@pytest.mark.slow
@given(random_instance())
@settings(max_examples=120, deadline=None)
def test_backends_agree_with_brute_force(instance):
    n_vars, clauses, assumptions = instance
    arena, ok_a = load(Solver, n_vars, clauses)
    legacy, ok_l = load(LegacySolver, n_vars, clauses)
    # The compiled solver reports root contradictions at solve() rather
    # than from add_clause, so its leg compares solve *outcomes* only.
    compiled, _ = load(CompiledSolver, n_vars, clauses)
    assert ok_a == ok_l
    result_a = arena.solve() if ok_a else False
    result_l = legacy.solve() if ok_l else False
    expected = brute_force_sat(n_vars, clauses)
    assert result_a == result_l == expected
    assert compiled.solve() == expected
    if result_a:
        assert model_satisfies(arena, n_vars, clauses)
        assert model_satisfies(legacy, n_vars, clauses)
        assert model_satisfies(compiled, n_vars, clauses)
    # ... and under assumptions
    result_a = arena.solve(assumptions) if ok_a else False
    result_l = legacy.solve(assumptions) if ok_l else False
    expected = brute_force_sat(
        n_vars, clauses + [[a] for a in assumptions]
    )
    assert result_a == result_l == expected
    assert compiled.solve(assumptions) == expected
    if result_a:
        assert model_satisfies(arena, n_vars, clauses)
        assert model_satisfies(compiled, n_vars, clauses)
        for a in assumptions:
            assert arena.value(abs(a)) in (None, a > 0)
            assert compiled.value(abs(a)) in (None, a > 0)


@pytest.mark.slow
@given(random_instance())
@settings(max_examples=80, deadline=None)
def test_failed_assumption_cores_sound(instance):
    n_vars, clauses, assumptions = instance
    for cls in (Solver, LegacySolver, CompiledSolver):
        solver, ok = load(cls, n_vars, clauses)
        if not ok or solver.solve(assumptions) is not False:
            continue
        core = solver.core()
        assert set(core) <= set(assumptions)
        # clauses + core alone must already be UNSAT
        fresh, _ = load(cls, n_vars, clauses)
        assert fresh.solve(core) is False


@pytest.mark.slow
@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_interleaved_growth_agrees(instance):
    """Clauses added between solves (deep-insertion path on the arena
    solver) must keep both backends in agreement."""
    n_vars, clauses, assumptions = instance
    arena = Solver()
    legacy = LegacySolver()
    compiled = CompiledSolver()
    for s in (arena, legacy, compiled):
        s.ensure_vars(n_vars)
    added: list[list[int]] = []
    ok_a = ok_l = True
    for i, clause in enumerate(clauses):
        added.append(clause)
        ok_a = arena.add_clause(clause) and ok_a
        ok_l = legacy.add_clause(clause) and ok_l
        compiled.add_clause(clause)
        if i % 3 == 2:
            r_a = arena.solve(assumptions) if ok_a else False
            r_l = legacy.solve(assumptions) if ok_l else False
            r_c = compiled.solve(assumptions)
            assert bool(r_a) == bool(r_l) == bool(r_c)
            if r_a:
                assert model_satisfies(arena, n_vars, added)
                assert model_satisfies(compiled, n_vars, added)


@st.composite
def binary_heavy_churn_instance(draw):
    """Mostly-binary clauses (the implicit-adjacency hot path) plus a
    sequence of assumption lists that share prefixes (the
    longest-common-prefix trail-reuse path)."""
    n_vars = draw(st.integers(2, 8))
    n_clauses = draw(st.integers(2, 30))
    literal = st.integers(1, n_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = [
        draw(
            st.lists(
                literal,
                min_size=1,
                # ~4 of 5 clauses are binary: the implicit watch path
                max_size=2 if draw(st.integers(0, 4)) else 4,
            )
        )
        for _ in range(n_clauses)
    ]
    base = draw(st.lists(literal, max_size=4, unique_by=abs))
    rounds = []
    for _ in range(draw(st.integers(2, 5))):
        # churn: keep a prefix of the previous assumptions, then append
        # a fresh suffix — successive solves share decision levels
        keep = base[: draw(st.integers(0, len(base)))]
        suffix = draw(
            st.lists(
                literal,
                max_size=3,
                unique_by=abs,
            )
        )
        seen = {abs(a) for a in keep}
        rounds.append(
            keep + [a for a in suffix if abs(a) not in seen]
        )
        base = rounds[-1]
    return n_vars, clauses, rounds


@pytest.mark.slow
@given(binary_heavy_churn_instance())
@settings(max_examples=120, deadline=None)
def test_assumption_prefix_churn_binary_heavy(instance):
    """Arena (binary implicit watches + prefix trail reuse + UNSAT trail
    retention) vs legacy vs brute force under churned assumption
    prefixes, with clause growth interleaved between solves."""
    n_vars, clauses, rounds = instance
    arena, ok_a = load(Solver, n_vars, clauses)
    legacy, ok_l = load(LegacySolver, n_vars, clauses)
    compiled, _ = load(CompiledSolver, n_vars, clauses)
    assert ok_a == ok_l
    grown = list(clauses)
    for i, assumptions in enumerate(rounds):
        result_a = arena.solve(assumptions) if ok_a else False
        result_l = legacy.solve(assumptions) if ok_l else False
        result_c = compiled.solve(assumptions)
        expected = brute_force_sat(
            n_vars, grown + [[a] for a in assumptions]
        )
        assert result_a == result_l == result_c == expected, (
            i,
            assumptions,
        )
        if result_a:
            assert model_satisfies(arena, n_vars, grown)
            assert model_satisfies(compiled, n_vars, grown)
            for a in assumptions:
                assert arena.value(abs(a)) in (None, a > 0)
        if result_c is False:
            core_c = compiled.core()
            assert set(core_c) <= set(assumptions)
            assert not brute_force_sat(
                n_vars, grown + [[a] for a in core_c]
            )
        if result_a is False and ok_a:
            # the failed-assumption core must be a genuinely
            # unsatisfiable subset even with the trail kept alive
            # (when ok_a is False solve() was never called, so core()
            # legitimately still reports the previous call's core)
            core = arena.core()
            assert set(core) <= set(assumptions)
            assert not brute_force_sat(
                n_vars, grown + [[a] for a in core]
            )
        # interleave growth: a binary clause lands on the deep-insertion
        # path while the reused trail is alive
        if i < len(rounds) - 1 and len(grown) < 34:
            extra = [
                ((i % n_vars) + 1) * (1 if i % 2 else -1),
                ((i * 3 % n_vars) + 1) * (-1 if i % 3 else 1),
            ]
            grown.append(extra)
            ok_a = arena.add_clause(extra) and ok_a
            ok_l = legacy.add_clause(extra) and ok_l
            compiled.add_clause(extra)
            assert ok_a == ok_l


# ----------------------------------------------------------------------
# enumeration equivalence (trail reuse + scoped blocking)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_enumeration_sets_match_legacy(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    cnf = CNF()
    lits = [cnf.new_var() for _ in range(n)]
    for _ in range(rng.randint(1, 5)):
        clause = [
            rng.choice([1, -1]) * rng.choice(lits)
            for _ in range(rng.randint(1, 3))
        ]
        cnf.add_clause(clause)
    outs = totalizer(cnf, lits, 3)
    results = {}
    for backend in ("arena", "legacy"):
        solver = cnf.to_solver(backend=backend)
        sols = []
        for bound in (1, 2, 3):
            sols.extend(
                enumerate_solutions(
                    solver,
                    lits,
                    assumptions=[-outs[bound]],
                    block="superset",
                )
            )
        results[backend] = set(map(frozenset, sols))
        # superset-freeness
        for a in results[backend]:
            for b in results[backend]:
                assert not (a < b)
    assert results["arena"] == results["legacy"]


def test_enumeration_stats_deltas():
    cnf = CNF()
    lits = [cnf.new_var() for _ in range(4)]
    solver = cnf.to_solver()
    deltas: list[dict] = []
    sols = list(
        enumerate_solutions(
            solver, lits, block="exact", stats_deltas=deltas
        )
    )
    assert len(sols) == 16
    assert len(deltas) == len(sols)
    for delta in deltas:
        assert set(delta) == {
            "restarts",
            "learned",
            "conflicts",
            "decisions",
            "propagations",
        }
        assert all(v >= 0 for v in delta.values())
    # the deltas must sum to (at most) the solver's accumulated totals
    assert sum(d["decisions"] for d in deltas) <= solver.stats["decisions"]


def test_enumeration_with_activation_scope():
    """block_extra + activation assumption: blocks retract with the
    scope, so a second scoped enumeration sees the full space again."""
    cnf = CNF()
    lits = [cnf.new_var() for _ in range(3)]
    cnf.add_clause(lits)
    solver = cnf.to_solver()
    rounds = []
    for _ in range(2):
        act = cnf.new_var()
        solver.ensure_vars(act)
        sols = list(
            enumerate_solutions(
                solver,
                lits,
                assumptions=[act],
                block="exact",
                block_extra=[-act],
            )
        )
        solver.add_clause([-act])  # close the scope
        rounds.append(set(map(frozenset, sols)))
    assert rounds[0] == rounds[1]
    assert len(rounds[0]) == 7  # all assignments but the empty one


# ----------------------------------------------------------------------
# incremental totalizer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,steps", [(5, (1, 3)), (7, (0, 2, 5)), (4, (2, 4))])
def test_incremental_totalizer_matches_fresh_encoding(n, steps):
    """Extending the bound step by step must accept/reject exactly the
    same assignments as a from-scratch totalizer at the final bound."""
    grown_cnf = CNF()
    grown_lits = [grown_cnf.new_var() for _ in range(n)]
    tot = IncrementalTotalizer(grown_cnf, grown_lits, steps[0])
    for bound in steps[1:]:
        tot.extend(bound)
    fresh_cnf = CNF()
    fresh_lits = [fresh_cnf.new_var() for _ in range(n)]
    fresh_outs = totalizer(fresh_cnf, fresh_lits, steps[-1])
    assert len(tot.outputs) == len(fresh_outs)
    for true_count in range(n + 1):
        for bound in range(steps[-1] + 1):
            expect = true_count <= bound
            for cnf, lits, outs in (
                (grown_cnf, grown_lits, tot.outputs),
                (fresh_cnf, fresh_lits, fresh_outs),
            ):
                solver = cnf.to_solver()
                forced = [
                    l if i < true_count else -l
                    for i, l in enumerate(lits)
                ]
                assumptions = forced + (
                    [-outs[bound]] if bound < len(outs) else []
                )
                assert bool(solver.solve(assumptions)) == expect, (
                    true_count,
                    bound,
                )


def test_incremental_totalizer_extends_live_solver():
    """Clauses added by extend() must reach a bound solver in place."""
    cnf = CNF()
    lits = [cnf.new_var() for _ in range(5)]
    tot = IncrementalTotalizer(cnf, lits, 1)
    solver = cnf.to_solver()
    tot.bind_solver(solver)
    tot.extend(4)
    # four true inputs must violate "at most 3" on the live solver
    assumptions = [l for l in lits[:4]] + [-tot.outputs[3]]
    assert solver.solve(assumptions) is False
    assert solver.solve([l for l in lits[:3]] + [-tot.outputs[3]]) is True


def test_incremental_totalizer_validation_and_edges():
    cnf = CNF()
    with pytest.raises(ValueError):
        IncrementalTotalizer(cnf, [], -1)
    empty = IncrementalTotalizer(cnf, [], 2)
    assert empty.outputs == []
    assert empty.bound_assumptions(5) == []
    empty.extend(7)  # no-op
    with pytest.raises(ValueError):
        empty.bound_assumptions(-1)
    single = IncrementalTotalizer(cnf, [cnf.new_var()], 0)
    assert len(single.outputs) == 1
    # shrinking is a no-op, not an error
    single.extend(0)


def test_clause_lits_debug_helper():
    s = Solver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, -b])
    ref = s._clauses[0]
    assert sorted(s.clause_lits(ref), key=abs) == [a, -b]
