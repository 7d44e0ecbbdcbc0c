"""The shared candidate-space core every diagnosis strategy rides on.

The paper's central observation is that simulation-based and SAT-based
diagnosis explore the *same* space — corrections over the same suspects,
judged against the same observations — with different engines.  Before
this module each entry point re-derived that space privately: failing
outputs were re-simulated, fault lists rebuilt, candidate pools re-ranked
per call.  :class:`DiagnosisSession` is now the one place that owns the
space; every strategy (sim, SAT, hybrid, greedy-stochastic, implicit
hitting set) is a thin search loop over it.

Three layers:

* :class:`Observation` — one test triple ``(t, o, v)`` plus optional
  golden responses; the unit both engines constrain.
* :class:`DiagnosisSession` — packs all test vectors into uint64 lanes on
  one shared :class:`~repro.sim.batchevent.BatchEventSimulator` (bit ``j``
  of every lane word is observation ``j``), caches the implementation's
  output signatures, the failing-observation lanes, path-tracing results
  and per-candidate rectification words, and answers
  :meth:`~DiagnosisSession.score`, :meth:`~DiagnosisSession.consistent`
  and :meth:`~DiagnosisSession.refine` for arbitrary suspect sets.
* :class:`CandidateSpace` — a (possibly refined) suspect pool with lazy,
  engine-backed per-gate scoring: one cone-restricted fault-parallel
  sweep yields each gate's *rectification word* — which observations
  a single forced value at the gate can fix — and the vectorized
  deductive engine (:func:`repro.sim.deductive_numpy`) yields the same
  sets from fault lists, giving strategies both views of the space.

Underneath the session sits the model-agnostic protocol
(:mod:`repro.diagnosis.system`): the session owns memoization and the
solver-instance lifetime while every system-specific answer — what the
components are, which observations a candidate rectifies, how the master
SAT instance is encoded, what a sound conflict looks like — comes from
its :class:`~repro.diagnosis.system.SystemDescription`.  Constructing a
session from ``(circuit, tests)`` binds the gate-level
:class:`~repro.diagnosis.system.CircuitSystem`; constructing it from a
:class:`~repro.diagnosis.system.GroupedCNFSystem` or
:class:`~repro.diagnosis.system.SpectrumSystem` runs the same strategy
loops on clause groups or fault spectra.

Strategies register themselves in :data:`DIAGNOSIS_STRATEGIES` (the
diagnosis twin of :data:`repro.sim.engines.SIM_ENGINES`) via
:func:`register_strategy`, declaring which system kinds they support;
:func:`diagnose` dispatches by name and enforces the kind.  All
registered strategies share the signature ``(session, k, **options) ->
SolutionSetResult`` so runners, the CLI and the candidate-search bench
can race them interchangeably.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.netlist import Circuit
from ..circuits.structure import levels
from ..sat.cnf import CNF
from ..sat.solver import Solver
from ..sat.tseitin import encode_gate, encode_mux
from ..sim.batchevent import BatchEventSimulator
from ..testgen.testset import Test, TestSet
from .base import Correction, SimDiagnosisResult, SolutionSetResult
from .pathtrace import trace_tests
from .system import CircuitSystem, SystemDescription
from .validity import (
    _lanes_to_word,
    want_care_lanes,
)

__all__ = [
    "Observation",
    "DiagnosisSession",
    "CandidateSpace",
    "ALL_SYSTEM_KINDS",
    "DIAGNOSIS_STRATEGIES",
    "StrategyInfo",
    "register_strategy",
    "available_strategies",
    "get_strategy",
    "strategy_kinds",
    "diagnose",
]

#: Every system kind a strategy can declare; registering with this tuple
#: marks the strategy model-agnostic.
ALL_SYSTEM_KINDS: tuple[str, ...] = ("circuit", "gcnf", "spectrum")


@dataclass(frozen=True)
class Observation:
    """One observed misbehaviour: a test vector and its response pair.

    ``vector`` drives the primary inputs; ``output`` is the primary output
    observed to be erroneous and ``value`` its *correct* value (Definition
    1 of the paper — the observed faulty value is ``value ^ 1``).
    ``expected_outputs`` optionally carries golden values for every
    output, enabling the stricter all-outputs-constrained formulation.
    """

    vector: Mapping[str, int]
    output: str
    value: int
    expected_outputs: Mapping[str, int] | None = None

    @classmethod
    def from_test(cls, test: Test) -> "Observation":
        return cls(
            vector=test.vector,
            output=test.output,
            value=test.value,
            expected_outputs=test.expected_outputs,
        )

    def to_test(self) -> Test:
        return Test(
            vector=dict(self.vector),
            output=self.output,
            value=self.value,
            expected_outputs=(
                dict(self.expected_outputs)
                if self.expected_outputs is not None
                else None
            ),
        )

    @property
    def observed_value(self) -> int:
        """The erroneous value the implementation produces at ``output``."""
        return self.value ^ 1


class DiagnosisSession:
    """One diagnosis problem ``(I, T)`` with every shared artifact cached.

    The session packs all test vectors into uint64 lanes once, keeps one
    :class:`~repro.sim.batchevent.BatchEventSimulator` for what-if
    queries (candidate application per test-lane is a forced word plus a
    fanout-cone update), caches the implementation's output signatures
    and path-tracing results, and memoizes per-candidate *rectification
    words* — bit ``j`` set iff observation ``j`` is rectifiable by
    changing the candidate's gates (Definition 3, per test).

    A session is constructed either from the classic ``(circuit, tests)``
    pair — which binds the gate-level
    :class:`~repro.diagnosis.system.CircuitSystem` — or from any other
    :class:`~repro.diagnosis.system.SystemDescription` (grouped CNF,
    fault spectrum): ``DiagnosisSession(system)``.  Either way the
    session owns memoization, solver lifetimes and the strategy
    substrate while the system answers the model-specific questions.

    >>> from repro.circuits.library import c17
    >>> from repro.experiments import make_workload
    >>> w = make_workload(c17(), p=1, m_max=4, seed=11)
    >>> session = DiagnosisSession(w.faulty, w.tests)
    >>> session.consistent(["G19"]) in (True, False)
    True
    """

    def __init__(
        self,
        circuit: Circuit | SystemDescription,
        tests: TestSet | Iterable[Test] | None = None,
        constrain_all_outputs: bool = False,
        solver_backend: str | None = None,
        seed: int | Callable[[], int] = 0,
    ) -> None:
        if isinstance(circuit, SystemDescription):
            if tests is not None:
                raise ValueError(
                    "a SystemDescription carries its own observations; "
                    "pass tests only with a circuit"
                )
            if constrain_all_outputs:
                raise ValueError(
                    "constrain_all_outputs is a circuit-session option"
                )
            self.system: SystemDescription = circuit
            self.circuit = None
            self.tests = None
            self.observations: tuple[Observation, ...] = ()
            self.m = self.system.m
            if self.m < 1:
                raise ValueError(
                    "diagnosis requires at least one observation"
                )
        else:
            if tests is None:
                raise ValueError(
                    "tests are required with a circuit argument"
                )
            if not isinstance(tests, TestSet):
                tests = TestSet(tuple(tests))
            if not len(tests):
                raise ValueError(
                    "diagnosis requires at least one failing test"
                )
            if not circuit.is_combinational:
                raise ValueError(
                    "diagnosis sessions require a combinational circuit; "
                    "apply repro.circuits.to_combinational first"
                )
            if constrain_all_outputs:
                for t in tests:
                    if t.expected_outputs is None:
                        raise ValueError(
                            "constrain_all_outputs requires tests with "
                            "expected_outputs"
                        )
            self.circuit = circuit
            self.tests = tests
            self.observations = tuple(
                Observation.from_test(t) for t in tests
            )
            self.m = len(tests)
            self.system = CircuitSystem(self)
        self.constrain_all_outputs = constrain_all_outputs
        #: Default SAT backend for every solver this session builds
        #: (:mod:`repro.sat.backends`; None = the registry default).
        #: Strategies may override per call via ``solver_backend=``.
        self.solver_backend = solver_backend
        self._seed = seed
        #: Word with one bit per observation; a candidate is consistent
        #: when its rectification word equals this mask.
        self.all_mask = (1 << self.m) - 1
        self.system.bind(self)
        self._sim: BatchEventSimulator | None = None
        self._responses: dict[str, int] | None = None
        self._want_care: tuple[np.ndarray, np.ndarray, int] | None = None
        self._rect_words: dict[Correction, int] = {}
        self._sim_results: dict[tuple[str, int], SimDiagnosisResult] = {}
        self._spaces: dict[tuple[str, ...] | None, CandidateSpace] = {}
        self._levels: dict[str, int] | None = None
        self._rectify_solvers: dict[
            tuple[int, tuple[str, ...], str | None],
            tuple[Solver, dict[str, int]],
        ] = {}
        self._instances: dict[tuple, object] = {}
        self._ihs_states: dict[tuple, object] = {}
        #: Optional per-design :class:`~repro.diagnosis.satdiag.
        #: MasterEncodingSkeleton` (the serving path's DesignCache sets
        #: this): when present and matching, the session's master
        #: encoding is stamped from the shared skeleton instead of
        #: re-walking the circuit.
        self.master_skeleton = None

    @property
    def seed(self) -> int:
        """Base seed for the stochastic strategies: threaded into the
        greedy climbs (decorrelated per system kind) so results are
        reproducible per session.

        ``seed=`` may be a zero-argument callable; it is called once, on
        the first read.  The serving path passes the device's
        :meth:`~repro.serve.intake.DeviceReport.session_seed` this way,
        so a device no climb draws for never encodes its signature.
        """
        seed = self._seed
        if callable(seed):
            seed = self._seed = seed()
        return seed

    @property
    def kind(self) -> str:
        """The bound system's kind ("circuit", "gcnf", "spectrum", ...)."""
        return self.system.kind

    def _require_circuit(self) -> Circuit:
        if self.circuit is None:
            raise ValueError(
                "this operation requires a circuit-backed session "
                f"(system kind is {self.kind!r})"
            )
        return self.circuit

    # ------------------------------------------------------------------
    # shared engines and cached artifacts
    # ------------------------------------------------------------------
    @property
    def sim(self) -> BatchEventSimulator:
        """The shared lane simulator (one lane bit per observation)."""
        if self._sim is None:
            self._sim = BatchEventSimulator(
                self._require_circuit(),
                [o.vector for o in self.observations],
            )
        return self._sim

    def responses(self) -> dict[str, int]:
        """The implementation's output signature ``{output: word}``.

        Cached — this is the faulty circuit's observed behaviour on all
        tests, the quantity several pre-refactor entry points re-derived
        with one scalar simulation per test.
        """
        if self._responses is None:
            self._responses = dict(self.sim.output_words())
        return dict(self._responses)

    def failing_word(self) -> int:
        """Bit ``j`` set iff observation ``j`` actually fails (the empty
        correction does not rectify it; on circuits: the implementation's
        value at ``o_j`` differs from ``v_j``)."""
        return self.system.failing_word()

    def observation_values(self, j: int) -> dict[str, int]:
        """Full signal valuation of observation ``j`` (from the shared
        lane simulator — no per-test scalar re-simulation)."""
        if not 0 <= j < self.m:
            raise IndexError(f"observation index {j} out of range")
        return self.sim.pattern_values(j)

    def what_if(self, forces: Mapping[str, object]) -> np.ndarray:
        """Output lanes with ``forces`` applied (then reverted).

        ``forces`` maps signal names to 0/1 constants or per-test uint64
        lane words — candidate application per test-lane on the one
        shared simulator.
        """
        sim = self.sim
        try:
            for name, value in forces.items():
                sim.force(name, value)
            return sim.output_lanes()
        finally:
            for name in forces:
                sim.unforce(name)

    def want_care_lanes(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(want, care, lanes)`` — per-output goal words for all tests.

        The session-cached form of :func:`repro.diagnosis.validity.
        want_care_lanes`: bit ``j`` of ``care[o]`` is set iff observation
        ``j`` constrains output ``o``; ``want`` carries the required
        value there.
        """
        if self._want_care is None:
            self._want_care = want_care_lanes(
                self._require_circuit(), self.tests,
                self.constrain_all_outputs,
            )
        return self._want_care

    def rectified_word(self, lanes: np.ndarray) -> int:
        """Which observations an output-lane matrix satisfies, as a word."""
        want, care, _ = self.want_care_lanes()
        miss = np.bitwise_or.reduce((lanes ^ want) & care, axis=0)
        return self.all_mask & ~_lanes_to_word(miss, self.all_mask)

    def levels(self) -> dict[str, int]:
        if self._levels is None:
            self._levels = levels(self._require_circuit())
        return self._levels

    def fanin_gates(self, output: str) -> frozenset[str]:
        """Functional gates in the fan-in cone of ``output``.

        Sound conflict structure: a correction that rectifies a failing
        observation at ``output`` must change the output's value, so it
        must contain at least one gate of this cone.  The cone itself is
        cached on the circuit (:meth:`~repro.circuits.netlist.Circuit.
        fanin_cone`), shared by every session on the design.
        """
        circuit = self._require_circuit()
        nodes = circuit.nodes
        return frozenset(
            name
            for name in circuit.fanin_cone(output)
            if nodes[name].is_functional
        )

    # ------------------------------------------------------------------
    # candidate evaluation
    # ------------------------------------------------------------------
    def rect_word(self, candidate: Iterable[str]) -> int:
        """Rectification word of ``candidate``: bit ``j`` set iff
        observation ``j`` is rectifiable by changing these components.

        Memoized; the exact computation is the bound system's
        (:meth:`~repro.diagnosis.system.SystemDescription.rect_word` —
        on circuits the singleton fast path plus the exact forced-value
        check, on grouped CNFs incremental consistency solves, on
        spectra set cover).
        """
        gates = frozenset(candidate)
        cached = self._rect_words.get(gates)
        if cached is not None:
            return cached
        word = self.system.rect_word(gates)
        self._rect_words[gates] = word
        return word

    def observation_core(
        self,
        candidate: Iterable[str],
        j: int,
        solver_backend: str | None = None,
    ) -> frozenset[str]:
        """Sound conflict from an observation that rejects ``candidate``
        (:meth:`~repro.diagnosis.system.SystemDescription.
        observation_core`): disjoint from the candidate, intersected by
        every correction valid for observation ``j``; empty when nothing
        can rectify the observation.  The hitting-set strategies (IHS,
        HSDAG) drive their refinement loops with these."""
        if not 0 <= j < self.m:
            raise IndexError(f"observation index {j} out of range")
        return self.system.observation_core(
            candidate, j, solver_backend=solver_backend
        )

    def score(self, candidate: Iterable[str]) -> int:
        """Number of observations ``candidate`` can rectify (0..m)."""
        return self.rect_word(candidate).bit_count()

    def consistent(self, candidate: Iterable[str]) -> bool:
        """Definition 3: is ``candidate`` a valid correction for all
        observations?"""
        return self.rect_word(candidate) == self.all_mask

    def refine(self, suspects: Iterable[str]) -> "CandidateSpace":
        """Narrow the candidate space to ``suspects`` (caches shared)."""
        return self.space(tuple(suspects))

    def space(
        self, suspects: Sequence[str] | None = None
    ) -> "CandidateSpace":
        """The (optionally refined) candidate space over this session."""
        key = None if suspects is None else tuple(dict.fromkeys(suspects))
        cached = self._spaces.get(key)
        if cached is None:
            cached = CandidateSpace(self, key)
            self._spaces[key] = cached
        return cached

    # ------------------------------------------------------------------
    # cached strategy substrate
    # ------------------------------------------------------------------
    def sim_result(
        self, policy: str = "first", seed: int = 0
    ) -> SimDiagnosisResult:
        """``BasicSimDiagnose`` over this session's observations, cached.

        Identical result to :func:`repro.diagnosis.pathtrace.
        basic_sim_diagnose` by construction — both run the shared
        :func:`~repro.diagnosis.pathtrace.trace_tests` loop, here with
        signal valuations from the shared lane simulator instead of one
        scalar simulation per test.
        """
        key = (policy, seed)
        cached = self._sim_results.get(key)
        if cached is not None:
            return cached
        level_map = (
            self.levels() if policy in ("lowest", "highest") else None
        )
        result = trace_tests(
            self._require_circuit(),
            self.tests,
            lambda j, test: self.observation_values(j),
            policy=policy,
            seed=seed,
            level_map=level_map,
        )
        self._sim_results[key] = result
        return result

    def instance(
        self,
        k_max: int,
        suspects: Sequence[str] | None = None,
        select_zero_clauses: bool = False,
        solver_backend: str | None = None,
    ):
        """The session's *persistent* SAT instance for these options.

        One **master** encoding per backend
        (:func:`~repro.diagnosis.satdiag.build_master_instance`:
        correction muxes on every functional gate, free values folded
        into the effective signals so an unselected mux is pure
        propagation) serves every request: each (suspects, select-zero)
        key gets a cached *view*
        (:meth:`~repro.diagnosis.satdiag.DiagnosisInstance.derive_view`)
        whose ``base_assumptions()`` pin the non-suspect selects to 0.
        Deriving a pool instance therefore costs a tuple of pin literals
        instead of a per-pool CNF rebuild (the IHS loop, the repair
        radii and the partitioned funnel all churn pools).  Blocking
        clauses are scoped per query with activation literals and the
        cardinality bound extends in place when a later query needs a
        larger ``k`` — no per-k rebuilds either.  The master's c-free
        mux already subsumes the select-zero pruning, so
        ``select_zero_clauses`` is accepted for signature compatibility
        but ignored entirely: both flag values return the *same* cached
        view object (solution sets are unaffected by the flag either
        way, so keying the cache on it would only duplicate views).
        """
        from ..sat.backends import resolve_backend

        backend = resolve_backend(
            solver_backend
            if solver_backend is not None
            else self.solver_backend
        )
        suspects_key = (
            None if suspects is None else tuple(dict.fromkeys(suspects))
        )
        key = ("view", suspects_key, backend)
        cached = self._instances.get(key)
        if cached is None:
            master = self._instances.get(("master", backend))
            if master is None:
                master = self.system.build_master_instance(
                    k_max, solver_backend=backend
                )
                self._instances[("master", backend)] = master
            else:
                master.extend_k(k_max)
            cached = master.derive_view(suspects_key)
            self._instances[key] = cached
        cached.extend_k(k_max)
        return cached

    def ihs_state(self, key: tuple, factory):
        """Per-session persistent state for the IHS hitting-set loop.

        The implicit-hitting-set search keeps its hitting-set solver —
        selection variables, accumulated conflict clauses, incremental
        totalizer and learnt state — alive across calls under ``key``
        (pool + backend); ``factory`` builds it on first use.
        """
        cached = self._ihs_states.get(key)
        if cached is None:
            cached = factory()
            self._ihs_states[key] = cached
        return cached

    def rectify_solver(
        self,
        j: int,
        pool: Sequence[str],
        solver_backend: str | None = None,
    ) -> tuple[Solver, dict[str, int]]:
        """Incremental per-observation solver for conflict extraction.

        Encodes one copy of the circuit under observation ``j`` with a
        correction multiplexer at every ``pool`` gate and the output
        constrained to its correct value.  Solving under assumptions
        ``¬s_g`` for the gates *outside* a candidate decides whether the
        candidate can rectify the observation; on UNSAT the solver's
        assumption core is a sound conflict: every valid correction for
        the observation selects at least one gate of the core.  Cached
        per ``(observation, pool)`` so the implicit-hitting-set loop
        reuses learned clauses across rounds.
        """
        if not 0 <= j < self.m:
            raise IndexError(f"observation index {j} out of range")
        self._require_circuit()
        from ..sat.backends import resolve_backend

        backend = resolve_backend(
            solver_backend
            if solver_backend is not None
            else self.solver_backend
        )
        pool_key = tuple(dict.fromkeys(pool))
        cached = self._rectify_solvers.get((j, pool_key, backend))
        if cached is not None:
            return cached
        obs = self.observations[j]
        pool_set = set(pool_key)
        cnf = CNF()
        select_of = {g: cnf.new_var(f"s:{g}") for g in pool_key}
        var_of: dict[str, int] = {}
        for name in self.circuit.topological_order():
            gate = self.circuit.node(name)
            if gate.is_input:
                var = cnf.new_var(f"x:{name}")
                var_of[name] = var
                cnf.add_clause([var if obs.vector[name] else -var])
                continue
            fanin_vars = [var_of[f] for f in gate.fanins]
            if name in pool_set:
                raw = cnf.new_var(f"x:{name}:raw")
                encode_gate(cnf, gate.gtype, raw, fanin_vars)
                c_var = cnf.new_var(f"c:{name}")
                eff = cnf.new_var(f"x:{name}")
                encode_mux(cnf, eff, select_of[name], c_var, raw)
                var_of[name] = eff
            else:
                var = cnf.new_var(f"x:{name}")
                encode_gate(cnf, gate.gtype, var, fanin_vars)
                var_of[name] = var
        if self.constrain_all_outputs:
            assert obs.expected_outputs is not None
            for out in self.circuit.outputs:
                want = obs.expected_outputs[out]
                cnf.add_clause([var_of[out] if want else -var_of[out]])
        else:
            out_var = var_of[obs.output]
            cnf.add_clause([out_var if obs.value else -out_var])
        solver = cnf.to_solver(backend=backend)
        self._rectify_solvers[(j, pool_key, backend)] = (solver, select_of)
        return solver, select_of


class CandidateSpace:
    """A suspect pool with lazy, engine-backed per-gate scoring.

    Two engines compute the same per-gate view of the space:

    * one forced-value sweep gives each gate's *rectification word*
      (candidate ``{g}`` rectifies observation ``j`` iff one of the two
      forced responses realizes the correct value there).  Forcing the
      fault-free value is the fault-free circuit, so only the other
      one, the gate's *flip*, can rectify a failing observation: the
      sweep carries one flip row per gate.  It evaluates only the
      fan-in cones of the observed outputs; a pool gate outside all of
      them gets the passing-observation word, which is exact
      (:func:`repro.diagnosis.validity.single_gate_rect_words`);
    * the vectorized deductive engine's fault lists
      (:func:`repro.sim.deductive_numpy.deductive_fault_lists_numpy`)
      give, per observation, the gates whose single stuck-at flips the
      failing output — the same sets, derived from fault-list algebra
      (the differential suite asserts the agreement).

    Both views feed the search strategies: rectification words are the
    greedy-stochastic search's cheap consistency oracle; the per-
    observation sets are the implicit-hitting-set loop's seed MCSes.
    """

    def __init__(
        self,
        session: DiagnosisSession,
        pool: Sequence[str] | None = None,
    ) -> None:
        self.session = session
        if pool is None:
            self.pool: tuple[str, ...] = session.system.components
        else:
            self.pool = tuple(dict.fromkeys(pool))
            session.system.validate_components(self.pool)
        self._singleton_words: dict[str, int] | None = None
        self._fault_list_sets: tuple[frozenset[str], ...] | None = None

    def __len__(self) -> int:
        return len(self.pool)

    # -- engine 1: the forced-value sweep -------------------------------
    def singleton_rect_words(self) -> dict[str, int]:
        """Per-gate rectification words, one sweep for the pool (cached).

        Delegates to the system's
        :meth:`~repro.diagnosis.system.SystemDescription.
        singleton_rect_words`; on circuits that is
        :func:`repro.diagnosis.validity.single_gate_rect_words`, one
        implementation for the screen and the session.
        """
        if self._singleton_words is None:
            self._singleton_words = (
                self.session.system.singleton_rect_words(self.pool)
            )
        return dict(self._singleton_words)

    def _words(self) -> dict[str, int]:
        """The cached words themselves, for reads that change nothing
        (the sweep still runs through :meth:`singleton_rect_words`)."""
        if self._singleton_words is None:
            self.singleton_rect_words()
        return self._singleton_words

    @property
    def swept(self) -> bool:
        """True once :meth:`singleton_rect_words` has run its sweep."""
        return self._singleton_words is not None

    def singletons(self) -> list[str]:
        """Pool gates that are valid size-1 corrections, pool order."""
        words = self._words()
        mask = self.session.all_mask
        return [g for g in self.pool if words[g] == mask]

    def nothing_fails(self) -> bool:
        """True iff no observation fails (the empty correction is valid).

        Consistency is monotone, so an observation that does not fail is
        rectified by every single gate: one pool gate whose word misses
        an observation settles the answer from the cached sweep, without
        building the session's lane simulator for the failing word.
        """
        words = self._words()
        mask = self.session.all_mask
        if any(words[g] != mask for g in self.pool):
            return False
        return not self.session.failing_word()

    def marks(self) -> dict[str, int]:
        """Engine-backed per-gate score: how many observations each gate
        can rectify alone (the effect-analysis analogue of BSIM's
        ``M(g)`` mark counts)."""
        words = self._words()
        return {g: words[g].bit_count() for g in self.pool}

    def rectifying_gates(self, j: int) -> frozenset[str]:
        """Pool gates whose single forced value rectifies observation
        ``j`` — the observation's size-1 minimal correction sets."""
        if not 0 <= j < self.session.m:
            raise IndexError(f"observation index {j} out of range")
        words = self._words()
        return frozenset(
            g for g in self.pool if (words[g] >> j) & 1
        )

    # -- engine 2: the system's independent candidate-set view ----------
    def observation_candidates(self, j: int) -> frozenset[str]:
        """Observation ``j``'s size-1 rectifier candidates over the pool.

        On circuits this is the vectorized deductive fault-list view: a
        gate's stuck-at flips the observed output iff forcing the gate
        *changes* that output's value.  For a **failing** observation
        (Definition 1 tests fail by construction) changing the erroneous
        value is rectifying it, so this equals :meth:`rectifying_gates`
        — computed through an independent engine (the differential suite
        asserts the agreement on failing observations).  For an
        already-passing observation the two notions diverge: this
        returns the output *flippers* (breakers), while
        :meth:`rectifying_gates` returns near-everything — use
        :meth:`~DiagnosisSession.failing_word` to distinguish.  Other
        system kinds derive the sets from their singleton rectification
        words.
        """
        if self._fault_list_sets is None:
            self._fault_list_sets = (
                self.session.system.observation_candidate_sets(self.pool)
            )
        return self._fault_list_sets[j]

    # -- structural conflicts -------------------------------------------
    def observation_conflict(self, j: int) -> frozenset[str]:
        """Sound conflict for observation ``j``, sliced to the pool: on
        circuits the failing output's fan-in cone; every valid
        correction for the observation intersects the unsliced set."""
        conflict = self.session.system.observation_conflict(j)
        return frozenset(g for g in self.pool if g in conflict)

    # -- delegation ------------------------------------------------------
    def score(self, candidate: Iterable[str]) -> int:
        return self.session.score(candidate)

    def consistent(self, candidate: Iterable[str]) -> bool:
        return self.session.consistent(candidate)


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------

#: Signature every registered strategy shares.
Strategy = Callable[..., SolutionSetResult]


class StrategyInfo(NamedTuple):
    """One registry entry: the search loop, its summary, and the system
    kinds it runs on (``("circuit",)`` for the circuit-only strategies,
    :data:`ALL_SYSTEM_KINDS` for the model-agnostic ones)."""

    fn: Strategy
    summary: str
    kinds: tuple[str, ...]


#: Name → :class:`StrategyInfo`.  The diagnosis twin of the
#: fault-simulation engine table ``repro.sim.engines.SIM_ENGINES``: one place enumerating every search loop
#: that can run on a :class:`DiagnosisSession`.
DIAGNOSIS_STRATEGIES: dict[str, StrategyInfo] = {}


def register_strategy(
    name: str, summary: str, kinds: Sequence[str] = ("circuit",)
) -> Callable[[Strategy], Strategy]:
    """Class-register a strategy ``(session, k, **options) -> result``.

    ``kinds`` declares which :class:`~repro.diagnosis.system.
    SystemDescription` kinds the strategy supports; :func:`diagnose`
    refuses to dispatch a strategy onto a session of another kind.
    """

    def deco(fn: Strategy) -> Strategy:
        if name in DIAGNOSIS_STRATEGIES:
            raise ValueError(f"strategy {name!r} registered twice")
        DIAGNOSIS_STRATEGIES[name] = StrategyInfo(
            fn, summary, tuple(kinds)
        )
        return fn

    return deco


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(DIAGNOSIS_STRATEGIES))


def _strategy_info(name: str) -> StrategyInfo:
    try:
        return DIAGNOSIS_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown diagnosis strategy {name!r}; choose from "
            f"{available_strategies()}"
        ) from None


def get_strategy(name: str) -> Strategy:
    return _strategy_info(name).fn


def strategy_kinds(name: str) -> tuple[str, ...]:
    """System kinds strategy ``name`` supports."""
    return _strategy_info(name).kinds


def diagnose(
    circuit: Circuit | DiagnosisSession | SystemDescription,
    tests: TestSet | Iterable[Test] | None = None,
    k: int | None = None,
    strategy: str = "bsat",
    **options,
) -> SolutionSetResult:
    """Run one registered strategy on ``(circuit, tests)``.

    Accepts a prepared :class:`DiagnosisSession` in place of the circuit
    (with ``tests=None``) so several strategies can share one session's
    caches — the cross-strategy benches race them that way — and a bare
    :class:`~repro.diagnosis.system.SystemDescription` (grouped CNF,
    spectrum), which is wrapped in a fresh session.  The strategy must
    support the session's system kind (see :func:`strategy_kinds`).

    ``k=None`` (the default) leaves the cardinality to the strategy's
    own default: the enumerative strategies use ``k=1`` while the search
    loops (``greedy-stochastic``, ``ihs``) determine the cardinality
    themselves — passing a hard ``k=1`` to those would silently hide
    every multi-gate correction.
    """
    if isinstance(circuit, DiagnosisSession):
        session = circuit
        if tests is not None:
            raise ValueError("pass either a session or (circuit, tests)")
    elif isinstance(circuit, SystemDescription):
        if tests is not None:
            raise ValueError(
                "a SystemDescription carries its own observations"
            )
        session = DiagnosisSession(circuit)
    else:
        if tests is None:
            raise ValueError("tests are required with a circuit argument")
        session = DiagnosisSession(circuit, tests)
    info = _strategy_info(strategy)
    if session.kind not in info.kinds:
        raise ValueError(
            f"strategy {strategy!r} supports system kinds "
            f"{info.kinds}; this session diagnoses a "
            f"{session.kind!r} system"
        )
    if k is None:
        return info.fn(session, **options)
    return info.fn(session, k, **options)


@register_strategy(
    "single-fix",
    "session-native screen: all valid single-gate corrections, one sweep",
    kinds=ALL_SYSTEM_KINDS,
)
def _single_fix_strategy(
    session: DiagnosisSession,
    k: int = 1,
    pool: Sequence[str] | None = None,
    solver_backend: str | None = None,
) -> SolutionSetResult:
    """All size-1 corrections via the space's singleton sweep: the
    paper's size-1 reference (equal to ``bsat`` at ``k=1``, and to the
    singleton layer ``greedy-stochastic`` reports first).

    When no observation fails, the empty correction is the only minimal
    one, so the answer is ``[()]`` (what BSAT's cardinality-0 probe
    returns) rather than every pool gate.

    ``solver_backend`` is accepted for registry uniformity; the sweep is
    pure simulation, so it has no effect here.
    """
    start = time.perf_counter()
    space = session.space(pool)
    if space.nothing_fails():
        solutions = (frozenset(),)
    else:
        solutions = tuple(frozenset({g}) for g in space.singletons())
    t_all = time.perf_counter() - start
    return SolutionSetResult(
        approach="single-fix",
        k=1,
        solutions=solutions,
        complete=True,
        t_build=0.0,
        t_first=t_all,
        t_all=t_all,
        extras={"pool_size": len(space)},
    )
