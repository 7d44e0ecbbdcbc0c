"""Model-agnostic system descriptions — the MBD layer under the session.

The paper's framing — simulation-based and SAT-based diagnosis explore
the same correction space with different guarantees — is not specific to
gate-level circuits.  :class:`SystemDescription` captures exactly what a
:class:`~repro.diagnosis.core.DiagnosisSession` needs from a diagnosed
system:

* a finite set of **components** (the things a correction may touch),
* ``m`` **observations** (the individual constraints a correction must
  satisfy; bit ``j`` of every *rectification word* is observation ``j``),
* a consistency oracle — :meth:`~SystemDescription.rect_word` — saying
  which observations a candidate component set can rectify,
* a SAT side: a session-wide **master instance** (selection variable per
  component, cardinality bound, persistent solver) for the enumerative
  strategies, and per-observation **cores** (sound conflicts) for the
  hitting-set loops.

Three instantiations ship:

* :class:`CircuitSystem` — the original gate-level path (correction
  muxes, fan-in-cone test copies, lane-sim rectification words), bound
  automatically by ``DiagnosisSession(circuit, tests)``.  Its methods
  delegate to the session's cached circuit machinery, so the circuit
  path's outputs are bit-identical to the pre-protocol code.
* :class:`GroupedCNFSystem` — the weak-fault model over assumable clause
  groups (GCNF / group-MUS shape, the flamapy ``C`` + background ``B``
  formulation): components are clause groups, an observation is a set of
  assumption literals, and a candidate is consistent with an observation
  iff the background plus the *unretracted* groups plus the observation
  literals are satisfiable.
* :class:`SpectrumSystem` — software fault spectra: components are code
  elements, observations are pass/fail coverage rows, and consistency is
  set cover (a failing run must execute at least one candidate element).

All consistency predicates are **monotone**: enlarging a candidate never
loses an observation (a selected circuit mux can realize the original
function; retracting more clauses keeps a formula satisfiable; a larger
element set covers more rows).  The search strategies rely on this —
FastDiag's divide-and-conquer minimization is correct exactly for
monotone predicates.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..sat.cnf import CNF

if TYPE_CHECKING:  # import cycle: core imports this module
    from .core import DiagnosisSession
    from .satdiag import DiagnosisInstance

__all__ = [
    "SystemDescription",
    "CircuitSystem",
    "GroupedCNFSystem",
    "SpectrumSystem",
]


class SystemDescription(ABC):
    """What a diagnosis session needs to know about a diagnosed system.

    Subclasses set :attr:`kind` (the strategy registry gates on it),
    provide :attr:`components` and :attr:`m`, and implement the abstract
    oracle methods.  A description is *bound* to the session that owns
    it (:meth:`bind`); the session supplies memoization
    (``session.rect_word`` caches per candidate) and the default solver
    backend.
    """

    #: Registry key strategies declare support for ("circuit", "gcnf",
    #: "spectrum", ...).
    kind: str = "abstract"

    session: "DiagnosisSession | None" = None

    # -- identity -------------------------------------------------------
    @property
    @abstractmethod
    def components(self) -> tuple[str, ...]:
        """Every component a correction may include, in a stable order."""

    @property
    @abstractmethod
    def m(self) -> int:
        """Number of observations (bits in every rectification word)."""

    @property
    def all_mask(self) -> int:
        return (1 << self.m) - 1

    def bind(self, session: "DiagnosisSession") -> None:
        """Attach the owning session (memoization, default backend)."""
        self.session = session

    def validate_components(self, components: Iterable[str]) -> None:
        """Raise ``ValueError`` for names that are not components."""
        known = set(self.components)
        for c in components:
            if c not in known:
                raise ValueError(
                    f"suspect {c!r} is not a component of the system"
                )

    # -- consistency oracle ---------------------------------------------
    @abstractmethod
    def rect_word(self, candidate: frozenset[str]) -> int:
        """Bit ``j`` set iff ``candidate`` can rectify observation ``j``.

        Exact and unmemoized — call through ``session.rect_word`` which
        caches per candidate.
        """

    def failing_word(self) -> int:
        """Bit ``j`` set iff observation ``j`` fails as-is (the empty
        correction does not rectify it)."""
        assert self.session is not None
        return self.all_mask & ~self.session.rect_word(())

    @abstractmethod
    def singleton_rect_words(self, pool: Sequence[str]) -> dict[str, int]:
        """Per-component rectification words for a pool, in one sweep.

        Bit ``j`` of component ``c``'s word is set iff the singleton
        candidate ``{c}`` rectifies observation ``j``; the result maps
        every pool component to its word.  Circuits compute them in one
        cone-restricted fault-parallel sweep
        (:func:`repro.diagnosis.validity.single_gate_rect_words`).
        """

    def observation_candidate_sets(
        self, pool: Sequence[str]
    ) -> tuple[frozenset[str], ...]:
        """Per-observation size-1 rectifier sets over ``pool``.

        Default: read them off :meth:`singleton_rect_words`.  The
        circuit system overrides this with the independently derived
        deductive fault-list view.
        """
        words = self.singleton_rect_words(pool)
        return tuple(
            frozenset(c for c in pool if (words[c] >> j) & 1)
            for j in range(self.m)
        )

    # -- conflict structure ---------------------------------------------
    @abstractmethod
    def observation_conflict(self, j: int) -> frozenset[str]:
        """A *sound* structural conflict for observation ``j``: every
        valid correction for a failing observation ``j`` contains at
        least one returned component.  Over all components; callers
        slice to their pool."""

    @abstractmethod
    def observation_core(
        self,
        candidate: Iterable[str],
        j: int,
        solver_backend: str | None = None,
    ) -> frozenset[str]:
        """A sound conflict from an observation that rejects ``candidate``.

        Precondition: ``candidate`` does *not* rectify observation ``j``.
        The result is disjoint from ``candidate`` and every correction
        valid for observation ``j`` intersects it; an empty result means
        no extension of ``candidate`` rectifies the observation at all.
        Raises ``AssertionError`` when the SAT side finds the candidate
        consistent after all (engine disagreement = a bug upstream).
        """

    # -- SAT side --------------------------------------------------------
    @abstractmethod
    def build_master_instance(
        self, k_max: int, solver_backend: str | None = None
    ) -> "DiagnosisInstance":
        """The session-wide master SAT encoding: one selection variable
        per component, a cardinality bound sized for ``k_max``, one
        persistent solver.  Suspect pools are derived as assumption
        views (:meth:`~repro.diagnosis.satdiag.DiagnosisInstance.
        derive_view`)."""


class CircuitSystem(SystemDescription):
    """The gate-level instantiation — today's circuit path, verbatim.

    Constructed by ``DiagnosisSession(circuit, tests)``; every method
    body is the pre-protocol session/space implementation moved behind
    the interface, so circuit-path outputs (pinned wrapper JSON, bench
    gates) are bit-identical.
    """

    kind = "circuit"

    def __init__(self, session: "DiagnosisSession") -> None:
        self.session = session
        self._gate_by_select: dict[tuple[int, str | None], dict[int, str]] = {}

    @property
    def components(self) -> tuple[str, ...]:
        return self.session.circuit.gate_names

    @property
    def m(self) -> int:
        return len(self.session.tests)

    def validate_components(self, components: Iterable[str]) -> None:
        for g in components:
            if not self.session.circuit.node(g).is_functional:
                raise ValueError(f"suspect {g!r} is not a functional gate")

    # -- consistency oracle ---------------------------------------------
    def rect_word(self, candidate: frozenset[str]) -> int:
        from .validity import rect_word_by_forcing

        session = self.session
        word = 0
        if candidate:
            singles = session.space().singleton_rect_words()
            for g in candidate:
                # A name outside the pool (not a functional gate, e.g. a
                # primary-input fault site) has no singleton fast path;
                # the exact check below keeps the forced-value semantics.
                word |= singles.get(g, 0)
        # The singleton bits are known; one packed pass checks the rest.
        return rect_word_by_forcing(
            session.circuit,
            session.tests,
            sorted(candidate),
            session.constrain_all_outputs,
            known=word,
        )

    def failing_word(self) -> int:
        session = self.session
        responses = session.responses()
        word = 0
        for j, obs in enumerate(session.observations):
            if ((responses[obs.output] >> j) & 1) != obs.value:
                word |= 1 << j
        return word

    def singleton_rect_words(self, pool: Sequence[str]) -> dict[str, int]:
        from .validity import single_gate_rect_words

        session = self.session
        return single_gate_rect_words(
            session.circuit,
            session.tests,
            pool,
            session.constrain_all_outputs,
        )

    def observation_candidate_sets(
        self, pool: Sequence[str]
    ) -> tuple[frozenset[str], ...]:
        from ..faults.models import StuckAtFault
        from ..sim.deductive_numpy import deductive_output_fault_lists

        session = self.session
        faults = [
            StuckAtFault(gate, value)
            for gate in pool
            for value in (0, 1)
        ]
        # One vectorized block pass computes every observation's output
        # fault lists at once (instead of one propagation per test).
        per_observation = deductive_output_fault_lists(
            session.circuit,
            [dict(o.vector) for o in session.observations],
            faults=faults,
        )
        responses = session.responses()
        sets: list[frozenset[str]] = []
        for j, obs in enumerate(session.observations):
            lists = per_observation[j]
            if session.constrain_all_outputs:
                assert obs.expected_outputs is not None
                candidates: set[str] = set()
                for gate in pool:
                    for value in (0, 1):
                        fault = StuckAtFault(gate, value)
                        # The forced value fixes the observation iff it
                        # flips exactly the outputs that currently
                        # mismatch the golden response.
                        if all(
                            (fault in lists[out])
                            == (
                                ((responses[out] >> j) & 1)
                                != obs.expected_outputs[out]
                            )
                            for out in session.circuit.outputs
                        ):
                            candidates.add(gate)
                            break
                sets.append(frozenset(candidates))
            else:
                out_list = lists[obs.output]
                sets.append(
                    frozenset(
                        gate
                        for gate in pool
                        if StuckAtFault(gate, 0) in out_list
                        or StuckAtFault(gate, 1) in out_list
                    )
                )
        return tuple(sets)

    # -- conflict structure ---------------------------------------------
    def observation_conflict(self, j: int) -> frozenset[str]:
        session = self.session
        return session.fanin_gates(session.observations[j].output)

    def observation_core(
        self,
        candidate: Iterable[str],
        j: int,
        solver_backend: str | None = None,
    ) -> frozenset[str]:
        from ..sat.backends import resolve_backend

        session = self.session
        backend = resolve_backend(
            solver_backend
            if solver_backend is not None
            else session.solver_backend
        )
        all_gates = self.components
        solver, select_of = session.rectify_solver(
            j, all_gates, solver_backend=backend
        )
        gate_by_select = self._gate_by_select.get((j, backend))
        if gate_by_select is None:
            gate_by_select = {v: g for g, v in select_of.items()}
            self._gate_by_select[(j, backend)] = gate_by_select
        h_set = set(candidate)
        assumptions = [-select_of[g] for g in all_gates if g not in h_set]
        if solver.solve(assumptions=assumptions):
            # The per-observation encoding admits a correction inside
            # the candidate after all (can only disagree with the lane
            # check through a bug) — treat as consistent upstream.
            raise AssertionError(
                "rectify solver and simulation oracle disagree"
            )
        core = solver.core()
        return frozenset(
            gate_by_select[-lit] for lit in core if -lit in gate_by_select
        )

    # -- SAT side --------------------------------------------------------
    def build_master_instance(
        self, k_max: int, solver_backend: str | None = None
    ) -> "DiagnosisInstance":
        from .satdiag import build_master_instance

        session = self.session
        skeleton = session.master_skeleton
        if skeleton is not None and (
            skeleton.circuit is not session.circuit
            or skeleton.constrain_all_outputs
            != session.constrain_all_outputs
        ):
            raise ValueError(
                "session.master_skeleton does not match the session's "
                "circuit design or output-constraint semantics"
            )
        return build_master_instance(
            session.circuit,
            session.tests,
            k_max=k_max,
            constrain_all_outputs=session.constrain_all_outputs,
            solver_backend=solver_backend,
            skeleton=skeleton,
        )


class GroupedCNFSystem(SystemDescription):
    """Weak-fault-model diagnosis over assumable clause groups (GCNF).

    ``gcnf`` supplies the hard background (group 0) and ``k`` assumable
    groups; each group is one component (named ``g1 .. gk`` unless
    ``component_names`` overrides).  An observation is a sequence of
    assumption literals over the formula's variables.  A candidate Δ is
    consistent with an observation iff::

        background ∧ (groups \\ Δ) ∧ observation    is satisfiable

    — the flamapy/QuickXplain ``B`` + ``C`` shape, with the session's
    incremental solvers doing the checking: one persistent checker per
    backend carries every group clause guarded by its selection literal
    (``clause ∨ s_c``), so a consistency probe is a solve under
    assumptions ``¬s_c`` for the kept groups plus the observation
    literals; the UNSAT core over the ``¬s_c`` pins is a sound conflict.

    >>> from repro.sat.dimacs import GroupedCNF
    >>> g = GroupedCNF()
    >>> g.add_clause(1, [1]); g.add_clause(2, [-1])
    >>> system = GroupedCNFSystem(g, observations=[()])
    >>> system.components
    ('g1', 'g2')
    """

    kind = "gcnf"

    def __init__(
        self,
        gcnf,
        observations: Sequence[Sequence[int]],
        component_names: Sequence[str] | None = None,
    ) -> None:
        if not gcnf.num_groups:
            raise ValueError("a grouped CNF system needs assumable groups")
        if not observations:
            raise ValueError(
                "diagnosis requires at least one observation "
                "(use one empty observation for plain consistency)"
            )
        self.gcnf = gcnf
        if component_names is None:
            names = tuple(f"g{i}" for i in range(1, gcnf.num_groups + 1))
        else:
            names = tuple(component_names)
            if len(names) != gcnf.num_groups:
                raise ValueError(
                    f"{gcnf.num_groups} groups but "
                    f"{len(names)} component names"
                )
            if len(set(names)) != len(names):
                raise ValueError("duplicate component names")
        self._components = names
        self.group_of = {name: i for i, name in enumerate(names, start=1)}
        obs: list[tuple[int, ...]] = []
        for lits in observations:
            row = tuple(int(l) for l in lits)
            for lit in row:
                if lit == 0 or abs(lit) > gcnf.num_vars:
                    raise ValueError(
                        f"observation literal {lit} outside the formula's "
                        f"{gcnf.num_vars} variables"
                    )
            obs.append(row)
        self.observations: tuple[tuple[int, ...], ...] = tuple(obs)
        self._checkers: dict[
            str | None, tuple[object, dict[str, int]]
        ] = {}

    @property
    def components(self) -> tuple[str, ...]:
        return self._components

    @property
    def m(self) -> int:
        return len(self.observations)

    # -- checker solver ---------------------------------------------------
    def _checker(self, solver_backend: str | None):
        """Persistent per-backend consistency solver: background clauses
        plus every group clause guarded by its selection literal."""
        from ..sat.backends import resolve_backend

        session_backend = (
            self.session.solver_backend if self.session is not None else None
        )
        backend = resolve_backend(
            solver_backend if solver_backend is not None else session_backend
        )
        cached = self._checkers.get(backend)
        if cached is not None:
            return cached
        cnf = CNF()
        # Formula variables first, identity-mapped, so observation
        # literals are used verbatim.
        for v in range(1, self.gcnf.num_vars + 1):
            cnf.new_var()
        select_of = {
            name: cnf.new_var(f"s:{name}") for name in self._components
        }
        for clause in self.gcnf.background:
            cnf.add_clause(clause)
        for name in self._components:
            s_var = select_of[name]
            for clause in self.gcnf.groups[self.group_of[name] - 1]:
                # Enforced while the group is *not* retracted (¬s_c).
                cnf.add_clause(tuple(clause) + (s_var,))
        solver = cnf.to_solver(backend=backend)
        self._checkers[backend] = (solver, select_of)
        return solver, select_of

    def _assumptions(
        self, select_of: Mapping[str, int], candidate: frozenset[str], j: int
    ) -> list[int]:
        # Pins first (stable across observations — trail-prefix reuse),
        # then the observation literals.
        return [
            -select_of[name]
            for name in self._components
            if name not in candidate
        ] + list(self.observations[j])

    # -- consistency oracle ---------------------------------------------
    def rect_word(self, candidate: frozenset[str]) -> int:
        solver, select_of = self._checker(None)
        word = 0
        for j in range(self.m):
            if solver.solve(
                assumptions=self._assumptions(select_of, candidate, j)
            ):
                word |= 1 << j
        return word

    def singleton_rect_words(self, pool: Sequence[str]) -> dict[str, int]:
        session = self.session
        if session is not None:
            return {c: session.rect_word((c,)) for c in pool}
        return {c: self.rect_word(frozenset((c,))) for c in pool}

    # -- conflict structure ---------------------------------------------
    def observation_conflict(self, j: int) -> frozenset[str]:
        # No structure finer than "something must be retracted" without
        # solving; the full component set is the sound cone analogue.
        return frozenset(self._components)

    def observation_core(
        self,
        candidate: Iterable[str],
        j: int,
        solver_backend: str | None = None,
    ) -> frozenset[str]:
        solver, select_of = self._checker(solver_backend)
        gate_by_select = {v: name for name, v in select_of.items()}
        if solver.solve(
            assumptions=self._assumptions(
                select_of, frozenset(candidate), j
            )
        ):
            raise AssertionError(
                "grouped-CNF checker and rectification oracle disagree"
            )
        core = solver.core()
        # Observation literals in the core are facts, not retractable
        # components — only the ¬s pins name components.
        return frozenset(
            gate_by_select[-lit] for lit in core if -lit in gate_by_select
        )

    # -- SAT side --------------------------------------------------------
    def build_master_instance(
        self, k_max: int, solver_backend: str | None = None
    ) -> "DiagnosisInstance":
        from .satdiag import _finish_instance

        start = time.perf_counter()
        suspect_list = self._components
        cnf = CNF()
        select_of = {g: cnf.new_var(f"s:{g}") for g in suspect_list}
        signal_of: dict[tuple[int, str], int] = {}
        # One full variable copy per observation (selects shared), each
        # carrying the background, the guarded group clauses and the
        # observation's literals as units.
        for j in range(self.m):
            vmap = {
                v: cnf.new_var() for v in range(1, self.gcnf.num_vars + 1)
            }

            def mapped(clause: tuple[int, ...]) -> list[int]:
                return [
                    vmap[lit] if lit > 0 else -vmap[-lit] for lit in clause
                ]

            for clause in self.gcnf.background:
                cnf.add_clause(mapped(clause))
            for name in suspect_list:
                s_var = select_of[name]
                for clause in self.gcnf.groups[self.group_of[name] - 1]:
                    cnf.add_clause(mapped(clause) + [s_var])
            for lit in self.observations[j]:
                cnf.add_clause(mapped((lit,)))
        return _finish_instance(
            None, None, cnf, select_of, {}, signal_of,
            suspect_list, k_max, None, solver_backend, True, start,
            num_observations=self.m,
        )


class SpectrumSystem(SystemDescription):
    """Spectrum-based fault localization as weak-fault-model MBD.

    Components are code elements; each observation is one test run given
    as ``(covered, passed)`` — the set of elements the run executed and
    whether it passed.  Under the weak fault model a candidate explains
    a failing run iff the run covered at least one candidate element
    (the faulty element must have executed for the failure to manifest);
    passing runs are unconstrained.  Diagnoses are therefore the minimal
    covers of the failing rows — the classic staccato/set-cover view of
    program spectra.

    >>> s = SpectrumSystem(
    ...     ["a", "b"], [(("a",), False), (("a", "b"), True)]
    ... )
    >>> s.m
    2
    """

    kind = "spectrum"

    def __init__(
        self,
        components: Sequence[str],
        rows: Sequence[tuple[Iterable[str], bool]],
    ) -> None:
        comps = tuple(dict.fromkeys(components))
        if not comps:
            raise ValueError("a spectrum system needs components")
        if not rows:
            raise ValueError("diagnosis requires at least one observation")
        self._components = comps
        known = set(comps)
        parsed: list[tuple[frozenset[str], bool]] = []
        for covered, passed in rows:
            cov = frozenset(covered)
            extra = cov - known
            if extra:
                raise ValueError(
                    f"coverage row mentions unknown components "
                    f"{sorted(extra)}"
                )
            parsed.append((cov, bool(passed)))
        self.rows: tuple[tuple[frozenset[str], bool], ...] = tuple(parsed)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SpectrumSystem":
        """Build from the JSON shape the CLI and benches use::

            {"components": ["c1", ...],
             "rows": [{"covered": ["c1", ...], "passed": false}, ...]}

        ``covered`` may also be a 0/1 coverage *vector* aligned with
        ``components`` (the classic spectrum-matrix shape).  Malformed
        input raises :class:`ValueError` naming the offending field —
        never a bare ``KeyError``/``IndexError`` (matching the
        :mod:`repro.sat.dimacs` GCNF errors).
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                "spectrum JSON must be an object with 'components' "
                "and 'rows'"
            )
        try:
            components = data["components"]
        except KeyError:
            raise ValueError(
                "spectrum JSON is missing the 'components' field"
            ) from None
        if isinstance(components, (str, bytes)) or not isinstance(
            components, Sequence
        ):
            raise ValueError(
                "'components' must be a list of component names"
            )
        for idx, comp in enumerate(components):
            if not isinstance(comp, str):
                raise ValueError(
                    f"components[{idx}] must be a string, got "
                    f"{type(comp).__name__}"
                )
        try:
            raw_rows = data["rows"]
        except KeyError:
            raise ValueError(
                "spectrum JSON is missing the 'rows' field"
            ) from None
        if isinstance(raw_rows, (str, bytes)) or not isinstance(
            raw_rows, Sequence
        ):
            raise ValueError("'rows' must be a list of row objects")
        rows = []
        for i, row in enumerate(raw_rows):
            if not isinstance(row, Mapping):
                raise ValueError(
                    f"rows[{i}] must be an object with 'covered' and "
                    "'passed'"
                )
            try:
                covered = row["covered"]
            except KeyError:
                raise ValueError(
                    f"rows[{i}] is missing the 'covered' field"
                ) from None
            try:
                passed = row["passed"]
            except KeyError:
                raise ValueError(
                    f"rows[{i}] is missing the 'passed' field"
                ) from None
            if not isinstance(passed, bool) and passed not in (0, 1):
                raise ValueError(
                    f"rows[{i}].passed must be a boolean or 0/1, got "
                    f"{passed!r}"
                )
            rows.append(
                (cls._parse_covered(covered, components, i), bool(passed))
            )
        return cls(components, rows)

    @staticmethod
    def _parse_covered(
        covered: object, components: Sequence[str], i: int
    ) -> tuple[str, ...]:
        """One row's coverage: a name list or a 0/1 vector."""
        if isinstance(covered, (str, bytes)) or not isinstance(
            covered, Sequence
        ):
            raise ValueError(
                f"rows[{i}].covered must be a list of component names "
                "or a 0/1 coverage vector"
            )
        if all(isinstance(c, str) for c in covered):
            return tuple(covered)
        # 0/1 vector aligned with the component list.
        if len(covered) != len(components):
            raise ValueError(
                f"rows[{i}].covered: coverage vector has "
                f"{len(covered)} entries for {len(components)} "
                "components"
            )
        names = []
        for j, bit in enumerate(covered):
            if not isinstance(bit, bool) and bit not in (0, 1):
                raise ValueError(
                    f"rows[{i}].covered[{j}] must be a component name "
                    f"or 0/1, got {bit!r}"
                )
            if bit:
                names.append(components[j])
        return tuple(names)

    @property
    def components(self) -> tuple[str, ...]:
        return self._components

    @property
    def m(self) -> int:
        return len(self.rows)

    # -- consistency oracle ---------------------------------------------
    def rect_word(self, candidate: frozenset[str]) -> int:
        word = 0
        for j, (covered, passed) in enumerate(self.rows):
            if passed or (covered & candidate):
                word |= 1 << j
        return word

    def failing_word(self) -> int:
        word = 0
        for j, (_, passed) in enumerate(self.rows):
            if not passed:
                word |= 1 << j
        return word

    def singleton_rect_words(self, pool: Sequence[str]) -> dict[str, int]:
        pass_word = 0
        for j, (_, passed) in enumerate(self.rows):
            if passed:
                pass_word |= 1 << j
        words: dict[str, int] = {}
        for c in pool:
            word = pass_word
            for j, (covered, passed) in enumerate(self.rows):
                if not passed and c in covered:
                    word |= 1 << j
            words[c] = word
        return words

    # -- conflict structure ---------------------------------------------
    def observation_conflict(self, j: int) -> frozenset[str]:
        covered, passed = self.rows[j]
        return frozenset() if passed else covered

    def observation_core(
        self,
        candidate: Iterable[str],
        j: int,
        solver_backend: str | None = None,
    ) -> frozenset[str]:
        covered, passed = self.rows[j]
        cand = frozenset(candidate)
        if passed or (covered & cand):
            raise AssertionError(
                "observation_core called on a consistent observation"
            )
        # The failing row's coverage is the exact conflict — disjoint
        # from the candidate by the precondition.  Empty coverage means
        # the failure is unexplainable by any component.
        return covered

    # -- SAT side --------------------------------------------------------
    def build_master_instance(
        self, k_max: int, solver_backend: str | None = None
    ) -> "DiagnosisInstance":
        from .satdiag import _finish_instance

        start = time.perf_counter()
        suspect_list = self._components
        cnf = CNF()
        select_of = {g: cnf.new_var(f"s:{g}") for g in suspect_list}
        for covered, passed in self.rows:
            if passed:
                continue
            if covered:
                cnf.add_clause([select_of[c] for c in sorted(covered)])
            else:
                # An uncovered failure is unexplainable: make the
                # instance unsatisfiable (the CNF container rejects
                # literal-free clauses, so spend a variable).
                v = cnf.new_var()
                cnf.add_clause([v])
                cnf.add_clause([-v])
        return _finish_instance(
            None, None, cnf, select_of, {}, {},
            suspect_list, k_max, None, solver_backend, True, start,
            num_observations=self.m,
        )
