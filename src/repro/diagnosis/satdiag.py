"""SAT-based diagnosis — the paper's BSAT (Figs. 2 and 3).

The diagnosis instance ``F`` is constructed exactly as in the paper:

* one copy of the implementation per test ``(t_i, o_i, v_i)``, inputs
  constrained to ``t_i`` and the erroneous output to its correct value
  ``v_i`` (other outputs are free — Definition 1 semantics; the stricter
  all-outputs mode is available when tests carry golden values);
* a correction multiplexer at every candidate gate ``g``: the select line
  ``s_g`` is *shared across copies* while the injected value ``c_g^i`` is
  free per test — so a selected gate may realize any Boolean function;
* a cardinality bound: at most ``i`` select lines may be 1, with ``i``
  incremented from 1 to ``k`` while blocking found solutions — which makes
  every reported correction contain only essential candidates (Lemma 3).

``BasicSATDiagnose`` returns every solution; each solution also carries the
per-test correction values ("the 'correct' function of the gate", §4).

Instance lifetime
-----------------

An instance is built **once** and then serves any number of queries on
one persistent incremental solver (see the lifetime diagram in the
:mod:`repro.sat` docstring): the cardinality bound is an
:class:`~repro.sat.cardinality.IncrementalTotalizer` that extends in
place when a later query needs a larger ``k``, and each enumeration runs
under a fresh *activation literal* so its blocking clauses retract when
the query ends.

Sessions go one step further with a **master encoding**: one CNF with
correction muxes on *every* functional gate (plus the ``(s_g ∨ ¬c_g^i)``
pruning clauses, so an unselected mux propagates instead of costing
decisions), built once per backend.  Any suspect pool is then a *view*
(:meth:`DiagnosisInstance.derive_view`): the same solver, queried under
assumptions that pin the non-suspect selects to 0 — deriving a pool
instance costs a tuple of pin literals instead of a CNF rebuild, and the
solver's longest-common-prefix trail reuse keeps the pins' implied trail
segment alive across bound bumps and pool churn.
:meth:`repro.diagnosis.core.DiagnosisSession.instance` caches one master
per backend and one view per (suspects, options), so ``bsat``,
``bsat-auto-k``, the hybrids (repair radii), the partitioned funnel and
the IHS loop all share one encoded instance — no per-pool rebuilds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..circuits.netlist import Circuit
from ..sat.budget import SearchInterrupted
from ..sat.cardinality import IncrementalTotalizer
from ..sat.cnf import CNF
from ..sat.enumerate import _DELTA_KEYS, enumerate_solutions
from ..sat.solver import Solver
from ..sat.tseitin import encode_gate, encode_mux
from ..testgen.testset import TestSet
from .base import Correction, SolutionSetResult
from .core import ALL_SYSTEM_KINDS, DiagnosisSession, register_strategy

__all__ = [
    "DiagnosisInstance",
    "MasterEncodingSkeleton",
    "build_diagnosis_instance",
    "build_master_instance",
    "basic_sat_diagnose",
    "auto_k_sat_diagnose",
]


@dataclass
class DiagnosisInstance:
    """The SAT instance ``F`` plus the bookkeeping to interpret models.

    ``circuit``/``tests`` are None on instances built by a non-circuit
    :class:`~repro.diagnosis.system.SystemDescription`; those carry the
    observation count in ``num_observations`` instead.
    """

    circuit: Circuit | None
    tests: TestSet | None
    cnf: CNF
    solver: Solver
    select_of: dict[str, int]
    gate_of: dict[int, str]
    correction_of: dict[tuple[int, str], int]
    signal_of: dict[tuple[int, str], int]
    bound_outputs: list[int]
    k_max: int
    suspects: tuple[str, ...]
    build_time: float = 0.0
    extras: dict[str, object] = field(default_factory=dict)
    #: Incremental totalizer behind ``bound_outputs`` (present on all new
    #: instances; None only for hand-built legacy instances).
    totalizer: IncrementalTotalizer | None = None
    #: Persistent instances live in a session cache and serve many
    #: queries; their enumerations are scoped by activation literals and
    #: their complete results are memoized in ``results_cache``.
    persistent: bool = False
    solver_backend: str | None = None
    results_cache: dict = field(default_factory=dict)
    _scope_count: int = 0
    #: ``¬s_g`` literals pinning non-suspect selects to 0 — non-empty only
    #: on views derived from a session master encoding.
    pin_assumptions: tuple[int, ...] = ()
    #: The master instance a view was derived from (None: standalone).
    master: "DiagnosisInstance | None" = None
    #: Observation count for instances without a test set (non-circuit
    #: system descriptions); None means ``len(tests)``.
    num_observations: int | None = None

    @property
    def observation_count(self) -> int:
        if self.num_observations is not None:
            return self.num_observations
        return len(self.tests)

    def base_assumptions(self) -> list[int]:
        """Assumptions every query on this instance must include.

        Empty on standalone instances; on a master view these are the
        ``¬s_g`` pins that restrict the encoding to the view's suspect
        pool.  Callers put them *first* in the assumption list so the
        solver's longest-common-prefix trail reuse keeps their implied
        trail segment alive across bound bumps and repeated queries.
        """
        return list(self.pin_assumptions)

    def bound_assumptions(self, bound: int) -> list[int]:
        """Assumption literals enforcing "at most ``bound`` selects"."""
        if self.totalizer is not None:
            # Views share the master's totalizer, whose outputs may have
            # been extended through a sibling view — its own method
            # always sees the current outputs.
            return self.totalizer.bound_assumptions(bound)
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if bound >= len(self.bound_outputs):
            return []
        return [-self.bound_outputs[bound]]

    def extend_k(self, k_max: int) -> None:
        """Grow the cardinality bound in place (incremental totalizer)."""
        if k_max <= self.k_max:
            return
        if self.master is not None:
            self.master.extend_k(k_max)
            self.bound_outputs = self.master.bound_outputs
            self.k_max = k_max
            self.results_cache.clear()  # cached keys are per-k sweeps
            return
        if self.totalizer is None:
            raise ValueError(
                "instance was built without an incremental totalizer"
            )
        self.totalizer.extend(min(k_max, len(self.suspects)))
        self.bound_outputs = self.totalizer.outputs
        self.k_max = k_max
        self.results_cache.clear()  # cached keys are per-k sweeps

    def derive_view(
        self, suspects: Sequence[str] | None
    ) -> "DiagnosisInstance":
        """A suspect-pool *view* over this (master) instance.

        The view shares the solver, CNF, totalizer and correction
        bookkeeping; it differs only in its ``select_of``/``suspects``
        projection and in :meth:`base_assumptions`, which pin every
        non-suspect select to 0.  Deriving a view is O(|gates|) — no CNF
        is built — and its solution sets equal a freshly built
        ``build_diagnosis_instance(suspects=...)`` by construction (the
        pinned mux collapses to the direct gate encoding).
        """
        if suspects is None:
            suspect_list = self.suspects
        else:
            suspect_list = tuple(dict.fromkeys(suspects))
        select = self.select_of
        for s in suspect_list:
            if s not in select:
                raise ValueError(
                    f"suspect {s!r} is not a candidate gate of the "
                    "master encoding"
                )
        keep = set(suspect_list)
        pins = tuple(
            -select[g] for g in self.suspects if g not in keep
        )
        return DiagnosisInstance(
            circuit=self.circuit,
            tests=self.tests,
            cnf=self.cnf,
            solver=self.solver,
            select_of={g: select[g] for g in suspect_list},
            gate_of={select[g]: g for g in suspect_list},
            correction_of=self.correction_of,
            signal_of=self.signal_of,
            bound_outputs=self.bound_outputs,
            k_max=self.k_max,
            suspects=suspect_list,
            build_time=self.build_time,  # the encoding the view rides on
            totalizer=self.totalizer,
            persistent=True,
            solver_backend=self.solver_backend,
            pin_assumptions=pins,
            master=self,
            num_observations=self.num_observations,
        )

    def begin_scope(self) -> int:
        """Open an enumeration scope: returns a fresh activation literal.

        Assume it on every solve and append its negation to every
        blocking clause; close with :meth:`end_scope` so the blocks
        retract and the next query sees the unblocked instance.  Views
        delegate to their master (one scope counter per encoded CNF).
        """
        if self.master is not None:
            return self.master.begin_scope()
        self._scope_count += 1
        act = self.cnf.new_var(f"act:{self._scope_count}")
        self.solver.ensure_vars(act)
        return act

    def end_scope(self, act: int) -> None:
        """Close an enumeration scope.

        The scope's blocking clauses all carry ``¬act``, so simply never
        assuming ``act`` again retracts them: any later model is free to
        set ``act`` false (the saved phase tries that first).  No root
        unit is pushed into the *solver* — pinning ``¬act`` at level 0
        would reset the whole trail (a unit insertion cancels to the
        root) and defeat the cross-query pin-prefix trail reuse the
        master views rely on.  The CNF mirror does record the
        retirement, so a freshly rebuilt solver pins retired scopes.
        """
        if self.master is not None:
            self.master.end_scope(act)
            return
        self.cnf.add_clause([-act])

    def solution_from_model(self) -> Correction:
        """Selected gates in the solver's current model."""
        return frozenset(
            g for g, s in self.select_of.items() if self.solver.value(s)
        )

    def correction_values(self, solution: Iterable[str]) -> dict[str, list[int]]:
        """Per-test injected values ``c_g^i`` for each gate of ``solution``.

        Must be called while the solver still holds the model.  These values
        are the witness of *how* to fix each gate per test — the paper notes
        they can be exploited to determine the corrected function.
        """
        result: dict[str, list[int]] = {}
        for gate in solution:
            vals: list[int] = []
            for i in range(self.observation_count):
                var = self.correction_of.get((i, gate))
                # Master encodings only carry a witness where the gate
                # reaches the test's constrained cone; elsewhere the
                # injected value is a don't-care (-1).
                val = None if var is None else self.solver.value(var)
                vals.append(-1 if val is None else int(val))
            result[gate] = vals
        return result


def build_diagnosis_instance(
    circuit: Circuit,
    tests: TestSet,
    k_max: int,
    suspects: Sequence[str] | None = None,
    constrain_all_outputs: bool = False,
    select_zero_clauses: bool = False,
    solver: Solver | None = None,
    solver_backend: str | None = None,
    persistent: bool = False,
) -> DiagnosisInstance:
    """Construct the SAT instance of Fig. 2(b)/Fig. 3 step (1).

    Parameters
    ----------
    suspects:
        Gates receiving a correction multiplexer (default: every functional
        gate — BSAT; the advanced approach passes dominators here).
    constrain_all_outputs:
        Constrain every primary output to its golden value (requires tests
        built with ``attach_expected``); default is the paper's
        single-output semantics.
    select_zero_clauses:
        Add the advanced heuristic clauses ``(s_g ∨ ¬c_g^i)`` forcing the
        free value to 0 while its multiplexer is unselected, which "prevents
        up to |I| decisions of the SAT-solver" (§2.3).
    solver_backend:
        Registered SAT backend name (:mod:`repro.sat.backends`); None =
        the default arena solver.  Mutually exclusive with ``solver``.
    persistent:
        Mark the instance as living in a session cache: enumerations over
        it are scoped with activation literals and complete results are
        memoized (see :func:`basic_sat_diagnose`).
    """
    start = time.perf_counter()
    suspect_list = _validated_suspects(circuit, tests, suspects)
    suspect_set = set(suspect_list)

    cnf = CNF()
    select_of = {g: cnf.new_var(f"s:{g}") for g in suspect_list}
    correction_of: dict[tuple[int, str], int] = {}

    def encode_suspect(i, name, gate, fanin_vars):
        raw = cnf.new_var(f"t{i}:{name}:raw")
        encode_gate(cnf, gate.gtype, raw, fanin_vars)
        c_var = cnf.new_var(f"t{i}:c:{name}")
        correction_of[(i, name)] = c_var
        eff = cnf.new_var(f"t{i}:{name}")
        encode_mux(cnf, eff, select_of[name], c_var, raw)
        if select_zero_clauses:
            cnf.add_clause([select_of[name], -c_var])
        return eff

    signal_of = _encode_test_copies(
        circuit, tests, cnf, suspect_set, constrain_all_outputs,
        encode_suspect,
    )
    return _finish_instance(
        circuit, tests, cnf, select_of, correction_of, signal_of,
        suspect_list, k_max, solver, solver_backend, persistent, start,
    )


def _validated_suspects(circuit, tests, suspects):
    """Shared builder front door: structural checks + suspect list."""
    if not circuit.is_combinational:
        raise ValueError(
            "diagnosis instances require a combinational circuit; "
            "apply repro.circuits.to_combinational first"
        )
    if not len(tests):
        raise ValueError("diagnosis requires at least one failing test")
    if suspects is None:
        return circuit.gate_names
    suspect_list = tuple(dict.fromkeys(suspects))
    for s in suspect_list:
        if not circuit.node(s).is_functional:
            raise ValueError(f"suspect {s!r} is not a functional gate")
    return suspect_list


def _encode_test_copies(
    circuit: Circuit,
    tests: TestSet,
    cnf: CNF,
    suspect_set: set[str],
    constrain_all_outputs: bool,
    encode_suspect,
    cone_for=None,
) -> dict[tuple[int, str], int]:
    """One circuit copy per test: inputs pinned to the vector, the
    constrained output(s) asserted, suspect gates delegated to
    ``encode_suspect(i, name, gate, fanin_vars) -> eff var`` (which owns
    the mux flavour and the correction bookkeeping).  ``cone_for(test)``
    optionally restricts a copy to a signal subset (the master's
    fan-in-cone optimization).  Returns ``signal_of``."""
    signal_of: dict[tuple[int, str], int] = {}
    topo = circuit.topological_order()
    for i, test in enumerate(tests):
        if constrain_all_outputs and test.expected_outputs is None:
            raise ValueError(
                "constrain_all_outputs requires tests with expected_outputs"
            )
        cone = None if cone_for is None else cone_for(test)
        for name in topo:
            if cone is not None and name not in cone:
                continue
            gate = circuit.node(name)
            if gate.is_input:
                var = cnf.new_var(f"t{i}:{name}")
                signal_of[(i, name)] = var
                try:
                    value = test.vector[name]
                except KeyError:
                    raise ValueError(
                        f"test {i} does not assign primary input {name!r}"
                    ) from None
                cnf.add_clause([var if value else -var])
                continue
            fanin_vars = [signal_of[(i, f)] for f in gate.fanins]
            if name in suspect_set:
                signal_of[(i, name)] = encode_suspect(
                    i, name, gate, fanin_vars
                )
            else:
                var = cnf.new_var(f"t{i}:{name}")
                encode_gate(cnf, gate.gtype, var, fanin_vars)
                signal_of[(i, name)] = var
        if constrain_all_outputs:
            assert test.expected_outputs is not None
            for out in circuit.outputs:
                var = signal_of[(i, out)]
                expected = test.expected_outputs[out]
                cnf.add_clause([var if expected else -var])
        else:
            var = signal_of[(i, test.output)]
            cnf.add_clause([var if test.value else -var])
    return signal_of


def _finish_instance(
    circuit: Circuit | None,
    tests: TestSet | None,
    cnf: CNF,
    select_of: dict[str, int],
    correction_of: dict[tuple[int, str], int],
    signal_of: dict[tuple[int, str], int],
    suspect_list: tuple[str, ...],
    k_max: int,
    solver: Solver | None,
    solver_backend: str | None,
    persistent: bool,
    start: float,
    num_observations: int | None = None,
) -> DiagnosisInstance:
    """Shared builder tail: totalizer, solver hand-off, instance."""
    tot = IncrementalTotalizer(
        cnf,
        [select_of[g] for g in suspect_list],
        min(k_max, len(suspect_list)),
    )
    built_solver = cnf.to_solver(solver, backend=solver_backend)
    tot.bind_solver(built_solver)
    return DiagnosisInstance(
        circuit=circuit,
        tests=tests,
        cnf=cnf,
        solver=built_solver,
        select_of=select_of,
        gate_of={v: g for g, v in select_of.items()},
        correction_of=correction_of,
        signal_of=signal_of,
        bound_outputs=tot.outputs,
        k_max=k_max,
        suspects=suspect_list,
        build_time=time.perf_counter() - start,
        totalizer=tot,
        persistent=persistent,
        solver_backend=solver_backend,
        num_observations=num_observations,
    )


@dataclass(frozen=True)
class _ConeTemplate:
    """One output cone of the master encoding, pre-encoded once per design.

    Variable space: ids ``1..S`` are the shared select lines (one per
    suspect, in suspect order); ids ``S+1..`` are *local* signals of one
    test copy, allocated in topological walk order.  ``items`` replays
    the copy in emission order — ``("input", name, var)`` marks where the
    per-test input unit clause goes, ``("clause", lits)`` is a structural
    clause to stamp — so instantiation reproduces the exact variable
    numbering and clause order of a from-scratch master build.
    """

    suffixes: tuple[str | None, ...]
    items: tuple[tuple, ...]
    signal: dict[str, int]
    eff: dict[str, int]


class MasterEncodingSkeleton:
    """The observation-independent half of the master correction encoding.

    Built **once per circuit design** and shared by every device (test
    set) of that design: the suspect list with its fixed select-variable
    layout, per-output fan-in cones, and per-cone clause *templates*
    (:class:`_ConeTemplate`).  :meth:`instantiate` then stamps one
    template per test — a tuple-translation pass, no topological walk,
    no Tseitin re-encoding — and finishes with the totalizer and solver
    hand-off.  ``instantiate`` output is bit-identical to the historic
    monolithic builder (same variable ids, names and clause order), so
    the master-encoding parity suite pins the refactor.

    Template construction is lazy per output and guarded by a lock, so a
    skeleton can be shared by concurrent service shards.
    """

    def __init__(
        self, circuit: Circuit, constrain_all_outputs: bool = False
    ) -> None:
        if not circuit.is_combinational:
            raise ValueError(
                "diagnosis instances require a combinational circuit; "
                "apply repro.circuits.to_combinational first"
            )
        self.circuit = circuit
        self.constrain_all_outputs = constrain_all_outputs
        self.suspects: tuple[str, ...] = circuit.gate_names
        self._suspect_set = set(self.suspects)
        self._select_index = {
            g: j + 1 for j, g in enumerate(self.suspects)
        }
        self._topo = circuit.topological_order()
        self._templates: dict[str | None, _ConeTemplate] = {}
        self._lock = threading.Lock()
        self.stats = {"templates_built": 0, "instances": 0}

    # ------------------------------------------------------------------
    # per-design artifacts
    # ------------------------------------------------------------------
    def _template(self, key: str | None) -> _ConeTemplate:
        tpl = self._templates.get(key)
        if tpl is not None:
            return tpl
        with self._lock:
            tpl = self._templates.get(key)
            if tpl is None:
                tpl = self._build_template(key)
                self._templates[key] = tpl
                self.stats["templates_built"] += 1
        return tpl

    def _build_template(self, key: str | None) -> _ConeTemplate:
        """Encode one test copy over cone ``key`` into a scratch CNF.

        ``key`` is the constrained output, or None for the
        all-outputs-constrained union cone.
        """
        circuit = self.circuit
        if key is None:
            cone = frozenset().union(
                *map(circuit.fanin_cone, circuit.outputs)
            )
        else:
            cone = circuit.fanin_cone(key)
        scratch = CNF()
        for g in self.suspects:
            scratch.new_var(f"s:{g}")
        n_sel = len(self.suspects)
        suffixes: list[str | None] = []
        items: list[tuple] = []
        signal: dict[str, int] = {}
        eff: dict[str, int] = {}

        def local(suffix: str) -> int:
            return scratch.new_var(f"T:{suffix}")

        mark = scratch.num_clauses
        for name in self._topo:
            if name not in cone:
                continue
            gate = circuit.node(name)
            if gate.is_input:
                var = local(name)
                signal[name] = var
                items.append(("input", name, var))
                continue
            fanin_vars = [signal[f] for f in gate.fanins]
            if name in self._suspect_set:
                raw = local(f"{name}:raw")
                encode_gate(scratch, gate.gtype, raw, fanin_vars)
                s_var = self._select_index[name]
                eff_var = local(name)
                scratch.add_clause([s_var, -eff_var, raw])
                scratch.add_clause([s_var, eff_var, -raw])
                eff[name] = eff_var
                signal[name] = eff_var
            else:
                var = local(name)
                encode_gate(scratch, gate.gtype, var, fanin_vars)
                signal[name] = var
            for clause in scratch.clauses[mark:]:
                items.append(("clause", clause))
            mark = scratch.num_clauses
        # Replay list for the copy's local variables in allocation order;
        # None marks an anonymous Tseitin auxiliary (wide-XOR chains).
        for v in range(n_sel + 1, scratch.num_vars + 1):
            name = scratch.name_of(v)
            suffixes.append(None if name is None else name[2:])
        return _ConeTemplate(
            suffixes=tuple(suffixes),
            items=tuple(items),
            signal=signal,
            eff=eff,
        )

    # ------------------------------------------------------------------
    # per-device instantiation
    # ------------------------------------------------------------------
    def instantiate(
        self,
        tests: TestSet,
        k_max: int,
        solver_backend: str | None = None,
    ) -> DiagnosisInstance:
        """Stamp per-device test copies onto the design skeleton.

        Returns a persistent master :class:`DiagnosisInstance` identical
        to a from-scratch :func:`build_master_instance` build.
        """
        start = time.perf_counter()
        if not len(tests):
            raise ValueError("diagnosis requires at least one failing test")
        circuit = self.circuit
        n_sel = len(self.suspects)
        cnf = CNF()
        select_of = {g: cnf.new_var(f"s:{g}") for g in self.suspects}
        correction_of: dict[tuple[int, str], int] = {}
        signal_of: dict[tuple[int, str], int] = {}
        for i, test in enumerate(tests):
            if self.constrain_all_outputs and test.expected_outputs is None:
                raise ValueError(
                    "constrain_all_outputs requires tests with "
                    "expected_outputs"
                )
            tpl = self._template(
                None if self.constrain_all_outputs else test.output
            )
            offset = cnf.num_vars - n_sel
            for suffix in tpl.suffixes:
                cnf.new_var(None if suffix is None else f"t{i}:{suffix}")
            for item in tpl.items:
                if item[0] == "input":
                    _, name, tvar = item
                    var = tvar + offset
                    try:
                        value = test.vector[name]
                    except KeyError:
                        raise ValueError(
                            f"test {i} does not assign primary input "
                            f"{name!r}"
                        ) from None
                    cnf.add_clause([var if value else -var])
                else:
                    cnf.add_clause([
                        lit if abs(lit) <= n_sel
                        else (lit + offset if lit > 0 else lit - offset)
                        for lit in item[1]
                    ])
            if self.constrain_all_outputs:
                assert test.expected_outputs is not None
                for out in circuit.outputs:
                    var = tpl.signal[out] + offset
                    expected = test.expected_outputs[out]
                    cnf.add_clause([var if expected else -var])
            else:
                var = tpl.signal[test.output] + offset
                cnf.add_clause([var if test.value else -var])
            for name, tvar in tpl.signal.items():
                signal_of[(i, name)] = tvar + offset
            for g, eff_var in tpl.eff.items():
                correction_of[(i, g)] = eff_var + offset
        self.stats["instances"] += 1
        return _finish_instance(
            circuit, tests, cnf, select_of, correction_of, signal_of,
            self.suspects, k_max, None, solver_backend, True, start,
        )


def build_master_instance(
    circuit: Circuit,
    tests: TestSet,
    k_max: int,
    constrain_all_outputs: bool = False,
    solver_backend: str | None = None,
    skeleton: MasterEncodingSkeleton | None = None,
) -> DiagnosisInstance:
    """The session-wide **master** correction encoding.

    Correction muxes sit on *every* functional gate, so any suspect pool
    is a view derived by assumptions (:meth:`DiagnosisInstance.
    derive_view`) — no per-pool CNF rebuilds.  The mux is encoded
    without an explicit free value ``c_g^i``: the *effective* signal
    ``eff`` doubles as it (``c_g^i ≡ eff_g^i`` whenever ``s_g`` is
    selected), via the two pinning clauses::

        (s_g ∨ ¬eff ∨ raw)   (s_g ∨ eff ∨ ¬raw)    # s=0 ⇒ eff = raw

    When ``s_g = 0`` the mux collapses to the direct gate encoding by
    propagation; when ``s_g = 1`` ``eff`` is free — the same solution
    space as the Fig. 2(b) encoding of :func:`build_diagnosis_instance`
    (asserted by the parity suite), but with ``|gates| × |T|`` fewer
    variables, so an enumeration redescent never touches a free-value
    tail and ``correction_values`` still reads the per-test witness
    straight off the model.

    Each test copy is further restricted to the **fan-in cone** of its
    constrained output(s): gates outside the cone cannot influence the
    copy's only constraint, so their copy-``i`` signals are never
    encoded (a gate outside every cone still has a select line and a
    totalizer slot, but Lemma 3's superset blocking keeps it out of
    every reported solution — a correction containing it would not be
    essential).  ``correction_values`` reports ``-1`` (“don't care”)
    for tests whose cone a selected gate does not reach.

    The observation-independent half (select layout, cones, per-cone
    clause templates) lives in a :class:`MasterEncodingSkeleton`; pass
    one via ``skeleton`` to amortize it across every device of a design
    (the serving path), or let this wrapper build a throwaway one.
    """
    if skeleton is None:
        skeleton = MasterEncodingSkeleton(circuit, constrain_all_outputs)
    else:
        if skeleton.circuit is not circuit:
            raise ValueError(
                "skeleton was built for a different circuit design"
            )
        if skeleton.constrain_all_outputs != constrain_all_outputs:
            raise ValueError(
                "skeleton output-constraint semantics do not match"
            )
    return skeleton.instantiate(
        tests, k_max, solver_backend=solver_backend
    )


def basic_sat_diagnose(
    circuit: Circuit,
    tests: TestSet,
    k: int,
    suspects: Sequence[str] | None = None,
    constrain_all_outputs: bool = False,
    select_zero_clauses: bool = False,
    solution_limit: int | None = None,
    conflict_limit: int | None = None,
    collect_corrections: bool = False,
    instance: DiagnosisInstance | None = None,
    approach_name: str = "BSAT",
    session: DiagnosisSession | None = None,
    solver_backend: str | None = None,
    should_stop: Callable[[], bool] | None = None,
    budget=None,
) -> SolutionSetResult:
    """``BasicSATDiagnose(I, T, k)`` — Fig. 3 of the paper.

    Enumerates *all* corrections with at most ``k`` essential candidates
    (Lemma 3): for each bound ``i = 1 .. k`` all solutions are enumerated
    under the cardinality assumption and blocked with superset clauses, so
    no later solution contains an earlier one.

    Returns a :class:`SolutionSetResult`; when ``collect_corrections`` is
    set, ``extras["corrections"]`` maps each solution to its per-test
    injected values.  A prepared ``session`` supplies the (persistent,
    cached) instance; on a persistent instance the enumeration runs in an
    activation-literal scope — identical solution sets to a fresh
    instance, but no CNF rebuild, and a repeated identical query is
    served from the instance's result memo (``extras["cached"]``).

    ``should_stop`` is the cooperative cancellation hook of the serving
    race: it is polled before each cardinality bound and after each
    enumerated solution (the check interval is one solver call).  A
    cancelled run returns what it found with ``complete=False`` and
    ``extras["cancelled"]=True``, closes its activation scope normally,
    and is **not** memoized — cancellation is external nondeterminism
    that must not poison the instance's result cache.

    ``budget`` (:class:`repro.sat.budget.Budget`) tightens the check
    interval from "one solver call" to "one conflict-poll interval":
    it is threaded into every solve of the enumeration, so a deadline
    or cancellation lands mid-query within
    ``budget.conflict_poll_interval`` conflicts.  A budget-interrupted
    run is treated exactly like a cancelled one (``complete=False``,
    not memoized) and additionally sets ``extras["interrupted"]``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if instance is None:
        # Only route through the session when its output semantics match
        # the caller's request — otherwise the session's flag would
        # silently override ``constrain_all_outputs`` — and when the
        # tests are the session's own (the partitioned strategy
        # diagnoses test chunks the session instance does not encode).
        if (
            session is not None
            and session.constrain_all_outputs == constrain_all_outputs
            and session.tests is tests
        ):
            instance = session.instance(
                k,
                suspects=suspects,
                select_zero_clauses=select_zero_clauses,
                solver_backend=solver_backend,
            )
        else:
            if circuit is None:
                raise ValueError(
                    "building a fresh instance requires a circuit; "
                    "non-circuit SystemDescription sessions must route "
                    "through the session (matching output semantics)"
                )
            instance = build_diagnosis_instance(
                circuit,
                tests,
                k_max=k,
                suspects=suspects,
                constrain_all_outputs=constrain_all_outputs,
                select_zero_clauses=select_zero_clauses,
                solver_backend=solver_backend,
            )
    elif instance.persistent and k > instance.k_max:
        instance.extend_k(k)
    solver = instance.solver
    select_vars = [instance.select_of[g] for g in instance.suspects]

    cache_key = (k, solution_limit, conflict_limit)
    if instance.persistent:
        cached = instance.results_cache.get(cache_key)
        if cached is not None and (
            not collect_corrections or cached["corrections"] is not None
        ):
            start = time.perf_counter()
            extras: dict[str, object] = {
                "solver_stats": dict(solver.stats),
                "n_vars": instance.cnf.num_vars,
                "n_clauses": instance.cnf.num_clauses,
                "solution_stats": list(cached["solution_stats"]),
                "cached": True,
            }
            if collect_corrections:
                extras["corrections"] = dict(cached["corrections"])
            t_all = time.perf_counter() - start
            return SolutionSetResult(
                approach=approach_name,
                k=k,
                solutions=cached["solutions"],
                complete=cached["complete"],
                t_build=0.0,
                t_first=min(cached["t_first"], t_all),
                t_all=t_all,
                extras=extras,
            )

    act = instance.begin_scope() if instance.persistent else 0
    # Pins first (stable across bounds and queries — the trail-reuse
    # prefix), then the per-bound literal, then the per-query scope.
    base_assumptions = instance.base_assumptions()
    extra_assumptions = [act] if act else []
    block_extra = (-act,) if act else ()
    solutions: list[Correction] = []
    corrections: dict[Correction, dict[str, list[int]]] = {}
    solution_stats: list[dict[str, int]] = []
    t_first: float | None = None
    complete = True
    cancelled = False
    interrupted = False
    search_start = time.perf_counter()
    try:
        # The cardinality loop below starts at bound 1, so it never asks
        # whether the *empty* candidate is consistent before enumerating
        # singletons.  For a circuit with a failing test ∅ is trivially
        # inconsistent, but system-style instances (e.g. grouped CNF with
        # a satisfiable observation) admit it — and a selector no clause
        # constrains can then ride along as a spurious singleton before
        # ∅'s blocking clause lands.  ∅ consistent makes ∅ the unique
        # subset-minimal solution, so probe it first (one cheap UNSAT
        # call on circuit instances) and skip the loop when it holds.
        probe_assumptions = (
            base_assumptions + [-v for v in select_vars] + extra_assumptions
        )
        probe_before = {key: solver.stats[key] for key in _DELTA_KEYS}
        if budget is None:
            probe = solver.solve(
                assumptions=probe_assumptions, conflict_limit=conflict_limit
            )
        else:
            probe = solver.solve(
                assumptions=probe_assumptions,
                conflict_limit=conflict_limit,
                budget=budget,
            )
        if probe is None:
            complete = False
            if budget is not None and getattr(solver, "interrupted", False):
                cancelled = True
                interrupted = True
        elif probe:
            solution: Correction = frozenset()
            t_first = time.perf_counter() - search_start
            solution_stats.append(
                {
                    key: solver.stats[key] - probe_before[key]
                    for key in _DELTA_KEYS
                }
            )
            if collect_corrections or instance.persistent:
                corrections[solution] = instance.correction_values(solution)
            solutions.append(solution)
        empty_unsat = probe is not None and not probe
        # No correction exceeds the pool, so bounds past it only repeat
        # the last (exhausted) enumeration: stop there.
        last_bound = min(k, len(select_vars)) if empty_unsat else 0
        for bound in range(1, last_bound + 1):
            if should_stop is not None and should_stop():
                complete = False
                cancelled = True
                break
            if budget is not None and budget.poll():
                complete = False
                cancelled = True
                interrupted = True
                break
            assumptions = (
                base_assumptions
                + instance.bound_assumptions(bound)
                + extra_assumptions
            )
            budget_left = (
                None
                if solution_limit is None
                else solution_limit - len(solutions)
            )
            if budget_left is not None and budget_left <= 0:
                complete = False
                break
            try:
                for model_vars in enumerate_solutions(
                    solver,
                    select_vars,
                    assumptions=assumptions,
                    block="superset",
                    limit=budget_left,
                    conflict_limit=conflict_limit,
                    block_extra=block_extra,
                    stats_deltas=solution_stats,
                    budget=budget,
                ):
                    solution = frozenset(
                        instance.gate_of[v] for v in model_vars
                    )
                    if t_first is None:
                        t_first = time.perf_counter() - search_start
                    if collect_corrections or instance.persistent:
                        corrections[solution] = instance.correction_values(
                            solution
                        )
                    solutions.append(solution)
                    if should_stop is not None and should_stop():
                        cancelled = True
                        break
            except SearchInterrupted:
                complete = False
                cancelled = True
                interrupted = True
                break
            except TimeoutError:
                complete = False
                break
            if cancelled:
                complete = False
                break
            if solution_limit is not None and len(solutions) >= solution_limit:
                complete = len(solutions) < solution_limit
                break
    finally:
        if act:
            instance.end_scope(act)
    t_all = time.perf_counter() - search_start
    if instance.persistent and not cancelled:
        instance.results_cache[cache_key] = {
            "solutions": tuple(solutions),
            "complete": complete,
            "corrections": dict(corrections),
            "solution_stats": list(solution_stats),
            "t_first": t_first if t_first is not None else t_all,
        }
    extras = {
        "solver_stats": dict(solver.stats),
        "n_vars": instance.cnf.num_vars,
        "n_clauses": instance.cnf.num_clauses,
        "solution_stats": solution_stats,
    }
    if cancelled:
        extras["cancelled"] = True
    if interrupted:
        extras["interrupted"] = True
    if collect_corrections:
        extras["corrections"] = corrections
    return SolutionSetResult(
        approach=approach_name,
        k=k,
        solutions=tuple(solutions),
        complete=complete,
        t_build=instance.build_time,
        t_first=t_first if t_first is not None else t_all,
        t_all=t_all,
        extras=extras,
    )


def auto_k_sat_diagnose(
    circuit: Circuit,
    tests: TestSet,
    k_max: int = 4,
    session: DiagnosisSession | None = None,
    solver_backend: str | None = None,
    **kwargs,
) -> SolutionSetResult:
    """Automatically determine the error cardinality (Table 1: "or
    incrementally determined").

    Builds one instance with a totalizer sized for ``k_max`` and solves
    under increasing bound assumptions until the first bound that admits
    solutions; all solutions of that bound are enumerated.  Because bounds
    are assumptions on a shared incremental solver, learned clauses carry
    over between the attempts — and with a ``session``, the probes run on
    the session's persistent instance, so a later ``bsat`` query reuses
    everything this sweep learned.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    suspects = kwargs.pop("suspects", None)
    constrain_all_outputs = kwargs.pop("constrain_all_outputs", False)
    select_zero_clauses = kwargs.pop("select_zero_clauses", False)
    if (
        session is not None
        and session.constrain_all_outputs == constrain_all_outputs
        and session.tests is tests
    ):
        instance = session.instance(
            k_max,
            suspects=suspects,
            select_zero_clauses=select_zero_clauses,
            solver_backend=solver_backend,
        )
    else:
        if circuit is None:
            raise ValueError(
                "building a fresh instance requires a circuit; "
                "non-circuit SystemDescription sessions must route "
                "through the session (matching output semantics)"
            )
        instance = build_diagnosis_instance(
            circuit, tests, k_max=k_max,
            suspects=suspects,
            constrain_all_outputs=constrain_all_outputs,
            select_zero_clauses=select_zero_clauses,
            solver_backend=solver_backend,
        )
    solver = instance.solver
    should_stop = kwargs.get("should_stop")
    budget = kwargs.get("budget")
    # Bounds past the pool size admit nothing new (the totalizer is
    # capped there too); bound 1 still runs on an empty pool, where it
    # decides whether the empty correction is consistent.
    for k in range(1, min(k_max, max(1, len(instance.suspects))) + 1):
        if (should_stop is not None and should_stop()) or (
            budget is not None and budget.poll()
        ):
            extras = {"k_found": None, "cancelled": True}
            if budget is not None and budget.interrupted:
                extras["interrupted"] = True
            return SolutionSetResult(
                approach="BSAT/auto-k",
                k=k_max,
                solutions=(),
                complete=False,
                t_build=instance.build_time,
                t_first=0.0,
                t_all=0.0,
                extras=extras,
            )
        if budget is None:
            feasible = solver.solve(
                assumptions=instance.base_assumptions()
                + instance.bound_assumptions(k)
            )
        else:
            # Budgeted probe: the feasibility solve is exactly the kind
            # of unbounded query a race deadline used to hang on.
            feasible = solver.solve(
                assumptions=instance.base_assumptions()
                + instance.bound_assumptions(k),
                budget=budget,
            )
            if feasible is None:
                return SolutionSetResult(
                    approach="BSAT/auto-k",
                    k=k_max,
                    solutions=(),
                    complete=False,
                    t_build=instance.build_time,
                    t_first=0.0,
                    t_all=0.0,
                    extras={
                        "k_found": None,
                        "cancelled": True,
                        "interrupted": True,
                    },
                )
        if feasible:
            result = basic_sat_diagnose(
                circuit, tests, k, instance=instance,
                approach_name="BSAT/auto-k", **kwargs,
            )
            extras = dict(result.extras)
            extras["k_found"] = k
            return SolutionSetResult(
                approach="BSAT/auto-k",
                k=k,
                solutions=result.solutions,
                complete=result.complete,
                t_build=instance.build_time,
                t_first=result.t_first,
                t_all=result.t_all,
                extras=extras,
            )
    return SolutionSetResult(
        approach="BSAT/auto-k",
        k=k_max,
        solutions=(),
        complete=True,
        t_build=instance.build_time,
        t_first=0.0,
        t_all=0.0,
        extras={"k_found": None},
    )


@register_strategy(
    "bsat",
    "BasicSATDiagnose: complete enumeration, essential candidates",
    kinds=ALL_SYSTEM_KINDS,
)
def _bsat_strategy(
    session: DiagnosisSession, k: int = 1, **options
) -> SolutionSetResult:
    return basic_sat_diagnose(
        session.circuit, session.tests, k, session=session, **options
    )


@register_strategy(
    "bsat-auto-k",
    "BSAT with incrementally determined error cardinality",
    kinds=ALL_SYSTEM_KINDS,
)
def _auto_k_strategy(
    session: DiagnosisSession, k: int = 4, **options
) -> SolutionSetResult:
    return auto_k_sat_diagnose(
        session.circuit, session.tests, k_max=k, session=session, **options
    )
