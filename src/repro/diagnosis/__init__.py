"""Diagnosis algorithms — the paper's primary subject.

The candidate-space core (:mod:`~repro.diagnosis.core`)
-------------------------------------------------------

Every strategy explores the same space of corrections against the same
observations; :class:`~repro.diagnosis.core.DiagnosisSession` owns that
space once per problem:

* ``DiagnosisSession(circuit, tests)`` packs all test vectors into uint64
  lanes on one shared :class:`~repro.sim.batchevent.BatchEventSimulator`,
  caches the implementation's output signatures (``responses()``), the
  failing lanes (``failing_word()``) and path tracing (``sim_result()``).
* ``session.score(C)`` / ``session.consistent(C)`` — memoized effect
  analysis: how many observations (all?) candidate ``C`` can rectify.
* ``session.refine(suspects)`` / ``session.space(pool)`` — a
  :class:`~repro.diagnosis.core.CandidateSpace` with lazy per-gate
  rectification words (one fault-parallel sweep or shared-sim what-ifs)
  and per-observation candidate sets from the vectorized deductive fault
  lists.
* ``session.instance(k)`` / ``session.rectify_solver(j, pool)`` — the
  SAT side: Fig. 2(b) instances and incremental per-observation solvers
  for conflict extraction.

Strategies register in
:data:`~repro.diagnosis.core.DIAGNOSIS_STRATEGIES` (the diagnosis twin of
the fault-simulation engine table
:data:`repro.sim.engines.SIM_ENGINES`) and run via
:func:`~repro.diagnosis.core.diagnose`; all share the signature
``(session, k, **options) -> SolutionSetResult``.

System descriptions (:mod:`~repro.diagnosis.system`)
----------------------------------------------------

The session itself is model-agnostic: everything a strategy asks of it —
components, rectification words, conflicts, SAT cores, the master
encoding — routes through a
:class:`~repro.diagnosis.system.SystemDescription`.  Three instantiations
ship:

* :class:`~repro.diagnosis.system.CircuitSystem` — the paper's setting:
  gates as components, test responses as observations, the vectorized
  simulator plus correction-mux SAT encodings underneath.  Built
  implicitly by ``DiagnosisSession(circuit, tests)``.
* :class:`~repro.diagnosis.system.GroupedCNFSystem` — weak-fault-model
  diagnosis of a :class:`~repro.sat.dimacs.GroupedCNF`: assumable clause
  groups are the components, each observation a set of unit assumptions;
  a candidate retracts its groups and asks the solver for consistency.
* :class:`~repro.diagnosis.system.SpectrumSystem` — software fault
  spectra: program runs as observations, a failing run is rectified iff
  the candidate intersects its coverage (set-cover consistency).

``DiagnosisSession(system)`` accepts any bound description; strategies
declare the kinds they support
(:func:`~repro.diagnosis.core.strategy_kinds`), and
:func:`~repro.diagnosis.core.diagnose` enforces the match.  All
consistency predicates are monotone (a larger candidate never loses an
observation), which ``fastdiag``'s pruning and ``hsdag``'s conflict
reuse both rely on.

Strategy selection (the paper's Table 1 framing, extended)
----------------------------------------------------------

===================  ===========================  ==========================
strategy             wins when                    guarantees
===================  ===========================  ==========================
``bsim`` / ``cov``   speed matters, guidance      candidates only (may be
                     suffices                     invalid — Lemma 2)
``single-fix``       single error suspected;      valid; size-1 complete
                     the size-1 reference         (= ``bsat`` at ``k=1``)
``bsat`` (+advanced  completeness required,       all corrections with only
variants)            ``k`` small                  essential candidates
``adv-sim`` /        pools already narrow         valid; complete within
``inc-sim``                                       the (PT) pool
``greedy-            first valid answer; the      valid (verified); complete
stochastic``         serving ladder's first rung  at size 1, then a sample,
                                                  approximately minimal
``ihs``              minimum-cardinality answer   valid; minimum cardinality
                     without full enumeration     within the pool
``hsdag``            conflict sets are small /    valid; all subset-minimal
                     reusable, cross-checking     corrections within ``k``
``fastdiag``         few deep diagnoses, cheap    valid; all subset-minimal
                     consistency oracle           corrections within ``k``
===================  ===========================  ==========================

Basic approaches (§2, §3):

* :func:`~repro.diagnosis.pathtrace.basic_sim_diagnose` — **BSIM** (Fig. 1).
* :func:`~repro.diagnosis.cover.sc_diagnose` — **COV** / SCDiagnose (Fig. 4).
* :func:`~repro.diagnosis.satdiag.basic_sat_diagnose` — **BSAT** (Figs. 2-3).

Advanced approaches (§2.2, §2.3):

* :mod:`~repro.diagnosis.advanced_sat` — select-zero clauses, dominator
  two-pass, test-set partitioning.
* :mod:`~repro.diagnosis.advanced_sim` — effect-analysis search with greedy
  ordering and backtracking.
* :mod:`~repro.diagnosis.xlist` — forward X-injection diagnosis (ref [5]).

Search loops on the candidate space (PAPERS.md):

* :mod:`~repro.diagnosis.greedy` — Feldman/Provan greedy stochastic
  search (SAFARI).
* :mod:`~repro.diagnosis.ihs` — Ignatiev-style implicit hitting sets.
* :mod:`~repro.diagnosis.hsdag` — Reiter hitting-set DAG over
  observation conflicts.
* :mod:`~repro.diagnosis.fastdiag` — FastDiag divide-and-conquer minima
  with dual HS-tree enumeration.

Hybrids (§6) and extensions:

* :mod:`~repro.diagnosis.hybrid` — PT-guided SAT decisions; SAT repair of an
  initial correction.
* :mod:`~repro.diagnosis.sequential` — time-frame expansion diagnosis.

Infrastructure: validity/essentialness checking (Defs. 3-4) in
:mod:`~repro.diagnosis.validity`; Table-3 metrics in
:mod:`~repro.diagnosis.metrics`.
"""

from .base import (
    APPROACH_PROPERTIES,
    Correction,
    SimDiagnosisResult,
    SolutionSetResult,
    format_table1,
)
from .core import (
    ALL_SYSTEM_KINDS,
    CandidateSpace,
    DIAGNOSIS_STRATEGIES,
    DiagnosisSession,
    Observation,
    StrategyInfo,
    available_strategies,
    diagnose,
    get_strategy,
    register_strategy,
    strategy_kinds,
)
from .system import (
    CircuitSystem,
    GroupedCNFSystem,
    SpectrumSystem,
    SystemDescription,
)
from .pathtrace import basic_sim_diagnose, path_trace, POLICIES
from .cover import sc_diagnose, minimal_covers_sat, minimal_covers_bnb
from .satdiag import (
    DiagnosisInstance,
    build_diagnosis_instance,
    basic_sat_diagnose,
    auto_k_sat_diagnose,
)
from .resynthesis import (
    RepairResult,
    correction_constraints,
    consistent_gate_types,
    repair_and_verify,
    resynthesize,
)
from .validity import (
    rectifiable_by_forcing,
    is_valid_correction,
    has_only_essential_candidates,
    all_valid_corrections,
)
from .metrics import (
    BsimQuality,
    SolutionQuality,
    bsim_quality,
    solution_quality,
    distance_map,
    hit_rate,
)
from .advanced_sat import (
    dominator_representatives,
    select_zero_sat_diagnose,
    dominator_sat_diagnose,
    partitioned_sat_diagnose,
)
from .advanced_sim import enumerate_sim_corrections, incremental_sim_diagnose
from .greedy import greedy_stochastic_diagnose
from .ihs import ihs_diagnose
from .hsdag import hsdag_diagnose
from .fastdiag import fastdiag_diagnose
from .xlist import xlist_candidates, xlist_diagnose
from .hybrid import (
    pt_guided_sat_diagnose,
    repair_correction_sat,
    structural_neighbourhood,
)
from .sequential import SequenceTest, failing_sequences, seq_sat_diagnose
from .certify import CertifiedVerdict, certify_correction_bound
from .structural import (
    StructuralDiagnosis,
    signature_map,
    structural_diagnose,
    suspects_within_error_cones,
)
from .stuckat import (
    FaultDictionary,
    FaultMatch,
    diagnose_stuck_at,
    fault_signature,
    full_fault_list,
)

__all__ = [
    "APPROACH_PROPERTIES",
    "Correction",
    "SimDiagnosisResult",
    "SolutionSetResult",
    "format_table1",
    "ALL_SYSTEM_KINDS",
    "CandidateSpace",
    "DIAGNOSIS_STRATEGIES",
    "DiagnosisSession",
    "Observation",
    "StrategyInfo",
    "available_strategies",
    "diagnose",
    "get_strategy",
    "register_strategy",
    "strategy_kinds",
    "SystemDescription",
    "CircuitSystem",
    "GroupedCNFSystem",
    "SpectrumSystem",
    "basic_sim_diagnose",
    "path_trace",
    "POLICIES",
    "sc_diagnose",
    "minimal_covers_sat",
    "minimal_covers_bnb",
    "DiagnosisInstance",
    "build_diagnosis_instance",
    "basic_sat_diagnose",
    "auto_k_sat_diagnose",
    "RepairResult",
    "correction_constraints",
    "consistent_gate_types",
    "repair_and_verify",
    "resynthesize",
    "rectifiable_by_forcing",
    "is_valid_correction",
    "has_only_essential_candidates",
    "all_valid_corrections",
    "BsimQuality",
    "SolutionQuality",
    "bsim_quality",
    "solution_quality",
    "distance_map",
    "hit_rate",
    "dominator_representatives",
    "select_zero_sat_diagnose",
    "dominator_sat_diagnose",
    "partitioned_sat_diagnose",
    "enumerate_sim_corrections",
    "incremental_sim_diagnose",
    "greedy_stochastic_diagnose",
    "ihs_diagnose",
    "hsdag_diagnose",
    "fastdiag_diagnose",
    "xlist_candidates",
    "xlist_diagnose",
    "pt_guided_sat_diagnose",
    "repair_correction_sat",
    "structural_neighbourhood",
    "SequenceTest",
    "failing_sequences",
    "seq_sat_diagnose",
    "CertifiedVerdict",
    "StructuralDiagnosis",
    "signature_map",
    "structural_diagnose",
    "suspects_within_error_cones",
    "certify_correction_bound",
    "FaultDictionary",
    "FaultMatch",
    "diagnose_stuck_at",
    "fault_signature",
    "full_fault_list",
]
