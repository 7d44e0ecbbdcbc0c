"""SAT substrate: CDCL solver backends, CNF tooling, encodings, enumeration.

Everything the SAT-based diagnosis side of the paper needs, implemented
from scratch (the paper used Zchaff; see DESIGN.md substitutions):

* :class:`~repro.sat.solver.Solver` — incremental arena CDCL solver
  (default backend); :class:`~repro.sat.legacy.LegacySolver` — the
  object-graph original, kept as differential oracle; both behind the
  :data:`~repro.sat.backends.SAT_BACKENDS` registry
  (:func:`~repro.sat.backends.create_solver`).
* :class:`~repro.sat.cnf.CNF` — formula container with named variables.
* :mod:`~repro.sat.tseitin` — circuit → CNF encodings, incl. correction
  multiplexers.
* :mod:`~repro.sat.cardinality` — at-most-k encodings (pairwise,
  sequential counter, incremental totalizer with extendable bound).
* :func:`~repro.sat.enumerate.enumerate_solutions` — all-solutions
  enumeration with superset/exact blocking clauses and per-solution
  solver-stats deltas.
* :mod:`~repro.sat.dimacs` — DIMACS I/O.

Incremental instance lifetime
-----------------------------

The diagnosis layer keeps **one** persistent solver per encoded instance
and drives every query through assumptions on it, instead of rebuilding
CNF per call.  The lifetime of such an instance::

    build (once per session)            queries (any number, any order)
    ==========================          ===============================
    CNF encode circuit copies   ----->  solve([-out[k], act_i])   k-probe
    + correction muxes                  enumerate(...; block+act_i)
    + IncrementalTotalizer(k0)  ----->  extend_bound(k1)          k grows
            |                           solve([-out[k1], act_i])
            v                           add_clause(block ∨ ¬act_i)
    one persistent Solver       ----->  add_clause([-act_i])      scope end
    (learnt clauses, phases,            ... next query: fresh act_{i+1}
     trail live across queries)

Blocking clauses are guarded by a per-query *activation literal*
``act_i`` (assumed true during the query, released afterwards), so the
same instance serves repeated enumerations without resetting learnt
state, and the totalizer extends its bound in place instead of being
re-encoded.

Sessions build **one master encoding** (muxes on every candidate gate)
and derive every suspect pool from it as an assumption-pinned *view*::

    master (once per session/backend)    pool views (any number)
    =================================    ==============================
    CNF: mux on ALL gates,       ----->  derive_view(pool_A):
    c_g^i folded into eff,                 pins = [¬s_g | g ∉ pool_A]
    per-test fan-in cones                  solve([pins…, ¬out_k, act])
    + IncrementalTotalizer       ----->  derive_view(pool_B):
            |                              pins' = [¬s_g | g ∉ pool_B]
            v                              …same solver, same learnts
    one persistent Solver        ----->  longest-common-prefix trail
    (pins first in every                 reuse keeps the shared pins'
     assumption list)                    implied trail alive

A view costs a tuple of pin literals — no per-pool CNF rebuild — and
its solution sets equal a freshly built pool instance by construction
(``benchmarks/bench_solver.py`` races 50-pool churn, ≥5× on sim1423).
See :meth:`repro.diagnosis.core.DiagnosisSession.instance` and
:func:`repro.diagnosis.satdiag.build_master_instance`.
"""

from .solver import Solver, SolveResult
from .legacy import LegacySolver
from .backends import (
    SAT_BACKENDS,
    DEFAULT_BACKEND,
    available_backends,
    backend_summary,
    create_solver,
    register_backend,
)
from .cnf import CNF
from .tseitin import encode_circuit, encode_gate, encode_mux, encode_equivalence
from .cardinality import (
    IncrementalTotalizer,
    at_most_k_pairwise,
    at_most_k_sequential,
    totalizer,
    at_least_one,
)
from .enumerate import enumerate_solutions
from .dimacs import (
    GroupedCNF,
    dump_dimacs,
    dump_gcnf,
    load_dimacs,
    load_gcnf,
    parse_dimacs,
    parse_gcnf,
    write_dimacs,
    write_gcnf,
)
from .proof import ProofLog, ProofStep, check_rup, check_drat, solve_with_proof

__all__ = [
    "Solver",
    "SolveResult",
    "LegacySolver",
    "SAT_BACKENDS",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_summary",
    "create_solver",
    "register_backend",
    "CNF",
    "encode_circuit",
    "encode_gate",
    "encode_mux",
    "encode_equivalence",
    "IncrementalTotalizer",
    "at_most_k_pairwise",
    "at_most_k_sequential",
    "totalizer",
    "at_least_one",
    "enumerate_solutions",
    "ProofLog",
    "ProofStep",
    "check_rup",
    "check_drat",
    "solve_with_proof",
    "parse_dimacs",
    "load_dimacs",
    "write_dimacs",
    "dump_dimacs",
    "GroupedCNF",
    "parse_gcnf",
    "load_gcnf",
    "write_gcnf",
    "dump_gcnf",
]
