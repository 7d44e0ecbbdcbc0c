"""Production-test ATPG flow: collapsed fault list → compact pattern set.

This is the §1 "post-production test" motivation of the paper made
concrete: the flow takes a circuit, collapses its stuck-at universe
(:mod:`repro.faults.collapse`), generates a test per remaining fault with
either the structural PODEM engine or Larrabee-style SAT (paper ref [11]),
drops additionally-detected faults by deductive fault simulation, and
finally compacts the pattern set in reverse order.  The resulting patterns
are exactly what the stuck-at diagnosis flow
(:mod:`repro.diagnosis.stuckat`) consumes as its test set.

Both engines are *complete*: a fault reported undetectable is provably
redundant.  The test-suite cross-checks the two backends against each
other and against exhaustive simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..circuits.netlist import Circuit
from ..circuits.structure import fanout_cone
from ..faults.collapse import collapse_faults
from ..faults.models import StuckAtFault
from ..sat.cnf import CNF
from ..sim.deductive import FaultCoverage
from ..sim.engines import ATPG, SIM_ENGINES, resolve_engine
from ..sat.tseitin import encode_circuit, encode_gate
from .podem import PodemStatus, podem
from .scoap import analyze_testability

__all__ = [
    "AtpgResult",
    "generate_tests",
    "sat_stuck_at_test",
    "compact_patterns",
]


def _sim_engine(name: str):
    """``(detect, coverage)`` of the engine table's row for ``name``."""
    return SIM_ENGINES[resolve_engine(name, ATPG)].atpg


@dataclass(frozen=True)
class AtpgResult:
    """Outcome of a :func:`generate_tests` run.

    ``coverage`` is measured over ``target_faults`` with the final pattern
    set; ``undetectable`` faults are proven redundant; ``aborted`` faults
    hit the search limit (so detectability is unresolved).
    """

    circuit_name: str
    backend: str
    patterns: tuple[dict[str, int], ...]
    coverage: FaultCoverage
    target_faults: tuple[StuckAtFault, ...]
    undetectable: tuple[StuckAtFault, ...]
    aborted: tuple[StuckAtFault, ...]

    @property
    def test_count(self) -> int:
        return len(self.patterns)

    @property
    def fault_coverage(self) -> float:
        """Detected / targeted (the manufacturing-test headline number)."""
        return self.coverage.coverage

    @property
    def fault_efficiency(self) -> float:
        """(detected + proven-redundant) / targeted — 1.0 means every
        fault was resolved one way or the other."""
        if not self.target_faults:
            return 1.0
        resolved = len(self.coverage.detected) + len(self.undetectable)
        return resolved / len(self.target_faults)

    def summary(self) -> str:
        """One-line report used by the CLI and the benchmark harness."""
        return (
            f"{self.circuit_name}: {self.test_count} patterns, "
            f"{len(self.target_faults)} target faults, "
            f"coverage {100 * self.fault_coverage:.1f}%, "
            f"efficiency {100 * self.fault_efficiency:.1f}%, "
            f"{len(self.undetectable)} redundant, {len(self.aborted)} aborted"
        )


def sat_stuck_at_test(
    circuit: Circuit, fault: StuckAtFault
) -> dict[str, int] | None:
    """SAT-based test generation for one stuck-at fault (Larrabee).

    Encodes the good circuit plus a faulty *cone* copy (only signals in the
    fanout cone of the fault site are duplicated, with the site pinned to
    its stuck value) and asks for an input assignment under which some
    output in the cone differs.  Returns a complete input vector, or None
    when the fault is provably undetectable.
    """
    cone = fanout_cone(circuit, fault.signal, include_self=True)
    cone_outputs = [o for o in circuit.outputs if o in cone]
    if not cone_outputs:
        return None
    cnf = CNF()
    gold = encode_circuit(cnf, circuit, prefix="g:")
    fvar: dict[str, int] = {}
    site_var = cnf.new_var(f"f:{fault.signal}")
    cnf.add_clause([site_var if fault.value else -site_var])
    fvar[fault.signal] = site_var
    for name in circuit.topological_order():
        if name not in cone or name == fault.signal:
            continue
        gate = circuit.node(name)
        out = cnf.new_var(f"f:{name}")
        fvar[name] = out
        ins = [fvar.get(f, gold[f]) for f in gate.fanins]
        encode_gate(cnf, gate.gtype, out, ins)
    diff_vars = []
    for out in cone_outputs:
        d = cnf.new_var(f"diff:{out}")
        a, b = gold[out], fvar[out]
        cnf.add_clause([-d, a, b])
        cnf.add_clause([-d, -a, -b])
        diff_vars.append(d)
    cnf.add_clause(diff_vars)
    solver = cnf.to_solver()
    if not solver.solve():
        return None
    return {
        pi: int(bool(solver.value(gold[pi]))) for pi in circuit.inputs
    }


def compact_patterns(
    circuit: Circuit,
    patterns: Sequence[Mapping[str, int]],
    faults: Sequence[StuckAtFault],
    sim_engine: str = "batch",
) -> list[dict[str, int]]:
    """Reverse-order static compaction.

    Walks the patterns last-to-first, keeping only those that detect a
    fault not covered by later (kept) patterns.  Later ATPG patterns tend
    to target the hard faults while detecting many easy ones by accident,
    so reverse order discards many early patterns.  Coverage over
    ``faults`` is preserved exactly; ``sim_engine`` selects the
    fault-simulation backend (identical results either way).
    """
    detect, coverage = _sim_engine(sim_engine)
    still_needed = set(
        coverage(circuit, list(patterns), faults=faults).detected
    )
    kept: list[dict[str, int]] = []
    for pattern in reversed(list(patterns)):
        if not still_needed:
            break
        detected = detect(
            circuit, pattern, faults=sorted(still_needed, key=lambda f: (f.signal, f.value))
        )
        if detected:
            kept.append(dict(pattern))
            still_needed -= detected
    kept.reverse()
    return kept


def generate_tests(
    circuit: Circuit,
    faults: Sequence[StuckAtFault] | None = None,
    backend: str = "podem",
    collapse: bool = True,
    backtrack_limit: int = 20_000,
    fill: str = "random",
    seed: int = 0,
    compact: bool = True,
    sim_engine: str = "batch",
) -> AtpgResult:
    """Run the full ATPG flow on a combinational ``circuit``.

    ``faults`` defaults to the full stuck-at universe, collapsed when
    ``collapse`` is set.  ``backend`` selects ``"podem"`` or ``"sat"``.
    Detected faults are dropped from the target list by fault simulation
    after every generated pattern; ``sim_engine`` picks the simulator
    from :data:`repro.sim.engines.SIM_ENGINES` — ``"batch"``
    (fault-parallel numpy, default), ``"codegen"`` (generated kernel),
    ``"deductive"`` (the pure-Python fault-list reference) or
    ``"deductive-numpy"`` (bitset-matrix deductive) — with identical
    coverage any way.

    >>> from repro.circuits.library import c17
    >>> result = generate_tests(c17(), seed=1)
    >>> result.fault_coverage
    1.0
    """
    if backend not in ("podem", "sat"):
        raise ValueError(f"unknown ATPG backend {backend!r}")
    detect, coverage_fn = _sim_engine(sim_engine)
    if faults is None:
        if collapse:
            target = collapse_faults(circuit).representatives
        else:
            from ..faults.collapse import full_stuck_at_universe

            target = full_stuck_at_universe(circuit)
    else:
        target = tuple(faults)
    testability = analyze_testability(circuit) if backend == "podem" else None
    remaining = list(target)
    patterns: list[dict[str, int]] = []
    undetectable: list[StuckAtFault] = []
    aborted: list[StuckAtFault] = []
    while remaining:
        fault = remaining.pop(0)
        vector: dict[str, int] | None = None
        if backend == "podem":
            outcome = podem(
                circuit,
                fault,
                backtrack_limit=backtrack_limit,
                fill=fill,
                seed=seed + len(patterns),
                testability=testability,
            )
            if outcome.status is PodemStatus.UNDETECTABLE:
                undetectable.append(fault)
                continue
            if outcome.status is PodemStatus.ABORTED:
                aborted.append(fault)
                continue
            vector = outcome.vector
        else:
            vector = sat_stuck_at_test(circuit, fault)
            if vector is None:
                undetectable.append(fault)
                continue
        assert vector is not None
        patterns.append(vector)
        detected = detect(circuit, vector, faults=[fault] + remaining)
        if fault not in detected:  # pragma: no cover - engines guarantee this
            raise AssertionError(
                f"generated vector does not detect {fault.describe()}"
            )
        remaining = [f for f in remaining if f not in detected]
    if compact and patterns:
        patterns = compact_patterns(
            circuit, patterns, target, sim_engine=sim_engine
        )
    coverage = coverage_fn(circuit, patterns, faults=target)
    return AtpgResult(
        circuit_name=circuit.name,
        backend=backend,
        patterns=tuple(patterns),
        coverage=coverage,
        target_faults=tuple(target),
        undetectable=tuple(undetectable),
        aborted=tuple(aborted),
    )
