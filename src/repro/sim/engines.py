"""The fault-simulation engine table: the only list of engine names.

Two entry points select a fault-simulation engine by name:

* ``FaultDictionary`` / :func:`repro.diagnosis.stuckat.diagnose_stuck_at`
  (``engine=``) — :data:`DICTIONARY`;
* :func:`repro.testgen.atpg.generate_tests` / ``compact_patterns``
  (``sim_engine=``) — :data:`ATPG`.

Both resolve the name through :func:`resolve_engine` against
:data:`SIM_ENGINES`, and ``python -m repro engines`` prints the same
table with the entry points that accept each row, so what gets listed
and what gets accepted cannot drift apart.  Every row earns its place:

* ``batch`` — the default on both entry points;
* ``serial`` — the oracle the dictionary engines are checked against;
* ``codegen`` — measured fastest (``BENCH_faultsim.json``: ~2.3× batch
  on the detect sweep, ~1.3× on coverage);
* ``deductive`` — the reference ``deductive-numpy``'s per-signal fault
  lists are tested against;
* ``deductive-numpy`` — ~11× the pure-Python ``deductive`` propagator.

Every engine is pure numpy/Python, so every row is always available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .batchfault import batch_detected, batch_fault_coverage
from .codegen import codegen_detected, codegen_fault_coverage
from .deductive import deductive_coverage, deductive_detected
from .deductive_numpy import deductive_coverage_numpy, deductive_detected_numpy

__all__ = [
    "SIM_ENGINES",
    "DEFAULT_ENGINE",
    "DICTIONARY",
    "ATPG",
    "SimEngine",
    "available_engines",
    "engine_summary",
    "resolve_engine",
]

#: The stuck-at dictionary entry point and the parameter it reads.
DICTIONARY = "FaultDictionary/diagnose_stuck_at (engine=)"
#: The ATPG entry point and the parameter it reads.
ATPG = "generate_tests/compact_patterns (sim_engine=)"

#: The engine ``None`` / ``"auto"`` resolves to.
DEFAULT_ENGINE = "batch"


@dataclass(frozen=True)
class SimEngine:
    """One row of the engine table."""

    summary: str
    #: Whether :data:`DICTIONARY` accepts the engine.
    dictionary: bool = False
    #: ``(detect, coverage)`` behind :data:`ATPG`; None when ATPG does
    #: not accept the engine.
    atpg: tuple[Callable, Callable] | None = None

    @property
    def entry_points(self) -> tuple[str, ...]:
        """The entry points that accept this engine."""
        points = []
        if self.dictionary:
            points.append(DICTIONARY)
        if self.atpg is not None:
            points.append(ATPG)
        return tuple(points)


#: Engine name -> its row (the ``python -m repro engines`` table).
SIM_ENGINES: dict[str, SimEngine] = {
    "batch": SimEngine(
        "fault-parallel x pattern-parallel numpy sweep (default)",
        dictionary=True,
        atpg=(batch_detected, batch_fault_coverage),
    ),
    "codegen": SimEngine(
        "per-circuit generated straight-line numpy kernel (opt-in fast "
        "path; one kernel build per circuit, then ~2x the batch sweep)",
        dictionary=True,
        atpg=(codegen_detected, codegen_fault_coverage),
    ),
    "deductive": SimEngine(
        "pure-Python deductive fault-list propagation (reference for "
        "deductive-numpy's fault lists)",
        atpg=(deductive_detected, deductive_coverage),
    ),
    "deductive-numpy": SimEngine(
        "deductive propagation on uint64 bitset matrices",
        atpg=(deductive_detected_numpy, deductive_coverage_numpy),
    ),
    "serial": SimEngine(
        "one forced-value simulation pass per fault (the oracle)",
        dictionary=True,
    ),
}


def available_engines(entry_point: str | None = None) -> tuple[str, ...]:
    """Engine names ``entry_point`` accepts (all when None), sorted, the
    default first."""
    names = sorted(
        name
        for name, engine in SIM_ENGINES.items()
        if entry_point is None or entry_point in engine.entry_points
    )
    names.remove(DEFAULT_ENGINE)
    return (DEFAULT_ENGINE, *names)


def engine_summary(name: str) -> str:
    """The table's one-line summary for ``name``."""
    return SIM_ENGINES[resolve_engine(name)].summary


def resolve_engine(name: str | None, entry_point: str | None = None) -> str:
    """Canonical engine name (None / ``"auto"`` = the default).

    Names the table does not list, or that ``entry_point`` does not
    accept, raise a one-line :class:`ValueError` listing the accepted
    names.
    """
    resolved = DEFAULT_ENGINE if name in (None, "auto") else name
    accepted = available_engines(entry_point)
    if resolved not in accepted:
        where = f" for {entry_point}" if entry_point else ""
        raise ValueError(
            f"unknown sim engine {resolved!r}{where}; choose from "
            f"{', '.join(accepted)}"
        )
    return resolved
