"""Pluggable SAT solver backends behind one ``solve/model/core`` surface.

The diagnosis layer never hard-codes a solver class: every instance
construction goes through :func:`create_solver` and the
:data:`SAT_BACKENDS` registry (the SAT twin of the simulation layer's
:data:`repro.sim.engines.SIM_ENGINES` and the diagnosis layer's
``DIAGNOSIS_STRATEGIES``).  Three backends ship, each for a stated
reason:

``arena`` (default)
    :class:`repro.sat.solver.Solver` — the flat-arena CDCL solver with
    blocker watch lists, inlined propagation and enumeration trail
    reuse.  Fastest; used everywhere unless overridden.
``legacy``
    :class:`repro.sat.legacy.LegacySolver` — the original object-graph
    solver, kept as the differential oracle
    (``tests/sat/test_backends.py`` races the two on random CNFs) and
    the denominator of the ``benchmarks/bench_solver.py`` ratios.
``arena-jit``
    :class:`repro.sat.compiled.CompiledSolver` — the arena hot loop as
    numba-jitted kernels over flat numpy arrays, gated at ≥3× ``arena``
    by the ``bench_solver.py --backend arena-jit`` CI leg.  Registered
    only when numba is importable; elsewhere it appears in
    :func:`unavailable_backends` with the import error, and
    :func:`resolve_backend` **degrades it to ``arena``** (via
    :data:`BACKEND_FALLBACKS`) instead of raising, so portfolio
    configurations naming the compiled backend stay runnable on minimal
    installs.

Every backend object offers the :class:`~repro.sat.solver.Solver`
surface the repo relies on: ``new_var/ensure_vars/add_clause/solve
(assumptions=, conflict_limit=)/value/model/core/stats`` plus the
heuristic hooks ``bump_activity``/``set_phase`` (which may be no-ops).

Select a backend per call site (``CNF.to_solver(backend="legacy")``),
per diagnosis session (``DiagnosisSession(..., solver_backend=...)``),
per strategy invocation (every registered strategy accepts
``solver_backend=``) or on the CLI (``python -m repro diagnose
--solver-backend legacy ...``).
"""

from __future__ import annotations

from typing import Callable

from .legacy import LegacySolver
from .solver import Solver

__all__ = [
    "SAT_BACKENDS",
    "BACKEND_FALLBACKS",
    "DEFAULT_BACKEND",
    "register_backend",
    "available_backends",
    "unavailable_backends",
    "create_solver",
    "backend_summary",
    "resolve_backend",
    "compiled_backend_available",
]

#: Name -> (solver factory, one-line summary).
SAT_BACKENDS: dict[str, tuple[Callable[[], object], str]] = {}

#: Optional backends that failed to register -> the reason (the import
#: error string), so ``python -m repro backends`` can say *why* instead
#: of silently omitting them.
UNAVAILABLE_BACKENDS: dict[str, str] = {}

#: The backend used when callers pass ``backend=None``.
DEFAULT_BACKEND = "arena"

#: Optional backend -> the interpreted backend it degrades to when its
#: dependency is missing.  Selection through :func:`resolve_backend`
#: (every session/strategy/CLI path) falls back instead of raising, so
#: e.g. ``--solver-backend arena-jit`` works — slower — without numba.
BACKEND_FALLBACKS: dict[str, str] = {"arena-jit": "arena"}


def register_backend(
    name: str, summary: str
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Register a solver factory under ``name`` (decorator)."""

    def deco(factory: Callable[[], object]) -> Callable[[], object]:
        if name in SAT_BACKENDS:
            raise ValueError(f"backend {name!r} registered twice")
        SAT_BACKENDS[name] = (factory, summary)
        return factory

    return deco


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted, default first."""
    names = sorted(SAT_BACKENDS)
    names.remove(DEFAULT_BACKEND)
    return (DEFAULT_BACKEND, *names)


def unavailable_backends() -> dict[str, str]:
    """Optional backends that could not register -> why (import error)."""
    return dict(UNAVAILABLE_BACKENDS)


def backend_summary(name: str) -> str:
    """The registry's one-line summary for ``name``."""
    return SAT_BACKENDS[_resolve(name)][1]


def resolve_backend(name: str | None) -> str:
    """Canonical registered name for ``name`` (None = the default).

    Cache keys should use this so ``None`` and the default backend's
    explicit name share one entry.  An *optional* backend whose
    dependency is missing resolves to its :data:`BACKEND_FALLBACKS`
    entry (graceful degradation); truly unknown names raise.
    """
    resolved = DEFAULT_BACKEND if name is None else name
    if resolved not in SAT_BACKENDS:
        fallback = BACKEND_FALLBACKS.get(resolved)
        if fallback is not None and fallback in SAT_BACKENDS:
            return fallback
        raise ValueError(
            f"unknown solver backend {resolved!r}; choose from "
            f"{available_backends()}"
        )
    return resolved


_resolve = resolve_backend


def create_solver(backend: str | None = None):
    """Instantiate a solver from the registry (None = default backend)."""
    factory, _ = SAT_BACKENDS[_resolve(backend)]
    return factory()


@register_backend(
    "arena",
    "flat-arena CDCL: binary implicit watches, assumption-prefix trail "
    "reuse, chronological insertion (default)",
)
def _arena_backend() -> Solver:
    return Solver()


@register_backend(
    "legacy", "pre-arena object-graph CDCL, kept as differential oracle"
)
def _legacy_backend() -> LegacySolver:
    return LegacySolver()


# ----------------------------------------------------------------------
# optional compiled backend (numba), registered only if importable
# ----------------------------------------------------------------------
def compiled_backend_available() -> bool:
    """True when the numba-compiled ``arena-jit`` backend is registered."""
    return "arena-jit" in SAT_BACKENDS


def _try_register_compiled() -> None:
    from .compiled import NUMBA_AVAILABLE, NUMBA_IMPORT_ERROR

    if not NUMBA_AVAILABLE:
        UNAVAILABLE_BACKENDS["arena-jit"] = (
            f"optional dependency not importable: {NUMBA_IMPORT_ERROR} "
            f"(selection falls back to {BACKEND_FALLBACKS['arena-jit']!r})"
        )
        return

    @register_backend(
        "arena-jit",
        "numba-compiled arena CDCL kernels (optional dependency; "
        "per-process warm-up on first use)",
    )
    def _compiled_backend():
        from .compiled import CompiledSolver, warm_up

        warm_up()  # JIT compile outside any measured query
        return CompiledSolver()


_try_register_compiled()
