"""Command-line interface: ``python -m repro <command>``.

A thin, scriptable front-end over the library for users who work with
``.bench`` files rather than Python:

* ``stats``    — print circuit statistics.
* ``inject``   — inject gate-change errors, write the faulty netlist and a
  ground-truth sidecar.
* ``testgen``  — generate failing tests for a golden/faulty pair.
* ``diagnose`` — run BSIM / COV / BSAT / hybrid / greedy-stochastic /
  implicit-hitting-set / HS-DAG / FastDiag diagnosis on a faulty netlist
  plus a test file, or (``--system gcnf`` / ``--system spectrum``) on a
  grouped CNF or a fault-spectrum JSON.
* ``strategies`` — list the registered candidate-space strategies with
  the system kinds each one supports.
* ``backends`` — list the registered SAT solver backends.
* ``engines``  — list the fault-simulation engines and the entry point
  (``FaultDictionary``/``diagnose_stuck_at`` or ``generate_tests``) that
  accepts each one.
* ``table1``   — print the paper's comparison matrix.
* ``atpg``     — run the stuck-at ATPG flow (PODEM or SAT) and report
  coverage.
* ``cec``      — combinational equivalence check (random/SAT/BDD engines).
* ``certify``  — decide "correction with ≤ k candidates?" with a DRAT
  proof, re-checked independently.
* ``serve``    — sharded diagnosis service over a JSON-lines stream of
  failing devices (strategy ladder, per-design artifact cache, retries).

Test files are plain text: one test per line, ``<bits> <output> <value>``
with ``<bits>`` in primary-input declaration order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .circuits import bench, library
from .circuits.netlist import Circuit
from .diagnosis import (
    ALL_SYSTEM_KINDS,
    DIAGNOSIS_STRATEGIES,
    DiagnosisSession,
    GroupedCNFSystem,
    SpectrumSystem,
    available_strategies,
    basic_sim_diagnose,
    diagnose,
    format_table1,
    strategy_kinds,
)
from .faults import random_gate_changes
from .testgen import TestSet, random_failing_tests
from .testgen.testset import Test

__all__ = ["main"]


def _load_circuit(spec: str) -> Circuit:
    """A circuit argument is a library name or a ``.bench`` path."""
    if spec in library.available_circuits():
        return library.get_circuit(spec)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"error: {spec!r} is neither a library circuit "
            f"({', '.join(library.available_circuits())}) nor a file"
        )
    try:
        return bench.load(path)
    except (OSError, ValueError) as exc:  # BenchFormatError is a ValueError
        raise SystemExit(f"error: {spec}: {exc}")


def _write_tests(tests: TestSet, circuit: Circuit, path: Path) -> None:
    with path.open("w") as stream:
        stream.write("# bits (input order: " + ",".join(circuit.inputs) + ")")
        stream.write(" output correct_value\n")
        for t in tests:
            bits = "".join(str(t.vector[pi]) for pi in circuit.inputs)
            stream.write(f"{bits} {t.output} {t.value}\n")


def _read_tests(path: Path, circuit: Circuit) -> TestSet:
    tests = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            bits, output, value = line.split()
            vector = {
                pi: int(b) for pi, b in zip(circuit.inputs, bits, strict=True)
            }
            tests.append(Test(vector, output, int(value)))
        except (ValueError, KeyError) as exc:
            raise SystemExit(f"{path}:{lineno}: bad test line: {exc}")
    return TestSet(tuple(tests))


def _cmd_stats(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    print(json.dumps(circuit.stats(), indent=2))
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    from .circuits.scan import to_combinational
    from .faults import random_wire_errors

    if circuit.is_sequential:
        circuit = to_combinational(circuit).circuit
    injector = (
        random_gate_changes if args.error_model == "gate" else random_wire_errors
    )
    injection = injector(circuit, p=args.p, seed=args.seed)
    bench.dump(injection.faulty, args.out)
    sidecar = Path(args.out).with_suffix(".truth.json")
    sidecar.write_text(
        json.dumps(
            {"errors": [e.describe() for e in injection.errors]}, indent=2
        )
    )
    print(f"wrote {args.out} and {sidecar}")
    for e in injection.errors:
        print(f"  injected: {e.describe()}")
    return 0


def _cmd_testgen(args: argparse.Namespace) -> int:
    golden = _load_circuit(args.golden)
    faulty = _load_circuit(args.faulty)
    tests = random_failing_tests(golden, faulty, m=args.m, seed=args.seed)
    _write_tests(tests, golden, Path(args.out))
    print(f"wrote {tests.m} failing tests to {args.out}")
    return 0


#: CLI spelling → registry strategy name (plus the legacy aliases).
_CLI_STRATEGIES = {
    "cov": "cov",
    "bsat": "bsat",
    "hybrid": "pt-guided",
    "greedy": "greedy-stochastic",
    "ihs": "ihs",
    "hsdag": "hsdag",
    "fastdiag": "fastdiag",
}


#: Default ladder of the ``serve`` command (mirrors
#: ``repro.serve.race.DEFAULT_STRATEGIES``; kept literal so the parser
#: builds without importing the service stack).
_SERVE_STRATEGIES = ("greedy-stochastic", "bsat")


def _read_observations(spec: str) -> list[tuple[int, ...]]:
    """Observation file: one observation per line, space-separated DIMACS
    literals (may be empty for the unconstrained observation); ``-``
    stands for a single empty observation.  ``#`` and DIMACS-style ``c``
    comment lines are skipped, and a trailing ``0`` clause terminator on
    a line is accepted and ignored."""
    if spec == "-":
        return [()]
    observations: list[tuple[int, ...]] = []
    path = Path(spec)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise SystemExit(f"{path}:{lineno}: bad observation line: {exc}")
        if lits and lits[-1] == 0:
            lits.pop()
        if 0 in lits:
            raise SystemExit(
                f"{path}:{lineno}: bad observation line: 0 is only "
                "allowed as a trailing clause terminator"
            )
        observations.append(tuple(lits))
    if not observations:
        raise SystemExit(f"error: no observations in {path}")
    return observations


def _build_session(args: argparse.Namespace) -> tuple[DiagnosisSession, str]:
    """Build the session for ``--system``; returns it plus a headline."""
    if args.system == "circuit":
        faulty = _load_circuit(args.faulty)
        tests = _read_tests(Path(args.tests), faulty)
        if not tests.m:
            raise SystemExit("error: empty test file")
        session = DiagnosisSession(
            faulty, tests, solver_backend=args.solver_backend
        )
        headline = f"{faulty.name}: {faulty.num_gates} gates, {tests.m} tests"
    elif args.system == "gcnf":
        from .sat.dimacs import DimacsFormatError, load_gcnf

        try:
            gcnf = load_gcnf(args.faulty)
        except (OSError, DimacsFormatError) as exc:
            raise SystemExit(f"error: {exc}")
        observations = _read_observations(args.tests)
        try:
            system = GroupedCNFSystem(gcnf, observations)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        session = DiagnosisSession(system, solver_backend=args.solver_backend)
        headline = (
            f"{Path(args.faulty).name}: {gcnf.num_groups} clause groups, "
            f"{len(observations)} observations"
        )
    else:  # spectrum
        try:
            data = json.loads(Path(args.faulty).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: {exc}")
        try:
            system = SpectrumSystem.from_dict(data)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        session = DiagnosisSession(system, solver_backend=args.solver_backend)
        headline = (
            f"{Path(args.faulty).name}: {len(system.components)} components, "
            f"{system.m} runs"
        )
    return session, headline


def _cmd_diagnose(args: argparse.Namespace) -> int:
    if args.system != "circuit" and args.approach == "bsim":
        raise SystemExit("error: bsim requires --system circuit")
    session, headline = _build_session(args)
    print(
        f"diagnosing {headline}, k={args.k}, approach={args.approach}, "
        f"backend={args.solver_backend or 'arena'}"
    )
    if args.approach == "bsim":
        faulty = session.circuit
        tests = session.tests
        result = basic_sim_diagnose(faulty, tests, session=session)
        ranked = sorted(result.marks, key=lambda g: -result.marks[g])
        print(f"{len(result.union)} candidate gates; top marks:")
        for g in ranked[: args.top]:
            print(f"  {g}: {result.marks[g]}/{tests.m}")
        return 0
    strategy = _CLI_STRATEGIES.get(args.approach, args.approach)
    options: dict[str, object] = {}
    k: int | None = args.k
    if strategy in ("greedy-stochastic", "ihs", "hsdag", "fastdiag"):
        # --limit caps the number of reported solutions; --k bounds the
        # candidate cardinality (0 = let the search loop determine it).
        options[
            "max_solutions"
            if strategy == "greedy-stochastic"
            else "solution_limit"
        ] = args.limit
        k = args.k if args.k > 0 else None
    else:
        options["solution_limit"] = args.limit
    def run() -> object:
        # Unsupported strategy x system combinations (e.g. the
        # circuit-only cov on --system spectrum) must exit with the
        # registry's one-line message, not a traceback.
        try:
            return diagnose(session, k=k, strategy=strategy, **options)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = run()
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(20)
    else:
        result = run()
    print(
        f"{result.n_solutions} solutions in {result.t_all:.2f}s "
        f"(build {result.t_build:.2f}s)"
        + ("" if result.complete else "  [truncated]")
    )
    for sol in result.solutions[: args.top]:
        print("  " + ", ".join(sorted(sol)))
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    width = max(len(name) for name in DIAGNOSIS_STRATEGIES)
    labels = {
        name: (
            "model-agnostic"
            if set(strategy_kinds(name)) >= set(ALL_SYSTEM_KINDS)
            else "circuit-only"
        )
        for name in DIAGNOSIS_STRATEGIES
    }
    kind_width = max(len(label) for label in labels.values())
    for name in available_strategies():
        print(
            f"{name.ljust(width)}  {labels[name].ljust(kind_width)}  "
            f"{DIAGNOSIS_STRATEGIES[name].summary}"
        )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .sat.backends import (
        available_backends,
        backend_summary,
        unavailable_backends,
    )

    names = available_backends()
    missing = unavailable_backends()
    width = max(len(name) for name in (*names, *missing))
    for name in names:
        print(f"{name.ljust(width)}  {backend_summary(name)}")
    for name in sorted(missing):
        print(f"{name.ljust(width)}  [unavailable] {missing[name]}")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from .sim.engines import SIM_ENGINES, available_engines

    names = available_engines()
    width = max(len(name) for name in names)
    for name in names:
        engine = SIM_ENGINES[name]
        print(f"{name.ljust(width)}  {engine.summary}")
        print(
            f"{'':{width}}  accepted by: {'; '.join(engine.entry_points)}"
        )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(format_table1())
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from .testgen import generate_tests

    circuit = _load_circuit(args.circuit)
    from .circuits.scan import to_combinational

    if circuit.is_sequential:
        circuit = to_combinational(circuit).circuit
    result = generate_tests(
        circuit,
        backend=args.backend,
        collapse=not args.no_collapse,
        seed=args.seed,
        compact=not args.no_compact,
    )
    print(result.summary())
    if args.out:
        path = Path(args.out)
        with path.open("w") as stream:
            stream.write(
                "# patterns (input order: " + ",".join(circuit.inputs) + ")\n"
            )
            for pattern in result.patterns:
                stream.write(
                    "".join(str(pattern[pi]) for pi in circuit.inputs) + "\n"
                )
        print(f"wrote {result.test_count} patterns to {path}")
    return 0


def _cmd_cec(args: argparse.Namespace) -> int:
    from .verify import check_equivalence

    golden = _load_circuit(args.golden)
    impl = _load_circuit(args.impl)
    result = check_equivalence(
        golden, impl, method=args.method, seed=args.seed
    )
    print(result.summary())
    if result.counterexample is not None:
        bits = "".join(
            str(result.counterexample[pi]) for pi in golden.inputs
        )
        print(f"counterexample inputs: {bits}")
    if result.equivalent is False:
        return 1
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .diagnosis import certify_correction_bound

    faulty = _load_circuit(args.faulty)
    tests = _read_tests(Path(args.tests), faulty)
    if not tests.m:
        raise SystemExit("error: empty test file")
    try:
        verdict = certify_correction_bound(
            faulty, tests, k=args.k, check=not args.no_check
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(verdict.summary())
    if verdict.proof is not None and args.proof_out:
        Path(args.proof_out).write_text(verdict.proof.to_drat_text())
        print(f"wrote DRAT proof to {args.proof_out}")
    return 0 if verdict.has_correction or verdict.verified is not False else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import (
        DesignCache,
        DiagnosisService,
        ProcessDiagnosisService,
        ResultJournal,
        read_device_stream,
        read_journal,
    )

    cache = DesignCache()
    if args.devices == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            lines = Path(args.devices).read_text().splitlines()
        except OSError as exc:
            raise SystemExit(f"error: {exc}")
    # Skip-and-count intake: one malformed JSONL record is reported
    # (with its line number) and dropped; the stream keeps flowing.
    skipped: list[tuple[int, str]] = []

    def on_error(lineno: int, message: str) -> None:
        skipped.append((lineno, message))
        print(f"warning: skipped {message}", file=sys.stderr)

    try:
        devices = list(
            read_device_stream(
                lines, inputs_of=cache.inputs_of, on_error=on_error
            )
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if not devices:
        raise SystemExit("error: no devices in the stream")
    strategies = tuple(
        s.strip() for s in args.strategies.split(",") if s.strip()
    )
    if args.resume and not args.journal:
        raise SystemExit("error: --resume requires --journal")
    if args.workers and args.shards is not None:
        raise SystemExit(
            "error: --shards counts thread executors; with --workers each "
            "worker process is one executor, so drop --shards"
        )
    resume_from = None
    if args.resume and Path(args.journal).exists():
        resume_from = read_journal(args.journal)
    journal = ResultJournal(args.journal) if args.journal else None
    service = None
    try:
        try:
            if args.workers:
                # Process mode: designs are sharded across worker
                # processes, each one executor.
                service = ProcessDiagnosisService(
                    n_workers=args.workers,
                    strategies=strategies,
                    policy=args.policy,
                    timeout=args.timeout,
                    max_attempts=args.retries + 1,
                    degrade=not args.no_degrade,
                    journal=journal,
                    resume_from=resume_from,
                    solver_backend=args.solver_backend,
                )
            else:
                service = DiagnosisService(
                    n_shards=2 if args.shards is None else args.shards,
                    strategies=strategies,
                    policy=args.policy,
                    timeout=args.timeout,
                    max_attempts=args.retries + 1,
                    degrade=not args.no_degrade,
                    journal=journal,
                    resume_from=resume_from,
                    design_cache=cache,
                    solver_backend=args.solver_backend,
                )
            results = service.run(devices)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    finally:
        if isinstance(service, ProcessDiagnosisService):
            service.close()
        if journal is not None:
            journal.close()
    payload = "\n".join(json.dumps(r.to_dict()) for r in results) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            raise SystemExit(f"error: {exc}")
    else:
        sys.stdout.write(payload)
    if args.stats:
        stats = service.stats()
        stats["intake_skipped"] = len(skipped)
        print(json.dumps(stats, indent=2), file=sys.stderr)
    # Exit code: 0 whenever the stream was served end to end (every
    # device resolved exactly once, possibly degraded).  --strict turns
    # any non-ok resolution or skipped intake line into exit 1 with a
    # one-line summary.
    if args.strict:
        by_status: dict[str, int] = {}
        for r in results:
            if r.status != "ok":
                by_status[r.status] = by_status.get(r.status, 0) + 1
        bad_devices = sum(by_status.values())
        if bad_devices or skipped:
            parts = []
            if bad_devices:
                breakdown = ", ".join(
                    f"{n} {status}"
                    for status, n in sorted(by_status.items())
                )
                parts.append(
                    f"{bad_devices}/{len(results)} devices not ok "
                    f"({breakdown})"
                )
            if skipped:
                parts.append(f"{len(skipped)} intake lines skipped")
            print("strict: " + "; ".join(parts), file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print circuit statistics")
    p_stats.add_argument("circuit")
    p_stats.set_defaults(func=_cmd_stats)

    p_inject = sub.add_parser("inject", help="inject design errors")
    p_inject.add_argument("circuit")
    p_inject.add_argument("--p", type=int, default=1)
    p_inject.add_argument("--seed", type=int, default=0)
    p_inject.add_argument(
        "--error-model", choices=("gate", "wire"), default="gate",
        help="gate-change (paper §2.1) or Abadir wire errors (ref [18])",
    )
    p_inject.add_argument("--out", required=True)
    p_inject.set_defaults(func=_cmd_inject)

    p_testgen = sub.add_parser("testgen", help="generate failing tests")
    p_testgen.add_argument("golden")
    p_testgen.add_argument("faulty")
    p_testgen.add_argument("--m", type=int, default=8)
    p_testgen.add_argument("--seed", type=int, default=0)
    p_testgen.add_argument("--out", required=True)
    p_testgen.set_defaults(func=_cmd_testgen)

    p_diag = sub.add_parser("diagnose", help="run a diagnosis approach")
    p_diag.add_argument(
        "faulty",
        help="faulty netlist (--system circuit), GCNF file "
        "(--system gcnf) or spectrum JSON (--system spectrum)",
    )
    p_diag.add_argument(
        "tests",
        help="test file (circuit) or observation file (gcnf: one "
        "observation per line as DIMACS literals, '-' = single empty "
        "observation; spectrum: pass '-', the rows live in the JSON)",
    )
    p_diag.add_argument(
        "--system",
        choices=("circuit", "gcnf", "spectrum"),
        default="circuit",
        help="system description kind the inputs encode (see "
        "'python -m repro strategies' for which approaches are "
        "model-agnostic)",
    )
    p_diag.add_argument(
        "--approach",
        choices=(
            "bsim", "cov", "bsat", "hybrid", "greedy", "ihs",
            "hsdag", "fastdiag",
        ),
        default="bsat",
        help="bsim/cov/bsat/hybrid as in the paper; greedy "
        "(SAFARI stochastic search), ihs (implicit hitting sets), "
        "hsdag (Reiter hitting-set DAG) and fastdiag (divide and "
        "conquer) are the candidate-space search loops",
    )
    p_diag.add_argument(
        "--k", type=int, default=1,
        help="error cardinality bound (greedy/ihs: 0 = self-determined)",
    )
    p_diag.add_argument("--limit", type=int, default=100)
    p_diag.add_argument("--top", type=int, default=10)
    p_diag.add_argument(
        "--solver-backend", default=None, metavar="NAME",
        help="SAT backend for every solver the session builds "
        "(see 'python -m repro backends'; default: arena)",
    )
    p_diag.add_argument(
        "--profile", action="store_true",
        help="run the diagnosis under cProfile and print the top-20 "
        "functions by cumulative time (see benchmarks/README.md)",
    )
    p_diag.set_defaults(func=_cmd_diagnose)

    p_serve = sub.add_parser(
        "serve",
        help="sharded diagnosis service over a JSON-lines device stream",
    )
    p_serve.add_argument(
        "devices",
        help="JSON-lines device file ('-' = stdin): one object per "
        "failing device with id, design, tests (see repro.serve.intake)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=None,
        help="thread executors of the in-process service, each with a "
        "bounded queue (default: 2); not combinable with --workers",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="serve on N worker processes instead of thread shards, "
        "sharding *designs* across cores; each worker is one executor "
        "(0: in-process thread mode, the default)",
    )
    p_serve.add_argument(
        "--strategies", default=",".join(_SERVE_STRATEGIES),
        metavar="CSV",
        help="comma-separated ladder of strategies tried in order per "
        "device, first with an answer wins; any of "
        f"{', '.join(_SERVE_STRATEGIES)} "
        f"(default: {','.join(_SERVE_STRATEGIES)})",
    )
    p_serve.add_argument(
        "--policy", choices=("first", "complete"), default="first",
        help="first: each strategy stops at its first valid answer; "
        "complete: each runs to completion",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline; expired attempts retry on another "
        "shard or worker (default: none)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts after a timeout or a shard/worker death "
        "(default: 1)",
    )
    p_serve.add_argument(
        "--solver-backend", default=None, metavar="NAME",
        help="SAT backend for every session the shards build",
    )
    p_serve.add_argument(
        "--out", help="write results here instead of stdout (JSON lines)"
    )
    p_serve.add_argument(
        "--journal", metavar="PATH",
        help="append accepted devices and resolved results to this "
        "durable JSONL write-ahead log (fsync-batched off the latency "
        "path)",
    )
    p_serve.add_argument(
        "--resume", action="store_true",
        help="replay already-resolved signatures from the --journal "
        "file instead of re-diagnosing them (exactly-once across "
        "process death); unresolved devices re-run",
    )
    p_serve.add_argument(
        "--no-degrade", action="store_true",
        help="report a plain timeout for a device whose last attempt "
        "ran out of time, instead of the degraded answer its ladder "
        "already held (verified corrections found so far, or the "
        "finished sweep's top-marked gates as guidance)",
    )
    p_serve.add_argument(
        "--strict", action="store_true",
        help="exit nonzero (with a one-line summary) when any device "
        "resolved non-ok or any intake line was skipped; default exit "
        "is 0 whenever the stream was served end to end",
    )
    p_serve.add_argument(
        "--stats", action="store_true",
        help="print the service/executor/design-cache counters to "
        "stderr (includes degraded / journal_replayed / intake_skipped, "
        "and per-shard or per-worker processed, queue_high_water and "
        "alive, so routing skew is visible)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_strat = sub.add_parser(
        "strategies", help="list the registered diagnosis strategies"
    )
    p_strat.set_defaults(func=_cmd_strategies)

    p_back = sub.add_parser(
        "backends", help="list the registered SAT solver backends"
    )
    p_back.set_defaults(func=_cmd_backends)

    p_eng = sub.add_parser(
        "engines",
        help="list the fault-simulation engines and who accepts each",
    )
    p_eng.set_defaults(func=_cmd_engines)

    p_t1 = sub.add_parser("table1", help="print the comparison matrix")
    p_t1.set_defaults(func=_cmd_table1)

    p_atpg = sub.add_parser("atpg", help="stuck-at ATPG flow with coverage")
    p_atpg.add_argument("circuit")
    p_atpg.add_argument("--backend", choices=("podem", "sat"), default="podem")
    p_atpg.add_argument("--seed", type=int, default=0)
    p_atpg.add_argument("--no-collapse", action="store_true")
    p_atpg.add_argument("--no-compact", action="store_true")
    p_atpg.add_argument("--out", help="write the pattern set to this file")
    p_atpg.set_defaults(func=_cmd_atpg)

    p_cec = sub.add_parser("cec", help="combinational equivalence check")
    p_cec.add_argument("golden")
    p_cec.add_argument("impl")
    p_cec.add_argument(
        "--method", choices=("auto", "sat", "bdd", "random"), default="auto"
    )
    p_cec.add_argument("--seed", type=int, default=0)
    p_cec.set_defaults(func=_cmd_cec)

    p_cert = sub.add_parser(
        "certify", help="certified correction-bound verdict (DRAT)"
    )
    p_cert.add_argument("faulty")
    p_cert.add_argument("tests")
    p_cert.add_argument("--k", type=int, default=1)
    p_cert.add_argument("--no-check", action="store_true")
    p_cert.add_argument("--proof-out", help="write the DRAT proof here")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
