"""Production diagnosis service: sharded, cached, min-cardinality ladder.

The paper's point — pick the right engine per situation — becomes the
*serving policy* here: every failing device climbs a ladder from the
cheapest engine to the complete one — greedy search, which first
reports its simulation sweep's singleton layer (for a single error
exactly BSAT's size-1 corrections), then BSAT — and the first rung with
a valid answer wins.  The service layers:

``intake``
    :class:`DeviceReport` — one failing device (design + observed
    failing tests) — and hardened JSON-lines parsing.
``design``
    :class:`DesignCache` — per-design artifacts (compiled circuit,
    master-encoding skeleton, result memo) built once per design.
``race``
    :func:`race_device` — the strategy ladder, run inline per device,
    every rung stopped by the device's one
    :class:`~repro.sat.budget.Budget` (deadline and cancel flag); an
    interrupted ladder returns what it already holds (verified
    corrections so far, else the finished sweep's top-marked gates)
    as its degraded answer.
``service``
    :class:`DiagnosisService` — the one dispatcher: routing,
    deadline/retry, dead-executor rescue, exactly-once result stream,
    degraded resolution from the ladder's partial answer, journal,
    counters; :class:`DeviceResult` and its one record codec.
``shard``
    The executor protocol, the per-attempt function every executor
    runs, and :class:`ServiceShard` — a thread executor with a bounded
    queue.
``procpool``
    :class:`ProcessDiagnosisService` — the same dispatcher over
    worker-*process* executors (one per process, designs sharded
    across them) for core-bound workloads; ``serve --workers N``.
``journal``
    :class:`ResultJournal` — fsync-batched JSONL WAL of accepted and
    resolved devices; :func:`read_journal` replays it on resume for
    exactly-once across process death.
``chaos``
    :class:`ChaosInjector` — seeded fault injection (shard kills, hung
    legs, torn intake lines, journal-commit crashes) plus
    :func:`check_invariants`.

See ``ROADMAP.md`` ("Serving guide") for the policy rationale and
``benchmarks/bench_serve.py`` for the gated throughput trajectory.
"""

from .chaos import ChaosInjector, JournalCrash, check_invariants
from .design import DesignArtifacts, DesignCache, load_design
from .intake import (
    DeviceReport,
    device_to_wire,
    parse_device,
    parse_device_line,
    read_device_stream,
    signature_seed,
)
from .journal import (
    JournalReplay,
    ResultJournal,
    read_journal,
    signature_key,
)
from .procpool import ProcessDiagnosisService
from .race import DEFAULT_STRATEGIES, RaceOutcome, race_device
from .service import DeviceResult, DiagnosisService
from .shard import ServiceShard, ShardKilled

__all__ = [
    "DesignArtifacts",
    "DesignCache",
    "load_design",
    "DeviceReport",
    "device_to_wire",
    "parse_device",
    "parse_device_line",
    "read_device_stream",
    "signature_seed",
    "JournalReplay",
    "ResultJournal",
    "read_journal",
    "signature_key",
    "ChaosInjector",
    "JournalCrash",
    "check_invariants",
    "DEFAULT_STRATEGIES",
    "RaceOutcome",
    "race_device",
    "DeviceResult",
    "DiagnosisService",
    "ProcessDiagnosisService",
    "ServiceShard",
    "ShardKilled",
]
