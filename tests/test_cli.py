"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_stats_library_circuit(capsys):
    code, out = run_cli(capsys, "stats", "c17")
    assert code == 0
    stats = json.loads(out)
    assert stats["gates"] == 6


def test_stats_bench_file(tmp_path, capsys):
    from repro.circuits import dump, library

    path = tmp_path / "maj.bench"
    dump(library.majority(), path)
    code, out = run_cli(capsys, "stats", str(path))
    assert code == 0
    assert json.loads(out)["gates"] == 5


def test_unknown_circuit_exits():
    with pytest.raises(SystemExit):
        main(["stats", "no_such_circuit_or_file"])


def test_inject_testgen_diagnose_roundtrip(tmp_path, capsys):
    faulty_path = tmp_path / "faulty.bench"
    tests_path = tmp_path / "t.tests"

    code, out = run_cli(
        capsys, "inject", "c17", "--p", "1", "--seed", "3",
        "--out", str(faulty_path),
    )
    assert code == 0 and faulty_path.exists()
    truth = json.loads(
        (tmp_path / "faulty.truth.json").read_text()
    )
    assert len(truth["errors"]) == 1
    site = truth["errors"][0].split(":")[0]

    code, out = run_cli(
        capsys, "testgen", "c17", str(faulty_path), "--m", "4",
        "--out", str(tests_path),
    )
    assert code == 0 and "4 failing tests" in out

    code, out = run_cli(
        capsys, "diagnose", str(faulty_path), str(tests_path),
        "--approach", "bsat", "--k", "1",
    )
    assert code == 0
    assert site in out  # the injected site must be among the solutions

    code, out = run_cli(
        capsys, "diagnose", str(faulty_path), str(tests_path),
        "--approach", "bsim",
    )
    assert code == 0 and "candidate gates" in out

    code, out = run_cli(
        capsys, "diagnose", str(faulty_path), str(tests_path),
        "--approach", "cov", "--k", "1",
    )
    assert code == 0 and "solutions" in out

    code, out = run_cli(
        capsys, "diagnose", str(faulty_path), str(tests_path),
        "--approach", "hybrid", "--k", "1",
    )
    assert code == 0 and "solutions" in out

    code, out = run_cli(
        capsys, "diagnose", str(faulty_path), str(tests_path),
        "--approach", "greedy", "--k", "0",
    )
    assert code == 0 and "solutions" in out
    assert site in out  # greedy candidates are valid, site among them

    code, out = run_cli(
        capsys, "diagnose", str(faulty_path), str(tests_path),
        "--approach", "ihs", "--k", "0",
    )
    assert code == 0 and "solutions" in out
    assert site in out


def test_strategies_lists_registry(capsys):
    code, out = run_cli(capsys, "strategies")
    assert code == 0
    for name in ("bsat", "greedy-stochastic", "ihs", "single-fix"):
        assert name in out


def test_diagnose_rejects_bad_test_file(tmp_path):
    from repro.circuits import dump, library

    faulty = tmp_path / "c.bench"
    dump(library.c17(), faulty)
    bad = tmp_path / "bad.tests"
    bad.write_text("xyz nonsense\n")
    with pytest.raises(SystemExit):
        main(["diagnose", str(faulty), str(bad)])


def test_diagnose_rejects_empty_test_file(tmp_path):
    from repro.circuits import dump, library

    faulty = tmp_path / "c.bench"
    dump(library.c17(), faulty)
    empty = tmp_path / "empty.tests"
    empty.write_text("# nothing\n")
    with pytest.raises(SystemExit):
        main(["diagnose", str(faulty), str(empty)])


def test_table1(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "BSIM" in out and "adv. SAT-based" in out


def test_atpg_writes_patterns(tmp_path, capsys):
    out_file = tmp_path / "patterns.txt"
    code, out = run_cli(capsys, "atpg", "c17", "--out", str(out_file))
    assert code == 0
    assert "coverage 100.0%" in out
    lines = [
        l for l in out_file.read_text().splitlines() if not l.startswith("#")
    ]
    assert lines and all(set(l) <= {"0", "1"} and len(l) == 5 for l in lines)


def test_atpg_sat_backend(capsys):
    code, out = run_cli(capsys, "atpg", "c17", "--backend", "sat")
    assert code == 0 and "coverage 100.0%" in out


def test_cec_equivalent(capsys):
    code, out = run_cli(capsys, "cec", "c17", "c17", "--method", "bdd")
    assert code == 0 and "equivalent" in out


def test_cec_inequivalent_exit_code(tmp_path, capsys):
    faulty_path = tmp_path / "faulty.bench"
    run_cli(capsys, "inject", "c17", "--seed", "3", "--out", str(faulty_path))
    code, out = run_cli(capsys, "cec", "c17", str(faulty_path))
    assert code == 1
    assert "NOT equivalent" in out and "counterexample" in out


def test_certify_correction_exists(tmp_path, capsys):
    faulty_path = tmp_path / "faulty.bench"
    tests_path = tmp_path / "t.tests"
    run_cli(capsys, "inject", "c17", "--seed", "3", "--out", str(faulty_path))
    run_cli(
        capsys, "testgen", "c17", str(faulty_path), "--m", "4",
        "--out", str(tests_path),
    )
    code, out = run_cli(
        capsys, "certify", str(faulty_path), str(tests_path), "--k", "1"
    )
    assert code == 0 and "correction exists" in out


def test_certify_refutation_with_proof(tmp_path, capsys):
    faulty_path = tmp_path / "faulty.bench"
    tests_path = tmp_path / "t.tests"
    proof_path = tmp_path / "refutation.drat"
    run_cli(capsys, "inject", "c17", "--seed", "3", "--out", str(faulty_path))
    run_cli(
        capsys, "testgen", "c17", str(faulty_path), "--m", "4",
        "--out", str(tests_path),
    )
    code, out = run_cli(
        capsys, "certify", str(faulty_path), str(tests_path), "--k", "0",
        "--proof-out", str(proof_path),
    )
    assert code == 0  # verified refutation
    assert "VERIFIED" in out
    assert proof_path.exists()
    from repro.sat import ProofLog

    assert ProofLog.from_drat_text(
        proof_path.read_text()
    ).ends_with_empty_clause


def test_inject_wire_error_model(tmp_path, capsys):
    faulty_path = tmp_path / "wire.bench"
    code, out = run_cli(
        capsys, "inject", "c17", "--error-model", "wire", "--seed", "2",
        "--out", str(faulty_path),
    )
    assert code == 0 and faulty_path.exists()
    assert "injected:" in out
    # The sidecar records a wire/inverter error description, not a type swap.
    import json

    truth = json.loads((tmp_path / "wire.truth.json").read_text())
    assert len(truth["errors"]) == 1


# ----------------------------------------------------------------------
# system descriptions (--system gcnf / spectrum, PR 6)
# ----------------------------------------------------------------------
def test_strategies_shows_system_kinds(capsys):
    code, out = run_cli(capsys, "strategies")
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert "model-agnostic" in lines["hsdag"]
    assert "model-agnostic" in lines["fastdiag"]
    assert "model-agnostic" in lines["bsat"]
    assert "circuit-only" in lines["cov"]


def test_diagnose_gcnf(tmp_path, capsys):
    gcnf = tmp_path / "demo.gcnf"
    gcnf.write_text(
        "p gcnf 3 3 3\n{1} 1 0\n{2} -1 0\n{3} 2 3 0\n"
    )
    for approach in ("bsat", "ihs", "hsdag", "fastdiag"):
        code, out = run_cli(
            capsys, "diagnose", str(gcnf), "-",
            "--system", "gcnf", "--approach", approach, "--k", "2",
        )
        assert code == 0
        assert "2 solutions" in out
        assert "g1" in out and "g2" in out


def test_diagnose_gcnf_observation_file(tmp_path, capsys):
    gcnf = tmp_path / "demo.gcnf"
    gcnf.write_text("p gcnf 2 2 2\n{1} 1 0\n{2} 2 0\n")
    obs = tmp_path / "demo.obs"
    obs.write_text("# two observations\nc DIMACS comment\n1 0\n-1 -2\n")
    code, out = run_cli(
        capsys, "diagnose", str(gcnf), str(obs),
        "--system", "gcnf", "--approach", "hsdag", "--k", "2",
    )
    assert code == 0
    assert "2 observations" in out
    assert "g1, g2" in out


def test_diagnose_gcnf_observation_file_rejects_inner_zero(tmp_path, capsys):
    gcnf = tmp_path / "demo.gcnf"
    gcnf.write_text("p gcnf 2 2 2\n{1} 1 0\n{2} 2 0\n")
    obs = tmp_path / "demo.obs"
    obs.write_text("1 0 -2\n")
    with pytest.raises(SystemExit, match="trailing clause terminator"):
        run_cli(
            capsys, "diagnose", str(gcnf), str(obs),
            "--system", "gcnf", "--approach", "hsdag", "--k", "2",
        )


def test_diagnose_gcnf_observation_out_of_range_is_clean_error(
    tmp_path, capsys
):
    gcnf = tmp_path / "demo.gcnf"
    gcnf.write_text("p gcnf 2 2 2\n{1} 1 0\n{2} 2 0\n")
    obs = tmp_path / "demo.obs"
    obs.write_text("7\n")
    with pytest.raises(SystemExit, match="error: observation literal"):
        run_cli(
            capsys, "diagnose", str(gcnf), str(obs),
            "--system", "gcnf", "--approach", "hsdag", "--k", "2",
        )


def test_diagnose_spectrum(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "components": ["a", "b", "c"],
        "rows": [
            {"covered": ["a", "b"], "passed": False},
            {"covered": ["b", "c"], "passed": False},
        ],
    }))
    code, out = run_cli(
        capsys, "diagnose", str(spec), "-",
        "--system", "spectrum", "--approach", "fastdiag", "--k", "2",
    )
    assert code == 0
    assert "3 components, 2 runs" in out
    assert "b" in out


def test_diagnose_gcnf_rejects_bsim(tmp_path):
    gcnf = tmp_path / "demo.gcnf"
    gcnf.write_text("p gcnf 1 1 1\n{1} 1 0\n")
    with pytest.raises(SystemExit, match="bsim"):
        main([
            "diagnose", str(gcnf), "-",
            "--system", "gcnf", "--approach", "bsim",
        ])


def test_diagnose_gcnf_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.gcnf"
    bad.write_text("p gcnf 1 1\n{1} 1 0\n")
    with pytest.raises(SystemExit):
        main(["diagnose", str(bad), "-", "--system", "gcnf"])


# ----------------------------------------------------------------------
# CLI error-handling sweep + the serve subcommand (PR 7)
# ----------------------------------------------------------------------
def test_diagnose_unsupported_strategy_system_combo_is_one_line_error(
    tmp_path,
):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "components": ["a", "b"],
        "rows": [{"covered": ["a"], "passed": False}],
    }))
    # cov is circuit-only: on a spectrum system it must exit with the
    # registry's message, not an uncaught traceback.
    with pytest.raises(SystemExit, match="supports system kinds"):
        main([
            "diagnose", str(spec), "-",
            "--system", "spectrum", "--approach", "cov",
        ])


def test_diagnose_missing_tests_file_is_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="error:"):
        main(["diagnose", "c17", str(tmp_path / "no_such.tests")])


def test_diagnose_missing_observation_file_is_clean_error(tmp_path):
    gcnf = tmp_path / "demo.gcnf"
    gcnf.write_text("p gcnf 1 1 1\n{1} 1 0\n")
    with pytest.raises(SystemExit, match="error:"):
        main([
            "diagnose", str(gcnf), str(tmp_path / "no_such.obs"),
            "--system", "gcnf",
        ])


def test_certify_missing_tests_file_is_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="error:"):
        main(["certify", "c17", str(tmp_path / "no_such.tests")])


def test_diagnose_spectrum_malformed_names_field(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "components": ["a", "b"],
        "rows": [{"covered": ["a"]}],  # missing 'passed'
    }))
    with pytest.raises(SystemExit, match="rows\\[0\\]"):
        main(["diagnose", str(spec), "-", "--system", "spectrum"])


def _serve_device_lines():
    from repro.circuits import library
    from repro.experiments import make_workload

    lines = []
    for i, seed in enumerate((3, 5)):
        w = make_workload(library.c17(), p=1, m_max=4, seed=seed)
        tests = [
            {"vector": dict(t.vector), "output": t.output,
             "value": t.value ^ 1}
            for t in w.tests
        ]
        lines.append(json.dumps(
            {"id": f"d{i}", "design": "c17", "k": 2, "tests": tests}
        ))
    return lines


def test_serve_smoke(tmp_path, capsys):
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    code, out = run_cli(
        capsys, "serve", str(stream), "--shards", "2", "--timeout", "30"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in records] == ["d0", "d1"]
    assert all(r["status"] == "ok" and r["answer"] for r in records)


def test_serve_out_file_and_stats(tmp_path, capsys):
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    out_path = tmp_path / "results.jsonl"
    code = main([
        "serve", str(stream), "--shards", "1", "--timeout", "30",
        "--out", str(out_path), "--stats",
    ])
    captured = capsys.readouterr()
    assert code == 0
    records = [
        json.loads(line) for line in out_path.read_text().splitlines()
    ]
    assert len(records) == 2
    stats = json.loads(captured.err)
    assert stats["design_cache"]["skeleton_builds"] == {"c17": 1}
    (block,) = stats["shards"].values()
    assert {"processed", "queue_high_water", "alive"} <= set(block)
    assert block["processed"] == 2


def test_serve_workers_process_mode_with_stats(tmp_path, capsys):
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    code = main([
        "serve", str(stream), "--workers", "2", "--timeout", "30",
        "--stats",
    ])
    captured = capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["id"] for r in records] == ["d0", "d1"]
    assert all(r["status"] == "ok" and r["answer"] for r in records)
    # Design sharding: both c17 devices served by the one owning worker.
    assert len({r["worker"] for r in records}) == 1
    assert records[0]["worker"] is not None
    stats = json.loads(captured.err)
    assert set(stats["workers"]) == {"worker0", "worker1"}
    assert all(
        block["queue_high_water"] >= 0
        for block in stats["workers"].values()
    )
    assert sum(
        block["processed"] for block in stats["workers"].values()
    ) == 2
    assert stats["devices"] == 2
    assert stats["worker_deaths"] == 0


def test_serve_shards_with_workers_is_one_line_error(tmp_path):
    # --shards counts thread executors; a worker process is one executor.
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(stream), "--workers", "2", "--shards", "1"])
    message = str(exc.value)
    assert message.startswith("error: --shards")
    assert "\n" not in message


def test_serve_skips_malformed_line_midstream(tmp_path, capsys):
    # Skip-and-count intake: the torn line is dropped with a warning
    # naming its line number, the devices behind it still serve.
    stream = tmp_path / "devices.jsonl"
    lines = _serve_device_lines()
    stream.write_text(
        lines[0] + "\n" + '{"id": "torn-rec\n' + lines[1] + "\n"
    )
    code = main(["serve", str(stream), "--shards", "1", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["id"] for r in records] == ["d0", "d1"]
    assert "warning: skipped line 2" in captured.err
    assert '"intake_skipped": 1' in captured.err


def test_serve_strict_counts_skipped_intake(tmp_path, capsys):
    stream = tmp_path / "devices.jsonl"
    stream.write_text(
        _serve_device_lines()[0] + "\n" + "{not json}\n"
    )
    code = main(["serve", str(stream), "--shards", "1", "--strict"])
    captured = capsys.readouterr()
    assert code == 1
    assert "strict: 1 intake lines skipped" in captured.err


def test_serve_stream_of_only_malformed_devices_is_clean_error(tmp_path):
    stream = tmp_path / "devices.jsonl"
    stream.write_text('{"id": "x", "design": "c17"}\n')
    with pytest.raises(SystemExit, match="no devices in the stream"):
        main(["serve", str(stream)])


def test_serve_missing_file_is_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="error:"):
        main(["serve", str(tmp_path / "no_such.jsonl")])


def test_serve_rejects_unknown_strategy(tmp_path):
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    with pytest.raises(SystemExit, match="unknown strategy 'nope'"):
        main(["serve", str(stream), "--strategies", "nope"])


def test_serve_default_strategies_mirror_the_service_ladder():
    # The parser keeps its default literal (no service import at parse
    # time); it must stay the service's default ladder.
    from repro.cli import _SERVE_STRATEGIES
    from repro.serve import DEFAULT_STRATEGIES

    assert _SERVE_STRATEGIES == DEFAULT_STRATEGIES


@pytest.mark.parametrize("retired", ["single-fix", "ihs"])
def test_serve_rejects_retired_rungs(tmp_path, retired):
    # Greedy reports the sweep's singleton layer, so single-fix and ihs
    # are registered strategies but no longer ladder rungs.
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(stream), "--strategies", retired])
    message = str(exc.value)
    assert message.startswith(f"error: unknown strategy {retired!r}")
    assert "\n" not in message


def test_serve_unknown_design_exits_zero_by_default(tmp_path, capsys):
    # The stream was served end to end; per-device failures are data in
    # the result records, not a process failure (use --strict to gate).
    stream = tmp_path / "devices.jsonl"
    line = json.loads(_serve_device_lines()[0])
    line["design"] = "no_such_design"
    stream.write_text(json.dumps(line) + "\n")
    code, out = run_cli(capsys, "serve", str(stream), "--shards", "1")
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["status"] == "error"
    assert "no_such_design" in record["error"]


def test_serve_strict_turns_error_status_into_exit_1(tmp_path, capsys):
    stream = tmp_path / "devices.jsonl"
    line = json.loads(_serve_device_lines()[0])
    line["design"] = "no_such_design"
    stream.write_text(
        json.dumps(line) + "\n" + _serve_device_lines()[1] + "\n"
    )
    code = main(["serve", str(stream), "--shards", "1", "--strict"])
    captured = capsys.readouterr()
    assert code == 1
    assert "strict: 1/2 devices not ok (1 error)" in captured.err


def test_serve_journal_resume_replays_without_rediagnosis(
    tmp_path, capsys
):
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    wal = tmp_path / "serve.wal"
    code, first_out = run_cli(
        capsys, "serve", str(stream), "--shards", "1",
        "--journal", str(wal),
    )
    assert code == 0 and wal.exists()
    code = main([
        "serve", str(stream), "--shards", "1",
        "--journal", str(wal), "--resume", "--stats",
    ])
    captured = capsys.readouterr()
    assert code == 0
    first = [json.loads(l) for l in first_out.splitlines()]
    replayed = [json.loads(l) for l in captured.out.splitlines()]
    for a, b in zip(first, replayed):
        assert b["journal_replayed"] is True
        assert b["answer"] == a["answer"]
        assert b["winner"] == a["winner"]
    stats = json.loads(captured.err)
    assert stats["journal_replayed"] == 2
    assert "degraded" in stats and "journal" in stats


def test_serve_resume_requires_journal(tmp_path):
    stream = tmp_path / "devices.jsonl"
    stream.write_text("\n".join(_serve_device_lines()) + "\n")
    with pytest.raises(SystemExit, match="--resume requires --journal"):
        main(["serve", str(stream), "--resume"])


_MALFORMED_BENCH_ARGS = {
    "stats": ["{bad}"],
    "atpg": ["{bad}"],
    "diagnose": ["{bad}", "{tests}"],
    "cec": ["{bad}", "c17"],
    "certify": ["{bad}", "{tests}"],
    "inject": ["{bad}", "--out", "{out}"],
    "testgen": ["{bad}", "c17", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(_MALFORMED_BENCH_ARGS))
def test_malformed_bench_is_one_line_error(tmp_path, command, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n")
    tests = tmp_path / "t.tests"
    tests.write_text("1 z 0\n")
    argv = [
        arg.format(bad=bad, tests=tests, out=tmp_path / "out")
        for arg in _MALFORMED_BENCH_ARGS[command]
    ]
    with pytest.raises(SystemExit) as info:
        main([command, *argv])
    assert str(info.value) == f"error: {bad}: line 3: unknown gate type 'FOO'"
    assert capsys.readouterr().out == ""


def test_certify_negative_k_is_one_line_error(tmp_path):
    tests = tmp_path / "t.tests"
    tests.write_text("11 z 0\n")
    bench = tmp_path / "and.bench"
    bench.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
    with pytest.raises(SystemExit) as info:
        main(["certify", str(bench), str(tests), "--k", "-1"])
    assert str(info.value) == "error: k must be non-negative"
