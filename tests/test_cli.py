"""Command-line interface tests (python -m repro ...)."""

import json
import re

import pytest

from repro.cli import main

from tests.conftest import LOCKED_SRC, RACE_SRC


@pytest.fixture
def race_file(tmp_path):
    path = tmp_path / "race.ml"
    path.write_text(RACE_SRC)
    return str(path)


@pytest.fixture
def locked_file(tmp_path):
    path = tmp_path / "locked.ml"
    path.write_text(LOCKED_SRC)
    return str(path)


def test_run_clean_program(locked_file, capsys):
    code = main(["run", locked_file, "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok; final globals:" in out
    assert "c = 4" in out


def test_run_reports_failure_exit_code(race_file, capsys):
    # Find a failing seed via the CLI loop.
    for seed in range(100):
        code = main(
            ["run", race_file, "--seed", str(seed), "--stickiness", "0.3"]
        )
        capsys.readouterr()
        if code == 1:
            return
    pytest.fail("no failing seed via CLI")


def test_record_writes_logs(race_file, tmp_path, capsys):
    out_path = tmp_path / "logs.json"
    code = main(
        ["record", race_file, "--stickiness", "0.3", "--out", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "failure:" in out
    payload = json.loads(out_path.read_text())
    assert "logs" in payload and payload["logs"]
    for data in payload["logs"].values():
        bytes.fromhex(data)  # valid hex


def test_reproduce_end_to_end(race_file, capsys):
    code = main(["reproduce", race_file, "--stickiness", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reproduced   : True" in out
    assert "schedule" in out
    assert "clauses (fixed order)\n" in out


def test_reproduce_genval(race_file, capsys):
    code = main(
        ["reproduce", race_file, "--solver", "genval", "--stickiness", "0.3"]
    )
    assert code == 0
    assert "reproduced   : True" in capsys.readouterr().out


def test_disasm(race_file, capsys):
    code = main(["disasm", race_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "func main" in out
    assert "SPAWN" in out


def test_trace_decodes_paths(race_file, capsys):
    code = main(["trace", race_file, "--buggy", "--stickiness", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "thread 1" in out
    assert "worker: blocks" in out


def test_analyze_text_output(race_file, capsys):
    code = main(["analyze", race_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "shared variables:" in out
    assert "data race on 'c'" in out
    assert "summary:" in out


def test_analyze_clean_program(locked_file, capsys):
    code = main(["analyze", locked_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "no races or lock-order cycles found" in out


def test_analyze_json_output(race_file, capsys):
    code = main(["analyze", race_file, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["racy_variables"] == ["c"]
    assert any(d["code"].startswith("SR0") for d in payload["diagnostics"])


def test_analyze_fail_on_race_exit_code(race_file, locked_file, capsys):
    assert main(["analyze", race_file, "--fail-on-race"]) == 1
    capsys.readouterr()
    assert main(["analyze", locked_file, "--fail-on-race"]) == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_trace_json_output(race_file, capsys):
    code = main(["trace", race_file, "--json", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 3
    assert payload["threads"]
    for info in payload["threads"].values():
        assert info["n_tokens"] == len(info["tokens"])
        assert info["encoded_bytes"] > 0
        assert info["compressed_bytes"] > 0
        assert info["compression_ratio"] > 0
        kinds = {token[0] for token in info["tokens"]}
        assert kinds <= {"enter", "path", "exit", "partial", "resume"}


@pytest.fixture
def corpus_dir(race_file, tmp_path, capsys):
    root = str(tmp_path / "corpus")
    code = main(
        ["corpus", "add", root, race_file, "--stickiness", "0.3",
         "--name", "race", "--max-seeds", "50"]
    )
    capsys.readouterr()
    assert code == 0
    return root


def test_corpus_add_ls_verify(corpus_dir, capsys):
    assert main(["corpus", "ls", corpus_dir]) == 0
    out = capsys.readouterr().out
    assert "race" in out
    assert "seed=" in out
    assert main(["corpus", "verify", corpus_dir]) == 0
    assert "ok" in capsys.readouterr().out


def test_corpus_verify_flags_corruption(corpus_dir, capsys):
    from repro.store import Corpus
    from repro.service.faults import corrupt_chunk

    entry = Corpus.open(corpus_dir).entries()[0]
    corrupt_chunk(entry.trace_path, 0)
    assert main(["corpus", "verify", corpus_dir]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_corpus_compact(corpus_dir, capsys):
    assert main(["corpus", "compact", corpus_dir]) == 0
    assert "bytes" in capsys.readouterr().out
    assert main(["corpus", "verify", corpus_dir]) == 0


def test_batch_cli(corpus_dir, tmp_path, capsys):
    sink = str(tmp_path / "results.jsonl")
    code = main(["batch", corpus_dir, "--jobs", "2", "--out", sink, "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reproduced" in out
    assert "1 jobs: 1 reproduced" in out
    lines = [json.loads(l) for l in open(sink) if l.strip()]
    assert len(lines) == 1
    assert lines[0]["status"] == "reproduced"


def test_reproduce_profile_output(race_file, capsys):
    code = main(["reproduce", race_file, "--max-seeds", "60", "--profile"])
    out = capsys.readouterr().out
    assert code == 0
    assert "profile:" in out
    for phase in ("record", "symexec", "encode", "solve", "replay"):
        assert phase in out
    assert "cache" in out
    assert "off" in out  # no cache attached on plain reproduce
    assert "pruned" in out and "fixed order" in out
    assert "lemmas" in out
    # The values theory's conflicts are split out of the theory ones.
    assert re.search(r"conflicts \(\d+ theory, \d+ value\)", out)
    # Solver construction is told apart from the search.
    assert re.search(r"solve +\d+\.\d+s \(build \d+ ms\)", out)


def test_reproduce_json_output(race_file, capsys):
    code = main(["reproduce", race_file, "--max-seeds", "60", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["reproduced"] is True
    assert payload["program"].endswith("race.ml")
    profile = payload["profile"]
    assert profile["cache"] == "off"
    for phase in ("record", "symexec", "encode", "solve", "replay"):
        assert profile[phase] >= 0.0
    # The solver build is part of the solve phase.
    assert 0.0 < profile["build"] <= profile["solve"]
    assert "n_pruned_choice_vars" not in payload
    # The fork/join edges always decide some clauses at solver build.
    assert payload["n_pruned_clauses"] > 0
    assert payload["sat_stats"]["lemmas"] >= 0
    sat = payload["sat_stats"]
    assert 0 <= sat["value_conflicts"] <= sat["theory_conflicts"] <= sat["conflicts"]
    assert payload["sat_stats"]["solve_calls"] >= 1
    assert payload["schedule"]  # "thread#index" strings
    assert all("#" in step for step in payload["schedule"])


def test_batch_cli_cache_and_verify(corpus_dir, tmp_path, capsys):
    import os
    import pickle

    sink1 = str(tmp_path / "r1.jsonl")
    assert main(["batch", corpus_dir, "--out", sink1, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "cache: hits=0 misses=1" in out

    sink2 = str(tmp_path / "r2.jsonl")
    assert main(["batch", corpus_dir, "--out", sink2, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "cache: hits=1 misses=0" in out

    # --no-cache bypasses it entirely.
    assert main(["batch", corpus_dir, "--no-cache", "--quiet"]) == 0
    assert "cache:" not in capsys.readouterr().out

    # corpus verify checks cache entries and removes stale ones.
    cache_root = os.path.join(corpus_dir, "cache")
    entries = []
    for dirpath, _dirs, files in os.walk(cache_root):
        entries += [os.path.join(dirpath, f) for f in files if f.endswith(".pkl")]
    assert entries
    with open(entries[0], "rb") as fh:
        payload = pickle.loads(fh.read())
    payload["schema"] = -1
    with open(entries[0], "wb") as fh:
        fh.write(pickle.dumps(payload))
    assert main(["corpus", "verify", corpus_dir]) == 0  # self-healing
    out = capsys.readouterr().out
    assert "STALE (removed)" in out
    assert "1 stale removed" in out
    assert not os.path.exists(entries[0])
