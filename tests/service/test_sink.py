"""JsonlSink crash safety: fsync + atomic rename, never a torn file."""

import json
import os

from repro.service.batch import JsonlSink


def test_close_renames_partial_onto_final(tmp_path):
    path = str(tmp_path / "results.jsonl")
    sink = JsonlSink(path)
    sink.write({"n": 1})
    sink.write({"n": 2})
    # Before close only the partial exists — the final file appears
    # atomically, complete, on close.
    assert not os.path.exists(path)
    assert os.path.exists(path + ".partial")
    sink.close()
    assert os.path.exists(path)
    assert not os.path.exists(path + ".partial")
    assert [r["n"] for r in JsonlSink.read(path)] == [1, 2]
    sink.close()  # idempotent


def test_killed_run_leaves_readable_prefix(tmp_path):
    path = str(tmp_path / "results.jsonl")
    sink = JsonlSink(path)
    sink.write({"n": 1})
    sink.write({"n": 2})
    # Simulate a kill: the process dies without close(); a torn half-line
    # is sitting at the end of the partial file.
    sink._fh.write('{"n": 3, "torn": tr')
    sink._fh.flush()
    del sink
    # read() falls back to the partial and drops only the torn tail.
    assert [r["n"] for r in JsonlSink.read(path)] == [1, 2]


def test_resumed_partial_drops_its_torn_tail(tmp_path):
    # A killed batch left a torn, never-acknowledged record at the end of
    # the partial; a new sink must cut it off rather than glue the next
    # record onto it.
    path = str(tmp_path / "r.jsonl")
    with open(path + ".partial", "w") as fh:
        fh.write('{"a": 1}\n{"a": 2}\n{"a": 3, "tor')
    sink = JsonlSink(path)
    sink.write({"a": 4})
    sink.write({"a": 5})
    sink.close()
    assert [r["a"] for r in JsonlSink.read(path)] == [1, 2, 4, 5]


def test_append_semantics_preserved_across_runs(tmp_path):
    path = str(tmp_path / "results.jsonl")
    first = JsonlSink(path)
    first.write({"run": 1})
    first.close()
    second = JsonlSink(path)
    second.write({"run": 2})
    second.close()
    assert [r["run"] for r in JsonlSink.read(path)] == [1, 2]


def test_torn_middle_line_still_raises(tmp_path):
    # Only the *final* line of a partial may be torn; corruption in the
    # middle is a real problem and must not be silently skipped.
    path = str(tmp_path / "results.jsonl")
    with open(path, "w") as fh:
        fh.write('{"n": 1}\n{"torn": \n{"n": 3}\n')
    try:
        JsonlSink.read(path)
    except ValueError:
        pass
    else:
        raise AssertionError("mid-file corruption was silently dropped")
