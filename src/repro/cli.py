"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        Execute a MiniLang program once under a seeded scheduler.
record     Search seeds for a failing run and dump the CLAP path logs.
reproduce  Full pipeline: record, solve, replay; prints the schedule.
analyze    Static analysis: shared variables, races, lock-order cycles,
           and the SR3xx bug patterns (atomicity/order/lost-notify).
explore    Witness search: SR3xx findings drive a goal-directed solve
           over a recorded *passing* run; witnesses are replay-validated
           and optionally stored in a corpus.
disasm     Show the compiled bytecode of every function.
trace      Decode and print a thread-local path log against its program.
bench      Regenerate a table of the paper's evaluation (1, 2 or 3).
litmus     Run the memory-model litmus suite and print observed outcomes.
corpus     Manage a durable trace corpus (add/ls/verify/compact/recover).
batch      Reproduce every corpus entry across a worker pool.
"""

import argparse
import json
import os
import sys

from repro.minilang import compile_source


def _load_program(path):
    with open(path) as fh:
        source = fh.read()
    return compile_source(source, name=path)


def _program_source(args):
    """``(source, name)`` of ``args.program``; the name defaults to the
    file's stem."""
    with open(args.program) as fh:
        source = fh.read()
    stem = args.program.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return source, args.name or stem


def _run_config(args, ring=False, **extra):
    """The ClapConfig of a recording command's run flags, plus its ring
    flags when ``ring`` is set; ``extra`` sets further fields."""
    from repro.core.clap import ClapConfig

    if ring:
        extra.update(
            ring_bytes=args.ring_bytes,
            ring_segment_bytes=args.ring_segment_bytes,
        )
    return ClapConfig(
        memory_model=args.memory_model,
        seeds=range(args.max_seeds),
        stickiness=args.stickiness,
        flush_prob=args.flush_prob,
        **extra,
    )


def cmd_run(args):
    from repro.runtime.interpreter import run_program

    program = _load_program(args.program)
    result = run_program(
        program,
        args.memory_model,
        seed=args.seed,
        stickiness=args.stickiness,
        flush_prob=args.flush_prob,
    )
    for thread, values in result.output:
        print("[%s] %s" % (thread, " ".join(str(v) for v in values)))
    print("steps=%d threads=%d saps=%d" % (
        result.steps, len(result.thread_names), result.total_saps()))
    if result.bug is not None:
        print("FAILURE:", result.bug)
        return 1
    if result.aborted:
        print("aborted:", result.aborted)
        return 2
    print("ok; final globals:")
    for addr, value in sorted(result.final_globals.items(), key=repr):
        print("  %s = %d" % (".".join(str(a) for a in addr), value))
    return 0


def cmd_record(args):
    from repro.core.clap import ClapPipeline

    program = _load_program(args.program)
    config = _run_config(args, ring=True)
    pipeline = ClapPipeline(program, config)
    recorded = pipeline.record()
    print("failure:", recorded.bug)
    print("seed:", recorded.seed)
    logs = recorded.recorder.encoded_logs()
    total = 0
    for thread, data in sorted(logs.items()):
        print("thread %-8s %5d bytes" % (thread, len(data)))
        total += len(data)
    print("total log: %d bytes" % total)
    if recorded.ring:
        print(
            "ring: budget %dB/thread, segment %dB%s"
            % (
                recorded.ring["ring_bytes"],
                recorded.ring["segment_bytes"],
                "  [lossy]" if recorded.lossy else "",
            )
        )
        for thread, info in sorted(recorded.ring["threads"].items()):
            print(
                "  %-8s retained %d/%d tokens (%d/%d bytes), "
                "%d segments evicted, %d flushes"
                % (
                    thread,
                    info["retained_tokens"],
                    info["total_tokens"],
                    info["retained_bytes"],
                    info["total_bytes"],
                    info["segments_evicted"],
                    info["flushes"],
                )
            )
    if args.out:
        payload = {t: data.hex() for t, data in logs.items()}
        with open(args.out, "w") as fh:
            json.dump({"seed": recorded.seed, "logs": payload}, fh, indent=2)
        print("written to", args.out)
    return 0


def _profile_phases(report):
    """(phase, seconds) rows of the per-phase wall-clock breakdown."""
    return [
        ("record", report.time_record),
        ("symexec", report.time_symbolic),
        ("encode", report.time_encode),
        ("solve", report.time_solve),
        ("replay", report.time_replay),
    ]


def _report_payload(report):
    """The machine-readable form of a ClapReport for ``--json``."""
    payload = {
        "program": report.program_name,
        "memory_model": report.memory_model,
        "solver": report.solver,
        "reproduced": report.reproduced,
        "seed": report.seed,
        "bug": str(report.bug) if report.bug else None,
        "failure_reason": report.failure_reason,
        "log_bytes": report.log_bytes,
        "n_saps": report.n_saps,
        "n_constraints": report.n_constraints,
        "n_variables": report.n_variables,
        "n_pruned_clauses": report.n_pruned_clauses,
        "context_switches": report.context_switches,
        "profile": dict(
            [(phase, round(seconds, 6)) for phase, seconds in _profile_phases(report)]
            + [("build", round(report.time_build, 6)), ("cache", report.cache_state)]
        ),
        "cache_stats": report.cache_stats,
        "sat_stats": report.solver_detail.get("sat_stats", {}),
        "schedule": ["%s#%d" % uid for uid in report.schedule],
    }
    if report.recorder_metrics:
        payload["lossy"] = report.lossy
        payload["recorder"] = report.recorder_metrics
        if report.synthesis:
            payload["synthesis"] = report.synthesis
    return payload


def cmd_reproduce(args):
    from repro.core.clap import ClapPipeline

    program = _load_program(args.program)
    config = _run_config(
        args, ring=True, solver=args.solver, workers=args.workers
    )
    report = ClapPipeline(program, config).reproduce()
    if args.json:
        print(json.dumps(_report_payload(report), indent=2, sort_keys=True))
        return 0 if report.reproduced else 1
    print("failure      :", report.bug)
    print("reproduced   :", report.reproduced)
    print("log bytes    :", report.log_bytes)
    print("SAPs         :", report.n_saps)
    print("constraints  :", report.n_constraints)
    print("variables    :", report.n_variables)
    print("pruned       : %d clauses (fixed order)" % report.n_pruned_clauses)
    print("solve time   : %.2fs (%s)" % (report.time_solve, report.solver))
    if args.profile:
        print("profile:")
        for phase, seconds in _profile_phases(report):
            build = ""
            if phase == "solve":
                build = " (build %d ms)" % round(report.time_build * 1000)
            print("  %-8s %8.3fs%s" % (phase, seconds, build))
        print("  cache    %8s" % report.cache_state)
    if report.recorder_metrics:
        metrics = report.recorder_metrics
        print(
            "recorder     : ring %dB/thread, %d segments written, "
            "%d evicted, %d/%d bytes retained, %d flushes%s"
            % (
                metrics.get("ring_bytes") or 0,
                metrics.get("segments_written", 0),
                metrics.get("segments_evicted", 0),
                metrics.get("bytes_retained", 0),
                metrics.get("bytes_total", 0),
                metrics.get("flushes", 0),
                "  [lossy]" if report.lossy else "",
            )
        )
        for thread, synth in sorted(report.synthesis.items()):
            print(
                "  synthesized %-8s %d blocks, %d calls, %d padding "
                "cycles (%d/%d evicted tokens accounted)"
                % (
                    thread,
                    synth["synth_blocks"],
                    synth["synth_calls"],
                    synth["padding_cycles"],
                    synth["accounted_tokens"],
                    synth["evicted_tokens"],
                )
            )
    detail = report.solver_detail
    sat = detail.get("sat_stats")
    if sat:
        print(
            "sat core     : %d solve calls, %d propagations, %d conflicts"
            " (%d theory, %d value), %d lemmas, %d restarts, %d learned,"
            " %d reuse hits"
            % (
                sat.get("solve_calls", 0),
                sat.get("propagations", 0),
                sat.get("conflicts", 0),
                sat.get("theory_conflicts", 0),
                sat.get("value_conflicts", 0),
                sat.get("lemmas", 0),
                sat.get("restarts", 0),
                sat.get("learned", 0),
                sat.get("reuse_hits", 0),
            )
        )
    for entry in detail.get("round_stats", []):
        print(
            "  round c=%-2d %s %6.3fs  %5d iterations, %d conflicts,"
            " %d reuse hits"
            % (
                entry.get("bound", -1),
                "hit " if entry.get("found") else ("done" if entry.get("exhausted") else "cut "),
                entry.get("wall", 0.0),
                entry.get("iterations", 0),
                entry.get("conflicts", 0),
                entry.get("reuse_hits", 0),
            )
        )
    portfolio = detail.get("portfolio")
    if portfolio:
        print(
            "portfolio    : winner %s (%s), %d workers / %d tasks"
            % (
                portfolio.get("winner") or "-",
                portfolio.get("winner_kind") or "-",
                portfolio.get("workers", 0),
                portfolio.get("tasks", 0),
            )
        )
        print(
            "  rungs resolved %d, cancelled %d, respawns %d"
            % (
                portfolio.get("rungs_resolved", 0),
                portfolio.get("cancelled", 0),
                portfolio.get("respawns", 0),
            )
        )
    print("context sw.  :", report.context_switches)
    if report.schedule:
        print("schedule     :")
        print("  " + " -> ".join("%s#%d" % uid for uid in report.schedule))
    if not report.reproduced:
        print("FAILED:", report.failure_reason)
        return 1
    return 0


def cmd_analyze(args):
    from repro.analysis.static_race import analyze_program

    program = _load_program(args.program)
    report = analyze_program(
        program, name=args.program, memory_model=args.memory_model
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    if args.fail_on_race and report.errors():
        return 1
    return 0


def cmd_explore(args):
    from repro.core.explore import ExploreConfig, ExploreDriver

    with open(args.program) as fh:
        source = fh.read()
    config = ExploreConfig(
        memory_model=args.memory_model,
        max_seeds=args.max_seeds,
        stickiness=args.stickiness,
        flush_prob=args.flush_prob,
        max_cs=args.max_cs,
        codes=tuple(c for c in (args.codes or "").split(",") if c),
    )
    corpus = None
    if args.corpus:
        from repro.store.corpus import Corpus

        corpus = Corpus.open_or_create(args.corpus)
    driver = ExploreDriver(source, config=config, name=args.program)
    report = driver.run(corpus=corpus)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(
            "targets      : %d (%d witnesses), %d passing runs from %d seeds"
            % (
                len(report.targets),
                report.n_witnesses,
                report.passing_runs,
                report.seeds_scanned,
            )
        )
        for t in report.targets:
            print(
                "%s %-11s %s (%s) — %s"
                % (t.code, t.status, t.var, t.func, t.description)
            )
            if t.found:
                print(
                    "    model=%s seed=%d rung=%d bound=%d attempts=%d"
                    " schedules=%d %.2fs%s"
                    % (
                        t.memory_model,
                        t.seed,
                        t.rung,
                        t.bound,
                        t.attempts,
                        t.schedules_enumerated,
                        t.time_search,
                        (" -> " + t.entry_id) if t.entry_id else "",
                    )
                )
                print("    schedule: " + " -> ".join(t.schedule))
    if args.fail_without_witness and report.n_witnesses < len(report.targets):
        return 1
    if args.fail_on_witness and report.n_witnesses:
        return 1
    return 0


def cmd_disasm(args):
    program = _load_program(args.program)
    for name in sorted(program.functions):
        print(program.functions[name].dump())
        print()
    return 0


def cmd_trace(args):
    import zlib

    from repro.core.clap import ClapPipeline

    program = _load_program(args.program)
    config = _run_config(args, ring=True)
    pipeline = ClapPipeline(program, config)
    recorded = pipeline.record() if args.buggy else pipeline.record_once(args.seed)
    decoded, _ = pipeline.decode(recorded)

    if args.json:
        ring_threads = (recorded.ring or {}).get("threads", {})
        threads = {}
        for thread, tokens in sorted(recorded.recorder.logs.items()):
            raw = recorded.recorder.encoded_logs()[thread]
            comp = zlib.compress(raw, 6)
            threads[thread] = {
                "tokens": [list(token) for token in tokens],
                "n_tokens": len(tokens),
                "encoded_bytes": len(raw),
                "compressed_bytes": len(comp),
                "compression_ratio": round(len(comp) / len(raw), 4)
                if raw
                else 1.0,
            }
            info = ring_threads.get(thread)
            if info is not None:
                threads[thread]["ring"] = {
                    "lossy": info["evicted_tokens"] > 0,
                    "evicted_tokens": info["evicted_tokens"],
                    "evicted_bytes": info["evicted_bytes"],
                    "segments_written": info["segments_written"],
                    "segments_evicted": info["segments_evicted"],
                    "flushes": info["flushes"],
                    "retained_bytes": info["retained_bytes"],
                    "total_bytes": info["total_bytes"],
                    "anchor": info["anchor"].to_json(),
                }
        payload = {
            "program": program.name,
            "seed": recorded.seed,
            "bug": str(recorded.bug) if recorded.bug else None,
            "threads": threads,
        }
        if recorded.ring:
            payload["ring"] = {
                "ring_bytes": recorded.ring["ring_bytes"],
                "segment_bytes": recorded.ring["segment_bytes"],
                "lossy": recorded.lossy,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    def show(node, depth):
        flag = "" if node.complete else "  [stopped at block %s ip %s]" % (
            node.stop_block,
            node.stop_ip,
        )
        if node.synthesized:
            flag += "  [synthesized]"
        elif node.synth_blocks:
            flag += "  [first %d blocks synthesized]" % node.synth_blocks
        if node.anchored:
            flag += "  [anchored]"
        print("%s%s: blocks %s%s" % ("  " * depth, node.func, node.blocks, flag))
        for child in node.calls:
            show(child, depth + 1)

    for thread in sorted(decoded):
        print("thread", thread)
        show(decoded[thread].root, 1)
    return 0


def cmd_bench(args):
    from repro.bench import harness

    if args.table == 1:
        rows = harness.run_table1()
        text = harness.format_table1(rows)
    elif args.table == 2:
        rows = harness.run_table2()
        text = harness.format_table2(rows)
    else:
        rows = harness.run_table3(workers=args.workers)
        text = harness.format_table3(rows)
    print(text)
    if args.out:
        harness.save_result(args.out, text)
    return 0


def cmd_litmus(args):
    from repro.runtime.litmus import LITMUS_TESTS, run_litmus

    for name in sorted(LITMUS_TESTS):
        for model in ("sc", "tso", "pso"):
            result = run_litmus(name, model, seeds=range(args.runs))
            outcomes = ", ".join(str(o) for o in sorted(result.outcomes))
            print("%-5s %-4s -> %s" % (name, model, outcomes))
    return 0


def cmd_corpus_add(args):
    from repro.store import Corpus

    source, name = _program_source(args)
    config = _run_config(args, ring=True)
    corpus = Corpus.open_or_create(args.corpus)
    entry = corpus.add(
        source, name=name, config=config, flush_every=args.flush_every
    )
    row = _entry_row(entry)
    print("added %s" % row["entry_id"])
    print(
        "  seed=%d threads=%d saps=%d log=%dB trace=%dB"
        % (
            row["seed"],
            row["threads"],
            row["saps"],
            row["log_bytes"],
            os.path.getsize(entry.trace_path),
        )
    )
    if row["ring"]:
        print(
            "  ring: %dB/thread budget%s"
            % (
                config.ring_bytes,
                "  [lossy: prefix evicted, reproduction will synthesize]"
                if row["lossy"]
                else "",
            )
        )
    return 0


def _entry_row(entry, shard=None):
    """One listing row of ``corpus ls`` and ``fleet ls`` (text or JSON)."""
    manifest = entry.manifest
    stats = manifest.get("stats", {})
    fleet_info = manifest.get("fleet") or {}
    row = {
        "entry_id": entry.entry_id,
        "program": manifest["program"]["name"],
        "sha256": manifest["program"]["sha256"],
        "memory_model": manifest["record"].get("memory_model", "sc"),
        "seed": manifest["record"].get("seed", -1),
        "threads": len(stats.get("thread_names", [])),
        "saps": stats.get("n_saps", 0),
        "log_bytes": stats.get("log_bytes", 0),
        "bug": dict(manifest.get("bug", {})),
        "recovered": bool(manifest.get("recovered")),
        "ring": bool(manifest.get("ring")),
        "lossy": bool((manifest.get("ring") or {}).get("lossy")),
        "provenance": manifest.get("provenance") or {},
        "shard": fleet_info.get("shard", shard if shard is not None else -1),
        "cluster": fleet_info.get("cluster", ""),
        "fingerprint": fleet_info.get("fingerprint", ""),
    }
    return row


def cmd_corpus_ls(args):
    from repro.store import Corpus

    corpus = Corpus.open(args.corpus)
    rows = [_entry_row(entry) for entry in corpus.entries()]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("(empty corpus)")
        return 0
    for row in rows:
        provenance = row["provenance"]
        origin = ""
        if provenance.get("mode") == "explore":
            origin = "  [explore %s]" % provenance.get("code", "?")
        print(
            "%-28s %-10s %-4s seed=%-4d threads=%d saps=%-4d %s%s%s%s"
            % (
                row["entry_id"],
                row["program"],
                row["memory_model"],
                row["seed"],
                row["threads"],
                row["saps"],
                row["bug"].get("message", ""),
                origin,
                "  [recovered]" if row["recovered"] else "",
                "  [ring lossy]" if row["lossy"]
                else "  [ring]" if row["ring"] else "",
            )
        )
    return 0


def cmd_corpus_verify(args):
    from repro.store import AnalysisCache, Corpus

    corpus = Corpus.open(args.corpus)
    entry_ids = args.entries or corpus.entry_ids()
    bad = 0
    for entry_id in entry_ids:
        ok, problems = corpus.entry(entry_id).verify()
        if ok:
            print("%-28s ok" % entry_id)
        else:
            bad += 1
            print("%-28s CORRUPT" % entry_id)
            for problem in problems:
                print("    %s" % problem)
    # Analysis cache: stale entries (old schema, unreadable pickle) are
    # reported and removed — self-healing, so they do not fail the verify.
    cache_root = os.path.join(args.corpus, "cache")
    if os.path.isdir(cache_root):
        cache = AnalysisCache(cache_root)
        total = len(cache.entry_paths())
        stale = cache.verify()
        for path, problem in stale:
            print(
                "cache %-22s STALE (removed): %s"
                % (os.path.basename(path)[:12] + "…", problem)
            )
        print("cache: %d entries ok, %d stale removed" % (total - len(stale), len(stale)))
    return 1 if bad else 0


def cmd_corpus_compact(args):
    from repro.store import Corpus

    corpus = Corpus.open(args.corpus)
    entry_ids = args.entries or corpus.entry_ids()
    for entry_id in entry_ids:
        old, new = corpus.entry(entry_id).compact()
        print("%-28s %d -> %d bytes" % (entry_id, old, new))
    return 0


def cmd_corpus_recover(args):
    from repro.store import Corpus

    corpus = Corpus.open(args.corpus)
    report = corpus.entry(args.entry).recover()
    print(report.summary())
    for note in report.notes:
        print("  note:", note)
    return 0 if report.validated else 1


def cmd_batch(args):
    from repro.service import format_batch_table, run_batch

    def progress(_index, outcome):
        print(
            "  %-28s %s" % (outcome.get("entry_id", "?"), outcome.get("status")),
            file=sys.stderr,
        )

    results, aggregate = run_batch(
        args.corpus,
        entry_ids=args.entries or None,
        jobs=args.jobs,
        solver=args.solver,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        sink_path=args.out,
        on_outcome=progress if not args.quiet else None,
        use_cache=not args.no_cache,
    )
    print(format_batch_table(results, aggregate))
    return 0 if aggregate["reproduced"] == aggregate["jobs"] else 1


def _open_fleet(args):
    from repro.fleet import ShardedCorpus

    return ShardedCorpus.open(args.fleet)


def cmd_fleet_init(args):
    from repro.fleet import ShardedCorpus

    fleet = ShardedCorpus.create(
        args.fleet, shards=args.shards, cache_max_bytes=args.cache_max_bytes
    )
    print(
        "initialized fleet %s: %d shards, cache budget %dB"
        % (args.fleet, fleet.n_shards, fleet.config["cache_max_bytes"])
    )
    return 0


def cmd_fleet_add(args):
    fleet = _open_fleet(args)
    source, name = _program_source(args)
    outcome = fleet.add(source, name=name, config=_run_config(args))
    print(
        "%s shard=%d entry=%s cluster=%s"
        % (
            outcome["status"],
            outcome["shard"],
            outcome["entry_id"],
            outcome["cluster"][:12],
        )
    )
    return 0


def cmd_fleet_ls(args):
    fleet = _open_fleet(args)
    rows = [
        _entry_row(entry, shard=shard) for shard, entry in fleet.entries()
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("(empty fleet)")
        return 0
    for row in rows:
        print(
            "s%02d %-32s %-10s %-4s cluster=%s %s"
            % (
                row["shard"],
                row["entry_id"],
                row["program"],
                row["memory_model"],
                row["cluster"][:12] or "-",
                row["bug"].get("message", ""),
            )
        )
    return 0


def cmd_fleet_stats(args):
    fleet = _open_fleet(args)
    stats = fleet.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    for shard in stats["shards"]:
        print(
            "shard %02d: %d entries, %d clusters, %d programs, %dB traces"
            % (
                shard["shard"],
                shard["entries"],
                shard["clusters"],
                shard["programs"],
                shard["trace_bytes"],
            )
        )
    clusters = stats["clusters"]
    print(
        "clusters: %d (%d members, %d solves avoided, %d solved, "
        "%d pending, %d failed)"
        % (
            clusters["clusters"],
            clusters["members"],
            clusters["solves_avoided"],
            clusters["solved"],
            clusters["pending"],
            clusters["failed"],
        )
    )
    print("queue: %s" % ", ".join(
        "%d %s" % (count, state)
        for state, count in sorted(stats["queue"].items())
    ))
    cache = stats["cache"]
    budget = cache.get("max_bytes")
    print(
        "shared cache: %d entries, %dB%s"
        % (
            cache["entries"],
            cache["bytes"],
            " of %dB budget" % budget if budget else "",
        )
    )
    return 0


def cmd_fleet_rebalance(args):
    fleet = _open_fleet(args)
    summary = fleet.rebalance(shards=args.shards)
    print(
        "rebalanced to %d shards: %d of %d entries moved"
        % (summary["shards"], summary["moved"], summary["entries"])
    )
    return 0


def cmd_fleet_export(args):
    from repro.fleet import report_from_entry

    fleet = _open_fleet(args)
    for shard, entry in fleet.entries():
        if entry.entry_id == args.entry:
            report = report_from_entry(entry)
            text = json.dumps(report, indent=2, sort_keys=True)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return 0
    print("no fleet entry %s" % args.entry, file=sys.stderr)
    return 1


def cmd_fleet_ingest(args):
    from repro.fleet import IngestGateway, request

    reports = []
    for path in args.reports:
        with open(path) as fh:
            reports.append((path, json.load(fh)))
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        address = (host or "127.0.0.1", int(port))
        outcomes = [
            request(address, {"op": "ingest", "report": report})
            for _path, report in reports
        ]
    else:
        gateway = IngestGateway(
            _open_fleet(args), max_queue_depth=args.max_queue_depth
        )
        outcomes = [gateway.ingest(report) for _path, report in reports]
    bad = 0
    for (path, _report), outcome in zip(reports, outcomes):
        status = outcome.get("status", "?")
        if status in ("invalid", "rejected"):
            bad += 1
            print("%s: %s (%s)" % (path, status, outcome.get("reason", "")))
        else:
            print(
                "%s: %s shard=%s cluster=%s"
                % (
                    path,
                    status,
                    outcome.get("shard"),
                    (outcome.get("cluster") or "")[:12],
                )
            )
    return 1 if bad else 0


def cmd_fleet_serve(args):
    import asyncio

    from repro.fleet import FleetDispatcher, IngestGateway
    from repro.service import format_batch_table

    fleet = _open_fleet(args)
    dispatcher = FleetDispatcher(
        fleet,
        jobs=args.jobs,
        per_shard_limit=args.per_shard,
        solver=args.solver,
        timeout=args.timeout,
    )
    gateway = IngestGateway(
        fleet, max_queue_depth=args.max_queue_depth, dispatcher=dispatcher
    )

    class _Ready:
        def set(self):
            print(
                "listening on %s:%d" % gateway.address, file=sys.stderr
            )

    results, aggregate = asyncio.run(
        gateway.serve(host=args.host, port=args.port, ready=_Ready())
    ) or (None, None)
    if results is not None:
        print(format_batch_table(results, aggregate))
    return 0


def cmd_fleet_drain(args):
    from repro.fleet import FleetDispatcher
    from repro.service import format_batch_table

    fleet = _open_fleet(args)
    dispatcher = FleetDispatcher(
        fleet,
        jobs=args.jobs,
        per_shard_limit=args.per_shard,
        solver=args.solver,
        timeout=args.timeout,
    )
    results, aggregate = dispatcher.drain()
    print(format_batch_table(results, aggregate))
    if args.out:
        from repro.service import JsonlSink

        sink = JsonlSink(args.out)
        try:
            for result in results:
                sink.write(result.to_dict())
        finally:
            sink.close()
    failed = aggregate["jobs"] - aggregate["reproduced"]
    return 1 if failed else 0


def _common_run_flags(sub):
    sub.add_argument("program", help="MiniLang source file")
    sub.add_argument("--memory-model", default="sc", choices=["sc", "tso", "pso"])
    sub.add_argument("--stickiness", type=float, default=0.5)
    sub.add_argument("--flush-prob", type=float, default=0.25)


def _ring_flags(sub):
    sub.add_argument(
        "--ring-bytes",
        type=int,
        default=None,
        help="flight-recorder mode: bound each thread's retained log to "
        "this many encoded bytes (oldest segments are evicted; the "
        "suffix stays reproducible via prefix synthesis)",
    )
    sub.add_argument(
        "--ring-segment-bytes",
        type=int,
        default=512,
        help="ring segment size (eviction granularity; default 512)",
    )


def build_parser():
    from repro.core.clap import SOLVERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CLAP concurrency-failure reproduction (PLDI 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a program once")
    _common_run_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("record", help="record a failing run's path logs")
    _common_run_flags(p)
    _ring_flags(p)
    p.add_argument("--max-seeds", type=int, default=500)
    p.add_argument("--out", help="write logs as JSON")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("reproduce", help="record, solve and replay a failure")
    _common_run_flags(p)
    _ring_flags(p)
    p.add_argument(
        "--solver",
        default="smt",
        choices=SOLVERS,
    )
    p.add_argument("--max-seeds", type=int, default=500)
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="processes the solver may fork (0 = in-process); "
        "--solver smt-inc with 2 or more races the bound ladder "
        "against one genval probe per rung",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="per-phase wall-clock breakdown (record/symexec/encode/solve/replay)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (includes the profile breakdown)",
    )
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "analyze", help="static race/deadlock/robustness analysis of a program"
    )
    p.add_argument("program", help="MiniLang source file")
    p.add_argument(
        "--memory-model",
        default="sc",
        choices=["sc", "tso", "pso"],
        help="target model for the SR4xx robustness pass (sc: skip it)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--fail-on-race",
        action="store_true",
        help="exit 1 when any error-severity diagnostic is reported",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "explore",
        help="search for witnesses of static SR3xx/SR4xx findings (no "
        "failing recording needed)",
    )
    _common_run_flags(p)
    p.add_argument(
        "--codes",
        help="comma-separated predicate codes to search (e.g. SR401,SR402)",
    )
    p.add_argument(
        "--max-seeds",
        type=int,
        default=64,
        help="seeds scanned for passing runs covering the predicate sites",
    )
    p.add_argument("--max-cs", type=int, default=6, help="context-switch bound")
    p.add_argument(
        "--corpus", help="store replay-validated witnesses in this corpus"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--fail-without-witness",
        action="store_true",
        help="exit 1 unless every SR3xx finding yields a validated witness",
    )
    p.add_argument(
        "--fail-on-witness",
        action="store_true",
        help="exit 1 when any validated witness is found (fixed-variant gate)",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("disasm", help="dump compiled bytecode")
    p.add_argument("program")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("trace", help="decode a recorded path log")
    _common_run_flags(p)
    _ring_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buggy", action="store_true", help="search for a failing run")
    p.add_argument("--max-seeds", type=int, default=500)
    p.add_argument(
        "--json",
        action="store_true",
        help="raw tokens plus per-thread byte/compression stats as JSON",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("corpus", help="manage a durable trace corpus")
    csub = p.add_subparsers(dest="corpus_command", required=True)

    c = csub.add_parser("add", help="record a failure and store its trace")
    c.add_argument("corpus", help="corpus directory (created if missing)")
    _common_run_flags(c)
    _ring_flags(c)
    c.add_argument("--name", help="program name (default: file stem)")
    c.add_argument("--max-seeds", type=int, default=500)
    c.add_argument(
        "--flush-every",
        type=int,
        default=16,
        help="streaming chunk granularity in tokens",
    )
    c.set_defaults(func=cmd_corpus_add)

    c = csub.add_parser("ls", help="list corpus entries")
    c.add_argument("corpus")
    c.add_argument(
        "--json",
        action="store_true",
        help="machine-readable rows (incl. fleet shard/cluster columns)",
    )
    c.set_defaults(func=cmd_corpus_ls)

    c = csub.add_parser(
        "verify", help="CRC/footer/hash-check entries (exit 1 on corruption)"
    )
    c.add_argument("corpus")
    c.add_argument("entries", nargs="*", help="entry ids (default: all)")
    c.set_defaults(func=cmd_corpus_verify)

    c = csub.add_parser(
        "compact", help="merge streaming chunks for minimum size"
    )
    c.add_argument("corpus")
    c.add_argument("entries", nargs="*", help="entry ids (default: all)")
    c.set_defaults(func=cmd_corpus_compact)

    c = csub.add_parser(
        "recover", help="rebuild a truncated trace from its chunk prefix"
    )
    c.add_argument("corpus")
    c.add_argument("entry")
    c.set_defaults(func=cmd_corpus_recover)

    p = sub.add_parser(
        "batch", help="reproduce every corpus entry across a worker pool"
    )
    p.add_argument("corpus")
    p.add_argument("--entries", nargs="*", help="entry ids (default: all)")
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument(
        "--solver",
        default="smt",
        choices=SOLVERS,
    )
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--out", help="append JSONL results to this file")
    p.add_argument("--quiet", action="store_true", help="no per-job progress")
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the corpus analysis cache (always re-run symexec+encode)",
    )
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "fleet", help="manage a sharded reproduction fleet (repro.fleet)"
    )
    fsub = p.add_subparsers(dest="fleet_command", required=True)

    f = fsub.add_parser("init", help="create a fleet root")
    f.add_argument("fleet", help="fleet directory")
    f.add_argument("--shards", type=int, default=4)
    f.add_argument(
        "--cache-max-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="shared analysis cache size budget (LRU-evicted)",
    )
    f.set_defaults(func=cmd_fleet_init)

    f = fsub.add_parser(
        "add", help="record a failure locally and store it in its shard"
    )
    f.add_argument("fleet")
    _common_run_flags(f)
    f.add_argument("--name", help="program name (default: file stem)")
    f.add_argument("--max-seeds", type=int, default=500)
    f.set_defaults(func=cmd_fleet_add)

    f = fsub.add_parser("ls", help="list every entry across all shards")
    f.add_argument("fleet")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_fleet_ls)

    f = fsub.add_parser(
        "stats", help="per-shard, cluster, queue and cache counters"
    )
    f.add_argument("fleet")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_fleet_stats)

    f = fsub.add_parser(
        "rebalance", help="re-route every entry (e.g. after --shards change)"
    )
    f.add_argument("fleet")
    f.add_argument("--shards", type=int, help="new shard count")
    f.set_defaults(func=cmd_fleet_rebalance)

    f = fsub.add_parser(
        "export", help="write one entry as a wire-format crash report"
    )
    f.add_argument("fleet")
    f.add_argument("entry")
    f.add_argument("--out", help="report file (default: stdout)")
    f.set_defaults(func=cmd_fleet_export)

    f = fsub.add_parser(
        "ingest", help="feed crash-report JSON files into the fleet"
    )
    f.add_argument("fleet")
    f.add_argument("reports", nargs="+", help="report JSON files")
    f.add_argument(
        "--connect",
        help="send to a running gateway at HOST:PORT instead of ingesting "
        "in-process",
    )
    f.add_argument("--max-queue-depth", type=int, default=256)
    f.set_defaults(func=cmd_fleet_ingest)

    f = fsub.add_parser(
        "serve", help="run the async ingestion gateway (drains on shutdown)"
    )
    f.add_argument("fleet")
    f.add_argument("--host", default="127.0.0.1")
    f.add_argument("--port", type=int, default=0)
    f.add_argument("--max-queue-depth", type=int, default=256)
    f.add_argument("--jobs", type=int, default=2)
    f.add_argument("--per-shard", type=int, default=2)
    f.add_argument(
        "--solver",
        default="smt",
        choices=SOLVERS,
    )
    f.add_argument("--timeout", type=float, default=120.0)
    f.set_defaults(func=cmd_fleet_serve)

    f = fsub.add_parser(
        "drain", help="solve every queued cluster and fan schedules out"
    )
    f.add_argument("fleet")
    f.add_argument("--jobs", type=int, default=2)
    f.add_argument("--per-shard", type=int, default=2)
    f.add_argument(
        "--solver",
        default="smt",
        choices=SOLVERS,
    )
    f.add_argument("--timeout", type=float, default=120.0)
    f.add_argument("--out", help="write JSONL results to this file")
    f.set_defaults(func=cmd_fleet_drain)

    p = sub.add_parser("bench", help="regenerate a paper table")
    p.add_argument("table", type=int, choices=[1, 2, 3])
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--out", help="filename under results/")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("litmus", help="run the memory-model litmus suite")
    p.add_argument("--runs", type=int, default=300)
    p.set_defaults(func=cmd_litmus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
