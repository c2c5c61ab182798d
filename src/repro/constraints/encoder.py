"""Top-level constraint encoder: F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo."""

from repro.analysis.symbolic import free_syms
from repro.constraints.memory_order import encode_memory_order
from repro.constraints.model import AtMostOne, ConstraintSystem, OLt
from repro.constraints.rw import encode_read_write
from repro.constraints.sync_order import encode_sync_order


class EncodingError(Exception):
    pass


def assign_atom_numbering(system):
    """Assign a stable SAT-variable numbering to the system's atoms.

    Atoms are numbered 1..n in deterministic first-appearance order over
    the encoded clause groups (the same traversal every SAT build
    performs), with order atoms canonicalized to their ``lo < hi`` key —
    one variable serves both directions of ``O_a < O_b``.  Because the
    numbering is a function of the encoded system alone, every solver
    instantiated from it — the incremental bound loop's single instance
    or a fresh solver per round — speaks the same variable language.
    That is the invariant that makes reusing learned clauses across
    ``c = 0, 1, 2, …`` rounds sound (a learned clause is implied by the
    clause database, which only ever grows) and makes fresh-vs-reuse runs
    directly comparable.  Stored on ``system.atom_numbering``.
    """
    numbering = {}

    def note(atom):
        if isinstance(atom, OLt):
            if atom.a == atom.b:
                return
            lo, hi = (atom.a, atom.b) if atom.a < atom.b else (atom.b, atom.a)
            key = ("O", lo, hi)
        else:
            key = atom
        if key not in numbering:
            numbering[key] = len(numbering) + 1

    for group in (system.clauses, system.exactly_one, system.at_most_one):
        for clause in group:
            for lit in clause.lits:
                note(lit.atom)
    system.atom_numbering = numbering
    return numbering


def _consumable_syms(system):
    """Read-symbol names the lazy value theory may ever need to resolve.

    Seeds with the free syms of every retained path condition and bug
    predicate, then closes over reads-from resolution: if read R's sym can
    be consulted, any same-address write's value expression can be
    evaluated to produce it, pulling that expression's syms in too.
    """
    sym_read = {}
    for summary in system.summaries.values():
        for name, sap in summary.reads.items():
            sym_read[name] = sap
    write_exprs = {}
    for sap in system.saps.values():
        if sap.is_write and sap.value is not None:
            write_exprs.setdefault(sap.addr, []).append(sap.value)
    used = set()
    for cond in system.conditions:
        used |= free_syms(cond.expr)
    for expr in system.bug_exprs:
        used |= free_syms(expr)
    frontier = list(used)
    while frontier:
        sym = frontier.pop()
        sap = sym_read.get(sym)
        if sap is None:
            continue
        for expr in write_exprs.get(sap.addr, ()):
            for name in free_syms(expr):
                if name not in used:
                    used.add(name)
                    frontier.append(name)
    return used


def encode(
    summaries,
    memory_model,
    symbols,
    shared,
    preexisting=frozenset(),
    preexited=frozenset(),
):
    """Encode one recorded execution into a :class:`ConstraintSystem`.

    Parameters
    ----------
    summaries : {thread: ThreadSummary}
        Output of the symbolic execution phase.
    memory_model : 'sc' | 'tso' | 'pso'
        Model under which the buggy execution happened — Fmo's parameter.
    symbols : SymbolTable
        For initial memory values.
    shared : set of shared global names (for initial values of SAP addrs).
    preexisting / preexited : thread names that started / exited before a
        checkpoint, when encoding a checkpointed suffix (the initial
        values should then come from the snapshot — the caller overwrites
        ``system.initial_values`` accordingly).

    Frw's no-middle clauses are left to the solver, which generates them
    lazily from ``system.rf_candidates`` (see :mod:`repro.constraints.rw`).

    Flight-recorder logs get an eviction-horizon relaxation (a no-op on
    complete logs): path conditions whose branches fall inside a
    synthesized prefix are dropped, and a synthesized read whose value can
    never be consulted by a retained condition or write has its reads-from
    ExactlyOne weakened to AtMostOne — the read's value is the "unknown
    entry state" and the solver need not ground it.  Program-order and
    structural sync edges stay hard: they are implied by the surviving
    suffix and its anchors.
    """
    system = ConstraintSystem(
        memory_model=memory_model,
        summaries=summaries,
        preexisting=frozenset(preexisting),
        preexited=frozenset(preexited),
    )

    horizon = {
        "synth_saps": 0,
        "dropped_conditions": 0,
        "relaxed_reads": 0,
        "pinned_synth_reads": 0,
    }
    any_synth = False
    for summary in summaries.values():
        for sap in summary.saps:
            system.saps[sap.uid] = sap
            if getattr(sap, "synth", False):
                any_synth = True
                horizon["synth_saps"] += 1
        for cond in summary.conditions:
            if getattr(cond, "synth", False):
                horizon["dropped_conditions"] += 1
                continue
            system.conditions.append(cond)
        if summary.bug_expr is not None:
            system.bug_exprs.append(summary.bug_expr)
    if not system.bug_exprs:
        raise EncodingError(
            "no bug predicate: the failure was not found on any recorded path"
        )

    # Initial memory values for every shared address.
    for info in symbols.globals.values():
        if not info.is_data or info.name not in shared:
            continue
        if info.is_array:
            for i in range(info.size):
                system.initial_values[(info.name, i)] = 0
        else:
            system.initial_values[(info.name,)] = info.init

    # Fmo.
    mo_edges, per_thread = encode_memory_order(summaries, memory_model)
    system.hard_edges.extend(mo_edges)
    system.thread_order = per_thread

    # Fso.
    so_hard, so_clauses, so_amo, sw_candidates = encode_sync_order(
        summaries, preexited=system.preexited
    )
    system.hard_edges.extend(so_hard)
    system.clauses.extend(so_clauses)
    system.at_most_one.extend(so_amo)
    system.sw_candidates = sw_candidates

    # Frw.
    rw_clauses, rw_eo, rf_candidates = encode_read_write(summaries)
    system.clauses.extend(rw_clauses)
    if any_synth:
        # Eviction-horizon relaxation: a synthesized read must still pick
        # at most one coherent source (the rf-before/no-middle clauses keep
        # applying to whichever choice is made), but it is not *forced* to
        # pick one unless some retained expression could consult its value
        # — in that case leaving it unresolved would make the value theory
        # partial, so it stays exactly-one.
        consumable = _consumable_syms(system)
        kept = []
        for group in rw_eo:
            read_uid = group.lits[0].atom.read if group.lits else None
            sap = system.saps.get(read_uid)
            if sap is None or not getattr(sap, "synth", False):
                kept.append(group)
                continue
            sym_name = getattr(sap.value, "name", None)
            if sym_name is not None and sym_name not in consumable:
                system.at_most_one.append(
                    AtMostOne(list(group.lits), origin="rf-horizon")
                )
                horizon["relaxed_reads"] += 1
            else:
                horizon["pinned_synth_reads"] += 1
                kept.append(group)
        rw_eo = kept
    system.exactly_one.extend(rw_eo)
    system.rf_candidates = rf_candidates
    if any_synth:
        system.horizon_stats = horizon

    # Stable variable numbering for every SAT instance built from this
    # system (incremental bound rounds and fresh baselines alike).
    assign_atom_numbering(system)

    return system
