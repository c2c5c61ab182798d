"""Top-level constraint encoder: F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo."""

from repro.analysis.symbolic import free_syms
from repro.constraints.memory_order import encode_memory_order
from repro.constraints.model import INIT, AtomTable, ConstraintSystem, OLt
from repro.constraints.rw import encode_read_write, frw_universes
from repro.constraints.sync_order import encode_sync_order


class EncodingError(Exception):
    pass


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
    goals=(),
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
    goals : :class:`OLt`/:class:`SWChoice` atoms asserted as unit clauses
        (``system.goals``): explore forces a suspicious interleaving with
        them.  A signal-wait goal that is not among ``sw_candidates`` gets
        a variable of its own; the caller checks ``sw_candidates``.

    The encoders number the atoms as they emit them
    (:class:`~repro.constraints.model.AtomTable`): the variables follow
    the first appearance of each atom over Fso's clauses, Frw's rf
    clauses, the goals, the exactly-one and then the at-most-one groups,
    and last the write pairs of Frw's universes.  Every SAT instance built
    from the system uses this numbering, so learned clauses stay valid
    across bound rounds and fresh and incremental builds are comparable.

    Frw's no-middle clauses are left to the solver, which generates them
    lazily from ``system.rf_candidates`` (see :mod:`repro.constraints.rw`).

    Flight-recorder logs get an eviction-horizon relaxation (a no-op on
    complete logs): path conditions whose branches fall inside a
    synthesized prefix are dropped, and a synthesized read whose value can
    never be consulted by a retained condition or write has its reads-from
    exactly-one group weakened to at-most-one — the read's value is the
    "unknown entry state" and the solver need not ground it.  Program-order and
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
    table = AtomTable()
    so_hard, system.sync, system.sw_once, system.sw_candidates = encode_sync_order(
        summaries, table, preexited=system.preexited
    )
    system.hard_edges.extend(so_hard)

    # Frw.
    system.rf_before, system.rf_init, groups, rf_candidates = encode_read_write(
        summaries, table
    )
    system.rf_candidates = rf_candidates
    for atom in goals:
        if isinstance(atom, OLt):
            system.goals += (table.order(atom.a, atom.b), 0)
        else:
            system.goals += (table.sw(atom.signal, atom.wait), 0)
    # Eviction-horizon relaxation: a synthesized read must still pick at
    # most one coherent source (the rf-before/no-middle clauses keep
    # applying to whichever choice is made), but it is not *forced* to
    # pick one unless some retained expression could consult its value —
    # in that case leaving it unresolved would make the value theory
    # partial, so it stays exactly-one.
    consumable = _consumable_syms(system) if any_synth else None
    kept, relaxed = [], []
    for read_uid, group in zip(rf_candidates, groups):
        sap = system.saps[read_uid]
        if consumable is None or not getattr(sap, "synth", False):
            kept.append((read_uid, group))
            continue
        sym_name = getattr(sap.value, "name", None)
        if sym_name is not None and sym_name not in consumable:
            relaxed.append((read_uid, group))
            horizon["relaxed_reads"] += 1
        else:
            horizon["pinned_synth_reads"] += 1
            kept.append((read_uid, group))
    if any_synth:
        system.horizon_stats = horizon
    # A read without write candidates meets rf(r, init) first in its group.
    for flat, chosen in ((system.rf_one, kept), (system.rf_horizon, relaxed)):
        for read_uid, group in chosen:
            if not group[-1]:
                group[-1] = table.rf(read_uid, INIT)
            flat += group
            flat.append(0)
    system.universes = frw_universes(rf_candidates, system.saps, table)
    system.atoms = table.atoms
    system.atom_kinds = table.kinds
    return system
