"""Static shared-variable ("escape") analysis.

CLAP shrinks its constraint system by marking only *shared* accesses as
SAPs, using a static analysis in the spirit of Locksmith (the paper cites
[30]): conservative, with zero runtime cost.  Ours classifies each data
global by which *thread roots* can reach it:

* thread roots are ``main`` plus every function that appears as a spawn
  target anywhere in the program;
* a function's accessed-global set is computed transitively over the call
  graph (spawns are not calls — the spawned function is its own root);
* a global is shared when two different roots can access it, or when a
  single spawned root that may run in **multiple thread instances**
  accesses it (>= 2 spawn sites, or a spawn site inside a loop);
* explicit ``shared``/``local`` declarations override the inference.

The result is sound for SAP detection (it may over-approximate, never
under-approximate) provided declared ``local`` annotations are honest —
exactly the contract of the paper's use of Locksmith.
"""

from repro.minilang import bytecode as bc


def _direct_accesses(func):
    """Globals directly read/written by ``func``'s bytecode."""
    accessed = set()
    for block in func.blocks:
        for instr in block.instrs:
            if instr.op in (
                bc.LOAD_GLOBAL,
                bc.STORE_GLOBAL,
                bc.LOAD_ELEM,
                bc.STORE_ELEM,
            ):
                accessed.add(instr.arg)
    return accessed


def _direct_callees(func):
    callees = set()
    for block in func.blocks:
        for instr in block.instrs:
            if instr.op == bc.CALL:
                callees.add(instr.arg)
    return callees


def _spawn_sites(program):
    """All (function, block_id, target) spawn sites in the program."""
    sites = []
    for func in program.functions.values():
        for block in func.blocks:
            for instr in block.instrs:
                if instr.op == bc.SPAWN:
                    sites.append((func.name, block.id, instr.arg))
    return sites


def _blocks_in_cycles(func):
    """Block ids that sit on some CFG cycle (loop bodies and headers)."""
    # A block is in a cycle iff it can reach itself.  CFGs are small, so a
    # per-block DFS is fine.
    in_cycle = set()
    succ = {b.id: b.successors() for b in func.blocks}
    for start in succ:
        stack = list(succ[start])
        seen = set()
        while stack:
            node = stack.pop()
            if node == start:
                in_cycle.add(start)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
    return in_cycle


def transitive_accesses(program):
    """{function: set of globals reachable through calls} (fixpoint)."""
    direct = {name: _direct_accesses(f) for name, f in program.functions.items()}
    callees = {name: _direct_callees(f) for name, f in program.functions.items()}
    result = {name: set(acc) for name, acc in direct.items()}
    changed = True
    while changed:
        changed = False
        for name in result:
            for callee in callees[name]:
                if callee in result and not result[callee] <= result[name]:
                    result[name] |= result[callee]
                    changed = True
    return result


def thread_roots(program):
    """{root function: multiplicity} where multiplicity is 1 or 2 ("many")."""
    roots = {"main": 1}
    sites_by_target = {}
    for func_name, block_id, target in _spawn_sites(program):
        sites_by_target.setdefault(target, []).append((func_name, block_id))
    cycles_cache = {}
    for target, sites in sites_by_target.items():
        multiplicity = 1
        if len(sites) >= 2:
            multiplicity = 2
        else:
            func_name, block_id = sites[0]
            if func_name not in cycles_cache:
                cycles_cache[func_name] = _blocks_in_cycles(
                    program.functions[func_name]
                )
            if block_id in cycles_cache[func_name]:
                multiplicity = 2
        # A root spawned by a function that can itself run in many threads
        # also has multiplicity many; one propagation pass suffices for the
        # two-level spawn patterns MiniLang programs use, and the fixpoint
        # below covers deeper nesting.
        roots[target] = max(roots.get(target, 0), multiplicity)
    # Propagate multiplicity down spawn chains to a fixpoint.
    changed = True
    while changed:
        changed = False
        for func_name, _, target in _spawn_sites(program):
            if roots.get(func_name, 0) >= 2 and roots.get(target, 0) < 2:
                roots[target] = 2
                changed = True
    return roots


def shared_variables(program):
    """The frozenset of data-global names CLAP must treat as shared.

    This is the "#SV" column of Table 1.  A compiled program keeps it
    (:attr:`~repro.minilang.compiler.CompiledProgram.shared`).
    """
    return frozenset(
        name for name, (is_shared, _) in classify_variables(program).items() if is_shared
    )


def classify_variables(program):
    """{data global: (shared?, reason)} — the full classification behind
    :func:`shared_variables`, with a human-readable reason per variable.

    Used by ``repro analyze`` to show *why* each global was classified,
    not just the final shared set.
    """
    accesses = transitive_accesses(program)
    roots = thread_roots(program)
    accessed_by = {}  # global -> set of roots
    for root in roots:
        if root not in accesses:
            continue
        for name in accesses[root]:
            accessed_by.setdefault(name, set()).add(root)

    classified = {}
    for info in program.symbols.globals.values():
        if not info.is_data:
            continue
        if info.sharing == "shared":
            classified[info.name] = (True, "declared 'shared'")
            continue
        if info.sharing == "local":
            classified[info.name] = (False, "declared 'local'")
            continue
        owners = accessed_by.get(info.name, set())
        multi = sorted(r for r in owners if roots[r] >= 2)
        if len(owners) >= 2:
            classified[info.name] = (
                True,
                "reached by threads %s" % ", ".join(sorted(owners)),
            )
        elif multi:
            classified[info.name] = (
                True,
                "reached by multiple instances of thread %s" % multi[0],
            )
        elif owners:
            classified[info.name] = (
                False,
                "only reached by single thread %s" % sorted(owners)[0],
            )
        else:
            classified[info.name] = (False, "never accessed")
    return classified
