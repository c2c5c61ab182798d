"""Constraint-size statistics — the ``#Constraints``/``#Variables`` columns
of Table 1 — plus the solver-phase counters the incremental CDCL core
reports (propagations, conflicts, restarts, learned-clause reuse)."""

from dataclasses import asdict, dataclass, replace

from repro.analysis.symbolic import expr_size
from repro.constraints.rw import no_middle_count


@dataclass
class SolverPhaseStats:
    """Counters one :class:`~repro.solver.cdcl.CDCLSolver` accumulates.

    The counters are cumulative over the solver's lifetime, which for the
    incremental bound loop spans every ``c = 0, 1, 2, …`` round — so
    ``reuse_hits`` (propagations whose reason is a clause learned in an
    *earlier* ``solve()`` call) directly measures how much work the
    assumption-reuse path saved versus re-encoding per round.
    ``theory_conflicts`` counts the conflicts (already in ``conflicts``)
    that an in-search theory raised: order cycles and falsified Frw
    clauses caught mid-search.  ``lemmas`` counts the theory clauses that
    entered the core unit and propagated their last literal: the Frw
    clauses the search needed, out of the many it kept virtual.
    ``value_conflicts`` counts the theory conflicts the values theory
    raised: a path condition or the bug predicate false once every read
    it depends on has its reads-from choice.  ``completion_decisions``
    counts the decisions (already in ``decisions``) on variables left to
    the theory's completion, each made for a clause the completion
    falsified: in the CLAP solver, the only decisions on order atoms.
    """

    solve_calls: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    learned_literals: int = 0
    reuse_hits: int = 0
    theory_conflicts: int = 0
    lemmas: int = 0
    value_conflicts: int = 0
    completion_decisions: int = 0

    def as_dict(self):
        return asdict(self)

    def snapshot(self):
        """A copy, for per-round deltas."""
        return replace(self)

    def delta(self, earlier):
        """Counter-wise ``self - earlier`` as a plain dict."""
        mine, theirs = self.as_dict(), earlier.as_dict()
        return {key: mine[key] - theirs[key] for key in mine}


@dataclass
class CacheStats:
    """Analysis-cache counters (:class:`repro.store.cache.AnalysisCache`).

    ``stale`` counts entries rejected — and deleted — because their
    stored schema version no longer matched or their pickle was
    unreadable; a stale entry also counts as a miss, so
    ``hits + misses`` is the total number of lookups.  ``evictions`` counts entries removed to stay
    inside a :class:`repro.store.cache.SharedAnalysisCache` size budget.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self):
        return asdict(self)


@dataclass
class PortfolioStats:
    """Per-run counters of the portfolio driver
    (:mod:`repro.solver.portfolio`).

    ``winner`` names the task whose solution the driver adopted;
    ``winner_kind`` is its strategy family (``seq`` or ``genval``).
    ``rungs_resolved`` counts context-switch bounds settled by
    exhaustion proofs or the sequential replica's budget evidence before
    the verdict was reached; ``cancelled`` is how many still-running
    tasks the driver killed once the verdict was in.
    """

    workers: int = 0
    tasks: int = 0
    rungs_resolved: int = 0
    cancelled: int = 0
    respawns: int = 0
    winner: str = ""
    winner_kind: str = ""

    def as_dict(self):
        return asdict(self)


def merge_sat_stats(stat_dicts):
    """Counter-wise sum of counter dicts (SAT or cache counters alike).

    The batch service uses this to aggregate per-job SAT and cache
    counters into its summary table.  ``None``/empty entries are skipped
    and non-numeric values ignored, so partially populated job results (a
    genval run has no CDCL counters) merge cleanly.
    """
    total = {}
    for stats in stat_dicts:
        if not stats:
            continue
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
    return total


@dataclass
class ConstraintStats:
    n_saps: int = 0
    n_order_vars: int = 0
    n_value_vars: int = 0
    n_choice_vars: int = 0
    n_hard_edges: int = 0
    n_clauses: int = 0
    n_clause_lits: int = 0
    n_path_conditions: int = 0
    n_path_condition_nodes: int = 0

    @property
    def n_constraints(self):
        """Total clause count, the analogue of the paper's '#Constraints'."""
        return self.n_hard_edges + self.n_clauses + self.n_path_conditions

    @property
    def n_variables(self):
        return self.n_order_vars + self.n_value_vars + self.n_choice_vars


def compute_stats(system):
    """Measure a :class:`~repro.constraints.model.ConstraintSystem`."""
    stats = ConstraintStats()
    stats.n_saps = len(system.saps)
    stats.n_order_vars = system.num_order_vars()
    stats.n_value_vars = system.num_value_vars()
    stats.n_choice_vars = sum(len(c) for c in system.rf_candidates.values()) + sum(
        len(c) for c in system.sw_candidates.values()
    )
    stats.n_hard_edges = len(system.hard_edges)
    # The integer image's clauses and groups: each clause of a flat list
    # ends with a 0; the rf lists hold two literals per clause.
    terminated = (
        system.sync,
        system.goals,
        system.rf_one,
        system.sw_once,
        system.rf_horizon,
    )
    ends = sum(flat.count(0) for flat in terminated)
    pairs = len(system.rf_before) + len(system.rf_init)
    # Frw's no-middle clauses belong to F even though the solver builds
    # them lazily: counted, three literals each, not materialized.
    no_middle = no_middle_count(system.rf_candidates)
    stats.n_clauses = ends + pairs // 2 + no_middle
    stats.n_clause_lits = (
        sum(len(flat) for flat in terminated) - ends + pairs + 3 * no_middle
    )
    stats.n_path_conditions = len(system.conditions) + len(system.bug_exprs)
    stats.n_path_condition_nodes = sum(
        expr_size(c.expr) for c in system.conditions
    ) + sum(expr_size(e) for e in system.bug_exprs)
    return stats
