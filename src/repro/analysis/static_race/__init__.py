"""Static concurrency analysis (Locksmith-style, the paper's citation [30]).

CLAP uses static analysis twice: once to decide *which* accesses are
shared (``repro.analysis.escape``), and once to decide which shared
accesses can actually *race* — the paper offloads that to Locksmith and
only encodes order constraints for the remainder.  This package is our
version of the second half, operating on MiniLang bytecode CFGs.  It
drives ``repro analyze`` and ``repro explore``; the constraint encoder
does not consume it:

``sites``
    Extraction of global-access and synchronization sites from the CFGs.
``dataflow``
    The interprocedural forward dataflow skeleton the lockset and
    must-init engines share.
``locksets``
    Interprocedural must-/may-hold lockset dataflow (which mutexes are
    provably held at each site).
``mhp``
    May-happen-in-parallel: spawn/join liveness inside each spawner plus
    thread-root reachability (reusing ``escape.thread_roots``).
``races``
    Race-pair detection: MHP ∧ shared ∧ lockset-disjoint, and the dual
    proven-race-free pair set.
``lockorder``
    Lock-order graph (acquires-while-holding) and deadlock cycles.
``valueflow``
    Operand-stack def-use provenance and must-init dataflow.
``patterns``
    SR3xx bug-pattern passes (atomicity, order, lost-notify) whose
    findings double as violation predicates for ``repro explore``.
``robustness``
    Shasha-Snir weak-memory robustness: conflict graph, critical
    cycles classified per model (SR401 store->load under TSO/PSO,
    SR402 store->store under PSO), and SR403 minimal fence inference;
    SR401/SR402 findings double as explore predicates too.
``diagnostics``
    Stable diagnostic codes, severities, text and JSON rendering.

Everything here over-approximates parallelism and under-approximates
held locks, so "racy" is conservative (superset of any dynamic
detector's findings) and "race-free" is a proof.
"""

from repro.analysis.static_race.diagnostics import Diagnostic, StaticReport
from repro.analysis.static_race.lockorder import analyze_lock_order
from repro.analysis.static_race.locksets import compute_locksets
from repro.analysis.static_race.mhp import MHPInfo, compute_mhp
from repro.analysis.static_race.patterns import (
    PatternReport,
    ViolationPredicate,
    find_bug_patterns,
)
from repro.analysis.static_race.races import RaceAnalysis, analyze_races
from repro.analysis.static_race.report import analyze_program
from repro.analysis.static_race.robustness import (
    RobustnessReport,
    analyze_robustness,
    robustness_patterns,
)
from repro.analysis.static_race.sites import AccessSite, collect_access_sites

__all__ = [
    "AccessSite",
    "Diagnostic",
    "MHPInfo",
    "PatternReport",
    "RaceAnalysis",
    "RobustnessReport",
    "StaticReport",
    "ViolationPredicate",
    "analyze_lock_order",
    "analyze_program",
    "analyze_races",
    "analyze_robustness",
    "collect_access_sites",
    "compute_locksets",
    "compute_mhp",
    "find_bug_patterns",
    "robustness_patterns",
]
