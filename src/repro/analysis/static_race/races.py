"""Static race-pair detection: MHP ∧ shared ∧ must-lockset-disjoint.

For every unordered pair of access sites on the same shared global the
detector assigns a verdict:

``'racy'``
    at least one write, the sites may run in parallel, and no common
    mutex is provably held at both — reported as a diagnostic;
``'common-lock'``
    a mutex is held (must-mode) at both sites;
``'nonmhp'``
    the sites cannot overlap (fork/join structure orders them, or both
    belong to the same single-instance thread);
``'local'``
    the variable is thread-local per the escape pass.

The *dual* of the report — every pair whose verdict is not ``'racy'`` —
is the proven-race-free set; no constraint pruner consumes it (the
encoder prunes Frw from the recorded happens-before edges alone).
Verdicts are also exposed keyed by ``(var, line, kind)`` so recorded
SAPs can look themselves up; when several sites collapse onto one key
(same source line compiled into multiple CFG positions) the worst
verdict wins, so a key never reads as race-free while any of its sites
races.
"""

from dataclasses import dataclass, field

from repro.analysis.escape import classify_variables
from repro.analysis.static_race.locksets import MUST, compute_locksets
from repro.analysis.static_race.mhp import compute_mhp
from repro.analysis.static_race.sites import collect_access_sites, sites_by_var
from repro.runtime import events as ev

RACY = "racy"
COMMON_LOCK = "common-lock"
NON_MHP = "nonmhp"
LOCAL = "local"

# Verdict badness, worst first, for key-collision merging.
_SEVERITY = {RACY: 0, COMMON_LOCK: 1, NON_MHP: 2, LOCAL: 3}


@dataclass(frozen=True)
class RacePair:
    """One reported racy site pair (a.var == b.var, at least one write)."""

    a: object  # AccessSite
    b: object  # AccessSite

    @property
    def var(self):
        return self.a.var

    @property
    def is_write_write(self):
        return self.a.is_write and self.b.is_write


@dataclass
class RaceAnalysis:
    """Everything the race reporter needs, computed in one shot."""

    program: object
    classification: dict  # var -> (shared?, reason)
    sites: list
    mhp: object
    locksets: object
    race_pairs: list = field(default_factory=list)
    racy_vars: set = field(default_factory=set)
    # (key_lo, key_hi) -> verdict, over ALL same-var site pairs (both
    # orders of the two (var, line, kind) keys normalised by sorting).
    pair_verdicts: dict = field(default_factory=dict)
    # var -> frozenset of mutexes held at EVERY access site of the var
    # (empty when any site runs lock-free).
    consistent_locks: dict = field(default_factory=dict)

    def shared_vars(self):
        return {v for v, (is_shared, _) in self.classification.items() if is_shared}

    def verdict_for(self, key_a, key_b):
        """Verdict for a pair of (var, line, kind) keys; None if unknown."""
        pair = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        return self.pair_verdicts.get(pair)


def analyze_races(program):
    """Run sites + MHP + must-locksets and classify every same-var pair."""
    analysis = RaceAnalysis(
        program=program,
        classification=classify_variables(program),
        sites=collect_access_sites(program),
        mhp=compute_mhp(program),
        locksets=compute_locksets(program, mode=MUST),
    )
    shared = analysis.shared_vars()
    grouped = sites_by_var(analysis.sites)
    held = {
        site.point: analysis.locksets.held_before(site.point)
        for site in analysis.sites
    }

    for var, var_sites in sorted(grouped.items()):
        locks = None
        for site in var_sites:
            locks = held[site.point] if locks is None else (locks & held[site.point])
        analysis.consistent_locks[var] = locks if locks else frozenset()

        var_is_shared = var in shared
        for i, sa in enumerate(var_sites):
            for sb in var_sites[i + 1 :]:
                verdict = _classify_pair(analysis, held, var_is_shared, sa, sb)
                _record(analysis, sa, sb, verdict)
            # A site also pairs with *itself* when its thread can run in
            # multiple instances (two threads executing the same line).
            verdict = _classify_pair(analysis, held, var_is_shared, sa, sa)
            _record(analysis, sa, sa, verdict)
    analysis.racy_vars = {pair.var for pair in analysis.race_pairs}
    return analysis


def _classify_pair(analysis, held, var_is_shared, sa, sb):
    if not var_is_shared:
        return LOCAL
    # Self-pairs (sa is sb) go through the same oracle: a site overlaps
    # itself when one of its roots self-overlaps OR two distinct roots
    # both reaching it are simultaneously live (e.g. a helper called by
    # main while a spawned worker also calls it).
    if not analysis.mhp.may_happen_in_parallel(sa, sb):
        return NON_MHP
    if held[sa.point] & held[sb.point]:
        return COMMON_LOCK
    return RACY


def _record(analysis, sa, sb, verdict):
    ka, kb = sa.key, sb.key
    pair = (ka, kb) if ka <= kb else (kb, ka)
    prev = analysis.pair_verdicts.get(pair)
    if prev is None or _SEVERITY[verdict] < _SEVERITY[prev]:
        analysis.pair_verdicts[pair] = verdict
    if verdict == RACY and (sa.is_write or sb.is_write) and not (
        sa is sb and sa.kind == ev.READ
    ):
        if sa is not sb or sa.is_write:
            analysis.race_pairs.append(RacePair(a=sa, b=sb))
