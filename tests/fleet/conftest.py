"""Shared fixtures for the fleet tests: a small populated fleet."""

import pytest

from repro.core.clap import ClapConfig
from repro.fleet import ShardedCorpus

from tests.conftest import RACE_SRC

# Always fails (a ends at 1, never 5), but main's control flow forks on
# a racy read of `a` first — so the same program, same failure site
# yields two distinct whole-path profiles depending on the interleaving.
# The near-miss pair for the "similar but never merged" tests.
NEARMISS_SRC = """
int a = 0;
int route = 0;
void bump() {
    a = a + 1;
}
int main() {
    int t = 0;
    t = spawn bump();
    int r = a;
    if (r == 0) {
        route = 1;
    } else {
        route = 2;
    }
    join(t);
    assert(a == 5);
    return 0;
}
"""


def race_variant(expected):
    """A distinct-program variant of RACE_SRC (different content hash)."""
    return RACE_SRC.replace("c == 4", "c == %d" % expected)


def record_config(**overrides):
    kwargs = dict(seeds=range(200))
    kwargs.update(overrides)
    return ClapConfig(**kwargs)


@pytest.fixture
def fleet(tmp_path):
    return ShardedCorpus.create(str(tmp_path / "fleet"), shards=4)


# Six RACE_SRC variants with different worker loop counts: distinct
# traces that route to shards 3, 0, 1, 2, 3, 2 of a 4-shard fleet, so a
# 4 -> 2 rebalance moves four of them.
SIX_LOOP_COUNTS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2))


def loop_variant(n1, n2):
    """RACE_SRC with the two workers looping ``n1`` and ``n2`` times."""
    return RACE_SRC.replace(
        "t1 = spawn worker(2);\n    t2 = spawn worker(2);",
        "t1 = spawn worker(%d);\n    t2 = spawn worker(%d);" % (n1, n2),
    ).replace("c == 4", "c == %d" % (n1 + n2))


def six_entry_fleet(root):
    """A 4-shard fleet holding the six :data:`SIX_LOOP_COUNTS` entries."""
    fleet = ShardedCorpus.create(root, shards=4)
    for n1, n2 in SIX_LOOP_COUNTS:
        fleet.add(
            loop_variant(n1, n2),
            name="race%d%d" % (n1, n2),
            config=record_config(),
        )
    return fleet
