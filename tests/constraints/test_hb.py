"""HBClosure: exactness against the set-based reference closure."""

import random

from repro.constraints.hb import HBClosure, HBPruner, _must_order_closure
from repro.constraints.model import OLt


def closure_of(nodes, edges):
    return HBClosure(nodes, [OLt(a, b) for a, b in edges])


def test_chain_and_cross_chain_queries():
    #   a0 -> a1 -> a2      b0 -> b1
    #          \-> b1 (cross edge)
    hb = closure_of(
        ["a0", "a1", "a2", "b0", "b1"],
        [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("a1", "b1")],
    )
    assert not hb.cyclic
    assert hb.must_before("a0", "a2")
    assert hb.must_before("a0", "b1")  # via a1
    assert hb.must_before("a1", "b1")
    assert not hb.must_before("a2", "b1")
    assert not hb.must_before("b0", "a2")
    assert not hb.must_before("a0", "a0")  # strict
    assert hb.reaches("a0", "a2")  # solver-facing alias


def test_unknown_nodes_are_unordered():
    hb = closure_of(["a", "b"], [("a", "b")])
    assert not hb.must_before("a", "nope")
    assert not hb.must_before("nope", "b")


def test_cycle_fails_safe():
    hb = closure_of(["a", "b"], [("a", "b"), ("b", "a")])
    assert hb.cyclic
    assert not hb.must_before("a", "b")
    assert not hb.must_before("b", "a")


def test_partial_per_thread_order_stays_partial():
    # TSO-like: one thread whose reads and writes form two chains with no
    # edge between w1 and r1 — a (thread, index) interval would wrongly
    # order them.
    hb = closure_of(
        ["w0", "w1", "r0", "r1"],
        [("w0", "w1"), ("r0", "r1"), ("w0", "r0")],
    )
    assert hb.must_before("w0", "r1")
    assert not hb.must_before("w1", "r0")
    assert not hb.must_before("w1", "r1")
    assert not hb.must_before("r0", "w1")


def test_must_order_closure_transitive():
    edges = [OLt("a", "b"), OLt("b", "c"), OLt("a", "b")]  # dup on purpose
    desc = _must_order_closure(edges)
    assert desc["a"] == {"b", "c"}
    assert desc["b"] == {"c"}
    assert "c" not in desc


def test_must_order_closure_refuses_cycles():
    assert _must_order_closure([OLt("a", "b"), OLt("b", "a")]) == {}


def test_matches_reference_closure_on_random_dags():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 40)
        nodes = ["n%d" % i for i in range(n)]
        edges = set()
        for _ in range(rng.randint(1, 3 * n)):
            i, j = rng.sample(range(n), 2)
            if i > j:
                i, j = j, i
            edges.add((nodes[i], nodes[j]))  # i < j keeps it acyclic
        olts = [OLt(a, b) for a, b in edges]
        hb = HBClosure(nodes, olts)
        ref = _must_order_closure(olts)
        assert not hb.cyclic
        for a in nodes:
            after = ref.get(a, set())
            for b in nodes:
                assert hb.must_before(a, b) == (b in after), (
                    trial,
                    a,
                    b,
                    sorted(edges),
                )


def test_hbpruner_counts_against_raw_encoding():
    # read r after writes w1 -> w2 (hard chain), with must(w2 -> r):
    # w1 is shadowed by w2 and INIT is impossible.
    class FakeSAP:
        def __init__(self, uid):
            self.uid = uid

    hb = closure_of(["w1", "w2", "r"], [("w1", "w2"), ("w2", "r")])
    pruner = HBPruner(hb)
    kept, include_init = pruner.filter_candidates(
        FakeSAP("r"), [FakeSAP("w1"), FakeSAP("w2")]
    )
    assert [w.uid for w in kept] == ["w2"]
    assert not include_init
    assert pruner.stats.candidates_pruned == 1
    assert pruner.stats.init_pruned == 1
