"""Prepend graph construction and the exact cycle algorithms."""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

import ergopt.graph_engine as graph_engine
from ergopt.graph_engine import (
    build_prepend_graph,
    critical_structure,
    max_mean_cycle,
    min_cost_all_pairs,
    parametric_beta,
)
from ergopt.mane_aubry import omega_set
from ergopt.potential_model import LocallyConstantPotential
from ergopt.symbolic_core import allowed_words

from conftest import (
    constant_potential,
    f1_graph,
    f3_graph,
    f5_graph,
    f6_graph,
    full_shift,
    golden_mean,
    random_graph,
    two_class_graph,
    with_rows,
)


class TestBuild:
    def test_f1_shape(self):
        g = f1_graph()
        assert len(g.nodes) == 2
        assert len(g.edges) == 4
        assert sorted(e.weight for e in g.edges) == [0, 0, 0, 1]

    def test_golden_mean_q1(self):
        A = constant_potential(golden_mean(), 0)
        g = build_prepend_graph(golden_mean(), A)
        assert len(g.nodes) == 2
        assert len(g.edges) == 3  # prepending 1 onto 1 is forbidden

    def test_full_shift_q2(self):
        A = constant_potential(full_shift(), 0, past_depth=1, future_depth=2)
        g = build_prepend_graph(full_shift(), A)
        assert len(g.nodes) == 4
        assert len(g.edges) == 8

    def test_edge_count_is_allowed_word_count(self, rng: random.Random):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 4), rng.randint(1, 3))
            assert len(g.edges) == len(allowed_words(g.system, g.q + 1))

    def test_edge_targets(self):
        g = f6_graph()
        e = g.edge_by_key((1, 0))
        assert g.nodes[e.src] == (0,)
        assert g.nodes[e.tgt] == (1,)
        assert e.weight == 2


class TestMaxMeanCycle:
    def test_f1(self):
        res = max_mean_cycle(f1_graph())
        assert res.beta == 1
        assert len(res.witness_cycle) == 1
        assert res.witness_cycle[0].key == (1, 1)

    def test_f3(self):
        assert max_mean_cycle(f3_graph()).beta == 5

    def test_f6_witness_prefers_short_cycle(self):
        res = max_mean_cycle(f6_graph())
        assert res.beta == 1
        # the 2-cycle 0<->1 also has mean 1; the loop is shorter
        assert len(res.witness_cycle) == 1
        assert res.witness_cycle[0].key == (1, 1)

    def test_witness_mean_equals_beta(self, rng: random.Random):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 3), rng.randint(1, 2))
            res = max_mean_cycle(g)
            total = sum((e.weight for e in res.witness_cycle), Fraction(0))
            assert total / len(res.witness_cycle) == res.beta
            # witness is a genuine cycle
            for a, b in zip(res.witness_cycle, res.witness_cycle[1:]):
                assert a.tgt == b.src
            assert res.witness_cycle[-1].tgt == res.witness_cycle[0].src


class TestParametric:
    def test_fixture_values(self):
        assert parametric_beta(f1_graph()) == 1
        assert parametric_beta(f3_graph()) == 5
        assert parametric_beta(f5_graph()) == 1

    def test_agrees_with_karp(self, rng: random.Random):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 4), rng.randint(1, 2))
            assert parametric_beta(g) == max_mean_cycle(g).beta


class TestCertificate:
    def test_feasible_and_tight_on_witness(self, rng: random.Random):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 3), rng.randint(1, 2))
            res = max_mean_cycle(g)
            u = [-h for h in res.potential]
            slacks = {
                e.index: e.weight + u[e.src] - u[e.tgt] - res.beta for e in g.edges
            }
            assert all(s <= 0 for s in slacks.values())
            assert all(slacks[e.index] == 0 for e in res.witness_cycle)


class TestManeMatrix:
    def test_f1_values(self):
        g = f1_graph()
        mane = min_cost_all_pairs(g)
        idx = g.node_index
        n0, n1 = idx[(0,)], idx[(1,)]
        assert mane.value(n0, n1) == 1
        assert mane.value(n1, n1) == 0
        assert mane.value(n1, n0) == 1
        assert mane.value(n0, n0) == 1

    def test_f3_zero(self):
        mane = min_cost_all_pairs(f3_graph())
        assert all(v == 0 for row in mane.phi for v in row)

    def test_f6_values(self):
        g = f6_graph()
        mane = min_cost_all_pairs(g)
        idx = g.node_index
        n0, n1 = idx[(0,)], idx[(1,)]
        assert mane.value(n0, n1) == -1
        assert mane.value(n1, n1) == 0
        assert mane.value(n0, n0) == 0
        assert mane.value(n1, n0) == 1

    def test_triangle_inequality(self, rng: random.Random):
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 3), rng.randint(1, 2))
            mane = min_cost_all_pairs(g)
            n = len(g.nodes)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        ij, ik, kj = mane.value(i, j), mane.value(i, k), mane.value(k, j)
                        if ik is not None and kj is not None:
                            assert ij is not None and ij <= ik + kj


class TestManeMemo:
    """One excursion-matrix build per graph, at its beta, kept on the graph itself."""

    def test_same_graph_and_beta_give_the_same_matrix(self):
        g = f5_graph()
        assert min_cost_all_pairs(g) is min_cost_all_pairs(g)

    def test_a_rebuilt_graph_computes_again(self):
        g5 = f5_graph()
        first = min_cost_all_pairs(g5)
        again = min_cost_all_pairs(build_prepend_graph(g5.system, g5.potential))
        assert again is not first
        assert (again.beta, again.D, again.h) == (first.beta, first.D, first.h)
        assert again.cost == first.cost

    def test_reads_the_kept_bellman_potential(self, monkeypatch):
        runs = []
        bellman_ints = graph_engine._bellman_ints

        def counting_bellman_ints(graph, beta, reverse=False):
            runs.append(beta)
            return bellman_ints(graph, beta, reverse)

        monkeypatch.setattr(graph_engine, "_bellman_ints", counting_bellman_ints)
        g = two_class_graph()
        beta = max_mean_cycle(g).beta
        assert runs == [beta]
        mane = min_cost_all_pairs(g)
        # every node lies on a zero-cost cycle: the loops at 0 and 3, the 3-cycle
        assert [mane.value(v, v) for v in range(4)] == [0, 0, 0, 0]
        # building the matrix and reading its every row ran no search for h
        assert runs == [beta]


class TestBetaMemo:
    """One policy iteration and Bellman run per graph, kept on the graph itself."""

    def test_a_repeat_call_returns_the_same_result(self):
        g = f5_graph()
        assert max_mean_cycle(g) is max_mean_cycle(g)

    def test_a_rebuilt_graph_computes_again(self, monkeypatch):
        solved = []
        solve = graph_engine._solve_max_mean_cycle

        def counting_solve(graph):
            solved.append(graph)
            return solve(graph)

        monkeypatch.setattr(graph_engine, "_solve_max_mean_cycle", counting_solve)
        g5 = f5_graph()
        first = max_mean_cycle(g5)
        assert max_mean_cycle(g5) is first
        rebuilt = build_prepend_graph(g5.system, g5.potential)
        again = max_mean_cycle(rebuilt)
        assert again is not first
        assert (again.beta, again.D, again.h) == (first.beta, first.D, first.h)
        assert again.witness_cycle == first.witness_cycle
        assert again.potential == first.potential
        # the graphs compare equal by value, so count them by identity
        assert [id(g) for g in solved] == [id(g5), id(rebuilt)]

    def test_the_witness_is_searched_once_when_first_read(self, monkeypatch):
        calls = []
        search = graph_engine._minimal_cycle

        def counting_search(n, pool):
            calls.append(n)
            return search(n, pool)

        monkeypatch.setattr(graph_engine, "_minimal_cycle", counting_search)
        result = max_mean_cycle(f6_graph())
        assert calls == []
        assert result.witness_cycle is result.witness_cycle
        assert calls == [2]

    def test_a_solved_graph_needs_no_cycle_collector(self):
        # the kept results hold no reference back to the graph, so dropping
        # the last reference frees it at once
        g = two_class_graph()
        ref = weakref.ref(g)
        gc.disable()
        try:
            max_mean_cycle(g).witness_cycle
            omega_set(g)
            del g
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("q, rounds, beta", [(7, 9, Fraction(10697, 2268)), (10, 23, Fraction(18863, 3780))])
def test_policy_round_count(monkeypatch, q, rounds, beta):
    # Full 2-shift at future depth q (128 and 1024 nodes), weights
    # randint(-20, 20)/randint(1, 10) from Random(5) in word order. The
    # count pins the switching rules: a change to them moves it. Karp's
    # table at 1024 nodes is about 2 * 10^6 relaxations; these rounds cost
    # O(n + m) each.
    rng = random.Random(5)
    system = full_shift()
    table = {
        word: Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        for word in itertools.product(range(2), repeat=q + 1)
    }
    graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))
    valued = []
    policy_values = graph_engine._policy_values

    def counting(succ, cost):
        valued.append(len(succ))
        return policy_values(succ, cost)

    monkeypatch.setattr(graph_engine, "_policy_values", counting)
    assert max_mean_cycle(graph).beta == beta
    assert valued == [2**q] * rounds


class TestCriticalStructure:
    def test_f1(self):
        g = f1_graph()
        cs = critical_structure(g)
        assert cs.classes == ((g.node_index[(1,)],),)
        assert cs.critical_edges == {g.edge_by_key((1, 1)).index}

    def test_f5_two_classes(self):
        g = f5_graph()
        cs = critical_structure(g)
        assert len(cs.classes) == 2
        assert [g.nodes[c[0]] for c in cs.classes] == [(0,), (1,)]

    def test_f3_everything(self):
        g = f3_graph()
        cs = critical_structure(g)
        assert len(cs.classes) == 1
        assert set(cs.classes[0]) == set(range(len(g.nodes)))
        assert cs.critical_edges == {e.index for e in g.edges}

    def test_f6_single_class_with_three_edges(self):
        g = f6_graph()
        cs = critical_structure(g)
        assert len(cs.classes) == 1
        assert set(cs.classes[0]) == {0, 1}
        keys = {g.edges[i].key for i in cs.critical_edges}
        assert keys == {(1, 0), (0, 1), (1, 1)}

    def test_critical_subgraph_cycles_have_mean_beta(self, rng: random.Random):
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 3), rng.randint(1, 2))
            beta = max_mean_cycle(g).beta
            cs = critical_structure(g)
            pool = [g.edges[i] for i in cs.critical_edges]
            # brute force simple cycles in the critical subgraph
            out: dict[int, list] = {}
            for e in pool:
                out.setdefault(e.src, []).append(e)

            def walk(start, v, used, cost, length):
                for e in out.get(v, []):
                    if e.tgt == start:
                        assert cost + (beta - e.weight) == 0
                    elif e.tgt not in used and length < len(g.nodes):
                        walk(start, e.tgt, used | {e.tgt}, cost + (beta - e.weight), length + 1)

            for s in {e.src for e in pool}:
                walk(s, s, {s}, Fraction(0), 1)

    def test_phi_diagonal_zero_iff_critical(self, rng: random.Random):
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 3), rng.randint(1, 2))
            mane = min_cost_all_pairs(g)
            cs = critical_structure(g)
            for v in range(len(g.nodes)):
                assert (mane.value(v, v) == 0) == (v in cs.critical_nodes)


class TestCriticalStructureCheck:
    """critical_structure rejects classes that its matrix does not support.

    Each test keeps on the graph a copy of its matrix whose tampered rows
    are returned as read. Only entries between two nodes with no arc either
    way change, so no critical-edge test reads them and the critical edges
    stay the same.
    """

    @staticmethod
    def q2_graph(table):
        system = full_shift()
        return build_prepend_graph(system, LocallyConstantPotential(system, 1, 2, table))

    @staticmethod
    def keep_tampered(g, entries):
        mane = min_cost_all_pairs(g)
        rows = {}
        for (i, j), c in entries.items():
            assert not any({e.src, e.tgt} == {i, j} for e in g.edges)
            rows.setdefault(i, list(mane.row(i)))[j] = c
        g.__dict__["_mane"] = with_rows(mane, rows)

    def test_two_anchors_on_a_zero_cost_cycle(self):
        # the f5 loops at depth 2: classes {00} and {11}, which share no arc
        g = self.q2_graph({(0, 0, 0): 1, (1, 1, 1): 1})
        a, b = g.node_index[(0, 0)], g.node_index[(1, 1)]
        assert critical_structure(g).classes == ((a,), (b,))
        cost = min_cost_all_pairs(g).cost
        self.keep_tampered(g, {(a, b): -cost[b][a]})
        with pytest.raises(AssertionError, match="two critical classes"):
            critical_structure(g)

    def test_a_member_off_its_anchors_zero_cost_cycles(self):
        # constant weights at depth 2: one class of all four nodes, anchor 00
        g = self.q2_graph({k: 5 for k in itertools.product(range(2), repeat=3)})
        a, v = g.node_index[(0, 0)], g.node_index[(1, 1)]
        assert critical_structure(g).classes == ((0, 1, 2, 3),)
        cost = min_cost_all_pairs(g).cost
        self.keep_tampered(g, {(a, v): cost[a][v] + 1})
        with pytest.raises(AssertionError, match="a critical class holds"):
            critical_structure(g)
