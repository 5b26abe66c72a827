import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlist.graphs import (
    Graph,
    brute_force_list_kp,
    complete,
    empty,
    gnp,
    planted,
    planted_cliques,
)
from congestlist.sparse_listing import (
    NodePartition,
    build_fanout_table,
    cc_list_kp,
    check_partition_balance,
    delivery_fanout,
    fake_edge_target,
    random_partition,
    sample_fake_edges,
    tuple_assign,
    tuple_holders,
)


def fanout_oracle(a: int, b_part: int, num_parts: int, p: int, k: int) -> set[int]:
    """Independent scan: every new ID standing in for a tuple with parts a and
    b in two distinct digit positions."""
    total = num_parts ** p
    out = set()
    for new_id in range(1, k + 1):
        if total >= k:
            indices = range(new_id - 1, total, k)
        else:
            indices = [(new_id - 1) % total]
        for t in indices:
            digits = []
            x = t
            for _ in range(p):
                digits.append(x % num_parts)
                x //= num_parts
            hit = any(
                digits[i] == a and digits[j] == b_part
                for i in range(p) for j in range(p) if i != j
            )
            if hit:
                out.add(new_id)
                break
    return out


class TestRandomPartition:
    def test_single_part(self):
        part = random_partition(50, 1, 3)
        assert set(part.assignment) == {0}

    def test_empty(self):
        assert random_partition(0, 4, 1).assignment == ()

    def test_deterministic(self):
        assert random_partition(100, 7, 5) == random_partition(100, 7, 5)
        assert random_partition(100, 7, 5) != random_partition(100, 7, 6)

    def test_balance_at_scale(self):
        n, parts = 10_000, 10
        sizes = random_partition(n, parts, seed=5).part_sizes()
        slack = 10.0 * math.sqrt(n / parts)
        for size in sizes:
            assert abs(size - n / parts) <= slack


class TestTupleAssign:
    def test_first_id_all_zeros(self):
        for base in (1, 2, 5, 9):
            assert tuple_assign(1, base, 4) == (0, 0, 0, 0)

    def test_binary_example(self):
        assert tuple_assign(6, 2, 3) == (1, 0, 1)

    def test_exhaustive_enumeration_hits_every_tuple_once(self):
        seen = [tuple_assign(i, 3, 4) for i in range(1, 3 ** 4 + 1)]
        assert len(set(seen)) == 81
        assert set(seen) == set(itertools.product(range(3), repeat=4))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tuple_assign(0, 2, 3)

    def test_wraps_modulo_total(self):
        # beyond num_parts^p the low p digits repeat
        assert tuple_assign(2 ** 3 + 1, 2, 3) == tuple_assign(1, 2, 3)


def slot_pairs(digits) -> set[tuple[int, int]]:
    """The part pairs of every two distinct digit positions."""
    return {(min(a, c), max(a, c)) for a, c in itertools.combinations(digits, 2)}


class TestCoverage:
    def test_covered_indices_partition_all_tuples(self):
        for b, p, k in [(2, 3, 5), (3, 3, 20), (2, 4, 16), (3, 2, 7), (1, 3, 6)]:
            total = b ** p
            tup, holder = tuple_holders(total, k)
            links = list(zip(tup.tolist(), holder.tolist()))
            assert len(set(links)) == len(links)
            assert {t for t, _ in links} == set(range(total))
            assert {w for _, w in links} == set(range(1, k + 1))
            if total >= k:
                assert len(links) == total   # one holder per tuple
            # the fanout table routes by exactly these links
            pairs_by_node = {w: set() for w in range(1, k + 1)}
            for t, w in links:
                pairs_by_node[w] |= slot_pairs(tuple_assign(t + 1, b, p))
            by_pair = {}
            for w, pairs in pairs_by_node.items():
                for pair in pairs:
                    by_pair.setdefault(pair, set()).add(w)
            table = build_fanout_table(b, p, k)
            assert {w: set(ps) for w, ps in table.pairs_by_node.items()} == pairs_by_node
            assert {pair: set(ws) for pair, ws in table.by_pair.items()} == by_pair

    def test_every_multiset_covered(self):
        # every sorted p-multiset of parts has exactly one canonical holder,
        # and that holder receives every pair of the multiset
        for b, p in [(2, 4), (3, 3), (4, 2), (2, 6)]:
            for k in (max(1, b ** p - 3), b ** p, b ** p + 5):
                table = build_fanout_table(b, p, k)
                owned = [(ms, w) for w, mss in table.owned.items() for ms in mss]
                want = sorted(itertools.combinations_with_replacement(range(b), p))
                assert sorted(ms for ms, _ in owned) == want
                for ms, w in owned:
                    assert slot_pairs(ms) <= set(table.pairs_by_node[w])
                    assert all(w in table.by_pair[pair] for pair in slot_pairs(ms))


class TestDeliveryFanout:
    def test_single_part_reaches_everyone(self):
        part = random_partition(6, 1, 0)
        got = delivery_fanout((0, 1), part, 1, 3)
        assert got == set(range(1, 7))

    def test_equal_parts_p2(self):
        part = NodePartition(2, (0, 0, 1, 1), seed=0)
        got = delivery_fanout((0, 1), part, 2, 2, k=4)
        # both digits must equal part 0: only the tuple (0,0), owned by ID 1
        assert got == {1}

    def test_matches_brute_scan_81_tuples(self):
        part = random_partition(81, 3, 4)
        table = build_fanout_table(3, 4, 81)
        for edge in [(0, 1), (5, 17), (33, 72)]:
            a, b = part.part_of(edge[0]), part.part_of(edge[1])
            got = delivery_fanout(edge, part, 3, 4, k=81, table=table)
            assert got == fanout_oracle(min(a, b), max(a, b), 3, 4, 81)

    @given(st.integers(1, 4), st.integers(2, 4), st.integers(1, 40),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_fanout_property(self, b, p, k, seed):
        rng = np.random.default_rng(seed)
        a = int(rng.integers(b))
        c = int(rng.integers(b))
        table = build_fanout_table(b, p, k)
        got = set(table.by_pair.get((min(a, c), max(a, c)), ()))
        assert got == fanout_oracle(min(a, c), max(a, c), b, p, k)

    def test_mismatched_num_parts_rejected(self):
        part = random_partition(10, 2, 0)
        with pytest.raises(ValueError):
            delivery_fanout((0, 1), part, 3, 3)


class TestBalanceCheck:
    def test_single_part_trivially_bounded(self):
        g = gnp(40, 0.4, 0)
        report = check_partition_balance(g, random_partition(40, 1, 1))
        assert report.ok
        assert report.counts[(0,)] == g.m

    def test_empty_graph_counts_zero(self):
        report = check_partition_balance(empty(30), random_partition(30, 3, 1))
        assert all(c == 0 for c in report.counts.values())
        assert not report.applicable

    def test_pairwise_counts_match_manual_tally(self):
        g = gnp(60, 0.3, 2)
        part = random_partition(60, 4, 3)
        report = check_partition_balance(g, part)
        for a in range(4):
            for b in range(a + 1, 4):
                members = {v for v in range(60) if part.part_of(v) in (a, b)}
                manual = sum(1 for u, v in g.edges if u in members and v in members)
                assert report.counts[(a, b)] == manual

    def test_monte_carlo_violations_are_rare(self):
        g = gnp(256, 0.3, 9)
        events = 0
        bad = 0
        for seed in range(40):
            report = check_partition_balance(g, random_partition(256, 4, seed))
            events += report.events
            bad += len(report.violations)
        assert bad / events <= 0.05


class TestFakePadding:
    def test_target_formula(self):
        n, p = 32, 4
        assert fake_edge_target(n, 0, p, 20.0) == math.ceil(
            20.0 * 32 * math.log2(32) * 32 ** 0.25)

    def test_sample_respects_absent_pairs(self):
        g = gnp(20, 0.5, 7)
        fakes = sample_fake_edges(g, 30, seed=1)
        assert len(fakes) == 30
        assert all(not g.has_edge(u, v) for u, v in fakes)
        assert len(set(fakes)) == 30

    def test_sample_caps_at_complete(self):
        g = complete(6)
        assert sample_fake_edges(g, 10, seed=1) == []


class TestCcListKp:
    def test_complete_8_triangles(self):
        cliques, acc = cc_list_kp(complete(8), 3, seed=0)
        assert len(cliques) == 56
        assert acc.total_rounds() == sum(acc.rounds_by_phase.values())

    def test_empty_graph_lists_nothing_but_pays_for_padding(self):
        cliques, acc = cc_list_kp(empty(32), 4, seed=0)
        assert cliques == set()
        assert acc.notes["m_real"] == 0
        assert acc.notes["m_padded"] > 0
        assert acc.rounds_by_phase["edge-delivery"] > 0

    def test_planted_cliques_listed(self):
        g = planted(48, 5, 2, 0.1, seed=11)
        cliques, _ = cc_list_kp(g, 5, seed=11)
        for planted_c in planted_cliques(48, 5, 2, seed=11):
            assert planted_c in cliques
        assert cliques == brute_force_list_kp(g, 5)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_oracle_equality(self, p, holder_output_sizes):
        # every p has a case with num_parts^p > n, where tuple indices wrap;
        # the densest graph has K_6s
        for n, q, seed in [(16, 0.6, 1), (24, 0.4, 2), (32, 0.3, 3), (20, 0.8, 4)]:
            g = gnp(n, q, seed)
            holder_output_sizes.clear()
            cliques, acc = cc_list_kp(g, p, seed=7)
            oracle = brute_force_list_kp(g, p)
            assert cliques == oracle, (n, q, seed, p)
            assert sum(holder_output_sizes) == len(oracle), (n, q, seed, p)  # listed once
            assert not acc.violations

    def test_fake_edges_never_listed(self):
        # bipartite: zero triangles, but sparse enough that padding kicks in;
        # any fake edge leaking into listing would fabricate triangles
        edges = frozenset((u, v) for u in range(8) for v in range(8, 16))
        g = Graph(16, edges)
        cliques, acc = cc_list_kp(g, 3, seed=2)
        assert acc.notes["m_padded"] > acc.notes["m_real"]
        assert cliques == set()

    def test_deterministic_accounting(self):
        g = gnp(24, 0.4, 5)
        a = cc_list_kp(g, 4, seed=3)
        b = cc_list_kp(g, 4, seed=3)
        assert a[0] == b[0]
        assert a[1].to_json() == b[1].to_json()

    def test_rejects_p_below_3(self):
        with pytest.raises(ValueError):
            cc_list_kp(complete(4), 2, seed=0)

    def test_degenerate_sizes(self):
        assert cc_list_kp(empty(0), 3, seed=0)[0] == set()
        assert cc_list_kp(empty(1), 3, seed=0)[0] == set()
        assert cc_list_kp(complete(4), 6, seed=0)[0] == set()   # p > n
        assert cc_list_kp(complete(6), 6, seed=0)[0] == {tuple(range(6))}

    def test_load_note_present(self):
        _, acc = cc_list_kp(gnp(32, 0.3, 1), 3, seed=0)
        note = acc.notes["edge_delivery"]
        assert note["max_receive"] <= note["receive_budget"]
