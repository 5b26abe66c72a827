import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlist.config import SimConfig, polylog
from congestlist.engine import (
    Accounting,
    BudgetViolation,
    ClusterChannel,
    ProtocolError,
    RoundEngine,
    assign_cluster_ids,
    cluster_route,
)
from congestlist.graphs import Graph, complete, degeneracy_orient, empty, gnp


def id_exchange(node, state, inbox, rnd, rng):
    """Round 1: send own ID to every neighbor, then halt."""
    sends = [(dst, (node,)) for dst in state["neighbors"]]
    return state, sends, True


class TestRunProtocol:
    def test_id_exchange_on_k4(self):
        g = complete(4)
        eng = RoundEngine(g)
        init = {u: {"neighbors": sorted(g.neighbors(u))} for u in range(4)}
        run = eng.run_protocol(id_exchange, init_states=init, phase="exchange")
        assert run.rounds == 1
        assert eng.accounting.rounds_by_phase["exchange"] == 1
        for u in range(4):
            assert eng.accounting.received[u] == 3
            assert sorted(src for src, _ in run.inbox_log[u]) == sorted(set(range(4)) - {u})

    def test_empty_graph_delivers_nothing(self):
        g = empty(6)
        eng = RoundEngine(g)
        run = eng.run_protocol(lambda u, s, inbox, r, rng: (s, [], True))
        assert sum(eng.accounting.received.values()) == 0
        assert sum(eng.accounting.sent.values()) == 0

    def test_out_edge_broadcast_rounds_equal_max_out_degree(self):
        g, _ = degeneracy_orient(gnp(16, 0.5, seed=3))
        bound = g.max_out_degree()
        assert bound > 0

        def broadcast(node, state, inbox, rnd, rng):
            # announce one outgoing edge per neighbor per round
            out = state["out"]
            if rnd > len(out):
                return state, [], True
            u, v = out[rnd - 1]
            sends = [(dst, (u, v)) for dst in state["neighbors"]]
            return state, sends, rnd == len(out)

        init = {
            u: {"out": sorted(g.out_edges(u)), "neighbors": sorted(g.neighbors(u))}
            for u in range(g.n)
        }
        eng = RoundEngine(g)
        run = eng.run_protocol(broadcast, init_states=init, phase="flood")
        assert run.rounds == bound
        # every node hears about each out-edge of each of its neighbors
        for u in range(g.n):
            heard = {tuple(p) for _, p in run.inbox_log[u]}
            expected = {e for v in g.neighbors(u) for e in g.out_edges(v)}
            assert heard == expected

    def test_determinism_same_seed(self):
        g = gnp(12, 0.5, 4)

        def noisy(node, state, inbox, rnd, rng):
            if rnd >= 3:
                return state, [], True
            nbrs = sorted(g.neighbors(node))
            if not nbrs:
                return state, [], True
            dst = nbrs[int(rng.integers(len(nbrs)))]
            return state, [(dst, (node, rnd))], False

        runs = []
        for _ in range(2):
            eng = RoundEngine(g, seed=99)
            run = eng.run_protocol(noisy, phase="noisy")
            runs.append((run.inbox_log, eng.accounting.to_json()))
        assert runs[0] == runs[1]

    def test_bandwidth_violation_aborts(self):
        g = complete(3)

        def two_to_same(node, state, inbox, rnd, rng):
            if node == 0:
                return state, [(1, (1,)), (1, (2,))], True
            return state, [], True

        eng = RoundEngine(g)
        with pytest.raises(BudgetViolation):
            eng.run_protocol(two_to_same)
        assert eng.accounting.violations

    def test_send_to_non_neighbor_rejected(self):
        g = empty(4)
        eng = RoundEngine(g)
        with pytest.raises(ProtocolError):
            eng.run_protocol(lambda u, s, i, r, rng: (s, [(u ^ 1, (1,))], True))

    def test_oversized_payload_rejected(self):
        g = complete(2)
        eng = RoundEngine(g)
        with pytest.raises(ProtocolError):
            eng.run_protocol(lambda u, s, i, r, rng: (s, [(1 - u, (1, 1, 1, 1))], True))

    def test_payload_word_too_wide_rejected(self):
        g = complete(4)  # 2-bit IDs
        eng = RoundEngine(g)
        with pytest.raises(ProtocolError):
            eng.run_protocol(lambda u, s, i, r, rng: (s, [((u + 1) % 4, (4096,))], True))


class TestPhaseTransfer:
    def test_rounds_equal_max_per_edge_queue(self):
        g = complete(3)
        eng = RoundEngine(g)
        msgs = [(0, 1, (1,))] * 5 + [(1, 2, (1,))] * 2
        rounds = eng.phase_transfer("bulk", msgs)
        assert rounds == 5
        assert eng.accounting.sent[0] == 5 and eng.accounting.received[1] == 5

    def test_respects_cap_parameter(self):
        g = complete(2)
        eng = RoundEngine(g, SimConfig(bandwidth_factor=6.0))  # 2 messages/round
        rounds = eng.phase_transfer("bulk", [(0, 1, (1,))] * 5)
        assert rounds == 3

    def test_rejects_non_edges(self):
        g = empty(3)
        eng = RoundEngine(g)
        with pytest.raises(ProtocolError):
            eng.phase_transfer("bulk", [(0, 1, (1,))])

    def test_clique_mode_allows_all_pairs(self):
        g = empty(5)
        eng = RoundEngine(g, clique_mode=True)
        assert eng.phase_transfer("bulk", [(0, 4, (3,))]) == 1


def expanded_charge(engine, phase, messages):
    """Per-message reference for a bulk transfer: tally every (src, dst)
    tuple, then charge the longest per-link queue at the cap."""
    queues = Counter((src, dst) for src, dst, *_ in messages)
    acc = engine.accounting
    for (src, dst), c in queues.items():
        acc.sent[src] += c
        acc.received[dst] += c
    rounds = max((-(-c // engine.cap) for c in queues.values()), default=0)
    acc.count_messages(phase, len(messages))
    acc.charge(phase, rounds)
    return rounds


# distinct links among 6 nodes, each with a message count (0 included)
LINK_COUNTS = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda l: l[0] != l[1]),
    st.integers(0, 7), max_size=20)


class TestTransfer:
    @given(LINK_COUNTS, st.sampled_from([3.0, 6.0, 9.0]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_expanded_messages(self, counts, bandwidth, clique_mode):
        g = empty(6) if clique_mode else complete(6)
        cfg = SimConfig(bandwidth_factor=bandwidth)
        messages = [(s, d, (1,)) for (s, d), c in counts.items() for _ in range(c)]
        engines = [RoundEngine(g, cfg, clique_mode=clique_mode) for _ in range(3)]
        src = [s for s, _ in counts]
        dst = [d for _, d in counts]
        rounds = [engines[0].transfer("bulk", src, dst, list(counts.values())),
                  engines[1].phase_transfer("bulk", messages),
                  expanded_charge(engines[2], "bulk", messages)]
        assert rounds[0] == rounds[1] == rounds[2]
        docs = [e.accounting.to_json() for e in engines]
        assert docs[0] == docs[1] == docs[2]

    def test_empty_transfer_keeps_its_phase_keys(self):
        eng = RoundEngine(empty(3), clique_mode=True)
        assert eng.transfer("bulk", [], [], []) == 0
        assert eng.accounting.rounds_by_phase == {"bulk": 0}
        assert eng.accounting.messages_by_phase == {"bulk": 0}
        assert not eng.accounting.sent and not eng.accounting.received

    @pytest.mark.parametrize("clique_mode, bad", [
        (True, (0, 6)), (True, (-1, 2)), (True, (3, 3)),
        (False, (2, 0)), (False, (0, 7)), (False, (4, 4))])
    def test_rejects_the_first_bad_link(self, clique_mode, bad):
        g = Graph(6, frozenset({(0, 1), (1, 2)}))
        eng = RoundEngine(g, clique_mode=clique_mode)
        src, dst = [0, bad[0], 1], [1, bad[1], 0]
        with pytest.raises(ProtocolError, match=f"{bad[0]}->{bad[1]} is not an edge"):
            eng.transfer("bulk", src, dst, [1, 1, 1])
        assert not eng.accounting.sent and not eng.accounting.messages_by_phase


class TestClusterRoute:
    def make_channel(self, k=16, n=256, delta=0.5, factor=2.0, cap=10 ** 9):
        return ClusterChannel(members=frozenset(range(k)), n=n, delta=delta,
                              routing_factor=factor, load_cap=cap)

    def test_zero_messages_zero_rounds(self):
        ch = self.make_channel()
        assert cluster_route(ch, []) == 0

    def test_ring_pattern_load_one(self):
        # n^delta = 16, max load 1 -> factor * ceil(1/16) = factor rounds
        ch = self.make_channel(k=16, n=256, delta=0.5, factor=3.0)
        msgs = [(i, (i + 1) % 16, ("x",)) for i in range(16)]
        acc = Accounting()
        assert cluster_route(ch, msgs, accounting=acc) == 3
        assert acc.received == {i: 1 for i in range(16)}

    def test_random_all_to_all_charge_matches_tally(self):
        k, n, delta = 16, 256, 0.5  # n^delta = 4 would need delta=0.4 on n=32; use explicit
        ch = ClusterChannel(members=frozenset(range(k)), n=256, delta=0.25,
                            routing_factor=5.0, load_cap=10 ** 9)  # n^0.25 = 4
        rng = np.random.default_rng(0)
        msgs = [(int(rng.integers(k)), int(rng.integers(k)), None)
                for _ in range(k * 4)]
        sends = [0] * k
        recvs = [0] * k
        for s, d, _ in msgs:
            sends[s] += 1
            recvs[d] += 1
        load = max(max(sends), max(recvs))
        assert cluster_route(ch, msgs) == 5 * -(-load // 4)

    def test_load_cap_violation_aborts(self):
        ch = self.make_channel(k=4, cap=2)
        msgs = [(0, 1, None)] * 3
        with pytest.raises(BudgetViolation):
            cluster_route(ch, msgs)

    def test_rejects_foreign_endpoints(self):
        ch = self.make_channel(k=4)
        with pytest.raises(ProtocolError):
            cluster_route(ch, [(0, 99, None)])

    def test_charge_monotone_in_load_and_delta(self):
        ch = self.make_channel(k=8, n=256, delta=0.5, factor=2.0)
        charges = [ch.charge_for_load(load) for load in range(0, 200, 7)]
        assert charges == sorted(charges)
        for load in (1, 31, 97):
            low = ClusterChannel(frozenset(range(8)), 256, 0.25, 2.0, 1e9)
            high = ClusterChannel(frozenset(range(8)), 256, 0.75, 2.0, 1e9)
            assert low.charge_for_load(load) >= high.charge_for_load(load)


    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_route_matches_per_tuple_tally(self, data):
        members = sorted(data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=8)))
        member = st.sampled_from(members)
        messages = data.draw(st.lists(st.tuples(member, member, st.none()), max_size=30))
        ch = ClusterChannel(frozenset(members), 256, 0.25, 3.0,
                            load_cap=data.draw(st.integers(1, 6)))
        sends = Counter(src for src, _, _ in messages)
        recvs = Counter(dst for _, dst, _ in messages)
        ref, acc = Accounting(), Accounting()
        expected = charge_outcome(lambda: tuple_route(ch, messages, ref, "r"))
        got = charge_outcome(lambda: ch.route(members, [sends[u] for u in members],
                                              [recvs[u] for u in members], acc, "r"))
        assert got == expected
        assert acc.to_json() == ref.to_json()

    def test_worst_node_is_lowest_id_at_max_load(self):
        ch = ClusterChannel(frozenset({40, 3, 17}), 256, 0.5, 1.0, load_cap=1)
        acc = Accounting()
        with pytest.raises(BudgetViolation) as info:
            ch.route([40, 17, 3], [2, 2, 1], [0, 1, 2], acc, "r")
        assert (info.value.node, info.value.actual) == (3, 2)
        assert acc.violations[0]["node"] == 3


def charge_outcome(charge):
    """The rounds a charge returns, or (node, load) of the violation it raises."""
    try:
        return charge()
    except BudgetViolation as exc:
        return exc.node, exc.actual


def tuple_route(channel, messages, accounting, phase):
    """Per-message reference for cluster routing: tally every tuple, find the
    worst load max(sent, received), the lowest member ID on ties, and charge
    it at the channel's rate."""
    sends = Counter(src for src, _, _ in messages)
    recvs = Counter(dst for _, dst, _ in messages)
    max_load, worst = 0, -1
    for node in sorted(channel.members):
        load = max(sends[node], recvs[node])
        if load > max_load:
            max_load, worst = load, node
    if max_load > channel.load_cap:
        accounting.record_violation(worst, phase, channel.load_cap, max_load,
                                    "cluster-route-load")
        raise BudgetViolation(worst, phase, channel.load_cap, max_load,
                              "cluster-route-load")
    accounting.sent.update(sends)
    accounting.received.update(recvs)
    rounds = channel.charge_for_load(max_load)
    accounting.count_messages(phase, len(messages))
    accounting.charge(phase, rounds)
    return rounds


class TestAssignClusterIds:
    def test_single_node_cluster(self):
        assert assign_cluster_ids([{7}], n=16) == [{7: 1}]

    def test_rank_order(self):
        assert assign_cluster_ids([{5, 9, 2}], n=16) == [{2: 1, 5: 2, 9: 3}]

    def test_parallel_clusters_single_charge(self):
        acc = Accounting()
        out = assign_cluster_ids([{1, 2}, {5, 6, 7}], n=64, accounting=acc)
        assert out == [{1: 1, 2: 2}, {5: 1, 6: 2, 7: 3}]
        assert acc.rounds_by_phase["assign-ids"] == polylog(64)


class TestAccountingExport:
    def test_json_round_trip(self):
        g = complete(4)
        eng = RoundEngine(g)
        init = {u: {"neighbors": sorted(g.neighbors(u))} for u in range(4)}
        eng.run_protocol(id_exchange, init_states=init, phase="exchange")
        data = json.loads(json.dumps(eng.accounting.to_json(), indent=2, sort_keys=True))
        assert data["rounds_by_phase"] == {"exchange": 1}
        assert data["total_rounds"] == 1
        assert data["messages"]["received"]["0"] == 3
        assert data["violations"] == []
