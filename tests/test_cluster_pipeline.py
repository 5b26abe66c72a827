import pytest

from congestlist.cluster_pipeline import (
    HEAVY_IMPORT,
    LIGHT_PROBE,
    PhaseAggregator,
    classify,
    cluster_list_kp,
    import_outside_edges,
    k4_light_listing,
    knowledge_universe,
    mark_bad_edges,
    reshuffle,
    responsibility_map,
)
from congestlist.config import SimConfig
from congestlist.decomposition import Cluster, expander_decompose
from congestlist.engine import Accounting, BudgetViolation, RoundEngine, assign_cluster_ids
from congestlist.graphs import (
    Graph,
    brute_force_list_kp,
    complete,
    degeneracy_orient,
    gnp,
    norm_edge,
)


def make_cluster(members, delta=0.5, cid=0):
    return Cluster(cid, frozenset(members), delta, 1.0)


def graph_with(edges, n, orientation=None):
    return Graph(n, frozenset(norm_edge(u, v) for u, v in edges), orientation)


class TestClassify:
    def test_isolated_cluster(self):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        g = graph_with(edges, 10)
        cls = classify(make_cluster(range(6)), g, heavy_threshold=2,
                       light_threshold=2)
        assert not cls.heavy and not cls.light and not cls.bad
        assert all(c == 0 for c in cls.u_light.values())

    def test_fully_attached_outside_node_is_heavy(self):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        edges += [(u, 6) for u in range(6)]
        g = graph_with(edges, 7)
        cls = classify(make_cluster(range(6)), g, heavy_threshold=5.5,
                       light_threshold=10)
        assert cls.heavy == frozenset({6})
        assert cls.in_cluster_count[6] == 6

    def test_exactly_one_bad_node(self):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        edges += [(0, 6), (0, 7), (0, 8)]  # three light neighbors of node 0
        g = graph_with(edges, 9)
        cls = classify(make_cluster(range(6)), g, heavy_threshold=2,
                       light_threshold=2)
        assert cls.light == frozenset({6, 7, 8})
        assert cls.u_light[0] == 3
        assert cls.bad == frozenset({0})

    def test_charges_two_boundary_rounds(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(0, 4)]
        g = graph_with(edges, 5)
        eng = RoundEngine(g)
        agg = PhaseAggregator(eng)
        classify(make_cluster(range(4)), g, 1, 1, agg=agg)
        rounds = agg.flush()
        assert rounds == {"classify-announce": 1, "classify-flag": 1}


class TestMarkBadEdges:
    def setup_method(self):
        self.edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        self.g = graph_with(self.edges, 5)
        self.m_edges = set(self.g.edges)
        self.cluster = make_cluster(range(5))

    def mk_cls(self, bad):
        return _cls_with_bad(self.cluster, self.g, bad)

    def test_no_bad_nodes_keeps_all_goals(self):
        ges = mark_bad_edges(self.cluster, self.mk_cls(frozenset()), self.m_edges)
        assert ges.goal == frozenset(self.m_edges) and not ges.bad_edges

    def test_all_bad_nodes_empty_goal(self):
        ges = mark_bad_edges(self.cluster, self.mk_cls(frozenset(range(5))),
                             self.m_edges)
        assert not ges.goal and ges.bad_edges == frozenset(self.m_edges)

    def test_two_adjacent_bad_nodes_one_bad_edge(self):
        ges = mark_bad_edges(self.cluster, self.mk_cls(frozenset({1, 3})),
                             self.m_edges)
        assert ges.bad_edges == frozenset({(1, 3)})
        assert (1, 3) not in ges.goal


def _cls_with_bad(cluster, g, bad):
    from congestlist.cluster_pipeline import NeighborClassification

    return NeighborClassification(
        cluster_id=cluster.id, in_cluster_count={}, heavy=frozenset(),
        light=frozenset(), u_light={}, bad=frozenset(bad),
        heavy_threshold=1.0, light_threshold=1.0)


class TestImport:
    def test_no_outside_nothing_learned(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        g, _ = degeneracy_orient(graph_with(edges, 5))
        cluster = make_cluster(range(5))
        cls = classify(cluster, g, 1, 1)
        learned = import_outside_edges(cluster, cls, g, SimConfig(), d_value=1.0)
        assert learned.all_edges() == set()

    def test_heavy_chunks_split_evenly(self):
        # heavy node 5 with 5 outgoing edges and 5 cluster neighbors
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, 5) for u in range(5)]
        orientation = {norm_edge(u, 5): 5 for u in range(5)}
        orientation.update({norm_edge(u, v): u for u in range(5) for v in range(u + 1, 5)})
        g = graph_with(edges, 6, orientation)
        cluster = make_cluster(range(5))
        cls = classify(cluster, g, heavy_threshold=2, light_threshold=10)
        assert cls.heavy == frozenset({5})
        learned = import_outside_edges(cluster, cls, g, SimConfig(), d_value=1.0)
        for u in range(5):
            assert learned.count(u) == 1
            assert all(tag == HEAVY_IMPORT for tag in learned.by_node[u].values())

    def test_case2_light_probe_learns_outside_edge(self):
        # K4 = {0, 1, 8, 9} with goal edge (0,1) in the cluster, 8 light,
        # edge (8,9) outside; good node 0 must learn it via the probe.
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(0, 8), (1, 8), (0, 9), (1, 9), (8, 9)]
        g, _ = degeneracy_orient(graph_with(edges, 10))
        cluster = make_cluster(range(8))
        cls = classify(cluster, g, heavy_threshold=2.5, light_threshold=50)
        assert 8 in cls.light and 9 in cls.light
        assert not cls.bad
        learned = import_outside_edges(cluster, cls, g, SimConfig(), d_value=1.0)
        assert learned.by_node[0][(8, 9)] == LIGHT_PROBE

    def test_bad_nodes_skip_probes_but_receive_chunks(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(0, 4), (0, 5), (0, 6)]          # node 0 has 3 light nbrs
        edges += [(u, 7) for u in range(4)] + [(4, 7)]  # node 7 heavy
        orientation = {e: max(e) for e in
                       (norm_edge(a, b) for a, b in edges)}
        g = graph_with(edges, 8, orientation)
        cluster = make_cluster(range(4))
        cls = classify(cluster, g, heavy_threshold=3.5, light_threshold=2)
        assert cls.bad == frozenset({0})
        assert cls.heavy == frozenset({7})
        learned = import_outside_edges(cluster, cls, g, SimConfig(), d_value=1.0)
        tags_on_bad = set(learned.by_node.get(0, {}).values())
        assert LIGHT_PROBE not in tags_on_bad  # no probe exchange for node 0
        heavy_targets = {u for u, edges_ in learned.by_node.items()
                         if HEAVY_IMPORT in edges_.values()}
        assert heavy_targets  # chunks landed inside, bad or not

    def test_learn_cap_abort(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u, 4) for u in range(4)] + [(4, 5)]
        orientation = {norm_edge(u, 4): 4 for u in range(4)}
        orientation[norm_edge(4, 5)] = 4
        orientation.update({norm_edge(u, v): u for u in range(4) for v in range(u + 1, 4)})
        g = graph_with(edges, 6, orientation)
        cluster = make_cluster(range(4))
        cls = classify(cluster, g, heavy_threshold=1, light_threshold=10)
        tiny = SimConfig(learn_factor=1e-9)
        acc = Accounting()
        with pytest.raises(BudgetViolation):
            import_outside_edges(cluster, cls, g, tiny, d_value=0.0, accounting=acc)
        assert acc.violations


class TestReshuffle:
    def test_whole_graph_cluster_owns_own_tails(self):
        g, _ = degeneracy_orient(gnp(12, 0.5, 3))
        cluster = make_cluster(range(12))
        new_ids = assign_cluster_ids([cluster.members], n=12)[0]
        know = knowledge_universe(cluster, g, _empty_learned())
        rmap, owned, _ = reshuffle(cluster, new_ids, know, g, SimConfig(), 1.0)
        assert rmap.chunk == 1
        for u in range(12):
            assert owned[u] == set(g.out_edges(u))

    def test_owner_range_formula(self):
        n, k = 20, 3  # chunk = 7
        cluster = make_cluster(range(k))
        new_ids = {0: 1, 1: 2, 2: 3}
        rmap = responsibility_map(cluster, new_ids, n)
        assert rmap.chunk == 7
        for t in range(n):
            expected_idx = min(t // 7, k - 1)
            assert rmap.new_ids[rmap.owner[t]] == expected_idx + 1

    def test_multiset_of_owned_equals_known(self):
        g, _ = degeneracy_orient(gnp(24, 0.35, 6))
        part = expander_decompose(g, 0.5)
        clusters = [c for c in part.clusters if len(c.members) >= 3]
        if not clusters:
            pytest.skip("no cluster in fixture")
        cluster = clusters[0]
        cls = classify(cluster, g, 2, 4)
        learned = import_outside_edges(cluster, cls, g, SimConfig(), d_value=1.0)
        know = knowledge_universe(cluster, g, learned)
        new_ids = assign_cluster_ids([cluster.members], n=g.n)[0]
        _, owned, _ = reshuffle(cluster, new_ids, know, g, SimConfig(), 1.0)
        assert set().union(*owned.values()) == set().union(*know.values())
        # every owned edge sits exactly at its tail's owner
        rmap = responsibility_map(cluster, new_ids, g.n)
        for u, edges in owned.items():
            for e in edges:
                assert rmap.owner[g.tail(e)] == u


def _empty_learned():
    from congestlist.cluster_pipeline import LearnedEdges

    return LearnedEdges()


class TestClusterListKp:
    def test_k6_cluster_lists_all_k4(self, holder_output_sizes):
        g, _ = degeneracy_orient(complete(6))
        cluster = make_cluster(range(6))
        new_ids = assign_cluster_ids([cluster.members], n=6)[0]
        know = knowledge_universe(cluster, g, _empty_learned())
        _, owned, _ = reshuffle(cluster, new_ids, know, g, SimConfig(), 1.0)
        cliques, _ = cluster_list_kp(cluster, new_ids, owned, 4, seed=0,
                                     cfg=SimConfig(), g=g)
        assert len(cliques) == 15
        assert sum(holder_output_sizes) == 15   # each K_4 listed once

    def test_goal_incident_cliques_covered_end_to_end(self, holder_output_sizes):
        g, _ = degeneracy_orient(gnp(64, 0.3, 4))
        part = expander_decompose(g, 0.5)
        clusters = [c for c in part.clusters if len(c.members) >= 4]
        if not clusters:
            pytest.skip("no usable cluster in fixture")
        p = 4
        oracle = brute_force_list_kp(g, p)
        for cluster in clusters:
            cls = classify(cluster, g, heavy_threshold=64 ** 0.25,
                           light_threshold=8)
            m_edges = {e for e in part.m_edges
                       if e[0] in cluster.members and e[1] in cluster.members}
            goal = mark_bad_edges(cluster, cls, m_edges).goal
            learned = import_outside_edges(cluster, cls, g, SimConfig(), d_value=1.0)
            know = knowledge_universe(cluster, g, learned)
            new_ids = assign_cluster_ids([cluster.members], n=g.n)[0]
            _, owned, _ = reshuffle(cluster, new_ids, know, g, SimConfig(), 1.0)
            holder_output_sizes.clear()
            cliques, _ = cluster_list_kp(cluster, new_ids, owned, p, seed=9,
                                         cfg=SimConfig(), g=g)
            assert cliques <= oracle  # soundness: only real cliques
            assert sum(holder_output_sizes) == len(cliques)   # each listed once
            must_list = {inst for inst in oracle
                         if any(e in goal for e in _clique_edges(inst))}
            missing = must_list - cliques
            assert not missing, (cluster.id, sorted(missing)[:5])


def _clique_edges(inst):
    return [norm_edge(a, b) for i, a in enumerate(inst) for b in inst[i + 1:]]


class TestK4LightListing:
    def test_corpus_scan_every_light_instance_listed(self):
        # every K_4 {u,w,v,v'} with a cluster edge {u,w} and a C-light node v
        # must appear in the light-listing output of that cluster
        g, _ = degeneracy_orient(gnp(56, 0.35, 12))
        part = expander_decompose(g, 0.5)
        clusters = [c for c in part.clusters if len(c.members) >= 3]
        if not clusters:
            pytest.skip("no cluster in fixture")
        oracle = brute_force_list_kp(g, 4)
        heavy_threshold = 56 ** 0.25
        for cluster in clusters:
            eng = RoundEngine(g)
            cls = classify(cluster, g, heavy_threshold, light_threshold=1e9)
            listed = k4_light_listing(cluster, cls, g, eng)
            required = set()
            for inst in oracle:
                inside = [x for x in inst if x in cluster.members]
                outside = [x for x in inst if x not in cluster.members]
                if (len(inside) == 2 and len(outside) == 2
                        and norm_edge(*inside) in part.m_edges
                        and any(v in cls.light for v in outside)):
                    required.add(inst)
            missing = required - listed
            assert not missing, (cluster.id, sorted(missing)[:5])

    def test_light_node_lists_instance(self):
        # K4 = {0, 1, 8, 9}: 8 is C-light, edge (8,9) never enters the cluster
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(0, 8), (1, 8), (0, 9), (1, 9), (8, 9)]
        g, _ = degeneracy_orient(graph_with(edges, 10))
        cluster = make_cluster(range(8))
        eng = RoundEngine(g)
        cls = classify(cluster, g, heavy_threshold=2.5, light_threshold=50)
        assert 8 in cls.light
        listed = k4_light_listing(cluster, cls, g, eng)
        assert (0, 1, 8, 9) in listed
        assert eng.accounting.rounds_by_phase["k4-light"] >= 1
        for inst in listed:
            assert inst in brute_force_list_kp(g, 4)
