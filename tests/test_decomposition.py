import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlist import decomposition
from congestlist.config import SimConfig
from congestlist.decomposition import (
    M,
    R,
    S,
    Cluster,
    DecompositionError,
    EdgePartition,
    exact_conductance,
    expander_decompose,
    spectral_gap,
    verify_decomposition,
)
from congestlist.engine import Accounting
from congestlist.graphs import Graph, complete, empty, gnp, norm_edge, planted


def two_cliques_with_bridge(k=16):
    edges = set()
    for u in range(k):
        for v in range(u + 1, k):
            edges.add((u, v))
            edges.add((u + k, v + k))
    edges.add((0, k))
    return Graph(2 * k, frozenset(edges))


def adj_of(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in range(g.n)}


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The size of every matrix handed to scipy's Lanczos solver while the
    test runs."""
    calls: list[int] = []
    original = scipy.sparse.linalg.eigsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


class TestConstruction:
    def test_empty_graph(self):
        part = expander_decompose(empty(10), 0.5)
        assert part.labels == {} and part.clusters == []

    def test_complete_graph_single_cluster(self):
        # n = 32, delta = 0.6 -> n^delta = 8, and 32 = ceil(n^delta) * 4
        g = complete(32)
        part = expander_decompose(g, 0.6)
        assert len(part.clusters) == 1
        assert part.clusters[0].members == frozenset(range(32))
        assert part.m_edges == set(g.edges)
        assert not part.s_edges and not part.r_edges
        assert part.clusters[0].conductance_estimate >= 0.5 - 1e-9
        assert verify_decomposition(g, part).ok

    def test_two_cliques_one_bridge(self):
        g = two_cliques_with_bridge(16)
        part = expander_decompose(g, 0.5)  # n^delta ~ 5.7, thr = 3
        assert len(part.clusters) == 2
        sizes = sorted(len(c.members) for c in part.clusters)
        assert sizes == [16, 16]
        bridge = (0, 16)
        assert part.labels[bridge] in (S, R)
        assert verify_decomposition(g, part).ok

    def test_labels_partition_edge_set(self):
        for seed in (1, 2):
            g = gnp(64, 0.3, seed)
            part = expander_decompose(g, 0.5)
            assert set(part.labels) == set(g.edges)
            assert all(lab in (M, S, R) for lab in part.labels.values())

    def test_clusters_node_disjoint(self):
        g = gnp(96, 0.25, 5)
        part = expander_decompose(g, 0.5)
        seen = set()
        for c in part.clusters:
            assert not (c.members & seen)
            seen |= c.members

    def test_decompose_subset_of_edges(self):
        g = gnp(48, 0.3, 9)
        subset = {e for e in g.edges if e[0] % 2 == 0}
        part = expander_decompose(g, 0.5, edges=subset)
        assert set(part.labels) == subset

    def test_charges_decomposition_cost(self):
        acc = Accounting()
        g = gnp(64, 0.3, 3)
        expander_decompose(g, 0.5, accounting=acc, phase="decompose")
        from congestlist.config import polylog

        expected = math.ceil(1.0 * 64 ** 0.5 * polylog(64))
        assert acc.rounds_by_phase["decompose"] == expected

    def test_unsatisfiable_params_reported(self):
        # long cycle, min degree threshold 1, aggressive conductance floor:
        # splitting grinds edges into R until the budget bursts
        n = 48
        g = Graph(n, frozenset(norm_edge(i, (i + 1) % n) for i in range(n)))
        cfg = SimConfig(phi_min=0.9, min_degree_factor=0.1)
        with pytest.raises(DecompositionError):
            expander_decompose(g, 0.1, cfg)

    def test_verify_after_decompose_on_corpus(self):
        for delta in (0.5, 0.67, 0.75):
            for n, q, seed in [(48, 0.3, 1), (64, 0.2, 2), (96, 0.15, 3),
                               (32, 0.5, 4)]:
                g = gnp(n, q, seed)
                part = expander_decompose(g, delta)
                report = verify_decomposition(g, part)
                assert report.ok, (delta, n, q, seed, report.failed())

    def test_deterministic(self):
        g = gnp(80, 0.25, 7)
        a = expander_decompose(g, 0.6)
        b = expander_decompose(g, 0.6)
        assert a.to_json() == b.to_json()


class TestVerifier:
    def test_all_r_labeling_fails_r_bound(self):
        g = gnp(12, 0.5, 0)
        assert g.m >= 7
        part = EdgePartition(0.5, {e: R for e in g.edges}, [], {})
        report = verify_decomposition(g, part)
        assert not report.ok
        assert any(c.name == "r-bound" and not c.passed for c in report.checks)

    def test_single_clique_cluster_passes(self):
        g = complete(8)
        cluster = Cluster(0, frozenset(range(8)), 0.5, 0.5)
        part = EdgePartition(
            0.5, {e: M for e in g.edges}, [cluster], {},
            params={"min_degree_threshold": 2, "phi_min": 0.1},
        )
        assert verify_decomposition(g, part).ok

    def test_s_out_degree_violation_detected(self):
        # star around node 0: all edges oriented away from 0
        n = 10
        edges = frozenset((0, v) for v in range(1, n))
        g = Graph(n, edges)
        nd = float(n) ** 0.5  # ~3.16; out-degree 9 breaks the bound
        part = EdgePartition(0.5, {e: S for e in edges}, [],
                             {e: 0 for e in edges})
        report = verify_decomposition(g, part)
        assert any(c.name == "s-out-degree" and not c.passed for c in report.checks)
        assert not report.ok

    def test_cross_cluster_m_edge_detected(self):
        g = complete(4)
        cl = [Cluster(0, frozenset({0, 1}), 0.5, 1.0),
              Cluster(1, frozenset({2, 3}), 0.5, 1.0)]
        labels = {e: M for e in g.edges}
        part = EdgePartition(0.5, labels, cl, {},
                             params={"min_degree_threshold": 1, "phi_min": 0.0})
        report = verify_decomposition(g, part)
        assert any(c.name == "m-edges-inside-one-cluster" and not c.passed
                   for c in report.checks)

    def test_min_degree_violation_detected(self):
        # path 0-1-2 as a "cluster": endpoint degree 1
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        cl = [Cluster(0, frozenset({0, 1, 2}), 0.5, 1.0)]
        part = EdgePartition(0.5, {e: M for e in g.edges}, cl, {},
                             params={"min_degree_threshold": 2, "phi_min": 0.0})
        report = verify_decomposition(g, part)
        assert any(c.name == "cluster-min-degree" and not c.passed
                   for c in report.checks)


def naive_conductance(nodes, adj):
    """Reference subset enumeration, independent of the Gray-code walk."""
    import itertools

    nodes = sorted(nodes)
    vol_total = sum(len(adj[v]) for v in nodes)
    best = math.inf
    for r in range(1, len(nodes)):
        for subset in itertools.combinations(nodes, r):
            inside = set(subset)
            cut = sum(1 for v in subset for w in adj[v] if w not in inside)
            vol = sum(len(adj[v]) for v in subset)
            small = min(vol, vol_total - vol)
            if small > 0:
                best = min(best, cut / small)
    return 0.0 if best is math.inf else best


class TestConductance:
    def test_clique_certificate_at_least_half(self):
        g = complete(10)
        cert = exact_conductance(range(10), adj_of(g))
        assert cert >= 0.5

    @given(st.integers(3, 9), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_gray_code_matches_naive_enumeration(self, n, seed):
        g = gnp(n, 0.5, seed)
        adj = adj_of(g)
        nodes = [v for v in range(n) if adj[v]]
        if len(nodes) < 2:
            return
        from congestlist.decomposition import _components

        comp = sorted(_components(nodes, adj)[0])
        sub = {v: adj[v] & set(comp) for v in comp}
        assert abs(exact_conductance(comp, sub) - naive_conductance(comp, sub)) < 1e-12

    def test_spectral_gap_on_large_clique_uses_sparse_path(self, eigsh_calls):
        g = complete(200)  # 19900 edges > 2^14
        lam2, _, _ = spectral_gap(range(200), adj_of(g), dense_limit=2 ** 14)
        assert abs(lam2 - 200.0 / 199.0) < 1e-6
        assert eigsh_calls == [200]

    def test_dense_limit_counts_edges(self, eigsh_calls):
        # at most dense_limit edges stays dense; one edge more takes Lanczos
        for n, q, seed in [(5, 0.8, 1), (12, 0.4, 2), (30, 0.2, 3)]:
            g = gnp(n, q, seed)
            spectral_gap(range(n), adj_of(g), dense_limit=g.m)
            assert eigsh_calls == []
            spectral_gap(range(n), adj_of(g), dense_limit=g.m - 1)
            assert eigsh_calls == [n]
            eigsh_calls.clear()

    @given(st.integers(4, 10), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_cheeger_sandwich(self, n, seed):
        g = gnp(n, 0.6, seed)
        adj = adj_of(g)
        nodes = [v for v in range(n) if adj[v]]
        if not nodes:
            return
        # restrict to one connected component
        from congestlist.decomposition import _components

        comp = sorted(_components(nodes, adj)[0])
        if len(comp) < 3:
            return
        sub = {v: adj[v] & set(comp) for v in comp}
        lam2, _, _ = spectral_gap(comp, sub, dense_limit=2 ** 14)
        phi = exact_conductance(comp, sub)
        assert lam2 / 2.0 <= phi + 1e-9
        assert phi <= math.sqrt(2.0 * lam2) + 1e-9


def laplacian_graphs():
    """Small G(n, q) (k < 5, isolated nodes, the empty graph) and planted
    cliques over a faint background."""
    gnps = st.builds(gnp, st.integers(0, 24), st.floats(0.0, 1.0),
                     st.integers(0, 10 ** 6))
    planteds = st.builds(lambda seed: planted(40, 6, 3, 0.03, seed),
                         st.integers(0, 10 ** 6))
    return st.one_of(gnps, planteds)


class TestNormalizedLaplacian:
    @given(laplacian_graphs())
    @settings(max_examples=60, deadline=None)
    def test_numpy_matrix_is_the_scipy_matrix_bit_for_bit(self, g):
        adj = adj_of(g)
        order = list(range(g.n))
        dense = decomposition._dense_normalized_laplacian(order, adj)
        sparse = decomposition._sparse_normalized_laplacian(order, adj)
        ref = sparse.toarray()
        assert dense.shape == ref.shape == (g.n, g.n)
        assert np.array_equal(dense, ref)
        assert np.array_equal(np.signbit(dense), np.signbit(ref))
        # the dense/Lanczos switch counts edges from adj, as nnz used to
        assert (sparse.nnz - g.n) // 2 == g.m

    def test_isolated_nodes_keep_a_unit_diagonal(self):
        g = Graph(6, frozenset({(0, 1), (1, 2)}))
        L = decomposition._dense_normalized_laplacian(list(range(6)), adj_of(g))
        assert np.array_equal(np.diag(L), np.ones(6))
        assert not np.signbit(L[3:, :]).any()


def test_listing_runs_never_load_scipy_sparse():
    # a fresh interpreter: importing the package, a cc run, a default
    # CONGEST run and a small forced-depth run (whose decomposition solves
    # every component densely) leave scipy.sparse unloaded
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import congestlist, congestlist.cli
        from congestlist import decomposition
        from congestlist.graphs import gnp
        from congestlist.pipeline import congest_list_kp
        from congestlist.sparse_listing import cc_list_kp

        calls = []
        original = decomposition.spectral_gap
        decomposition.spectral_gap = lambda *a: calls.append(1) or original(*a)
        g = gnp(48, 0.35, 4)
        cc_list_kp(g, 4, seed=1)
        congest_list_kp(g, 4, seed=7)
        report = congest_list_kp(g, 4, seed=7, forced_depth=2,
                                 eps0_fraction=Fraction(1, 2))
        assert report.schedule and calls, "the forced run did not decompose"
        print("scipy.sparse" in sys.modules)
    """)
    src = str(Path(decomposition.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
