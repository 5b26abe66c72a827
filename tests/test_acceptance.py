"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Runs the full corpus through both listing modes with the brute-force oracle
as ground truth, plus the contract checks (decomposition, completeness of
imported edges, partition concentration, tuple coverage, bad-edge fraction,
accounting integrity, determinism).
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from congestlist.cluster_pipeline import (
    classify,
    import_outside_edges,
    knowledge_universe,
    mark_bad_edges,
)
from congestlist.config import SimConfig
from congestlist.decomposition import Cluster, expander_decompose, verify_decomposition
from congestlist.graphs import (
    Graph,
    brute_force_list_kp,
    complete,
    degeneracy_orient,
    gnp,
    norm_edge,
    planted,
)
from congestlist.pipeline import congest_list_k4, congest_list_kp
from congestlist.sparse_listing import (
    build_fanout_table,
    cc_list_kp,
    check_partition_balance,
    random_partition,
)

CFG = SimConfig()


def announce(criterion: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS")


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def cc_corpus() -> list[tuple[int, float, int]]:
    """50 seeded graphs, n in [16,128], densities {0.1, 0.3, 0.6}."""
    combos: list[tuple[int, float, int]] = []
    for n in (16, 24, 32, 48, 64, 96, 128):
        for seed in (0, 1):
            combos.append((n, 0.1, seed))
    for n in (16, 24, 32, 48, 64, 96):
        for seed in (0, 1):
            combos.append((n, 0.3, seed))
    for n in (16, 20, 24, 32, 40, 48):
        for seed in (0, 1):
            combos.append((n, 0.6, seed))
    for n in (16, 24, 32, 48, 64, 96):
        combos.append((n, 0.1, 2))
    for n in (16, 24, 32, 48):
        combos.append((n, 0.3, 2))
    for n in (16, 24):
        combos.append((n, 0.6, 2))
    assert len(combos) == 50
    return combos


def congest_corpus() -> list[tuple[int, float, int]]:
    """30 seeded graphs, n in [32,96]."""
    combos = [(n, q, seed)
              for n in (32, 48, 64, 80, 96)
              for q in (0.1, 0.2, 0.3)
              for seed in (0, 1)]
    assert len(combos) == 30
    return combos


@pytest.fixture(scope="module")
def cc_runs():
    """All (graph spec, p) cc runs with their accountings, run once."""
    runs = []
    for n, q, seed in cc_corpus():
        g = gnp(n, q, seed)
        for p in (3, 4, 5, 6):
            cliques, acc = cc_list_kp(g, p, seed=seed + 100, cfg=CFG)
            oracle = brute_force_list_kp(g, p)
            runs.append({
                "spec": (n, q, seed, p),
                "match": cliques == oracle,
                "violations": list(acc.violations),
                "total": acc.total_rounds(),
                "phase_sum": sum(acc.rounds_by_phase.values()),
            })
    return runs


@pytest.fixture(scope="module")
def congest_runs():
    runs = []
    for n, q, seed in congest_corpus():
        g = gnp(n, q, seed)
        oracle_by_p = {p: brute_force_list_kp(g, p) for p in (4, 5, 6)}
        for p in (4, 5, 6):
            report = congest_list_kp(g, p, seed=seed + 7, cfg=CFG)
            runs.append({
                "spec": (n, q, seed, p, "congest"),
                "match": report.clique_set() == oracle_by_p[p],
                "violations": report.violations,
                "total": report.total_rounds,
                "phase_sum": sum(report.rounds_by_phase.values()),
            })
        k4_report = congest_list_k4(g, seed=seed + 7, cfg=CFG)
        runs.append({
            "spec": (n, q, seed, 4, "congest-k4"),
            "match": k4_report.clique_set() == oracle_by_p[4],
            "violations": k4_report.violations,
            "total": k4_report.total_rounds,
            "phase_sum": sum(k4_report.rounds_by_phase.values()),
        })
    # forced-depth runs exercise decomposition, import, reshuffle and
    # intra-cluster routing budgets end to end; the planted fixtures
    # decompose into several parallel clusters with real boundary traffic
    forced = [(gnp(48, 0.3, 2), 2), (gnp(64, 0.3, 5), 5), (gnp(64, 0.4, 1), 1),
              (planted(64, 14, 3, 0.01, seed=3), 3),
              (planted(64, 14, 3, 0.02, seed=7), 7)]
    for g, seed in forced:
        report = congest_list_kp(g, 4, seed=seed, cfg=CFG, forced_depth=2,
                                 eps0_fraction=Fraction(1, 2))
        runs.append({
            "spec": (g.n, g.m, seed, 4, "congest-forced"),
            "match": report.clique_set() == brute_force_list_kp(g, 4),
            "violations": report.violations,
            "total": report.total_rounds,
            "phase_sum": sum(report.rounds_by_phase.values()),
        })
    return runs


# ---------------------------------------------------------------------------
# 1. oracle equivalence, congested-clique mode
# ---------------------------------------------------------------------------

def test_criterion_1_cc_oracle_equivalence(cc_runs):
    mismatches = [r["spec"] for r in cc_runs if not r["match"]]
    assert len(cc_runs) == 200
    assert not mismatches, mismatches
    announce("1 cc-oracle-equivalence (50 graphs x p in 3..6)")


# ---------------------------------------------------------------------------
# 2. oracle equivalence, CONGEST mode (general and K_4 variant)
# ---------------------------------------------------------------------------

def test_criterion_2_congest_oracle_equivalence(congest_runs):
    general = [r for r in congest_runs if r["spec"][4] == "congest"]
    k4 = [r for r in congest_runs if r["spec"][4] == "congest-k4"]
    assert len(general) == 90 and len(k4) == 30
    bad = [r["spec"] for r in congest_runs if not r["match"]]
    assert not bad, bad
    announce("2 congest-oracle-equivalence (30 graphs x p in 4..6 + K4 variant)")


# ---------------------------------------------------------------------------
# 3. decomposition contract
# ---------------------------------------------------------------------------

def test_criterion_3_decomposition_contract():
    corpus = []
    for delta in (0.5, 0.6, 0.67, 0.75):
        for n, q, seed in [(48, 0.3, 1), (64, 0.25, 2), (96, 0.2, 3),
                           (32, 0.5, 4), (64, 0.35, 5)]:
            corpus.append((gnp(n, q, seed), delta))
    corpus.append((complete(32), 0.6))
    two = set()
    for u in range(12):
        for v in range(u + 1, 12):
            two.add((u, v))
            two.add((u + 12, v + 12))
    two.add((0, 12))
    corpus.append((Graph(24, frozenset(two)), 0.5))
    checked = 0
    for g, delta in corpus:
        part = expander_decompose(g, delta, CFG)
        report = verify_decomposition(g, part, CFG)
        assert report.ok, (g.n, g.m, delta, report.failed())
        checked += 1
    assert checked == len(corpus)
    announce(f"3 decomposition-contract ({checked} decompositions, 100% verified)")


# ---------------------------------------------------------------------------
# 4. completeness certificate: imported edges cover every K_4 case
# ---------------------------------------------------------------------------

def _completeness_fixture(seed: int, case: str):
    """A K_10 cluster plus outside nodes forming K_4s with the cluster.

    case 1: both outside endpoints heavy; case 2: one outside endpoint light.
    Random extra outside noise is layered on top.
    """
    rng = np.random.default_rng(seed)
    k = 10
    edges = {(u, v) for u in range(k) for v in range(u + 1, k)}
    n = k + 6
    v1, v2 = k, k + 1
    heavy_attach = 6  # > heavy threshold of 4
    light_attach = 2  # <= threshold
    attach1 = heavy_attach if case == "case1" else light_attach
    for u in rng.choice(k, size=attach1, replace=False):
        edges.add(norm_edge(int(u), v1))
    for u in rng.choice(k, size=heavy_attach, replace=False):
        edges.add(norm_edge(int(u), v2))
    # guarantee a K_4 {u, w, v1, v2} with the cluster edge (u, w)
    for u in (0, 1):
        edges.add(norm_edge(u, v1))
        edges.add(norm_edge(u, v2))
    edges.add((v1, v2))
    for extra in range(k + 2, n):  # noise nodes
        for u in rng.choice(k, size=2, replace=False):
            edges.add(norm_edge(int(u), extra))
        if rng.random() < 0.5:
            edges.add(norm_edge(extra, v1))
    g, _ = degeneracy_orient(Graph(n, frozenset(edges)))
    cluster = Cluster(0, frozenset(range(k)), 0.5, 1.0)
    return g, cluster


def test_criterion_4_completeness_certificate():
    heavy_threshold, light_threshold = 4.0, 100.0
    fixtures = [("case1", s) for s in range(10)] + [("case2", s) for s in range(10, 20)]
    misses = []
    case_seen = {"case1": 0, "case2": 0}
    for case, seed in fixtures:
        g, cluster = _completeness_fixture(seed, case)
        cls = classify(cluster, g, heavy_threshold, light_threshold)
        if case == "case1":
            assert {10, 11} <= set(cls.heavy)
        else:
            assert 10 in cls.light
        case_seen[case] += 1
        goal = mark_bad_edges(cluster, cls, {
            e for e in g.edges
            if e[0] in cluster.members and e[1] in cluster.members}).goal
        learned = import_outside_edges(cluster, cls, g, CFG, d_value=1.0)
        know = knowledge_universe(cluster, g, learned)
        cluster_knows = set().union(*know.values())
        for inst in brute_force_list_kp(g, 4):
            inside = [x for x in inst if x in cluster.members]
            outside = [x for x in inst if x not in cluster.members]
            if len(outside) != 2 or len(inside) != 2:
                continue
            if norm_edge(*inside) not in goal:
                continue
            needed = norm_edge(*outside)
            if needed not in cluster_knows:
                misses.append((case, seed, inst))
    assert case_seen == {"case1": 10, "case2": 10}
    assert not misses, misses
    announce("4 completeness-certificate (20 crafted fixtures, 0 misses)")


# ---------------------------------------------------------------------------
# 5. partition concentration
# ---------------------------------------------------------------------------

def test_criterion_5_partition_concentration():
    g = gnp(512, 0.25, seed=9)
    events = 0
    violations = 0
    for seed in range(200):
        report = check_partition_balance(g, random_partition(512, 4, seed))
        events += report.events
        violations += len(report.violations)
    fraction = violations / events
    assert fraction <= 0.05, fraction
    announce(f"5 partition-concentration (violation fraction {fraction:.4f} <= 5%)")


# ---------------------------------------------------------------------------
# 6. tuple coverage
# ---------------------------------------------------------------------------

def test_criterion_6_tuple_coverage():
    # on the tables the algorithms route by: every sorted multiset of parts
    # has exactly one canonical holder, and that holder receives every pair
    # of parts the multiset's slots form
    checked = 0
    for p in range(2, 9):
        b = 1
        while b ** p <= 2 ** 16:
            total, span = b ** p, b * b
            expected = np.array(list(itertools.combinations_with_replacement(range(b), p)))
            first, second = np.array(list(itertools.combinations(range(p), 2))).T
            for k in {total, max(1, total - 7), total + 5}:
                table = build_fanout_table(b, p, k)
                # one link per (holder, pair), and owners in order: the
                # per-holder slices and blocks rely on both
                links = table.link_holder * span + table.link_code
                assert (np.diff(links) > 0).all(), (b, p, k)
                assert (np.diff(table.owner) >= 0).all(), (b, p, k)
                owned = table.multisets
                assert np.array_equal(owned[np.lexsort(owned.T[::-1])], expected), (b, p, k)
                # a multiset's columns never decrease, so slot i <= slot j
                wanted = (table.owner[:, None] * span
                          + owned[:, first] * b + owned[:, second]).ravel()
                at = np.minimum(np.searchsorted(links, wanted), len(links) - 1)
                assert np.array_equal(links[at], wanted), (b, p, k)
                checked += 1
            b += 1
    announce(f"6 tuple-coverage ({checked} (num_parts, p, k) combos, 0 gaps)")


# ---------------------------------------------------------------------------
# 7. bad-edge fraction under the published thresholds
# ---------------------------------------------------------------------------

def _cluster_fixture_512(seed: int) -> tuple[Graph, Cluster]:
    """A dense 48-node cluster inside a 512-node graph ringed by light nodes."""
    rng = np.random.default_rng(seed)
    k = 48
    edges = {(u, v) for u in range(k) for v in range(u + 1, k)
             if rng.random() < 0.8}
    for v in range(k, 512):
        for u in rng.choice(k, size=int(rng.integers(1, 5)), replace=False):
            edges.add(norm_edge(int(u), int(v)))
    g, _ = degeneracy_orient(Graph(512, frozenset(edges)))
    return g, Cluster(0, frozenset(range(k)), 0.5, 1.0)


def test_criterion_7_bad_edge_fraction():
    published = SimConfig(heavy_factor=1.0, light_factor=100.0)
    worst = 0.0
    scaled_fractions = []
    for seed in (1, 2, 3):
        g, cluster = _cluster_fixture_512(seed)
        m_edges = {e for e in g.edges
                   if e[0] in cluster.members and e[1] in cluster.members}
        n = g.n
        cls = classify(cluster, g,
                       published.heavy_factor * n ** 0.25,
                       published.light_factor * math.sqrt(n) * math.log2(n))
        goal_set = mark_bad_edges(cluster, cls, m_edges)
        fraction = len(goal_set.bad_edges) / max(1, len(m_edges))
        worst = max(worst, fraction)
        # scaled desk thresholds (both branches populated): reported, not asserted
        cls_scaled = classify(cluster, g, n ** 0.25, math.sqrt(n))
        scaled = mark_bad_edges(cluster, cls_scaled, m_edges)
        scaled_fractions.append(len(scaled.bad_edges) / max(1, len(m_edges)))
    assert worst <= 1.0 / 25.0, worst
    announce(
        f"7 bad-edge-fraction (default factors: {worst:.4f} <= 1/25; "
        f"scaled desk constants measured {max(scaled_fractions):.4f}, reported only)")


# ---------------------------------------------------------------------------
# 8. accounting integrity across every run
# ---------------------------------------------------------------------------

def test_criterion_8_accounting_integrity(cc_runs, congest_runs):
    offenders = []
    for r in cc_runs + congest_runs:
        if r["violations"]:
            offenders.append((r["spec"], "violations", r["violations"]))
        if r["total"] != r["phase_sum"]:
            offenders.append((r["spec"], "unaccounted-rounds",
                              r["total"] - r["phase_sum"]))
    assert not offenders, offenders
    announce(
        f"8 accounting-integrity ({len(cc_runs) + len(congest_runs)} runs, "
        "0 violations, 0 unaccounted rounds)")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism():
    def run_cc(n, q, gseed, p, seed):
        g = gnp(n, q, gseed)
        cliques, acc = cc_list_kp(g, p, seed, cfg=CFG)
        return json.dumps({"cliques": sorted(cliques), "acc": acc.to_json()},
                          sort_keys=True, default=list)

    def run_congest(n, q, gseed, p, seed, **kw):
        g = gnp(n, q, gseed)
        return json.dumps(congest_list_kp(g, p, seed, cfg=CFG, **kw).to_json(),
                          sort_keys=True)

    def run_k4(n, q, gseed, seed):
        g = gnp(n, q, gseed)
        return json.dumps(congest_list_k4(g, seed, cfg=CFG).to_json(),
                          sort_keys=True)

    configs = [
        lambda: run_cc(32, 0.3, 5, 3, 11),
        lambda: run_cc(48, 0.1, 2, 5, 4),
        lambda: run_congest(48, 0.3, 7, 4, 3),
        lambda: run_congest(48, 0.3, 2, 4, 9, forced_depth=2,
                            eps0_fraction=Fraction(1, 2)),
        lambda: run_k4(40, 0.35, 3, 6),
    ]
    for idx, make in enumerate(configs):
        first = make()
        for _ in range(9):
            assert make() == first, f"config {idx} diverged"
    announce("9 determinism (5 configs x 10 repetitions, byte-identical)")
