"""The per-cluster stage: classify outside neighbors as heavy/light, defer
edges between bad nodes, pull every potentially relevant outside edge into
the cluster, reshuffle knowledge to per-tail owners, and run the
sparsity-aware listing core over the cluster's knowledge.

All clusters execute these stages in parallel. Boundary-edge traffic from
different clusters never shares a directed edge (clusters are node-disjoint),
so a stage's round cost is the max per-edge queue across the whole graph;
intra-cluster routing is charged per cluster and maxed by the caller.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig, ceil_log2
from .decomposition import Cluster
from .engine import Accounting, BudgetViolation, ClusterChannel, RoundEngine, cluster_route
from .graphs import CliqueInstance, Edge, Graph, cliques_with_node, norm_edge
from .graphs import enumerate_cliques  # noqa: F401  (the benchmark trace wraps it)
from .sparse_listing import build_fanout_table  # noqa: F401  (the benchmark trace wraps it)
from .sparse_listing import list_by_tuples

HEAVY_IMPORT = "heavy-import"
LIGHT_PROBE = "light-probe"

_PARTITION_TAG = 0x5EED


class PhaseAggregator:
    """Collects boundary-edge messages from clusters running in parallel.

    flush() plays each subphase as one bulk transfer, in insertion order, so
    the charged rounds equal a globally synchronized schedule in which all
    clusters advance through the subphases together.
    """

    def __init__(self, engine: RoundEngine, prefix: str = ""):
        self.engine = engine
        self.prefix = prefix
        self.batches: dict[str, list] = {}

    def add(self, subphase: str, messages) -> None:
        self.batches.setdefault(subphase, []).extend(messages)

    def flush(self) -> dict[str, int]:
        rounds = {}
        for subphase, msgs in self.batches.items():
            rounds[subphase] = self.engine.phase_transfer(self.prefix + subphase, msgs)
        self.batches.clear()
        return rounds


@dataclass(frozen=True)
class NeighborClassification:
    cluster_id: int
    in_cluster_count: dict[int, int]     # g_vC per outside neighbor v
    heavy: frozenset[int]
    light: frozenset[int]
    u_light: dict[int, int]              # per cluster node
    bad: frozenset[int]
    heavy_threshold: float
    light_threshold: float


@dataclass(frozen=True)
class GoalEdgeSet:
    goal: frozenset[Edge]
    bad_edges: frozenset[Edge]


@dataclass
class LearnedEdges:
    by_node: dict[int, dict[Edge, str]] = field(default_factory=dict)

    def add(self, node: int, edge: Edge, tag: str) -> None:
        self.by_node.setdefault(node, {})[edge] = tag

    def count(self, node: int) -> int:
        return len(self.by_node.get(node, ()))

    def edges_of(self, node: int) -> set[Edge]:
        return set(self.by_node.get(node, ()))


@dataclass(frozen=True)
class ResponsibilityMap:
    """Contiguous original-ID ranges of size ceil(n/k), one per new ID."""
    owner: dict[int, int]        # graph node -> responsible cluster node
    chunk: int


def boundary_map(members: frozenset[int], g: Graph) -> dict[int, list[int]]:
    """Outside neighbor -> its (sorted) neighbors inside the cluster."""
    out: dict[int, list[int]] = defaultdict(list)
    for u in sorted(members):
        for v in g.neighbors(u):
            if v not in members:
                out[v].append(u)
    return dict(out)


def classify(cluster: Cluster, g: Graph, heavy_threshold: float,
             light_threshold: float,
             agg: PhaseAggregator | None = None) -> NeighborClassification:
    """Count cluster neighbors of every outside node and flag heavy nodes,
    then count light neighbors of every cluster node and flag bad ones.

    Costs one boundary round for the cluster-ID announcement and one for the
    returning heavy/light flag.
    """
    nbrs = boundary_map(cluster.members, g)
    g_vc = {v: len(us) for v, us in nbrs.items()}
    heavy = frozenset(v for v, c in g_vc.items() if c > heavy_threshold)
    light = frozenset(nbrs) - heavy
    u_light: dict[int, int] = {u: 0 for u in cluster.members}
    for v in light:
        for u in nbrs[v]:
            u_light[u] += 1
    bad = frozenset(u for u, c in u_light.items() if c > light_threshold)
    if agg is not None:
        boundary = [(u, v) for v, us in sorted(nbrs.items()) for u in us]
        agg.add("classify-announce", [(u, v, None) for u, v in boundary])
        agg.add("classify-flag", [(v, u, None) for u, v in boundary])
    return NeighborClassification(
        cluster_id=cluster.id, in_cluster_count=g_vc, heavy=heavy, light=light,
        u_light=u_light, bad=bad,
        heavy_threshold=heavy_threshold, light_threshold=light_threshold,
    )


def mark_bad_edges(cluster: Cluster, cls: NeighborClassification,
                   m_edges: set[Edge]) -> GoalEdgeSet:
    """Cluster edges between two bad nodes stop being goal edges."""
    bad_edges = frozenset(e for e in m_edges if e[0] in cls.bad and e[1] in cls.bad)
    return GoalEdgeSet(goal=frozenset(m_edges) - bad_edges, bad_edges=bad_edges)


def import_outside_edges(cluster: Cluster, cls: NeighborClassification, g: Graph,
                         cfg: SimConfig, d_value: float,
                         agg: PhaseAggregator | None = None,
                         accounting: Accounting | None = None,
                         include_light_probes: bool = True,
                         phase: str = "import") -> LearnedEdges:
    """Bring outside edges into the cluster.

    Heavy nodes split their outgoing edges round-robin across their cluster
    neighbors. Every good (non-bad) cluster node then tells each outside
    neighbor its list of light neighbors and gets back one adjacency bit per
    listed node. Bad nodes still receive heavy chunks but skip the probe
    exchange. Per-node learned volume is capped at
    learn_factor * n^(d + 3/4); exceeding it aborts.
    """
    learned = LearnedEdges()
    nbrs = boundary_map(cluster.members, g)
    n = g.n

    heavy_msgs = []
    for v in sorted(cls.heavy):
        targets = nbrs[v]
        for i, e in enumerate(sorted(g.out_edges(v))):
            u = targets[i % len(targets)]
            learned.add(u, e, HEAVY_IMPORT)
            heavy_msgs.append((v, u, (e[0], e[1], 0)))

    probe_send = []
    probe_reply = []
    if include_light_probes:
        bits_per_message = ceil_log2(max(2, n)) * cfg.message_words
        light_of: dict[int, list[int]] = {u: [] for u in cluster.members}
        for v in sorted(cls.light):
            for u in nbrs[v]:
                light_of[u].append(v)
        for u in sorted(cluster.members):
            if u in cls.bad or not light_of[u]:
                continue
            queried = sorted(light_of[u])
            outside = sorted(v for v in g.neighbors(u) if v not in cluster.members)
            for v in outside:
                for w in queried:
                    probe_send.append((u, v, (w,)))
                bitmap = [g.has_edge(w, v) for w in queried]
                for w, hit in zip(queried, bitmap):
                    if hit and w != v:
                        learned.add(u, norm_edge(w, v), LIGHT_PROBE)
                for _ in range(math.ceil(len(queried) / bits_per_message)):
                    probe_reply.append((v, u, None))
    if agg is not None:
        agg.add("import-heavy", heavy_msgs)
        if include_light_probes:
            agg.add("import-light-send", probe_send)
            agg.add("import-light-reply", probe_reply)

    learn_cap = cfg.learn_factor * float(n) ** (d_value + 0.75)
    for u in sorted(cluster.members):
        got = learned.count(u)
        if got > learn_cap:
            if accounting is not None:
                accounting.record_violation(u, phase, learn_cap, got, "learn-cap")
            raise BudgetViolation(u, phase, learn_cap, got, "learn-cap")
    return learned


def knowledge_universe(cluster: Cluster, g: Graph,
                       learned: LearnedEdges) -> dict[int, set[Edge]]:
    """Everything each cluster node knows: incident current edges (in-cluster
    and boundary) plus what the import stage taught it."""
    know: dict[int, set[Edge]] = {}
    for u in cluster.members:
        know[u] = set(g.incident_edges(u)) | learned.edges_of(u)
    return know


def responsibility_map(cluster: Cluster, new_ids: dict[int, int], n: int) -> ResponsibilityMap:
    k = len(cluster.members)
    chunk = math.ceil(n / k)
    by_new = {i: u for u, i in new_ids.items()}
    owner = {t: by_new[min(t // chunk, k - 1) + 1] for t in range(n)}
    return ResponsibilityMap(owner=owner, chunk=chunk)


def reshuffle(cluster: Cluster, new_ids: dict[int, int],
              knowledge: dict[int, set[Edge]], g: Graph, cfg: SimConfig,
              d_value: float,
              channel: ClusterChannel | None = None,
              accounting: Accounting | None = None,
              phase: str = "reshuffle",
              charge_rounds: bool = True) -> tuple[ResponsibilityMap, dict[int, set[Edge]], int]:
    """Route every known edge to the owner of its tail.

    Returns (responsibility map, owned edges per cluster node, charged
    rounds). The charge follows the intra-cluster routing contract.
    """
    n = g.n
    rmap = responsibility_map(cluster, new_ids, n)
    if channel is None:
        channel = ClusterChannel.for_cluster(cluster.members, n, cluster.delta, cfg)
    owned: dict[int, set[Edge]] = {u: set() for u in cluster.members}
    messages = []
    for u in sorted(cluster.members):
        for e in sorted(knowledge[u]):
            dst = rmap.owner[g.tail(e)]
            owned[dst].add(e)
            if dst != u:
                messages.append((u, dst, e))
    rounds = cluster_route(channel, messages, accounting=accounting,
                           phase=phase, charge_rounds=charge_rounds)

    owner_cap = cfg.owner_cap_factor * float(n) ** d_value * rmap.chunk
    if accounting is not None:
        for u in sorted(cluster.members):
            if len(owned[u]) > owner_cap:
                accounting.record_violation(u, phase, owner_cap, len(owned[u]),
                                            "owner-cap")
    return rmap, owned, rounds


def cluster_seed(seed: int, cluster_id: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, cluster_id, tag))


def cluster_list_kp(cluster: Cluster, new_ids: dict[int, int],
                    owned: dict[int, set[Edge]], p: int, seed: int,
                    cfg: SimConfig, g: Graph,
                    channel: ClusterChannel | None = None,
                    accounting: Accounting | None = None,
                    phase: str = "cluster-list",
                    charge_rounds: bool = True,
                    ) -> tuple[set[CliqueInstance], dict[str, int]]:
    """The sparsity-aware listing core inside one cluster.

    The k cluster nodes are the holders of `list_by_tuples`, holder index
    new ID - 1. All n graph nodes are split into ceil(k^(1/p)) random parts
    (owners choose for the nodes they simulate and broadcast the choices),
    and each owned edge is routed to the nodes whose part tuples contain its
    endpoint parts. The canonical holder of each sorted part multiset then
    lists the cliques of that multiset from what it learned, so each K_p is
    listed exactly once, by one cluster node. Output covers every K_p of the
    cluster's knowledge, in particular every K_p with a goal edge here.

    `owned` must hold each edge at exactly one cluster node, as `reshuffle`
    leaves it (at the owner of the edge's tail). Then a node's column of
    the delivery counts, the diagonal included, is the number of distinct
    edges it learns, which the receive budget is checked against.
    """
    n = g.n
    holders = np.array(sorted(cluster.members, key=new_ids.__getitem__))  # by new ID
    if channel is None:
        channel = ClusterChannel.for_cluster(cluster.members, n, cluster.delta, cfg)
    simulated = Counter(responsibility_map(cluster, new_ids, n).owner.values())
    share = np.array([simulated[u] for u in holders])

    # Owners broadcast their nodes' parts: a member hears all n but its own.
    bc_rounds = channel.route(holders, share * (len(holders) - 1), n - share,
                              accounting, f"{phase}/partition-broadcast", charge_rounds)

    # Edge delivery to tuple holders; what a holder keeps is not routed.
    cliques, counts, num_parts = list_by_tuples(
        n, len(holders), p, cluster_seed(seed, cluster.id, _PARTITION_TAG),
        [(i, e) for i, u in enumerate(holders.tolist()) for e in owned[u]])
    kept = np.diagonal(counts)
    learned = counts.sum(axis=0)
    dl_rounds = channel.route(holders, counts.sum(axis=1) - kept, learned - kept,
                              accounting, f"{phase}/deliver", charge_rounds)

    universe = {e for edges in owned.values() for e in edges}
    budget = (cfg.receive_budget_factor * p * p * max(1, len(universe))
              / (num_parts * num_parts))
    if accounting is not None:
        for u, got in zip(holders.tolist(), learned.tolist()):
            if got > budget:
                accounting.record_violation(u, f"{phase}/deliver", budget, got,
                                            "receive-budget")

    return cliques, {"partition-broadcast": bc_rounds, "deliver": dl_rounds}


def k4_light_listing(cluster: Cluster, cls: NeighborClassification, g: Graph,
                     engine: RoundEngine, phase: str = "k4-light") -> set[CliqueInstance]:
    """K_4 variant: C-light nodes list instances with a light outside edge.

    For this cluster, every C-light node broadcasts each of its cluster
    neighbors to all its own neighbors and collects one adjacency bit per
    query; it then lists every K_4 it sees through itself. Clusters are
    handled sequentially by the caller, so charges under one phase label sum.
    """
    bits_per_message = ceil_log2(max(2, g.n)) * engine.cfg.message_words
    msgs = []
    cliques: set[CliqueInstance] = set()
    for v in sorted(cls.light):
        cluster_nbrs = sorted(w for w in g.neighbors(v) if w in cluster.members)
        if not cluster_nbrs:
            continue
        all_nbrs = sorted(g.neighbors(v))
        for x in all_nbrs:
            for u in cluster_nbrs:
                msgs.append((v, x, (u,)))
            for _ in range(math.ceil(len(cluster_nbrs) / bits_per_message)):
                msgs.append((x, v, None))
        masks = [0] * g.n
        for x in all_nbrs:
            masks[v] |= 1 << x
            masks[x] |= 1 << v
        for u in cluster_nbrs:
            for x in all_nbrs:
                if u != x and g.has_edge(u, x):
                    masks[u] |= 1 << x
                    masks[x] |= 1 << u
        cliques |= cliques_with_node(masks, g.n, 4, v)
    engine.phase_transfer(phase, msgs)
    return cliques
